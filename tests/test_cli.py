import importlib.util
import re
from pathlib import Path

import numpy as np
import pytest

from lambdadet import sweep
from lambdadet.cli import _progress_printer, main, run_sweep
from lambdadet.config import parse_config
from lambdadet.errors import ConfigError, LambdaDetError, RenderError
from lambdadet.render import render_heatmap
from lambdadet.sweep import read_csv, write_csv

_spec = importlib.util.spec_from_file_location(
    "write_golden", Path(__file__).resolve().parent.parent / "tools" / "write_golden.py"
)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

# the config of the golden files, with small grids so CLI tests stay quick
FAST_CFG = golden.CONFIG.read_text()


@pytest.fixture(scope="module")
def fast_cfg():
    return golden.CONFIG


@pytest.fixture(scope="module")
def fast_outputs(tmp_path_factory):
    """Every CLI task run once on FAST_CFG through ``main``, on one worker,
    as tools/write_golden.py runs them."""
    out = tmp_path_factory.mktemp("fast")
    golden.write_outputs(out)
    return out


def _mismatch(name, expected, actual):
    """None if the two texts are equal, else where they first differ and,
    for a CSV, the largest relative change in each column that differs, so
    rounding noise in one column does not hide a move in another."""
    if actual == expected:
        return None
    old, new = expected.splitlines(), actual.splitlines()
    if len(old) != len(new):
        return f"{name}: {len(new)} lines, golden {len(old)}"
    header = old[0].split(",")
    first, worst = None, {}  # column -> (largest relative change, its cell)
    for n, (a, b) in enumerate(zip(old, new), 1):
        if a == b:
            continue
        if not name.endswith(".csv") or a.count(",") != b.count(","):
            first = first or f"line {n}"
            continue
        for column, x, y in zip(header, a.split(","), b.split(",")):
            if x == y:
                continue
            cell = f"line {n} ({x} -> {y})"
            first = first or f"line {n}, column {column} ({x} -> {y})"
            try:
                change = abs(float(y) - float(x)) / (max(abs(float(x)), abs(float(y))) or 1.0)
            except ValueError:
                continue
            if change > worst.get(column, (-1.0, None))[0]:
                worst[column] = (change, cell)
    largest = "".join(f"; column {column}: largest relative change {change:.3g} at {cell}"
                      for column, (change, cell) in worst.items())
    return f"{name}: first differs at {first}{largest}"


def test_mismatch_names_the_largest_change_of_each_column():
    """Rounding noise in one column (a relative change of 1 on a value near
    zero) is reported next to, not in place of, a small move in another."""
    golden_text = "t_s,p_e,trace_error\n0,0.5,1e-16\n1,0.25,0\n2,0.125,3e-16\n"
    moved = "t_s,p_e,trace_error\n0,0.5,2e-16\n1,0.2500001,0\n2,0.125,0\n"
    assert _mismatch("trace.csv", golden_text, golden_text) is None
    assert _mismatch("trace.csv", golden_text, moved) == (
        "trace.csv: first differs at line 2, column trace_error (1e-16 -> 2e-16)"
        "; column trace_error: largest relative change 1 at line 4 (3e-16 -> 0)"
        "; column p_e: largest relative change 4e-07 at line 3 (0.25 -> 0.2500001)"
    )
    assert _mismatch("trace.csv", golden_text, "t_s\n") == "trace.csv: 1 lines, golden 4"


def test_outputs_match_golden_files(fast_outputs):
    """The CLI outputs are those of tests/golden, byte for byte."""
    names = golden.outputs(golden.GOLDEN)
    assert golden.outputs(fast_outputs) == names
    mismatches = [
        _mismatch(name, (golden.GOLDEN / name).read_text(), (fast_outputs / name).read_text())
        for name in names
    ]
    assert not any(mismatches), "\n".join(m for m in mismatches if m)


def test_dressed_csv(fast_outputs):
    header, cols = read_csv(fast_outputs / "dressed.csv")
    assert header[:2] == ["rabi_rad_s", "p_d_dbm"]
    assert len(cols["rabi_rad_s"]) == 50
    assert np.all(np.diff(cols["rabi_rad_s"]) > 0)
    # sum rules hold row by row
    k31 = np.array(cols["kappa31_rad_s"])
    k32 = np.array(cols["kappa32_rad_s"])
    total = k31 + k32
    assert np.allclose(total, total[0], rtol=1e-9)


def test_reflect_map_exact_columns(fast_outputs):
    header, cols = read_csv(fast_outputs / "reflect_map.csv")
    assert header == ["P_d_dBm", "omega_s_GHz", "abs_r", "abs_r_dB", "arg_r"]
    assert len(cols["abs_r"]) == 25
    assert max(cols["abs_r"]) <= 1.0 + 1e-6


def test_detect_with_trace(fast_outputs):
    header, cols = read_csv(fast_outputs / "detect.csv")
    assert header[:3] == ["p_e", "p_dark", "eta"]
    trace_header, trace = read_csv(fast_outputs / "detect_trace.csv")
    assert trace_header == ["t_s", "p_e", "photon_number", "re_a", "im_a", "trace_error"]
    assert max(trace["trace_error"]) < 1e-9


def test_byte_identical_across_worker_counts(fast_outputs, tmp_path):
    """The maps fan out blocks of rows, the scans their two pulse lengths;
    the one-worker side is the golden run's."""
    cfg = parse_config(FAST_CFG)
    for task, workers, csv in (("detect-map", 3, "detect_map.csv"),
                               ("reflect-map", 2, "reflect_map.csv"),
                               ("reset-map", 2, "reset_map.csv"),
                               ("scan-ts", 2, "scan_ts.csv"),
                               ("scan-ns", 2, "scan_ns.csv")):
        assert run_sweep(cfg, task, out_dir=tmp_path, workers=workers) == 0
        assert (tmp_path / csv).read_bytes() == (fast_outputs / csv).read_bytes()


PROGRESS_CFG = """
reflect_pd_grid_dBm = -77.5,-74.5,2
reflect_freq_grid_GHz = 10.262,10.272,3
detect_pd_grid_dBm = -76,-75,2
detect_freq_grid_GHz = 10.264,10.272,3
reset_pd_grid_dBm = -72.6,-71.6,2
reset_freq_grid_GHz = 10.159,10.165,3
"""


@pytest.mark.parametrize("task", ["reflect-map", "detect-map", "reset-map"])
def test_progress_line_counts_grid_points(task, tmp_path, capsys):
    """The TTY progress line of a 2x3 map counts its 6 grid points, one
    block of rows at a time; on one worker both rows are one block. The
    per-row dark and no-reset runs are not points."""
    sweep.set_progress_hook(_progress_printer)
    try:
        assert run_sweep(parse_config(PROGRESS_CFG), task, out_dir=tmp_path) == 0
    finally:
        sweep.set_progress_hook(None)
    err = capsys.readouterr().err
    assert re.findall(r"\r\d+/\d+ grid points", err) == ["\r6/6 grid points"]
    assert "\r6/6 grid points\n" in err


def test_detect_map_matches_module_call(fast_cfg, tmp_path):
    """CSV argmax row agrees with a direct efficiency_map invocation."""
    from lambdadet.cli import _calibrated_params
    from lambdadet.protocols import efficiency_map

    cfg = parse_config(FAST_CFG)
    assert run_sweep(cfg, "detect-map", out_dir=tmp_path) == 0
    _, cols = read_csv(tmp_path / "detect_map.csv")
    k = int(np.argmax(cols["eta"]))

    params = _calibrated_params(cfg)
    emap = efficiency_map(
        params,
        cfg.detection_settings(params),
        cfg.get("detect_pd_grid").values(),
        cfg.get("detect_freq_grid").values(),
        readout=cfg.readout_model(),
        opts=cfg.integrator_options(),
        n_max=cfg.get("n_max"),
    )
    i, j = np.unravel_index(int(np.nanargmax(emap.eta)), emap.eta.shape)
    assert cols["p_d_dbm"][k] == pytest.approx(emap.p_d_dbm[i])
    assert cols["omega_s_GHz"][k] * 1e9 * 2 * np.pi == pytest.approx(emap.omega_s[j], rel=1e-9)
    assert cols["eta"][k] == pytest.approx(float(emap.eta[i, j]), rel=1e-8)


def test_rerun_byte_identical(fast_cfg, tmp_path):
    cfg = parse_config(FAST_CFG)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    run_sweep(cfg, "dressed", out_dir=out1)
    run_sweep(cfg, "dressed", out_dir=out2)
    assert (out1 / "dressed.csv").read_bytes() == (out2 / "dressed.csv").read_bytes()


def test_scan_ts_argmax_matches_module(fast_cfg, tmp_path):
    cfg = parse_config(FAST_CFG)
    assert run_sweep(cfg, "scan-ts", out_dir=tmp_path) == 0
    header, cols = read_csv(tmp_path / "scan_ts.csv")
    assert cols["t_s"] == [55e-9, 85e-9]
    assert all(e > 0.3 for e in cols["eta"])


def test_reset_cmd(fast_outputs):
    header, cols = read_csv(fast_outputs / "reset.csv")
    assert cols["p_e_after_reset"][0] < 0.05
    assert cols["p_e_no_reset"][0] > 0.4


def test_render_heatmap(tmp_path):
    rows = [[x, y, x + 2 * y] for x in (0.0, 1.0) for y in (0.0, 1.0)]
    csv = write_csv(tmp_path / "grid.csv", ["x", "y", "z"], rows)
    svg = render_heatmap(csv, "x", "y", "z", tmp_path / "grid.svg")
    text = svg.read_text()
    assert text.count("<rect") >= 4 + 1  # 4 cells plus background
    assert "<circle" in text and "<path" in text  # argmin and argmax markers
    assert "x</text>" in text


def test_render_marks_extrema_cells(tmp_path):
    """The argmax cross sits in the grid cell holding the maximum value."""
    import re

    xs = [0.0, 1.0, 2.0]
    ys = [0.0, 1.0]
    rows = [[x, y, 5.0 if (x, y) == (1.0, 1.0) else x + y] for x in xs for y in ys]
    csv = write_csv(tmp_path / "grid.csv", ["x", "y", "z"], rows)
    svg = render_heatmap(csv, "x", "y", "z", tmp_path / "grid.svg")
    text = svg.read_text()
    path = re.search(r'<path d="M ([\d.]+) ([\d.]+)', text)
    cx_left = float(path.group(1))
    # the path starts at center - r; recover the center from the marker radius
    radius = float(re.search(r'<circle[^/]*r="([\d.]+)"', text).group(1))
    center_x = cx_left + radius
    # argmax at x = 1, the middle column of three
    margin_l, plot_w = 80, 840 - 80 - 110
    cell_w = plot_w / 3
    assert margin_l + cell_w < center_x < margin_l + 2 * cell_w


def test_render_missing_column(tmp_path):
    csv = write_csv(tmp_path / "grid.csv", ["x", "y", "z"], [[0, 0, 1], [1, 0, 2]])
    with pytest.raises(RenderError):
        render_heatmap(csv, "x", "y", "w", tmp_path / "bad.svg")


def test_render_degenerate_grid(tmp_path):
    csv = write_csv(tmp_path / "grid.csv", ["x", "y", "z"], [[0, 0, 1], [1, 0, 2]])
    with pytest.raises(RenderError):
        render_heatmap(csv, "x", "y", "z", tmp_path / "bad.svg")


def test_render_draws_failed_points(tmp_path):
    """A map writes a failed point as NaN: render draws that cell grey and
    takes the colour range and the marks over the other cells."""
    rows = [[0.0, 0.0, 1.0], [0.0, 1.0, 3.0], [1.0, 0.0, float("nan")], [1.0, 1.0, 2.0]]
    csv = write_csv(tmp_path / "grid.csv", ["a", "b", "c"], rows)
    out = tmp_path / "out.svg"
    assert main(["--out", str(tmp_path), "render", str(csv), "a", "b", "c",
                 "--svg-out", str(out)]) == 0
    text = out.read_text()
    assert text.count('fill="#bdbdbd"') == 1
    assert ">3</text>" in text and ">1</text>" in text  # colour bar ends
    assert "nan" not in text


def test_render_rejects_missing_and_valueless_grids(tmp_path):
    cells = [[x, y] for x in (0.0, 1.0) for y in (0.0, 1.0)]
    missing = write_csv(tmp_path / "missing.csv", ["x", "y", "z"], [c + [1.0] for c in cells[:3]])
    with pytest.raises(RenderError, match="1 of 4 .* cells are missing"):
        render_heatmap(missing, "x", "y", "z", tmp_path / "bad.svg")
    empty = write_csv(tmp_path / "empty.csv", ["x", "y", "z"], [c + [float("nan")] for c in cells])
    with pytest.raises(RenderError, match="no cell of the grid has a finite 'z' value"):
        render_heatmap(empty, "x", "y", "z", tmp_path / "bad.svg")
    assert not (tmp_path / "bad.svg").exists()


def test_render_cli(tmp_path):
    rows = [[x, y, x * y] for x in (0.0, 1.0, 2.0) for y in (0.0, 1.0)]
    csv = write_csv(tmp_path / "grid.csv", ["a", "b", "c"], rows)
    code = main(
        ["--out", str(tmp_path), "render", str(csv), "a", "b", "c",
         "--svg-out", str(tmp_path / "out.svg")]
    )
    assert code == 0
    assert (tmp_path / "out.svg").exists()


def test_render_skips_the_calibration_fit(tmp_path, monkeypatch):
    """render reads only a CSV, so it never fits the dBm calibration."""
    import lambdadet.cli

    def no_fit(*args, **kwargs):
        raise AssertionError("render fitted the dBm calibration")

    monkeypatch.setattr(lambdadet.cli, "fit_drive_calibration", no_fit)
    rows = [[x, y, x + y] for x in (0.0, 1.0) for y in (0.0, 1.0)]
    csv = write_csv(tmp_path / "grid.csv", ["a", "b", "c"], rows)
    out = tmp_path / "out.svg"
    assert main(["--out", str(tmp_path), "render", str(csv), "a", "b", "c",
                 "--svg-out", str(out)]) == 0
    assert out.exists()


def test_render_rerun_byte_identical(tmp_path):
    rows = [[x, y, x * y] for x in (0.0, 1.0) for y in (0.0, 1.0)]
    csv = write_csv(tmp_path / "grid.csv", ["a", "b", "c"], rows)
    s1 = render_heatmap(csv, "a", "b", "c", tmp_path / "one.svg").read_bytes()
    s2 = render_heatmap(csv, "a", "b", "c", tmp_path / "two.svg").read_bytes()
    assert s1 == s2


def _exits_with_error_line(argv, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    return err


@pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
@pytest.mark.parametrize("via", ["--config", "env"])
def test_unreadable_config_is_an_error_line(kind, via, tmp_path, capsys, monkeypatch):
    path = tmp_path / "device.cfg"
    if kind == "directory":
        path.mkdir()
    elif kind == "not-utf8":
        path.write_bytes(b"n_max = 3\n# \xff\xfe\n")
    argv = ["--out", str(tmp_path), "detect"]
    if via == "env":
        monkeypatch.setenv("LAMBDADET_CONFIG", str(path))
    else:
        argv = ["--config", str(path)] + argv
    assert str(path) in _exits_with_error_line(argv, capsys)


@pytest.mark.parametrize(
    "kind, text, message",
    [
        ("missing", None, "No such file"),
        ("empty", "", "empty CSV"),
        ("short row", "x,y,z\n0,0,1\n0,1\n1,0,2\n1,1,3\n", "line 3 has 2 cells"),
        ("non-numeric", "x,y,z\n0,0,1\n0,1,abc\n1,0,2\n1,1,3\n", "'z' holds a non-numeric"),
    ],
)
def test_unreadable_render_csv_is_an_error_line(kind, text, message, tmp_path, capsys):
    csv = tmp_path / "grid.csv"
    if text is not None:
        csv.write_text(text)
    argv = ["--out", str(tmp_path), "render", str(csv), "x", "y", "z"]
    assert message in _exits_with_error_line(argv, capsys)
    assert not (tmp_path / "grid.svg").exists()


def test_out_naming_a_file_is_an_error_line(fast_cfg, tmp_path, capsys):
    """--out names an existing regular file, so no CSV can go under it."""
    out = tmp_path / "taken"
    out.write_text("kept\n")
    argv = ["--config", str(fast_cfg), "--out", str(out), "dressed"]
    assert str(out / "dressed.csv") in _exits_with_error_line(argv, capsys)
    assert out.read_text() == "kept\n"


def test_svg_out_naming_a_directory_is_an_error_line(tmp_path, capsys):
    rows = [[x, y, x + y] for x in (0.0, 1.0) for y in (0.0, 1.0)]
    csv = write_csv(tmp_path / "grid.csv", ["a", "b", "c"], rows)
    target = tmp_path / "svgs"
    target.mkdir()
    with pytest.raises(RenderError, match="Is a directory"):
        render_heatmap(csv, "a", "b", "c", target)
    argv = ["render", str(csv), "a", "b", "c", "--svg-out", str(target)]
    assert f"cannot write {target}" in _exits_with_error_line(argv, capsys)
    assert list(target.iterdir()) == []


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_is_an_error_line(workers, tmp_path, capsys):
    """--workers is held to the config key's bound, workers >= 1."""
    argv = ["--out", str(tmp_path), "--workers", workers, "dressed"]
    err = _exits_with_error_line(argv, capsys)
    assert err == f"error: --workers {workers} must be >= 1\n"
    assert not (tmp_path / "dressed.csv").exists()


@pytest.mark.parametrize("workers", [0, -3])
def test_run_sweep_rejects_workers_below_one(workers, tmp_path):
    """The library entry point holds workers to the same bound as --workers:
    0 does not fall back to the config's value, and no task runs."""
    cfg = parse_config(FAST_CFG)
    with pytest.raises(LambdaDetError, match=f"--workers {workers} must be >= 1"):
        run_sweep(cfg, "reflect-map", out_dir=tmp_path, workers=workers)
    assert not (tmp_path / "reflect_map.csv").exists()


def test_bad_config_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("kappa_ext_ratio = 7\n")
    assert main(["--config", str(bad), "detect"]) == 1


def test_config_key_set_twice_exits_with_an_error_line(tmp_path, capsys):
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("omega_ge_GHz = 5.5\nomega_ge = 1e10\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path), "detect"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "line 2: omega_ge_GHz is already set on line 1" in err


@pytest.mark.parametrize("task", ["detect-map", "reset-map"])
def test_map_with_every_point_failed_exits_cleanly(task, tmp_path, capsys):
    """A 40 ns step breaks every grid point; the map ends in an error line."""
    bad = tmp_path / "coarse.cfg"
    bad.write_text(
        "max_step_ns = 40\nsample_dt_ns = 40\n"
        "detect_pd_grid_dBm = -76,-75,2\ndetect_freq_grid_GHz = 10.264,10.272,2\n"
        "reset_pd_grid_dBm = -72.6,-71.6,2\nreset_freq_grid_GHz = 10.159,10.165,2\n"
    )
    assert main(["--config", str(bad), "--out", str(tmp_path), task]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: no point of the 2x2 grid has a value")
    assert "Traceback" not in err


def test_env_var_config(fast_cfg, tmp_path, monkeypatch):
    monkeypatch.setenv("LAMBDADET_CONFIG", str(fast_cfg))
    assert main(["--out", str(tmp_path), "dark"]) == 0
    header, cols = read_csv(tmp_path / "dark.csv")
    assert header == ["p_d_dbm", "p_dark"]
    assert len(cols["p_dark"]) == 2
    assert all(0.005 < v < 0.05 for v in cols["p_dark"])


def test_reset_period_follows_the_config_stages(tmp_path):
    """reset.csv books the configured t_s and readout budget, as cycle does."""
    cfg = tmp_path / "stages.cfg"
    cfg.write_text(FAST_CFG + "t_s_ns = 144\nreadout_budget_ns = 200\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path), "reset"]) == 0
    _, cols = read_csv(tmp_path / "reset.csv")
    detect_stage = 1.5 * 144e-9 + 50e-9 + 2 * 15e-9
    assert cols["detect_stage"][0] == pytest.approx(detect_stage, rel=1e-8)
    assert cols["readout_stage"][0] == pytest.approx(200e-9, rel=1e-8)
    assert cols["period"][0] == pytest.approx(410e-9 + detect_stage + 200e-9, rel=1e-8)


@pytest.mark.parametrize("task", ["scan-ts", "scan-ns"])
def test_strict_scans_fail_on_fock_flags(task, tmp_path):
    """At n_max = 1 and nbar_s = 1 the cutoff check flags, so --strict exits 2."""
    cfg = tmp_path / "low_cutoff.cfg"
    cfg.write_text(
        "n_max = 1\nnbar_s = 1.0\nfock_convergence = true\n"
        "ts_list_ns = 85\nns_ts_list_ns = 85\nnbar_list = 1.0\n"
    )
    assert main(["--config", str(cfg), "--out", str(tmp_path), "--strict", task]) == 2
    csv = (tmp_path / f"{task.replace('-', '_')}.csv").read_text()
    assert "fock-unconverged:p_e:" in csv


@pytest.mark.parametrize("task", ["detect-map", "reset-map"])
def test_strict_maps_fail_on_fock_flags(task, tmp_path, capsys):
    """The maps re-read their grid points at n_max + 1: at n_max = 1 and
    nbar_s = 1 every point flags, keeps its value, and --strict exits 2 with
    one stderr line giving the number of flags and the first."""
    text = (
        "n_max = 1\nnbar_s = 1.0\n"
        "detect_pd_grid_dBm = -76,-75,2\ndetect_freq_grid_GHz = 10.264,10.268,2\n"
        "reset_pd_grid_dBm = -72.6,-71.6,2\nreset_freq_grid_GHz = 10.159,10.162,2\n"
    )
    csv = f"{task.replace('-', '_')}.csv"
    for fock, code in (("true", 2), ("false", 0)):
        cfg = tmp_path / f"fock_{fock}.cfg"
        cfg.write_text(text + f"fock_convergence = {fock}\n")
        out = tmp_path / fock
        assert main(["--config", str(cfg), "--out", str(out), "--strict", task]) == code
        err = capsys.readouterr().err
        if code:
            assert err.startswith("strict: 4 flag(s), the first: (0, 0) fock-unconverged:p_e:")
            assert err.count("\n") == 1
        else:
            assert err == ""
        _, cols = read_csv(out / csv)
        assert len(cols["p_e"]) == 4 and np.all(np.isfinite(cols["p_e"]))
    assert (tmp_path / "true" / csv).read_bytes() == (tmp_path / "false" / csv).read_bytes()


def _count_pdiff_calls(monkeypatch, p_diff=None):
    """Wraps (or, given ``p_diff``, replaces) the calibration's P_diff at one
    signal power; returns the powers it was called at."""
    from types import SimpleNamespace

    from lambdadet import response

    calls, real = [], response._dip_separation

    def counted(params, scan, p_s, **kw):
        calls.append(p_s)
        if p_diff is None:
            return real(params, scan, p_s, **kw)
        return SimpleNamespace(p_diff_db=p_diff(p_s))

    monkeypatch.setattr(response, "_dip_separation", counted)
    return calls


def test_calibrate_default_config(tmp_path, monkeypatch):
    """The default calibration reaches P_diff = 6 dB within tol in at most
    5 P_diff evaluations, so --strict exits 0."""
    monkeypatch.delenv("LAMBDADET_CONFIG", raising=False)
    calls = _count_pdiff_calls(monkeypatch)
    assert main(["--out", str(tmp_path), "--strict", "calibrate"]) == 0
    assert len(calls) <= 5
    header, cols = read_csv(tmp_path / "calibrate.csv")
    assert header == ["p_s_dbm", "p_diff_db", "residual_db", "offset_db"]
    assert len(cols["p_s_dbm"]) == 1
    assert abs(cols["residual_db"][0]) < 0.05
    assert cols["p_diff_db"][0] == pytest.approx(6.0 + cols["residual_db"][0], abs=1e-8)
    assert cols["p_s_dbm"][0] == pytest.approx(calls[-1], abs=1e-5)


def test_strict_calibrate_fails_when_pdiff_never_converges(tmp_path, monkeypatch, capsys):
    """P_diff jumps across 6 dB without meeting tol: the CSV still holds the
    closest evaluated power, and only --strict exits 2, naming the flag on
    stderr."""
    monkeypatch.delenv("LAMBDADET_CONFIG", raising=False)
    _count_pdiff_calls(monkeypatch, lambda p_s: 5.0 if p_s < -146.3 else 6.5)
    assert main(["--out", str(tmp_path), "calibrate"]) == 0
    assert capsys.readouterr().err == ""
    assert main(["--out", str(tmp_path), "--strict", "calibrate"]) == 2
    assert capsys.readouterr().err == "strict: 1 flag(s), the first: p_diff-unconverged:5.00e-01\n"
    _, cols = read_csv(tmp_path / "calibrate.csv")
    assert (cols["p_s_dbm"][0], cols["residual_db"][0]) == (-141.0, 0.5)


def test_strict_line_counts_every_flag_of_an_outcome(tmp_path, capsys):
    """At n_max = 1 and nbar_s = 1 the cycle's one outcome holds several
    ';'-ended Fock flags: --strict counts each and names the first as the
    CSV's flags column holds it, without a point."""
    cfg = tmp_path / "low_cutoff.cfg"
    cfg.write_text("n_max = 1\nnbar_s = 1.0\nfock_convergence = true\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path), "--strict", "cycle"]) == 2
    flags = (tmp_path / "cycle.csv").read_text().splitlines()[1].split(",")[-1]
    assert flags.count(";") > 1
    first = flags.split(";")[0]
    assert capsys.readouterr().err == f"strict: {flags.count(';')} flag(s), the first: {first}\n"


def test_scan_ts_without_signal_photons_prints_no_maximum(tmp_path, capsys):
    """At nbar_s = 0 eta is NaN at every pulse length: scan-ts writes its
    rows and prints no maximum."""
    cfg = tmp_path / "dark.cfg"
    cfg.write_text("n_max = 1\nnbar_s = 0\nts_list_ns = 55,85\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path), "scan-ts"]) == 0
    assert "max eta" not in capsys.readouterr().out
    _, cols = read_csv(tmp_path / "scan_ts.csv")
    assert len(cols["eta"]) == 2 and np.all(np.isnan(cols["eta"]))


def test_detect_fails_cleanly_when_one_run_fails(tmp_path, capsys):
    """A signal 3 GHz off the resonator breaks RK4 at a 0.25 ns step while
    its dark run, in the same batch, does not: detect ends in an error line."""
    bad = tmp_path / "off.cfg"
    bad.write_text("max_step_ns = 0.25\nsignal_freq_GHz = 13.3\n")
    assert main(["--config", str(bad), "--out", str(tmp_path), "detect"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_cycle_without_signal_photons(tmp_path, capsys):
    """With nbar_s = 0 the cycle's signal run is its dark run: eta after
    reset is NaN, as detect's eta is, and the task ends without an error."""
    cfg = tmp_path / "dark.cfg"
    cfg.write_text("nbar_s = 0\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path), "cycle"]) == 0
    assert "error:" not in capsys.readouterr().err
    _, cols = read_csv(tmp_path / "cycle.csv")
    assert np.isnan(cols["eta_after_reset"][0]) and np.isnan(cols["eta_fresh"][0])
    assert 0.0 < cols["p_e_after_reset"][0] < 0.05


@pytest.mark.parametrize(
    "line, key",
    [
        ("integrator_method = rk4", "integrator_method"),
        ("rtol = 1e-8", "rtol"),
        ("atol = 1e-10", "atol"),
        ("max_step_ns = 0", "max_step"),
        ("max_step_ns = nan", "max_step"),
        ("sample_dt_ns = inf", "sample_dt"),
        ("kappa_MHz = 0", "kappa"),
        ("kappa_MHz = inf", "kappa"),
        ("t_s_ns = 0", "t_s"),
        ("t_s_ns = nan", "t_s"),
        ("t_dr_ns = 0", "t_dr"),
        ("detect_pd_grid_dBm = -78,nan,3", "detect_pd_grid"),
        ("ts_list_ns = 85,-inf", "ts_list"),
        ("ts_list_ns =", "ts_list"),
        ("nbar_list =", "nbar_list"),
        ("init_excited_pop = 1", "init_excited_pop"),
        ("ts_list_ns = 0, 85", "ts_list"),
        ("nbar_list = -1", "nbar_list"),
        ("ns_ts_list_ns = 0", "ns_ts_list"),
    ],
)
def test_rejected_values_are_config_errors(line, key, tmp_path, capsys):
    with pytest.raises(ConfigError, match=key):
        parse_config(line + "\n")
    bad = tmp_path / "bad.cfg"
    bad.write_text(line + "\n")
    task = {"t_dr": "reset", "ts_list": "scan-ts", "nbar_list": "scan-ns",
            "ns_ts_list": "scan-ns"}.get(key, "detect")
    assert main(["--config", str(bad), "--out", str(tmp_path), task]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert "Traceback" not in err


@pytest.mark.parametrize("raw, task", [
    ("init_excited_pop = 1", "reflect-map"),  # a zero-division in the collapse rates
    ("ts_list_ns = 0, 85", "scan-ts"),  # values `detection_schedule` rejects
    ("nbar_list = -1", "scan-ns"),
    ("ns_ts_list_ns = 0", "scan-ns"),
    ("kappa_MHz = 0", "detect"),  # values `SystemParams` rejects
    ("chi_MHz = 0", "detect"),
    ("max_step_ns = 0", "detect"),  # values `IntegratorOptions` rejects
    ("sample_dt_ns = 0", "detect"),
])
def test_out_of_range_values_name_their_line(raw, task, tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(f"# comment\n{raw}\n")
    assert main(["--config", str(bad), "--out", str(tmp_path), task]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: line 2: {raw.partition(' =')[0]} = ")
    assert "Traceback" not in err
