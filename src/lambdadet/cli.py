"""Command-line front end: sweeps, single runs, calibration, rendering.

All physics inputs come from the shared key-value config (its key table,
``config._KEYS``, holds the paper's device and operating point); the CLI
only selects the task and the output location.
Outputs are deterministic CSVs (9 significant digits), so repeated runs and
different worker counts produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import fields as dc_fields
from functools import partial
from pathlib import Path

from . import config as cfgmod
from . import sweep
from .dressed import (
    dressed_states,
    fit_drive_calibration,
    raman_rates,
    transition_frequency,
)
from .errors import LambdaDetError
from .protocols import (
    CycleOutcome,
    DetectionOutcome,
    ResetOutcome,
    dark_counts,
    detection_run,
    detection_trace,
    efficiency_map,
    efficiency_scan,
    full_cycle,
    reset_map,
    reset_run,
)
from .render import render_heatmap
from .response import (
    PDIFF_TARGET_DB,
    calibrate_signal_power,
    calibration_params,
    dip_map,
    find_matching_point,
)

TWO_PI = 2.0 * math.pi
ENV_CONFIG = "LAMBDADET_CONFIG"


def _load_config(path: str | None) -> cfgmod.RunConfig:
    if path is None:
        path = os.environ.get(ENV_CONFIG)
    if path is None:
        return cfgmod.parse_config("")
    return cfgmod.load_config(path)


def _calibrated_params(cfg: cfgmod.RunConfig):
    params = cfg.params
    if params.drive_power_to_rabi is None:
        constant = fit_drive_calibration(params, cfg.omega_d, cfg.get("calibration_anchor"))
        params = params.with_calibration(constant)
    return params


def _write_csv(path, header, rows):
    """Write one CSV of a task and report it."""
    try:
        path = sweep.write_csv(path, header, rows)
    except OSError as exc:  # e.g. --out names a regular file
        raise LambdaDetError(f"cannot write {path}: {exc.strerror}: {exc.filename}") from None
    print(f"wrote {path} ({len(rows)} rows)")


def _outcome_flags(outcomes):
    """The (point, message) flags of outcomes, one per ';'-ended flag of
    each; an outcome off a grid has the empty point."""
    return [((), flag) for o in outcomes for flag in o.flags.split(";")[:-1]]


def _map_flags(flags):
    """The (point, message) flags of a map's (i, j, message) flags."""
    return [((i, j), message) for i, j, message in flags]


def _outcome_table(cls, outcomes):
    """Header and rows of outcome dataclasses of type ``cls``, and their
    flags."""
    names = [f.name for f in dc_fields(cls)]
    rows = [[getattr(o, name) for name in names] for o in outcomes]
    return names, rows, _outcome_flags(outcomes)


def _grid_rows(powers, freqs, cells):
    """Rows of a (power, frequency) map in power-major order: the power, the
    frequency in GHz, then ``cells(i, j)``."""
    return [
        [p, f / (TWO_PI * 1e9), *cells(i, j)]
        for i, p in enumerate(powers)
        for j, f in enumerate(freqs)
    ]


def _reflection_cells(r):
    """|r|, |r| in dB and arg r of one reflection coefficient."""
    return abs(r), 20.0 * math.log10(max(abs(r), 1e-300)), math.atan2(r.imag, r.real)


def cmd_dressed(cfg, params, args, out_dir):
    omega_d = cfg.omega_d
    grid = cfg.get("dressed_pd_grid").values()
    rows = []
    for p_dbm in grid:
        rabi = params.rabi_of_dbm(p_dbm)
        ladder = dressed_states(params, omega_d, rabi)
        rr = raman_rates(ladder, params)
        rows.append(
            [
                rabi,
                p_dbm,
                *[ladder.energy(i) for i in (1, 2, 3, 4)],
                rr.k31,
                rr.k32,
                rr.k41,
                rr.k42,
                transition_frequency(ladder, 1, 4),
                transition_frequency(ladder, 2, 3),
            ]
        )
    header = [
        "rabi_rad_s",
        "p_d_dbm",
        "e1_rad_s",
        "e2_rad_s",
        "e3_rad_s",
        "e4_rad_s",
        "kappa31_rad_s",
        "kappa32_rad_s",
        "kappa41_rad_s",
        "kappa42_rad_s",
        "omega14_rad_s",
        "omega23_rad_s",
    ]
    _write_csv(out_dir / "dressed.csv", header, rows)
    return []


def cmd_reflect_map(cfg, params, args, out_dir):
    omega_d = cfg.omega_d
    pd_grid = cfg.get("reflect_pd_grid").values()
    freq_grid = cfg.get("reflect_freq_grid").values()
    probe = cfg.get("probe_flux")
    probe_amp = math.sqrt(probe) if probe > 0 else None
    rmap = dip_map(
        params,
        omega_d,
        pd_grid,
        freq_grid,
        probe_amp,
        n_max=cfg.get("n_max"),
        workers=args.workers,
    )
    rows = _grid_rows(rmap.p_d_dbm, rmap.omega_s, lambda i, j: _reflection_cells(rmap.r[i, j]))
    header = ["P_d_dBm", "omega_s_GHz", "abs_r", "abs_r_dB", "arg_r"]
    _write_csv(out_dir / "reflect_map.csv", header, rows)
    point = find_matching_point(rmap)
    print(
        f"matching point: P_d = {point.p_d_dbm:.2f} dBm, "
        f"omega_s/2pi = {point.omega_s / TWO_PI / 1e9:.6f} GHz, "
        f"|r|min = {point.min_abs_r:.4g} "
        f"({20 * math.log10(max(point.min_abs_r, 1e-300)):.1f} dB)"
        + (" [on grid boundary]" if point.on_boundary else "")
    )
    return _map_flags(rmap.flags)


def cmd_calibrate(cfg, params, args, out_dir):
    cal_params = calibration_params(params, cfg.get("gamma_calibration"))
    omega_d = params.omega_ge - cfg.get("pdiff_delta_drive")
    result = calibrate_signal_power(cal_params, omega_d, n_max=cfg.get("n_max"))
    nominal = cfg.get("pdiff_signal_power")
    print(
        f"signal power reproducing P_diff = {PDIFF_TARGET_DB} dB: {result.p_s_dbm:.2f} dBm "
        f"(offset {result.p_s_dbm - nominal:+.2f} dB from {nominal} dBm), "
        f"P_diff residual {result.residual_db:+.3f} dB"
    )
    _write_csv(
        out_dir / "calibrate.csv",
        ["p_s_dbm", "p_diff_db", "residual_db", "offset_db"],
        [[result.p_s_dbm, result.p_diff_db, result.residual_db, result.p_s_dbm - nominal]],
    )
    return _outcome_flags([result])


def _options(cfg):
    """The readout model, integrator options and Fock cutoff every protocol
    call takes."""
    return dict(readout=cfg.readout_model(), opts=cfg.integrator_options(), n_max=cfg.get("n_max"))


def _sweep_options(cfg, args):
    return dict(_options(cfg), workers=args.workers)


def cmd_detect(cfg, params, args, out_dir):
    settings = cfg.detection_settings(params)
    if args.trace_out:
        outcome, traj = detection_trace(params, settings, **_options(cfg))
    else:
        outcome = detection_run(params, settings, **_options(cfg))
    header, rows, flags = _outcome_table(DetectionOutcome, [outcome])
    _write_csv(out_dir / "detect.csv", header, rows)
    print(
        f"P_e = {outcome.p_e:.4f}, P_dark = {outcome.p_dark:.4f}, eta = {outcome.eta:.4f}"
    )
    if args.trace_out:
        rows = [
            [t, pe, n, a.real, a.imag, err]
            for t, pe, n, a, err in zip(
                traj.times, traj.p_excited, traj.photon_number, traj.field, traj.trace_error
            )
        ]
        header = ["t_s", "p_e", "photon_number", "re_a", "im_a", "trace_error"]
        _write_csv(out_dir / "detect_trace.csv", header, rows)
    return flags


def cmd_detect_map(cfg, params, args, out_dir):
    emap = efficiency_map(
        params,
        cfg.detection_settings(params),
        cfg.get("detect_pd_grid").values(),
        cfg.get("detect_freq_grid").values(),
        **_sweep_options(cfg, args),
    )
    rows = _grid_rows(
        emap.p_d_dbm, emap.omega_s,
        lambda i, j: (emap.eta[i, j], emap.p_e[i, j], emap.p_dark[i, j]),
    )
    header = ["p_d_dbm", "omega_s_GHz", "eta", "p_e", "p_dark"]
    _write_csv(out_dir / "detect_map.csv", header, rows)
    print(
        f"eta_max = {emap.eta_max:.4f} at {emap.argmax_p_d_dbm:.2f} dBm, "
        f"{emap.argmax_omega_s / TWO_PI / 1e9:.6f} GHz"
    )
    if emap.band_above_half:
        lo, hi = emap.band_above_half
        print(
            f"eta > 0.5 band: {(hi - lo) / TWO_PI / 1e6:.1f} MHz "
            f"({lo / TWO_PI / 1e9:.6f} .. {hi / TWO_PI / 1e9:.6f} GHz)"
        )
    return _map_flags(emap.flags)


def cmd_scan(name, t_s_key, nbar_key, cfg, params, args, out_dir):
    """scan-ts (``nbar_key`` None: the operating point's nbar_s) and scan-ns:
    one batch per pulse length, the pulse lengths the unit of --workers."""
    base = cfg.detection_settings(params)
    outcomes = efficiency_scan(
        params,
        base,
        cfg.get(t_s_key),
        cfg.get(nbar_key) if nbar_key else (base.nbar_s,),
        **_sweep_options(cfg, args),
    )
    header, rows, flags = _outcome_table(DetectionOutcome, outcomes)
    _write_csv(out_dir / f"{name}.csv", header, rows)
    finite = [o for o in outcomes if math.isfinite(o.eta)]  # eta is NaN at nbar_s = 0
    if not nbar_key and finite:
        best = max(finite, key=lambda o: o.eta)
        print(f"max eta = {best.eta:.4f} at t_s = {best.t_s * 1e9:.0f} ns")
    return flags


def cmd_dark(cfg, params, args, out_dir):
    grid = cfg.get("dark_pd_grid").values()
    outcomes = dark_counts(
        params,
        cfg.detection_settings(params),
        [params.rabi_of_dbm(p_dbm) for p_dbm in grid],
        **_options(cfg),
    )
    rows = [[p_dbm, o.p_dark] for p_dbm, o in zip(grid, outcomes)]
    _write_csv(out_dir / "dark.csv", ["p_d_dbm", "p_dark"], rows)
    return _outcome_flags(outcomes)


def cmd_reset(cfg, params, args, out_dir):
    outcome = reset_run(
        params,
        cfg.reset_settings(params),
        not args.no_pi,
        detect_stage=cfg.detection_settings(params).stage,
        readout_stage=cfg.get("readout_budget"),
        **_options(cfg),
    )
    header, rows, flags = _outcome_table(ResetOutcome, [outcome])
    _write_csv(out_dir / "reset.csv", header, rows)
    print(
        f"P_e after reset = {outcome.p_e_after_reset:.4f}, "
        f"without reset pulse = {outcome.p_e_no_reset:.4f}, "
        f"period = {outcome.period * 1e9:.0f} ns ({outcome.rate / 1e6:.2f} MHz)"
    )
    return flags


def cmd_reset_map(cfg, params, args, out_dir):
    rmap = reset_map(
        params,
        cfg.reset_settings(params),
        cfg.get("reset_pd_grid").values(),
        cfg.get("reset_freq_grid").values(),
        **_sweep_options(cfg, args),
    )
    rows = _grid_rows(
        rmap.p_dr_dbm, rmap.omega_rst, lambda i, j: (rmap.p_e[i, j], rmap.p_e_no_reset[i])
    )
    header = ["p_dr_dbm", "omega_rst_GHz", "p_e", "p_e_no_reset"]
    _write_csv(out_dir / "reset_map.csv", header, rows)
    print(
        f"P_e min = {rmap.p_e_min:.4f} at {rmap.argmin_p_dr_dbm:.2f} dBm, "
        f"{rmap.argmin_omega_rst / TWO_PI / 1e9:.6f} GHz"
    )
    return _map_flags(rmap.flags)


def cmd_cycle(cfg, params, args, out_dir):
    outcome = full_cycle(
        params,
        cfg.detection_settings(params),
        cfg.reset_settings(params),
        readout_stage=cfg.get("readout_budget"),
        **_options(cfg),
    )
    header, rows, flags = _outcome_table(CycleOutcome, [outcome])
    _write_csv(out_dir / "cycle.csv", header, rows)
    print(
        f"eta after reset = {outcome.eta_after_reset:.4f} (fresh {outcome.eta_fresh:.4f}), "
        f"period = {outcome.period * 1e9:.0f} ns, rate = {outcome.rate / 1e6:.2f} MHz"
    )
    return flags


def cmd_render(cfg, params, args, out_dir):
    out = args.svg_out or (out_dir / (Path(args.csv).stem + ".svg"))
    path = render_heatmap(args.csv, args.x, args.y, args.z, out)
    print(f"wrote {path}")
    return []


_COMMANDS = {
    "dressed": cmd_dressed,
    "reflect-map": cmd_reflect_map,
    "calibrate": cmd_calibrate,
    "detect": cmd_detect,
    "detect-map": cmd_detect_map,
    "scan-ts": partial(cmd_scan, "scan_ts", "ts_list", None),
    "scan-ns": partial(cmd_scan, "scan_ns", "ns_ts_list", "nbar_list"),
    "dark": cmd_dark,
    "reset": cmd_reset,
    "reset-map": cmd_reset_map,
    "cycle": cmd_cycle,
    "render": cmd_render,
}


_GLOBAL_DEFAULTS = {
    "config": None,
    "out": None,
    "workers": None,
    "strict": False,
    "trace_out": False,
}


def build_parser() -> argparse.ArgumentParser:
    # the shared flags are accepted both before and after the subcommand;
    # SUPPRESS keeps subparser defaults from clobbering pre-subcommand values
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--config", help=f"config file (default: ${ENV_CONFIG} or built-in)")
    common.add_argument("--out", help="output directory (default from config)")
    common.add_argument("--workers", type=int, help="parallel workers")
    common.add_argument("--strict", action="store_true", help="fail on flagged grid points")
    common.add_argument(
        "--trace-out", action="store_true", help="dump the trajectory CSV for single runs"
    )

    parser = argparse.ArgumentParser(
        prog="lambdadet",
        description="Impedance-matched Lambda-system microwave photon detector simulator",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, parents=[common])
        if name == "reset":
            p.add_argument("--no-pi", action="store_true", default=False,
                           help="skip the initial pi pulse")
        if name == "render":
            p.add_argument("csv", help="input CSV path")
            p.add_argument("x", help="x column name")
            p.add_argument("y", help="y column name")
            p.add_argument("z", help="value column name")
            p.add_argument("--svg-out", default=None, help="output SVG path")
    return parser


def run_sweep(
    cfg: cfgmod.RunConfig,
    task: str,
    *,
    out_dir=None,
    workers: int | None = None,
    strict: bool = False,
    trace_out: bool = False,
) -> int:
    """Execute one sweep task programmatically; returns the exit status.

    Artifacts are deterministic CSVs; identical configs produce byte-identical
    files for any worker count. ``workers`` None takes the config's
    ``workers``; below 1 raises LambdaDetError.
    """
    if task not in _COMMANDS or task == "render":
        raise ValueError(f"unknown sweep task {task!r}")
    args = argparse.Namespace(workers=workers, strict=strict, trace_out=trace_out, no_pi=False)
    return _dispatch(task, cfg, args, Path(out_dir or cfg.get("out_dir")))


def _dispatch(command, cfg, args, out_dir) -> int:
    """Run one command; its (point, message) flags make the exit status 2
    under --strict (or the config's ``strict``), with a stderr line giving
    their number and the first, a map flag as ``(i, j) <message>``. A worker
    count below 1 is an error; without one, the config's ``workers``
    applies."""
    if args.workers is None:
        args.workers = cfg.get("workers")
    elif args.workers < 1:
        raise LambdaDetError(f"--workers {args.workers} must be >= 1")
    # render reads only a CSV, so it skips the dBm calibration fit
    params = None if command == "render" else _calibrated_params(cfg)
    flags = _COMMANDS[command](cfg, params, args, out_dir)
    if not (args.strict or cfg.get("strict")) or not flags:
        return 0
    point, message = flags[0]
    first = f"{point} {message}" if point else message
    print(f"strict: {len(flags)} flag(s), the first: {first}", file=sys.stderr)
    return 2


def _progress_printer(done, total):
    print(f"\r{done}/{total} grid points", end="" if done < total else "\n", file=sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    for key, value in _GLOBAL_DEFAULTS.items():
        if not hasattr(args, key):
            setattr(args, key, value)
    try:
        cfg = _load_config(args.config)
        if sys.stderr.isatty():
            sweep.set_progress_hook(_progress_printer)
        return _dispatch(args.command, cfg, args, Path(args.out or cfg.get("out_dir")))
    except LambdaDetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
