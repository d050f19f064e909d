"""tools/bench_pairs.py on synthetic perfbench results; no benchmark runs."""

import importlib.util
import json
import types
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_seed_range(bench_pairs):
    assert bench_pairs.seed_range("20-23") == [20, 21, 22, 23]
    assert bench_pairs.seed_range("7") == [7]


def test_summary_of_synthetic_pairs(bench_pairs):
    parent = [3.0, 3.2, 3.4, 3.6, 3.8]
    change = [2.5, 2.6, 3.5, 2.7, 2.8]
    entries = [
        {"parent": {"wall_s": p, "rate": p}, "change": {"wall_s": c, "rate": c}}
        for p, c in zip(parent, change)
    ]
    out = bench_pairs.summary(entries, {"wall_s": (0.25, "lower"), "rate": (0.1, "higher")})
    wall = out["wall_s"]
    assert wall["parent"] == {"median": 3.4, "q1": 3.2, "q3": 3.6}
    assert wall["change"] == {"median": 2.7, "q1": 2.6, "q3": 2.8}
    assert wall["change_better_in_pairs"] == "4/5"
    assert wall["median_ratio_change_over_parent"] == round(2.7 / 3.4, 4)
    assert wall["parent_iqr"] == 0.4
    assert wall["bound"] == 0.25
    assert out["rate"]["change_better_in_pairs"] == "1/5"
    # 4/5 pairs is below 9 in 10, though the medians are 0.7 apart
    assert wall["gain_rule_met"] is False and wall["within_bound"] is True
    # a higher-is-better metric 21% lower is outside a 0.1 bound
    assert out["rate"]["gain_rule_met"] is False and out["rate"]["within_bound"] is False


def _entries(parent, change):
    return [{"parent": {"wall_s": p}, "change": {"wall_s": c}} for p, c in zip(parent, change)]


@pytest.mark.parametrize("change, gain, within", [
    # 9 wins and a tie, medians 1.0 apart against a parent IQR of 0.45
    ([2.0, 2.1, 2.2, 2.3, 2.4, 2.5, 2.6, 2.7, 2.8, 3.9], True, True),
    # 8 wins, a tie and a loss
    ([2.0, 2.1, 2.2, 2.3, 2.4, 2.5, 2.6, 2.7, 3.8, 4.0], False, True),
    # 10 wins, but the medians are 0.4 apart against a parent IQR of 0.45
    ([2.6, 2.7, 2.8, 2.9, 3.0, 3.1, 3.2, 3.3, 3.4, 3.5], False, True),
    # 20% slower is within a 0.25 bound; 30% slower is not
    ([3.6, 3.72, 3.84, 3.96, 4.08, 4.2, 4.32, 4.44, 4.56, 4.68], False, True),
    ([3.9, 4.03, 4.16, 4.29, 4.42, 4.55, 4.68, 4.81, 4.94, 5.07], False, False),
])
def test_summary_verdicts(bench_pairs, change, gain, within):
    parent = [3.0, 3.1, 3.2, 3.3, 3.4, 3.5, 3.6, 3.7, 3.8, 3.9]
    wall = bench_pairs.summary(_entries(parent, change), {"wall_s": (0.25, "lower")})["wall_s"]
    assert wall["parent"]["median"] == 3.45 and wall["parent_iqr"] == 0.45
    assert (wall["gain_rule_met"], wall["within_bound"]) == (gain, within)


@pytest.mark.parametrize("parent, change, unresolved", [
    # two groups near 0.13 and 0.21 s on both sides: an IQR of 0.08 against
    # 0.25 x 0.17 s
    ([0.13, 0.21] * 5, [0.21, 0.13] * 5, True),
    # the same parent spread, but every change run beats every parent run
    ([0.13, 0.21] * 5, [0.12] * 10, False),
    # one group: an IQR of 0.02 against 0.25 x 0.14 s
    ([0.13, 0.15] * 5, [0.15, 0.13] * 5, False),
])
def test_summary_is_unresolved_when_the_parent_spreads_beyond_the_bound(bench_pairs, parent,
                                                                       change, unresolved):
    wall = bench_pairs.summary(_entries(parent, change), {"wall_s": (0.25, "lower")})["wall_s"]
    assert wall["unresolved"] is unresolved
    assert wall["within_bound"] is True


def _no_run(*args, **kwargs):
    raise AssertionError("no benchmark run was expected")


@pytest.mark.parametrize("seeds, also", [("5", []), ("5-6", ["pulsed_maps:7"])])
def test_fewer_than_two_seeds_are_rejected_before_any_run(bench_pairs, monkeypatch, tmp_path,
                                                          seeds, also):
    monkeypatch.setattr(bench_pairs, "run", _no_run)
    argv = ["--parent", str(tmp_path), "--change", str(tmp_path), "--workload", "single_cycle",
            "--seeds", seeds, "--out", str(tmp_path / "bench.json")]
    for spec in also:
        argv += ["--also", spec]
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(argv)
    assert exc.value.code == 2
    assert not (tmp_path / "bench.json").exists()


@pytest.mark.parametrize("correct, failed, code", [(False, 0, 0), (True, 1, 0), (None, 0, 3)],
                         ids=["False-0", "True-1", "crash"])
def test_a_failed_run_stops_the_pairs(bench_pairs, monkeypatch, tmp_path, correct, failed, code):
    line = {"correct": correct, "attempted": 3, "failed": failed, "metrics": {}}
    stderr = "".join(f"line {k}\n" for k in range(12)) + "ValueError: no config\n"
    done = types.SimpleNamespace(stdout=json.dumps(line) + "\n" if code == 0 else "",
                                 stderr=stderr, returncode=code)
    monkeypatch.setattr(bench_pairs.subprocess, "run", lambda *args, **kwargs: done)
    checkouts = {"parent": tmp_path, "change": tmp_path}
    with pytest.raises(SystemExit) as exc:
        bench_pairs.pairs(checkouts, "single_cycle", [4, 5], None)
    where = "single_cycle pair 0 seed 4, parent"
    if code:
        # the exit code and the last 10 lines of stderr
        tail = "".join(f"line {k}\n" for k in range(3, 12)) + "ValueError: no config"
        assert str(exc.value) == f"{where}: exit code 3\n{tail}"
    else:
        assert str(exc.value) == f"{where}: correct {correct}, failed {failed}/3"


def test_pairs_compare_outputs(bench_pairs, monkeypatch, tmp_path):
    """Each pair compares the two runs' outputs_sha256, and each workload
    records in how many pairs they were identical."""
    machine = dict.fromkeys(("nproc", "cpus_usable", "cpu_model", "python", "numpy", "scipy",
                             "blas", "blas_threads", "workers"), "x")
    metrics = {m: {"value": 1.0} for m in ("setup_s", "wall_s", "peak_rss_mb")}

    def fake_run(checkout, workload, seed, trace, seconds, where):
        # the change writes a different detect_map.csv at seed 5 of pulsed_maps
        moved = checkout.name == "change" and (workload, seed) == ("pulsed_maps", 5)
        digests = {"detect_map.csv": "b" if moved else "a", "cycle.csv": "c"}
        line = {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}
        return line, {"machine": machine, "outputs_sha256": digests}

    monkeypatch.setattr(bench_pairs, "run", fake_run)
    (tmp_path / "parent").mkdir()
    (tmp_path / "change").mkdir()
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--parent", str(tmp_path / "parent"),
                             "--change", str(tmp_path / "change"), "--workload", "pulsed_maps",
                             "--seeds", "4-6", "--also", "single_cycle:7-8",
                             "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert [e["outputs_identical"] for e in record["pairs"]] == [True, False, True]
    assert record["outputs_identical_in_pairs"] == "2/3"
    assert record["bytecode_caches_deleted_before_each_run"] == ["src/**/__pycache__",
                                                                 "perfbench/**/__pycache__"]
    other = record["other_workloads_no_regression"]["single_cycle"]
    assert [e["outputs_identical"] for e in other["pairs"]] == [True, True]
    assert other["outputs_identical_in_pairs"] == "2/2"


def test_each_run_starts_without_bytecode_caches(bench_pairs, monkeypatch, tmp_path):
    """Before each run the __pycache__ directories under the checkout's
    src/ and perfbench/ are gone; other directories keep theirs."""
    caches = [tmp_path / "src" / "lambdadet" / "__pycache__",
              tmp_path / "perfbench" / "__pycache__",
              tmp_path / "src" / "__pycache__" / "nested" / "__pycache__"]
    kept = tmp_path / "tools" / "__pycache__"
    for cache in (*caches, kept):
        cache.mkdir(parents=True)
        (cache / "module.cpython-311.pyc").write_bytes(b"")
    (tmp_path / "bench_out" / "results").mkdir(parents=True)
    (tmp_path / "bench_out" / "results" / "single_cycle-seed4-trace0.json").write_text("{}")
    line = {"correct": True, "attempted": 1, "failed": 0, "metrics": {}}
    seen = []

    def fake_subprocess_run(cmd, cwd, **kwargs):
        seen.append(sorted(str(p.relative_to(cwd)) for p in cwd.rglob("__pycache__")))
        return types.SimpleNamespace(stdout=json.dumps(line) + "\n", stderr="", returncode=0)

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_subprocess_run)
    assert bench_pairs.run(tmp_path, "single_cycle", 4, 0, None, "here") == (line, {})
    assert seen == [["tools/__pycache__"]]
