#!/usr/bin/env python3
"""lambdadet benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload pulsed_maps --seed 1 --seconds 20 --trace 0

Set-up (import, config parse, dBm calibration fit) is timed in fresh
interpreters. The workload then runs whole rounds of its CLI tasks through
``cli.run_sweep`` and ``render.render_heatmap`` with ``workers=1`` until the
rounds have taken ``--seconds``; every round must write byte-identical
files. The outputs are checked afterwards, outside the timing. The last line
of standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and the metrics, end-to-end ones with ``--trace 0`` and per-layer ones with
``--trace 1``. The full record of the run, with the machine it ran on, goes
to ``bench_out/results/``. See README.md in this directory.
"""

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / "bench_out"
SETUP_PROBES = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup_probes(config_text):
    """Time SETUP_PROBES set-ups, each in a fresh interpreter."""
    probes = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC)],
            input=config_text, capture_output=True, text=True, timeout=120, check=True,
        )
        probes.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return probes


class Rounds:
    """Whole rounds of one workload: their times, their operations, and
    whether every round wrote the same files as the first."""

    def __init__(self, workload, cfg, out_dir):
        self.workload, self.cfg, self.out_dir = workload, cfg, out_dir
        self.walls, self.traced_walls = [], []
        self.attempted = self.failed = 0
        self.errors = []
        self.outputs = None
        self.identical = True

    @property
    def seconds(self):
        return sum(self.walls) + sum(self.traced_walls)

    def run(self, tracer=None):
        if tracer:
            tracer.install()
        try:
            wall, statuses = self._timed_round()
        finally:
            if tracer:
                tracer.uninstall()
        (self.traced_walls if tracer else self.walls).append(wall)
        self._tally(statuses)
        outputs = {p.name: p.read_bytes() for p in sorted(self.out_dir.iterdir())}
        if self.outputs is None:
            self.outputs = outputs
        self.identical &= outputs == self.outputs

    def _timed_round(self):
        """Every task once into a fresh directory; the clock runs from the
        first task to the last file written."""
        from lambdadet import cli, render
        from lambdadet.errors import LambdaDetError

        shutil.rmtree(self.out_dir, ignore_errors=True)
        statuses = []
        with contextlib.redirect_stdout(sys.stderr):
            start = time.perf_counter()
            for task in self.workload.tasks:
                try:
                    if task.command == "render":
                        csv_name, *columns = task.render_args
                        render.render_heatmap(
                            self.out_dir / csv_name, *columns, self.out_dir / task.output
                        )
                        statuses.append(0)
                    else:
                        statuses.append(cli.run_sweep(
                            self.cfg, task.command, out_dir=self.out_dir, workers=1,
                            strict=True, trace_out=task.trace_out,
                        ))
                except LambdaDetError as exc:
                    statuses.append(f"{type(exc).__name__}: {exc}")
            wall = time.perf_counter() - start
        return wall, statuses

    def _tally(self, statuses):
        """A grid point whose value is NaN failed; a single task failed when
        it did not return 0."""
        from checks import read_rows

        for task, status in zip(self.workload.tasks, statuses):
            if isinstance(status, str):
                self.errors.append(status)
            if not task.points:
                self.attempted += 1
                self.failed += status != 0
                continue
            self.attempted += task.points
            if isinstance(status, str):
                self.failed += task.points
                continue
            rows = read_rows(self.out_dir / task.output)
            self.failed += sum(math.isnan(row[task.point_column]) for row in rows)
            self.failed += max(0, task.points - len(rows))


def _blas_threads():
    """Threads the loaded OpenBLAS reports, or None where it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_info(args):
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10, check=True,
            ).stdout.strip()
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *SRC.rglob("*.cfg"), *HERE.glob("*.py")]):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "workers": 1,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def main(argv=None):
    args = parse_args(argv)
    for var in THREAD_VARS:  # one BLAS / OpenMP thread, fixed before numpy loads
        os.environ[var] = "1"  # the set-up probes inherit it
    if not (SRC / "lambdadet" / "__init__.py").is_file():
        print(f"error: no lambdadet sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from checks import CHECKS
    from tracer import Tracer, layer_metrics
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    probes = setup_probes(workload.config_text)

    import lambdadet
    from lambdadet import config, dressed

    if Path(lambdadet.__file__).resolve().parent != SRC / "lambdadet":
        print(f"error: lambdadet imported from {lambdadet.__file__}, not {SRC}", file=sys.stderr)
        return 2
    base = config.parse_config(workload.config_text)
    constant = dressed.fit_drive_calibration(base.params, base.omega_d, base.get("calibration_anchor"))
    cfg = config.parse_config(workload.config_text + f"drive_power_to_rabi = {constant!r}\n")

    run_id = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    tracer = Tracer() if args.trace else None
    rounds = Rounds(workload, cfg, OUT / run_id)
    while True:
        rounds.run()
        if tracer:
            rounds.run(tracer)
        if rounds.seconds >= args.seconds:
            break

    try:
        checks = CHECKS[workload.name](workload, cfg, cfg.params, rounds.out_dir).results
    except Exception:  # a check that cannot run counts as failed, with its traceback
        checks = [{"name": "checks ran", "ok": False, "detail": traceback.format_exc()}]
    checks.append({"name": "every round wrote byte-identical files", "ok": rounds.identical,
                   "detail": ""})
    checks.append({"name": "set-ups fit the run's calibration constant", "ok": all(
        p["drive_power_to_rabi"] == constant and Path(p["module"]).resolve().parent == SRC / "lambdadet"
        for p in probes), "detail": ""})
    correct = all(c["ok"] for c in checks)

    median = statistics.median
    if tracer:
        metrics = {
            "lambdadet.import_s": (median(p["import_s"] for p in probes), "s"),
            "config.parse_config.self_s": (median(p["parse_s"] for p in probes), "s"),
            "dressed.fit_drive_calibration.self_s": (median(p["fit_s"] for p in probes), "s"),
            **layer_metrics(tracer.spans, tracer.counts, len(rounds.traced_walls)),
            "trace.untraced_wall_s": (median(rounds.walls), "s"),
            "trace.overhead_pct":
                (100.0 * (median(rounds.traced_walls) / median(rounds.walls) - 1.0), "%"),
        }
    else:
        metrics = {
            "setup_s": (median(p["setup_s"] for p in probes), "s"),
            "wall_s": (median(rounds.walls), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    record = {
        "run": run_id,
        "machine": machine_info(args),
        "workload": {"name": workload.name, "config": workload.config_text, "choice": workload.choice,
                     "drive_power_to_rabi": constant},
        "rounds": {"untraced_wall_s": rounds.walls, "traced_wall_s": rounds.traced_walls},
        "setup_probes": probes,
        "attempted": rounds.attempted,
        "failed": rounds.failed,
        "errors": rounds.errors,
        "checks": checks,
        "outputs_sha256": {k: hashlib.sha256(v).hexdigest() for k, v in rounds.outputs.items()},
        "metrics": metrics,
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{run_id}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer:
        (OUT / "traces").mkdir(parents=True, exist_ok=True)
        (OUT / "traces" / f"{run_id}.json").write_text(json.dumps(
            {"fields": ["name", "start_s", "end_s", "parent"], "spans": tracer.spans}))

    for c in checks:
        print(f"{'PASS' if c['ok'] else 'FAIL'}  {c['name']}  {c['detail']}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": rounds.attempted,
                      "failed": rounds.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
