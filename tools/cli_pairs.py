#!/usr/bin/env python3
"""Alternating parent/change pairs of whole CLI tasks in fresh interpreters.

    python3 tools/cli_pairs.py --parent ../parent --change . --pairs 10 \\
        --out BENCH_cli.json dressed reflect-map "reflect-map --workers 2"

``--parent`` and ``--change`` are two checkouts of the repository (a git
archive of each commit will do). Each task is the argument string of one
``python -m lambdadet.cli --out DIR <task>`` run, with the config the CLI
picks (the built-in one unless the task names ``--config`` or
``LAMBDADET_CONFIG`` is set); the run imports the ``src/`` of its own
checkout. Each pair runs the task once in each checkout: the parent first
in even pairs, the change first in odd ones. A run's wall time includes
the interpreter's start-up and imports. Its CPU time and peak RSS come
from the rusage ``os.wait4`` returns for that run's process: user plus
system time, spawned workers included, and ``ru_maxrss``, the peak of the
largest process in its tree. Each pair also records whether the two runs
wrote the same files with the same bytes; where a file differs, the pair
records the largest absolute and relative change over the numeric cells of
each such CSV (``csv_changes``), and the task the largest of its pairs.
The summary per task is ``bench_pairs.summary`` of ``wall_s``, ``cpu_s``
and ``peak_rss_mb``, with the ``wall_s`` bound of BENCHMARK.json applied
to the two times and the ``peak_rss_mb`` bound to the RSS. The BLAS
thread variables pass through from the calling environment and are
recorded. A run that exits non-zero stops the tool, naming the pair.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import platform
import shlex
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_pairs import ROOT, SIDES, STDERR_LINES, identical_outputs, summary

THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _env(checkout: Path):
    return dict(os.environ, PYTHONPATH=str(checkout / "src"))


def run(checkout: Path, task: str, out_dir: Path, where):
    """One CLI run in a fresh interpreter; returns its wall and CPU seconds
    and its peak RSS in MB (``ru_maxrss`` is in kB on Linux)."""
    cmd = [sys.executable, "-m", "lambdadet.cli", "--out", str(out_dir), *shlex.split(task)]
    with tempfile.TemporaryFile(mode="w+") as stderr:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=checkout, env=_env(checkout),
                                stdout=subprocess.DEVNULL, stderr=stderr)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            stderr.seek(0)
            tail = "\n".join(stderr.read().strip().splitlines()[-STDERR_LINES:])
            raise SystemExit(f"{where}: exit code {proc.returncode}\n{tail}")
    return {"wall_s": round(wall, 4), "cpu_s": round(usage.ru_utime + usage.ru_stime, 4),
            "peak_rss_mb": round(usage.ru_maxrss / 1024.0, 2)}


def outputs(out_dir: Path):
    """The files a run wrote, by relative path, with their bytes."""
    return {str(p.relative_to(out_dir)): p.read_bytes()
            for p in sorted(out_dir.rglob("*")) if p.is_file()}


def csv_changes(parent: bytes, change: bytes):
    """The largest absolute and relative change over the numeric cells of
    two CSVs of one shape, a cell's relative change being |c - p| /
    max(|p|, |c|), as tests/test_cli.py reports a golden file's; None when
    their shapes differ."""
    old, new = (list(csv.reader(io.StringIO(data.decode()))) for data in (parent, change))
    if [len(row) for row in old] != [len(row) for row in new]:
        return None
    largest = {"max_abs_change": 0.0, "max_rel_change": 0.0}
    for row_old, row_new in zip(old, new):
        for x, y in zip(row_old, row_new):
            try:
                a, b = float(x), float(y)
            except ValueError:
                continue
            change = abs(b - a)
            if change > largest["max_abs_change"]:  # False for NaN
                largest["max_abs_change"] = change
            relative = change / (max(abs(a), abs(b)) or 1.0)
            if relative > largest["max_rel_change"]:
                largest["max_rel_change"] = relative
    return largest


def largest_csv_changes(entries):
    """Per CSV file, the largest changes over the pairs that record any;
    None when its shape differed in some pair."""
    out = {}
    for entry in entries:
        for name, changes in entry.get("csv_changes", {}).items():
            known = out.get(name, changes)
            if known is None or changes is None:
                out[name] = None
            else:
                out[name] = {key: max(known[key], value) for key, value in changes.items()}
    return out


def pairs(checkouts, task, n_pairs, scratch: Path):
    """The pairs of one task, each with both sides' times, whether the two
    runs wrote identical files and, where not, ``csv_changes`` of each CSV
    that differs."""
    out = []
    for k in range(n_pairs):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        entry, written = {"pair": k, "first": order[0]}, {}
        for side in order:
            out_dir = scratch / f"{k}-{side}"
            entry[side] = run(checkouts[side], task, out_dir, f"{task!r} pair {k}, {side}")
            written[side] = outputs(out_dir)
        entry["outputs"] = sorted(written["change"])
        entry["outputs_identical"] = written["parent"] == written["change"]
        if not entry["outputs_identical"]:
            entry["csv_changes"] = {
                name: csv_changes(written["parent"][name], data)
                for name, data in written["change"].items()
                if name.endswith(".csv") and written["parent"].get(name, data) != data
            }
        out.append(entry)
        print(f"{task} pair {k}: "
              + ", ".join(f"{s} {entry[s]['wall_s']:.3f} s" for s in SIDES), file=sys.stderr)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--parent-commit", default="")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("tasks", nargs="+", help='e.g. dressed "reflect-map --workers 2"')
    args = parser.parse_args(argv)
    if args.pairs < 2:  # quartiles need two runs a side
        parser.error(f"at least 2 pairs are needed, got {args.pairs}")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: (m["bound"], m["better"]) for m in bench["end_to_end"]}
    bounds = {"wall_s": metrics["wall_s"], "cpu_s": metrics["wall_s"],
              "peak_rss_mb": metrics["peak_rss_mb"]}
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    tasks = {}
    with tempfile.TemporaryDirectory(prefix="cli_pairs-") as tmp:
        for n, task in enumerate(args.tasks):
            entries = pairs(checkouts, task, args.pairs, Path(tmp) / str(n))
            tasks[task] = {
                "command": f"python -m lambdadet.cli --out DIR {task}",
                "pairs": entries,
                "outputs_identical_in_pairs": identical_outputs(entries),
                "csv_changes": largest_csv_changes(entries),
                "summary": summary(entries, bounds),
            }
    record = {
        "method": "Alternating pairs of fresh-interpreter CLI runs: in even pairs the parent "
                  "runs first, in odd pairs the change does. wall_s is the run's wall time, "
                  "start-up included; cpu_s its user + system time and peak_rss_mb its "
                  "ru_maxrss / 1024, both from os.wait4 on the run's pid, spawned workers "
                  "included. Quartiles are statistics.quantiles(n=4, "
                  "method='inclusive'). Written by tools/cli_pairs.py.",
        "parent_commit": args.parent_commit or "unknown",
        "machine": {
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "thread_env": {key: os.environ.get(key) for key in THREAD_VARIABLES},
        },
        "tasks": tasks,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
