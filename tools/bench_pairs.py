#!/usr/bin/env python3
"""Alternating parent/change pairs of ``perfbench/run.py``, written as a BENCH_*.json.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload pulsed_maps --seeds 20-29 --claim "wall_s on pulsed_maps improves" \\
        --trace-seed 20 --also cw_spectroscopy:30-34 --also single_cycle:35-39 \\
        --out BENCH_pulsed_maps.json

``--parent`` and ``--change`` are two checkouts of the repository (a git
archive of each commit will do). Each pair runs ``perfbench/run.py
--trace 0`` once in each checkout with the same seed: the parent first in
even pairs, the change first in odd ones. Pick seeds that were not used
while the change was written. The summary gives per end-to-end metric the
median and quartiles of each side, the pairs the change won, the ratio of
the medians and the parent's interquartile range, next to the metric's
bound in BENCHMARK.json, and the verdicts ``gain_rule_met``,
``within_bound`` and ``unresolved`` (see ``summary``). Each pair also
compares the two runs' ``outputs_sha256``, and each workload records in how
many pairs every output was identical. ``--trace-seed`` adds one traced run
per side with the per-layer metrics; each ``--also`` adds pairs of
another workload, to show that it does not get worse. Before every run the
``__pycache__`` directories under the checkout's ``src/`` and ``perfbench/``
are deleted, so neither side imports bytecode that the other compiles
(``setup_s`` times fresh imports); the output records it. Each workload
needs at least two seeds, and a run that crashes, whose outputs fail a
check or that reports failed operations stops the tool, naming the pair.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
STDERR_LINES = 10  # of a failed run, in the message that stops the tool
CACHED = ("src", "perfbench")  # the directories of a checkout a run imports from


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def clear_bytecode(checkout: Path):
    """Delete every ``__pycache__`` directory under the checkout's ``CACHED``
    directories."""
    for top in CACHED:
        for cache in sorted((checkout / top).rglob("__pycache__"), reverse=True):
            shutil.rmtree(cache)


def run(checkout: Path, workload: str, seed: int, trace: int, seconds: float | None, where):
    """One perfbench run, from a checkout without bytecode caches
    (``clear_bytecode``); returns its summary line and its full record.

    A run that exits non-zero, whose outputs fail a check, or that reports
    failed operations ends the tool with a message naming ``where`` it
    happened; a non-zero exit adds its code and the end of its stderr.
    """
    clear_bytecode(checkout)
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-STDERR_LINES:])
        raise SystemExit(f"{where}: exit code {proc.returncode}\n{tail}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    if line["correct"] is not True or line["failed"]:
        raise SystemExit(f"{where}: correct {line['correct']}, "
                         f"failed {line['failed']}/{line['attempted']}")
    run_id = f"{workload}-seed{seed}-trace{trace}"
    record = json.loads((checkout / "bench_out" / "results" / f"{run_id}.json").read_text())
    return line, record


def pairs(checkouts, workload, seeds, seconds):
    """The pairs of one workload, each with both sides' end-to-end metrics
    and whether the two runs wrote identical outputs (``outputs_sha256``)."""
    out, machine = [], None
    for k, seed in enumerate(seeds):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        entry, digests = {"pair": k, "seed": seed, "first": order[0]}, {}
        for side in order:
            where = f"{workload} pair {k} seed {seed}, {side}"
            line, record = run(checkouts[side], workload, seed, 0, seconds, where)
            machine = machine or record["machine"]
            digests[side] = record["outputs_sha256"]
            entry[side] = {m: round(v["value"], 4) for m, v in line["metrics"].items()}
            entry[f"{side}_correct"] = line["correct"]
            entry[f"{side}_failed"] = f"{line['failed']}/{line['attempted']}"
        entry["outputs_identical"] = digests["parent"] == digests["change"]
        out.append(entry)
        print(f"{workload} pair {k} seed {seed}: "
              + ", ".join(f"{s} {entry[s]['wall_s']:.3f} s" for s in SIDES), file=sys.stderr)
    return out, machine


def identical_outputs(entries) -> str:
    """In how many pairs the two sides wrote identical outputs."""
    return f"{sum(e['outputs_identical'] for e in entries)}/{len(entries)}"


def summary(entries, bounds):
    """Per end-to-end metric: medians, quartiles, pairs won, ratio, parent
    IQR, and three verdicts.

    ``gain_rule_met``: the change wins at least 9 in 10 pairs (ties count
    for neither) and its median is better than the parent's by more than
    the parent's interquartile range. ``within_bound``: the change's median
    is no worse than the parent's by more than the metric's bound, read as
    a fraction of the parent's median. ``unresolved``: the parent's
    interquartile range exceeds that bound, so the runs cannot tell a move
    within it from the spread, unless every change run is better than
    every parent run.
    """
    out = {}
    for metric, (bound, better) in bounds.items():
        side = {s: [e[s][metric] for e in entries] for s in SIDES}
        quartiles = {s: statistics.quantiles(side[s], n=4, method="inclusive") for s in SIDES}
        stats = {s: {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}
                 for s, (q1, median, q3) in quartiles.items()}
        sign = 1 if better == "lower" else -1
        won = sum(sign * (c - p) < 0 for p, c in zip(side["parent"], side["change"]))
        (p_q1, p_median, p_q3), c_median = quartiles["parent"], quartiles["change"][1]
        separated = max(sign * c for c in side["change"]) < min(sign * p for p in side["parent"])
        out[metric] = {
            **stats,
            "change_better_in_pairs": f"{won}/{len(entries)}",
            "median_ratio_change_over_parent":
                round(stats["change"]["median"] / stats["parent"]["median"], 4),
            "parent_iqr": round(stats["parent"]["q3"] - stats["parent"]["q1"], 4),
            "bound": bound,
            "gain_rule_met":
                10 * won >= 9 * len(entries) and sign * (p_median - c_median) > p_q3 - p_q1,
            "within_bound": sign * (c_median - p_median) <= bound * abs(p_median),
            "unresolved": p_q3 - p_q1 > bound * abs(p_median) and not separated,
        }
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True, help="e.g. 20-29")
    parser.add_argument("--claim", default="")
    parser.add_argument("--parent-commit", default="")
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--also", action="append", default=[], help="workload:seeds")
    parser.add_argument("--seconds", type=float, help="passed on to perfbench/run.py")
    parser.add_argument("--note", default="", help="what was checked on the outputs")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    also = [(workload, seed_range(seeds)) for workload, _, seeds in
            (spec.partition(":") for spec in args.also)]
    for workload, seeds in [(args.workload, args.seeds)] + also:
        if len(seeds) < 2:  # quartiles need two runs a side
            parser.error(f"{workload}: at least 2 seeds are needed, got {len(seeds)}")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["bound"], m["better"]) for m in bench["end_to_end"]}
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    seconds = "" if args.seconds is None else f" --seconds {args.seconds:g}"

    entries, machine = pairs(checkouts, args.workload, args.seeds, args.seconds)
    record = {
        "workload": args.workload,
        "claim": args.claim,
        "command": f"python3 perfbench/run.py --workload {args.workload} --seed SEED "
                   f"--trace 0{seconds or ' (default --seconds 20)'}",
        "method": "Alternating pairs: in even pairs the parent runs first, in odd pairs the "
                  f"change does. Seeds {args.seeds[0]}-{args.seeds[-1]}, none of them used "
                  "while the change was written. Quartiles are statistics.quantiles(n=4, "
                  "method='inclusive'). Each side runs the perfbench/ files of its own "
                  "checkout. Written by tools/bench_pairs.py.",
        "bytecode_caches_deleted_before_each_run":
            [f"{top}/**/__pycache__" for top in CACHED],
        "parent_commit": args.parent_commit or "unknown",
        "machine": {k: machine[k] for k in ("nproc", "cpus_usable", "cpu_model", "python",
                                            "numpy", "scipy", "blas", "blas_threads", "workers")},
        "pairs": entries,
        "outputs_identical_in_pairs": identical_outputs(entries),
        "summary": summary(entries, bounds),
    }
    if args.trace_seed is not None:
        record[f"traced_seed{args.trace_seed}"] = {
            side: {m: v["value"] for m, v in
                   run(checkouts[side], args.workload, args.trace_seed, 1, args.seconds,
                       f"{args.workload} traced seed {args.trace_seed}, {side}")[0]
                   ["metrics"].items()}
            for side in SIDES
        }
    others = {}
    for workload, seeds in also:
        other, _ = pairs(checkouts, workload, seeds, args.seconds)
        others[workload] = {"pairs": other, "outputs_identical_in_pairs": identical_outputs(other),
                            "summary": summary(other, bounds)}
    if others:
        record["other_workloads_no_regression"] = others
    if args.note:
        record["outputs"] = args.note
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
