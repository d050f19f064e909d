#!/usr/bin/env python3
"""Write the golden outputs of every CLI task on the small test config.

    PYTHONPATH=src python3 tools/write_golden.py

Runs each task of ``TASKS`` through ``lambdadet.cli.main`` with the config
``tests/golden/fast.cfg``, then renders the reflection map, and writes the
CSVs and the SVG into ``tests/golden/``. ``tests/test_cli.py`` reruns the
same tasks and compares bytes. Regenerate the files only for a change that
is meant to move results, and report the largest change the failing test
names.
"""

from __future__ import annotations

import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden"
CONFIG = GOLDEN / "fast.cfg"
TASKS = (
    ["dressed"],
    ["reflect-map"],
    ["calibrate"],
    ["--trace-out", "detect"],
    ["detect-map"],
    ["scan-ts"],
    ["scan-ns"],
    ["dark"],
    ["reset"],
    ["reset-map"],
    ["cycle"],
)
RENDER = ["reflect_map.csv", "P_d_dBm", "omega_s_GHz", "abs_r"]


def outputs(directory: Path) -> list[str]:
    """Names of the task outputs in ``directory``, sorted."""
    return sorted(p.name for p in directory.iterdir() if p.suffix in (".csv", ".svg"))


def write_outputs(out_dir: Path) -> list[str]:
    """Run every task, then ``render``, into ``out_dir``; returns the names
    of the files written."""
    from lambdadet.cli import main

    csv, *columns = RENDER
    for argv in [["--config", str(CONFIG), *task] for task in TASKS] + [
        ["render", str(out_dir / csv), *columns]
    ]:
        if main(["--out", str(out_dir), *argv]) != 0:
            raise RuntimeError(f"lambdadet {' '.join(argv)} failed")
    return outputs(out_dir)


if __name__ == "__main__":
    names = write_outputs(GOLDEN)
    print(f"wrote {len(names)} files to {GOLDEN}", file=sys.stderr)
