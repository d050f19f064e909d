"""Grid fan-out across workers, grid argmin, and deterministic CSV assembly.

The rows of a grid are independent; a task is a block of consecutive rows,
and results are gathered by index so the output is byte-identical for any
worker count. Floats are formatted with 9 significant digits.
"""

from __future__ import annotations

import contextlib
import math
import os
from pathlib import Path

import numpy as np

FLOAT_FORMAT = "%.9g"

# Columns to one propagated batch at most. A map's rows go to the workers in
# blocks of consecutive whole rows, each block one batch: a wider batch pays
# the per-interval Python work (RK4 stage dispatch, step-map lookups) once
# for more columns, but each constant column caches its 64 KB RK4 step maps
# for the life of the batch (about 1.1 a column on the default detect-map, 2
# on the default reset-map). The default maps at workers=1 on a 2-core VM,
# one BLAS thread: CPU s of fresh CLI runs, the medians of 8 alternating
# pairs of each wider batch against 24 (tools/cli_pairs.py; in
# BENCH_timeline_columns36.json and BENCH_timeline_columns48.json), and the
# median peak RSS of 3 runs:
#   BATCH_COLUMNS                 24 vs 36      24 vs 48
#   detect-map (12/row) CPU s     2.30  2.05    2.62  2.20   wider won 7/8, 8/8
#   reset-map  (10/row) CPU s     1.76  1.64    1.64  1.62   wider won 6/8, 4/8
#   BATCH_COLUMNS                 24     36     48
#   detect-map peak RSS MB        60.4   63.2   66.0
#   reset-map  peak RSS MB        62.4   66.2   69.9
# Neither wider batch wins every pair, and 48 takes the reset-map 12% above
# the RSS at 24, so 24 stays.
BATCH_COLUMNS = 24

# Each worker process runs a single BLAS thread. The matrices are small, and
# a multi-threaded BLAS in every worker oversubscribes the cores: its idle
# threads spin against the other workers (on 2 cores, a 2x2 reset map took
# 34 s with 2 workers, and 1.1 s with one BLAS thread per worker).
_WORKER_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

_progress_hook = None


def set_progress_hook(hook) -> None:
    """Install a callable(done, total) invoked per completed task, with
    ``done`` and ``total`` counted in grid points."""
    global _progress_hook
    _progress_hook = hook


def parallel_map(fn, tasks, workers: int = 1, sizes=None):
    """Map fn over tasks, preserving order; workers <= 1 runs inline.

    Results are collected in task order regardless of completion order, so
    downstream artifacts do not depend on the worker count. ``sizes`` gives
    the grid points each task holds (default one each); the progress hook
    counts them. Workers are spawned, not forked, because BLAS reads its
    thread count only when it loads; a script that calls this with
    workers > 1 needs the usual ``if __name__ == "__main__":`` guard.
    """
    tasks = list(tasks)
    sizes = [1] * len(tasks) if sizes is None else list(sizes)
    total = sum(sizes)
    done = 0
    results = []

    def gather(result, size):
        nonlocal done
        results.append(result)
        done += size
        if _progress_hook:
            _progress_hook(done, total)

    if workers <= 1 or len(tasks) <= 1:
        for task, size in zip(tasks, sizes):
            gather(fn(task), size)
        return results
    import concurrent.futures
    import multiprocessing

    spawn = multiprocessing.get_context("spawn")
    with _environment(_WORKER_ENV), concurrent.futures.ProcessPoolExecutor(
        max_workers=workers, mp_context=spawn
    ) as pool:
        chunk = max(1, math.ceil(len(tasks) / (4 * workers)))
        for result, size in zip(pool.map(fn, tasks, chunksize=chunk), sizes):
            gather(result, size)
    return results


@contextlib.contextmanager
def _environment(values):
    """Set environment variables for the duration of the block."""
    saved = {key: os.environ.get(key) for key in values}
    os.environ.update(values)
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def increasing_grids(*grids):
    """The grids as float arrays; each must strictly increase."""
    arrays = [np.asarray(g, dtype=float) for g in grids]
    if any(np.any(np.diff(a) <= 0) for a in arrays):
        raise ValueError("grids must be strictly increasing")
    return arrays


def row_blocks(n_rows: int, row_width: int, workers: int = 1) -> list[range]:
    """Consecutive, near-equal blocks of rows, in row order: at least one
    per worker while rows last, and no more than BATCH_COLUMNS columns to a
    block unless a single row is wider."""
    rows_per_block = max(1, BATCH_COLUMNS // max(1, row_width))
    count = max(min(workers, n_rows), math.ceil(n_rows / rows_per_block))
    if count == 0:
        return []
    size, extra = divmod(n_rows, count)
    bounds = [k * size + min(k, extra) for k in range(count + 1)]
    return [range(a, b) for a, b in zip(bounds[:-1], bounds[1:])]


def fan_out(fn, rows, n_cols: int, workers: int = 1, lead: int = 0):
    """Map fn over the rows of a grid with ``n_cols`` points to a row, a
    block of consecutive rows (``row_blocks``) per task.

    fn takes a list of consecutive rows and returns per row (values,
    messages), one entry per column, with an empty message where the column
    succeeded. The first ``lead`` columns of a row are per-row runs (a dark
    or no-reset run), the rest are its grid points; a block's width counts
    both, its progress only the grid points. Returns the values row by row
    and the (i, j, message) flags of the failed columns in row-major order,
    with j counted from the first grid point, so a lead column has j < 0.
    """
    rows = list(rows)
    blocks = row_blocks(len(rows), n_cols + lead, workers)
    tasks = [rows[b.start : b.stop] for b in blocks]
    results = parallel_map(fn, tasks, workers, sizes=[n_cols * len(b) for b in blocks])
    values, flags = [], []
    for i, (row, messages) in enumerate(r for block in results for r in block):
        values.append(row)
        flags += [(i, k - lead, message) for k, message in enumerate(messages) if message]
    return values, flags


def parabolic_refine(xs: np.ndarray, ys: np.ndarray, i: int):
    """Vertex of the parabola through (x, y) at i-1, i, i+1; falls back to i
    at an edge, on a triple with a non-finite y and on a non-convex triple."""
    if i == 0 or i == len(xs) - 1:
        return xs[i], ys[i]
    x0, x1, x2 = xs[i - 1], xs[i], xs[i + 1]
    y0, y1, y2 = ys[i - 1], ys[i], ys[i + 1]
    denom = (y0 - 2.0 * y1 + y2)
    if not all(map(math.isfinite, (y0, y1, y2))) or denom <= 0:
        return xs[i], ys[i]
    # uniform-spacing vertex formula is exact enough for near-uniform grids
    shift = 0.5 * (y0 - y2) / denom
    shift = float(np.clip(shift, -1.0, 1.0))
    x_v = x1 + shift * 0.5 * (x2 - x0)
    y_v = y1 - 0.125 * (y0 - y2) ** 2 / denom
    return x_v, y_v


def grid_argmin(values, rows, cols, error, flags, curve=None):
    """Grid argmin of a 2-D map, refined by a parabola along each axis.

    The parabolas are fitted to ``curve`` (default: ``values``) through the
    minimum and its neighbours. Returns (i, j) and the (x, y) vertices along
    the rows axis and along the cols axis. A map with no finite value raises
    ``error``, naming the first of the map's (i, j, message) ``flags``.
    """
    values = np.asarray(values)
    if values.size == 0 or np.all(np.isnan(values)):
        first = f"; first failure at {flags[0][:2]}: {flags[0][2]}" if flags else ""
        shape = "x".join(map(str, values.shape))
        raise error(f"no point of the {shape} grid has a value{first}")
    i, j = divmod(int(np.nanargmin(values)), values.shape[1])
    curve = values if curve is None else curve
    return (i, j), parabolic_refine(rows, curve[:, j], i), parabolic_refine(cols, curve[i, :], j)


def format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int,)):
        return str(value)
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return FLOAT_FORMAT % value
    return str(value)


def write_csv(path, header, rows) -> Path:
    """Write rows of scalars with a header line; LF endings, deterministic."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_value(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def read_csv(path):
    """Read a CSV written by write_csv: (header, column dict of float lists).

    Non-numeric cells are kept as strings. An empty file, or a row whose
    cell count differs from the header's, raises ValueError.
    """
    text = Path(path).read_text(encoding="utf-8")
    lines = [(n, ln) for n, ln in enumerate(text.splitlines(), 1) if ln]
    if not lines:
        raise ValueError("empty CSV")
    header = lines[0][1].split(",")
    columns = {name: [] for name in header}
    for n, ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != len(header):
            raise ValueError(f"line {n} has {len(cells)} cells, the header {len(header)}")
        for name, cell in zip(header, cells):
            try:
                columns[name].append(float(cell))
            except ValueError:
                columns[name].append(cell)
    return header, columns
