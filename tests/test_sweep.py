import os

import numpy as np
import pytest

from lambdadet import sweep
from lambdadet.errors import IntegrationError
from lambdadet.sweep import BATCH_COLUMNS, fan_out, grid_argmin, increasing_grids, parallel_map


def _halve(x):
    return (x / 2, "") if x >= 0 else (None, f"negative {x}")


def _blas_threads(_):
    return os.environ.get("OPENBLAS_NUM_THREADS")


def test_workers_run_one_blas_thread(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "7")
    assert parallel_map(_blas_threads, range(4), workers=2) == ["1"] * 4
    # the calling process keeps its own setting
    assert os.environ["OPENBLAS_NUM_THREADS"] == "7"


def _halve_rows(rows):
    out = []
    for row in rows:
        values, messages = zip(*map(_halve, row))
        out.append((list(values), list(messages)))
    return out


# (rows, grid points to a row, lead columns, workers)
FAN_OUT_CASES = [
    (2, 3, 0, 1),  # one block
    (2, 1, 1, 1),
    (11, 11, 1, 1),  # the default detect-map: 132 columns
    (10, 9, 1, 3),  # the default reset-map
    (10, 6, 1, 1),  # rows of 7 columns: whole rows to a block, within BATCH_COLUMNS
    (3, 2, 1, 5),  # more workers than rows: one row to a block
    (4, BATCH_COLUMNS + 1, 0, 1),  # a row wider than a batch: one row to a block
    (0, 3, 1, 2),
]


def test_fan_out_flags_row_major(monkeypatch):
    """Blocks of consecutive rows, at least one per worker while rows last
    and no wider than BATCH_COLUMNS unless one row is; values come back in
    row order and flags row-major, with a lead column's j < 0."""
    tasks = []

    def serial(fn, blocks, workers, sizes):
        tasks[:] = zip(blocks, sizes)
        return [fn(block) for block in blocks]

    monkeypatch.setattr(sweep, "parallel_map", serial)
    for n_rows, n_cols, lead, workers in FAN_OUT_CASES:
        width = lead + n_cols
        rows = [[-(width * i + k) if (i + k) % 4 == 1 else width * i + k for k in range(width)]
                for i in range(n_rows)]
        values, flags = fan_out(_halve_rows, rows, n_cols, workers, lead=lead)
        assert values == [[x / 2 if x >= 0 else None for x in row] for row in rows]
        assert flags == [(i, k - lead, f"negative {x}")
                         for i, row in enumerate(rows) for k, x in enumerate(row) if x < 0]
        blocks = [block for block, _ in tasks]
        assert [row for block in blocks for row in block] == rows
        assert len(blocks) >= min(workers, n_rows)
        assert all(len(block) * width <= BATCH_COLUMNS or len(block) == 1 for block in blocks)
        assert max(map(len, blocks), default=0) - min(map(len, blocks), default=0) <= 1
        # progress counts the grid points of a block, not its lead columns
        assert [size for _, size in tasks] == [n_cols * len(block) for block in blocks]


def test_increasing_grids():
    xs, ys = increasing_grids([1, 2], (3.0, 4.0))
    assert xs.dtype == float and list(ys) == [3.0, 4.0]
    with pytest.raises(ValueError):
        increasing_grids([1, 2], [2, 2])


def test_grid_argmin_refines_each_axis():
    rows, cols = np.arange(4.0), np.arange(5.0)
    values = (rows[:, None] - 1.25) ** 2 + (cols[None, :] - 2.5) ** 2
    values[0, 0] = np.nan
    (i, j), (x_row, _), (x_col, _) = grid_argmin(values, rows, cols, IntegrationError, [])
    assert (i, j) == (1, 2)
    assert x_row == pytest.approx(1.25) and x_col == pytest.approx(2.5)
    # the index comes from values, the vertex from curve
    (i, j), (x_row, y_row), _ = grid_argmin(values, rows, cols, IntegrationError, [], curve=-values)
    assert (i, j, x_row, y_row) == (1, 2, rows[1], -values[1, 2])


def test_grid_argmin_falls_back_beside_a_failed_point():
    """A NaN neighbour of the minimum leaves that axis at the grid point;
    the other axis is still refined."""
    values = np.array([[3.0, 2.0, 3.0], [2.0, 1.0, np.nan], [3.0, 2.0, 3.0]])
    (i, j), row_vertex, col_vertex = grid_argmin(
        values, [0.0, 1.0, 2.0], [10.0, 11.0, 12.0], ValueError, []
    )
    assert (i, j) == (1, 1)
    assert row_vertex == (1.0, 1.0)
    assert col_vertex == (11.0, 1.0)


def test_grid_argmin_all_nan_raises():
    with pytest.raises(IntegrationError, match=r"first failure at \(0, -1\): boom"):
        grid_argmin(np.full((2, 2), np.nan), [0, 1], [0, 1], IntegrationError, [(0, -1, "boom")])
