import os

import numpy as np
import pytest

from lambdadet.errors import IntegrationError
from lambdadet.sweep import fan_out, grid_argmin, increasing_grids, parallel_map


def _halve(x):
    return (x / 2, "") if x >= 0 else (None, f"negative {x}")


def _blas_threads(_):
    return os.environ.get("OPENBLAS_NUM_THREADS")


def test_workers_run_one_blas_thread(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "7")
    assert parallel_map(_blas_threads, range(4), workers=2) == ["1"] * 4
    # the calling process keeps its own setting
    assert os.environ["OPENBLAS_NUM_THREADS"] == "7"


def _halve_row(row):
    values, messages = zip(*map(_halve, row))
    return list(values), list(messages)


def test_fan_out_flags_row_major():
    values, flags = fan_out(_halve_row, [[2, -1, 4], [6, 8, -3]], n_cols=3)
    assert values == [[1.0, None, 2.0], [3.0, 4.0, None]]
    assert flags == [(0, 1, "negative -1"), (1, 2, "negative -3")]
    # a lead column (the per-row run) is flagged with j = -1
    assert fan_out(_halve_row, [[0, 2], [-5, 2]], n_cols=1, lead=1)[1] == [(1, -1, "negative -5")]


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


def test_grid_argmin_all_nan_raises():
    with pytest.raises(IntegrationError, match=r"first failure at \(0, -1\): boom"):
        grid_argmin(np.full((2, 2), np.nan), [0, 1], [0, 1], IntegrationError, [(0, -1, "boom")])
