"""Standalone SVG heatmaps rendered from CSV files.

Rendering is a pure function of the CSV contents: no timestamps, no
randomness, so re-rendering the same file is byte-identical.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import RenderError
from .sweep import read_csv

# viridis anchor colors, linearly interpolated
_STOPS = [
    (0.267004, 0.004874, 0.329415),
    (0.229739, 0.322361, 0.545706),
    (0.127568, 0.566949, 0.550556),
    (0.369214, 0.788888, 0.382914),
    (0.993248, 0.906157, 0.143936),
]
_NO_VALUE = "#bdbdbd"  # a cell whose value is NaN: a failed map point


def _color(u: float) -> str:
    u = min(max(u, 0.0), 1.0)
    x = u * (len(_STOPS) - 1)
    i = min(int(x), len(_STOPS) - 2)
    f = x - i
    rgb = [
        (1.0 - f) * _STOPS[i][k] + f * _STOPS[i + 1][k]
        for k in range(3)
    ]
    return "#%02x%02x%02x" % tuple(int(round(255 * c)) for c in rgb)


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def render_heatmap(
    csv_path,
    x_col: str,
    y_col: str,
    z_col: str,
    out_path,
    *,
    width: int = 840,
    height: int = 600,
) -> Path:
    """Render a grid CSV (x, y, z columns) to an SVG heatmap.

    Marks the grid argmin with a circle and the argmax with a cross. A cell
    without a finite value (a failed map point) is grey, outside the colour
    range and the marks. Raises RenderError for missing columns, a
    degenerate or incomplete grid, or no finite value, and for a CSV that
    cannot be read, is empty, has a row of the wrong length or a
    non-numeric cell in a plotted column, or an SVG path that cannot be
    written (such as a directory).
    """
    try:
        header, cols = read_csv(csv_path)
    except (OSError, ValueError) as exc:  # UnicodeDecodeError is a ValueError
        reason = getattr(exc, "strerror", None) or exc
        raise RenderError(f"cannot read {csv_path}: {reason}") from None
    for name in (x_col, y_col, z_col):
        if name not in cols:
            raise RenderError(f"column {name!r} not in CSV header {header}")
        text = [v for v in cols[name] if isinstance(v, str)]
        if text:
            raise RenderError(f"column {name!r} holds a non-numeric cell {text[0]!r}")

    xs, ys, zs = (np.array(cols[name], dtype=float) for name in (x_col, y_col, z_col))
    x_vals = np.unique(xs)
    y_vals = np.unique(ys)
    if len(x_vals) < 2 or len(y_vals) < 2:
        raise RenderError(
            f"need at least a 2x2 grid, got {len(x_vals)}x{len(y_vals)} unique values"
        )
    grid = np.full((len(y_vals), len(x_vals)), np.nan)
    filled = np.zeros(grid.shape, dtype=bool)
    xi = np.searchsorted(x_vals, xs)
    yi = np.searchsorted(y_vals, ys)
    grid[yi, xi] = zs
    filled[yi, xi] = True
    if not filled.all():
        missing = f"{np.count_nonzero(~filled)} of {filled.size}"
        raise RenderError(f"grid is not complete: {missing} (x, y) cells are missing")
    finite = np.isfinite(grid)
    if not finite.any():
        raise RenderError(f"no cell of the grid has a finite {z_col!r} value")

    z_lo, z_hi = float(np.min(grid[finite])), float(np.max(grid[finite]))
    z_span = z_hi - z_lo if z_hi > z_lo else 1.0

    margin_l, margin_r, margin_t, margin_b = 80, 110, 40, 60
    plot_w = width - margin_l - margin_r
    plot_h = height - margin_t - margin_b
    cell_w = plot_w / len(x_vals)
    cell_h = plot_h / len(y_vals)

    def cell_origin(i, j):
        # j indexes y ascending from the bottom
        return margin_l + i * cell_w, margin_t + (len(y_vals) - 1 - j) * cell_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for j in range(len(y_vals)):
        for i in range(len(x_vals)):
            fill = _color((grid[j, i] - z_lo) / z_span) if finite[j, i] else _NO_VALUE
            x0, y0 = cell_origin(i, j)
            parts.append(
                f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" width="{_fmt(cell_w)}" '
                f'height="{_fmt(cell_h)}" fill="{fill}"/>'
            )

    j_min, i_min = np.unravel_index(int(np.argmin(np.where(finite, grid, np.inf))), grid.shape)
    j_max, i_max = np.unravel_index(int(np.argmax(np.where(finite, grid, -np.inf))), grid.shape)
    x0, y0 = cell_origin(i_min, j_min)
    cx, cy = x0 + cell_w / 2, y0 + cell_h / 2
    parts.append(
        f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(min(cell_w, cell_h) / 3)}" '
        'fill="none" stroke="white" stroke-width="2"/>'
    )
    x0, y0 = cell_origin(i_max, j_max)
    cx, cy = x0 + cell_w / 2, y0 + cell_h / 2
    r = min(cell_w, cell_h) / 3
    parts.append(
        f'<path d="M {_fmt(cx - r)} {_fmt(cy - r)} L {_fmt(cx + r)} {_fmt(cy + r)} '
        f'M {_fmt(cx - r)} {_fmt(cy + r)} L {_fmt(cx + r)} {_fmt(cy - r)}" '
        'stroke="white" stroke-width="2"/>'
    )

    # axes labels and tick extremes
    parts.append(
        f'<text x="{margin_l + plot_w / 2}" y="{height - 15}" text-anchor="middle" '
        f'font-family="monospace" font-size="14">{x_col}</text>'
    )
    parts.append(
        f'<text x="20" y="{margin_t + plot_h / 2}" text-anchor="middle" '
        f'font-family="monospace" font-size="14" '
        f'transform="rotate(-90 20 {margin_t + plot_h / 2})">{y_col}</text>'
    )
    for val, xpos in ((x_vals[0], margin_l), (x_vals[-1], margin_l + plot_w)):
        parts.append(
            f'<text x="{_fmt(xpos)}" y="{height - 38}" text-anchor="middle" '
            f'font-family="monospace" font-size="11">{_fmt(val)}</text>'
        )
    for val, ypos in ((y_vals[0], margin_t + plot_h), (y_vals[-1], margin_t)):
        parts.append(
            f'<text x="{margin_l - 6}" y="{_fmt(ypos)}" text-anchor="end" '
            f'font-family="monospace" font-size="11">{_fmt(val)}</text>'
        )

    # color bar
    bar_x = width - margin_r + 20
    n_bar = 64
    bar_h = plot_h / n_bar
    for k in range(n_bar):
        u = 1.0 - k / (n_bar - 1)
        parts.append(
            f'<rect x="{bar_x}" y="{_fmt(margin_t + k * bar_h)}" width="18" '
            f'height="{_fmt(bar_h + 0.5)}" fill="{_color(u)}"/>'
        )
    parts.append(
        f'<text x="{bar_x + 24}" y="{margin_t + 10}" font-family="monospace" '
        f'font-size="11">{_fmt(z_hi)}</text>'
    )
    parts.append(
        f'<text x="{bar_x + 24}" y="{margin_t + plot_h}" font-family="monospace" '
        f'font-size="11">{_fmt(z_lo)}</text>'
    )
    parts.append(
        f'<text x="{bar_x}" y="{margin_t - 10}" font-family="monospace" '
        f'font-size="12">{z_col}</text>'
    )
    parts.append("</svg>")

    out_path = Path(out_path)
    try:
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text("\n".join(parts) + "\n", encoding="utf-8")
    except OSError as exc:  # e.g. out_path is a directory
        raise RenderError(f"cannot write {out_path}: {exc.strerror}: {exc.filename}") from None
    return out_path
