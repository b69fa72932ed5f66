"""Terminal line charts for sweep results.

The paper's figures are line/bar charts; without a plotting stack on
an offline machine, an ASCII approximation in the terminal is the next
best thing.  Used by the CLI (``python -m repro experiment fig5``
output pairs well with it) and handy for eyeballing sweep CSVs.
"""

from __future__ import annotations

import math
from typing import Sequence

#: Glyphs assigned to series, in order.
MARKS = "*o+x#@%&"


def plot(
    x: Sequence[float],
    series: dict[str, Sequence[float]],
    width: int = 68,
    height: int = 16,
    logx: bool = False,
    title: str | None = None,
) -> str:
    """Render one or more y-series over shared x values.

    Points are scattered onto a character grid (later series overwrite
    earlier ones on collisions) with min/max axis annotations and a
    legend.  ``logx`` spaces the x axis logarithmically, which is what
    message-size sweeps (Fig. 5) want.
    """
    if width < 8 or height < 4:
        raise ValueError("plot area too small")
    if not series:
        raise ValueError("need at least one series")
    xs = list(x)
    if len(xs) < 2:
        raise ValueError("need at least two x values")
    for name, ys in series.items():
        if len(ys) != len(xs):
            raise ValueError(f"series {name!r} has {len(ys)} points for {len(xs)} x values")
    if logx and min(xs) <= 0:
        raise ValueError("log x axis needs positive x values")

    def xt(value: float) -> float:
        return math.log10(value) if logx else value

    x0, x1 = xt(xs[0]), xt(xs[-1])
    ymin = min(min(ys) for ys in series.values())
    ymax = max(max(ys) for ys in series.values())
    if ymax == ymin:
        ymax = ymin + 1.0
    grid = [[" "] * width for _ in range(height)]
    for mark, (name, ys) in zip(MARKS, series.items()):
        for xv, yv in zip(xs, ys):
            col = round((xt(xv) - x0) / (x1 - x0) * (width - 1))
            row = round((yv - ymin) / (ymax - ymin) * (height - 1))
            grid[height - 1 - row][col] = mark
    lines = []
    if title:
        lines.append(title)
    ytop = f"{ymax:.4g}"
    ybot = f"{ymin:.4g}"
    label_w = max(len(ytop), len(ybot))
    for i, row in enumerate(grid):
        label = ytop if i == 0 else (ybot if i == height - 1 else "")
        lines.append(f"{label:>{label_w}} |" + "".join(row))
    lines.append(" " * label_w + " +" + "-" * width)
    left = f"{xs[0]:.4g}"
    right = f"{xs[-1]:.4g}" + (" (log x)" if logx else "")
    pad = width - len(left) - len(right)
    lines.append(" " * (label_w + 2) + left + " " * max(1, pad) + right)
    legend = "   ".join(f"{mark}={name}" for mark, name in zip(MARKS, series))
    lines.append(" " * (label_w + 2) + legend)
    return "\n".join(lines)
