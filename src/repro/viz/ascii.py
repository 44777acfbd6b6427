"""ASCII plotting (no matplotlib in the offline environment).

Good enough to eyeball the Figs. 5-6 CDF curves and the Fig. 3 series in
a terminal; the quantitative record lives in the result objects, not
in these plots.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ExperimentError

#: Glyph per curve, assigned in insertion order.
CURVE_GLYPHS = "*o+x#@%&"


def line_plot(
    series: Dict[str, Sequence[float]],
    xs: Sequence[float],
    width: int = 64,
    height: int = 16,
    y_min: Optional[float] = None,
    y_max: Optional[float] = None,
    title: str = "",
    x_label: str = "",
    y_label: str = "",
) -> str:
    """Render one or more y-series over shared x values as ASCII art.

    Args:
        series: name -> y values (same length as ``xs``).
        xs: The shared x axis values (monotonically increasing).
    """
    if not series:
        raise ExperimentError("nothing to plot")
    for name, ys in series.items():
        if len(ys) != len(xs):
            raise ExperimentError(
                f"series {name!r} has {len(ys)} points for {len(xs)} x values"
            )
    if len(xs) < 2:
        raise ExperimentError("need at least two x values")
    all_values = [y for ys in series.values() for y in ys]
    lo = min(all_values) if y_min is None else y_min
    hi = max(all_values) if y_max is None else y_max
    if hi <= lo:
        hi = lo + 1.0
    x_lo, x_hi = xs[0], xs[-1]

    grid = [[" "] * width for _ in range(height)]
    for index, (name, ys) in enumerate(series.items()):
        glyph = CURVE_GLYPHS[index % len(CURVE_GLYPHS)]
        for x, y in zip(xs, ys):
            col = int((x - x_lo) / (x_hi - x_lo) * (width - 1))
            row = int((y - lo) / (hi - lo) * (height - 1))
            grid[height - 1 - row][col] = glyph

    lines: List[str] = []
    if title:
        lines.append(title)
    top_label = f"{hi:.2f}"
    bottom_label = f"{lo:.2f}"
    label_width = max(len(top_label), len(bottom_label))
    for row_index, row in enumerate(grid):
        if row_index == 0:
            label = top_label.rjust(label_width)
        elif row_index == height - 1:
            label = bottom_label.rjust(label_width)
        else:
            label = " " * label_width
        lines.append(f"{label} |{''.join(row)}")
    axis = " " * label_width + " +" + "-" * width
    lines.append(axis)
    x_axis_line = (
        " " * label_width
        + "  "
        + f"{x_lo:g}".ljust(width // 2)
        + f"{x_hi:g}".rjust(width - width // 2)
    )
    lines.append(x_axis_line)
    if x_label:
        lines.append(" " * label_width + "  " + x_label.center(width))
    legend = "  ".join(
        f"{CURVE_GLYPHS[i % len(CURVE_GLYPHS)]}={name}"
        for i, name in enumerate(series)
    )
    lines.append("legend: " + legend)
    return "\n".join(lines)


def cdf_plot(
    curves: Dict[str, Sequence[float]],
    grid: Sequence[float],
    title: str = "",
    width: int = 64,
    height: int = 16,
) -> str:
    """Convenience wrapper fixing the y range to [0, 1] (probabilities)."""
    return line_plot(
        curves,
        grid,
        width=width,
        height=height,
        y_min=0.0,
        y_max=1.0,
        title=title,
        x_label="sessions",
    )


def bar_chart(
    values: Dict[str, float], width: int = 48, title: str = ""
) -> str:
    """Horizontal bar chart for variant comparisons."""
    if not values:
        raise ExperimentError("nothing to chart")
    peak = max(values.values())
    if peak <= 0:
        peak = 1.0
    label_width = max(len(name) for name in values)
    lines = [title] if title else []
    for name, value in values.items():
        bar = "#" * max(1, int(round(value / peak * width))) if value > 0 else ""
        lines.append(f"{name.ljust(label_width)} | {bar} {value:.3f}")
    return "\n".join(lines)
