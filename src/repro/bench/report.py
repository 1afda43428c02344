"""Plain-text rendering of benchmark tables and series.

Every claim in :mod:`repro.bench.claims` prints its rows through these
helpers so ``python -m repro.bench`` reads like the paper's tables: one
experiment header, the measured series, and the paper-expected shape
next to it.
"""

from __future__ import annotations

from typing import Dict, Sequence

__all__ = ["render_table", "render_series", "banner", "fmt"]


def fmt(value, width: int = 10) -> str:
    """Format one cell: floats to 3 significant digits."""
    if isinstance(value, float):
        if value == 0:
            text = "0"
        elif abs(value) >= 100:
            text = f"{value:.0f}"
        elif abs(value) >= 1:
            text = f"{value:.2f}"
        else:
            text = f"{value:.3f}"
    else:
        text = str(value)
    return text.rjust(width)


def banner(title: str, subtitle: str = "") -> str:
    lines = ["", "=" * 72, title]
    if subtitle:
        lines.append(subtitle)
    lines.append("=" * 72)
    return "\n".join(lines)


def render_table(
    title: str,
    columns: Sequence[str],
    rows: Sequence[Sequence],
    subtitle: str = "",
    col_width: int = 12,
) -> str:
    """A fixed-width table with a banner header."""
    out = [banner(title, subtitle)]
    out.append("".join(fmt(c, col_width) for c in columns))
    out.append("-" * (col_width * len(columns)))
    for row in rows:
        out.append("".join(fmt(cell, col_width) for cell in row))
    return "\n".join(out)


def render_series(
    title: str,
    x_label: str,
    xs: Sequence,
    series: Dict[str, Sequence[float]],
    subtitle: str = "",
    col_width: int = 12,
) -> str:
    """Figure-style output: one x column plus one column per line."""
    columns = [x_label] + list(series)
    rows = []
    for i, x in enumerate(xs):
        rows.append([x] + [series[name][i] for name in series])
    return render_table(title, columns, rows, subtitle, col_width)
