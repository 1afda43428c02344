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
    """A fixed-width table with a banner header.

    Each column is ``col_width`` wide, or one wider than its longest
    cell, so neighbouring cells always keep a space between them.
    """
    lines = [[fmt(cell, 0) for cell in line] for line in [columns, *rows]]
    widths: list = []
    for line in lines:
        for i, text in enumerate(line):
            need = max(col_width, len(text) + 1)
            if i == len(widths):
                widths.append(need)
            elif need > widths[i]:
                widths[i] = need
    out = [banner(title, subtitle)]
    for n, line in enumerate(lines):
        out.append("".join(t.rjust(w) for t, w in zip(line, widths)))
        if n == 0:
            out.append("-" * sum(widths[: len(columns)]))
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
