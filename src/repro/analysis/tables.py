"""Plain-text tables — every benchmark prints its paper-shaped artifact.

No plotting dependencies: series and tables render as aligned monospace
text, which is what ``benchmarks/results/E*.txt`` records.
"""

from __future__ import annotations

from typing import Mapping, Sequence

__all__ = ["format_table", "format_series"]


def _fmt(v, floatfmt: str) -> str:
    if isinstance(v, bool):
        return str(v)
    if isinstance(v, float):
        return format(v, floatfmt)
    return str(v)


def format_table(rows: Sequence[Mapping], columns: Sequence[str] | None = None,
                 *, floatfmt: str = ".4g", title: str | None = None) -> str:
    """Render rows of dicts as an aligned text table."""
    if not rows:
        return (title + "\n" if title else "") + "(no rows)"
    cols = list(columns) if columns is not None else list(rows[0].keys())
    cells = [[_fmt(r.get(c, ""), floatfmt) for c in cols] for r in rows]
    widths = [max(len(c), *(len(row[i]) for row in cells))
              for i, c in enumerate(cols)]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(c.ljust(w) for c, w in zip(cols, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(v.rjust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)


def format_series(xs: Sequence, ys: Sequence, *, xlabel: str = "x",
                  ylabel: str = "y", floatfmt: str = ".4g",
                  title: str | None = None) -> str:
    """Render an (x, y) series as a two-column table."""
    rows = [{xlabel: x, ylabel: y} for x, y in zip(xs, ys)]
    return format_table(rows, [xlabel, ylabel], floatfmt=floatfmt,
                        title=title)
