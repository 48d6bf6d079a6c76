"""Small reporting helpers shared by the benchmark harness."""

from __future__ import annotations

from typing import Any, Sequence


def overhead_pct(value: float, baseline: float) -> float:
    """Relative overhead of ``value`` over ``baseline``, in percent.

    For lower-is-better metrics pass elapsed times; for higher-is-better
    metrics pass the *baseline's* figure first via ``-overhead_pct``.
    """
    if baseline == 0:
        return 0.0
    return (value / baseline - 1.0) * 100.0


def format_rows(
    headers: Sequence[str], rows: Sequence[Sequence[Any]], title: str = ""
) -> str:
    """Render an aligned text table (what the bench targets print)."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in str_rows)) if str_rows else len(headers[i])
        for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(cell: Any) -> str:
    if isinstance(cell, float):
        if abs(cell) >= 1000:
            return f"{cell:,.0f}"
        if abs(cell) >= 10:
            return f"{cell:.1f}"
        if 0 < abs(cell) < 0.001:
            return f"{cell:.3g}"  # e.g. a noise fraction: not "0.000"
        return f"{cell:.3f}"
    return str(cell)
