"""Plain-text table rendering for bench output."""

from __future__ import annotations

from typing import Iterable, List, Sequence


def _fmt(value) -> str:
    if value is None:  # a JSON null: NaN, or no value at all
        return "-"
    if isinstance(value, float):
        if value != value:  # NaN
            return "-"
        if abs(value) >= 100:
            return f"{value:.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4f}"
    return str(value)


def format_table(headers: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Render an aligned ASCII table (the benches' output format)."""
    text_rows: List[List[str]] = [[_fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in text_rows:
        if len(row) != len(headers):
            raise ValueError("row width does not match headers")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    header = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header)
    lines.append("  ".join("-" * w for w in widths))
    for row in text_rows:
        lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(row)))
    return "\n".join(lines)


def gbps(bps: float) -> float:
    """bits/second -> Gbps."""
    return bps / 1e9
