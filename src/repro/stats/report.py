"""Plain-text tables for experiment output.

The experiment layer has no plotting dependency, so every figure is
regenerated as a text table whose rows/columns mirror the figure's bars and
series.  These formatting helpers keep that output consistent.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Optional, Sequence


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]],
                 title: Optional[str] = None, float_format: str = "{:.2f}") -> str:
    """Render a simple aligned text table."""
    def render(cell: object) -> str:
        if isinstance(cell, float):
            return float_format.format(cell)
        return str(cell)

    rendered_rows: List[List[str]] = [[render(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    lines: List[str] = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    header_line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_breakdown_table(breakdowns: Mapping[str, Mapping[str, Mapping[str, float]]],
                           components: Sequence[str],
                           title: Optional[str] = None) -> str:
    """Render nested {workload: {config: {component: value}}} breakdowns."""
    headers = ["workload", "config"] + list(components) + ["total"]
    rows: List[List[object]] = []
    for workload, configs in breakdowns.items():
        for config_name, values in configs.items():
            row: List[object] = [workload, config_name]
            row.extend(float(values.get(c, 0.0)) for c in components)
            row.append(float(sum(values.get(c, 0.0) for c in components)))
            rows.append(row)
    return format_table(headers, rows, title=title)


def format_series_table(series: Mapping[str, Mapping[str, float]],
                        title: Optional[str] = None,
                        value_name: str = "value") -> str:
    """Render {workload: {config: scalar}} series (speedups, fractions)."""
    configs: List[str] = []
    for values in series.values():
        for name in values:
            if name not in configs:
                configs.append(name)
    headers = ["workload"] + configs
    rows: List[List[object]] = []
    for workload, values in series.items():
        rows.append([workload] + [float(values.get(c, float("nan"))) for c in configs])
    return format_table(headers, rows, title=title)
