"""ASCII reports for experiment results: tables, series and line charts.

``render_result`` prints one experiment's banner, claim, table and
figure series; ``line_chart`` draws each series into a fixed-size
character grid with a y-axis, per-series glyphs and a legend — enough
to eyeball the *shape* claims (who wins, where the crossover is)
directly in terminal output and in EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from repro.errors import BenchError
from repro.experiments.common import ExperimentResult
from repro.query.result import format_table

_GLYPHS = "*o+x#@%&"


def _resample(values: Sequence[float], width: int) -> list[float | None]:
    """Stretch/shrink ``values`` to exactly ``width`` samples."""
    if not values:
        return [None] * width
    if len(values) == 1:
        return [float(values[0])] * width
    out: list[float | None] = []
    for col in range(width):
        pos = col * (len(values) - 1) / (width - 1)
        lo = int(pos)
        hi = min(lo + 1, len(values) - 1)
        frac = pos - lo
        out.append(values[lo] * (1 - frac) + values[hi] * frac)
    return out


def line_chart(
    series: Mapping[str, Sequence[float]],
    width: int = 64,
    height: int = 12,
    y_label: str = "",
) -> str:
    """Render named series as one ASCII chart with a shared y scale.

    Series may have different lengths; each is resampled to the chart
    width, so the x axis is "progress through the series" (fine for
    per-tick data sharing one tick range).
    """
    if not series:
        raise BenchError("line_chart needs at least one series")
    if width < 8 or height < 3:
        raise BenchError(f"chart too small: {width}x{height}")
    if len(series) > len(_GLYPHS):
        raise BenchError(f"at most {len(_GLYPHS)} series supported, got {len(series)}")

    all_values = [v for values in series.values() for v in values if v is not None]
    if not all_values:
        return "(no data)"
    lo, hi = min(all_values), max(all_values)
    span = (hi - lo) or 1.0

    grid = [[" "] * width for _ in range(height)]
    for glyph, (name, values) in zip(_GLYPHS, series.items()):
        for col, value in enumerate(_resample(list(values), width)):
            if value is None:
                continue
            row = height - 1 - int((value - lo) / span * (height - 1))
            grid[row][col] = glyph

    def fmt(value: float) -> str:
        return f"{value:.4g}"

    label_width = max(len(fmt(hi)), len(fmt(lo))) + 1
    lines = []
    for i, row in enumerate(grid):
        if i == 0:
            label = fmt(hi)
        elif i == height - 1:
            label = fmt(lo)
        else:
            label = ""
        lines.append(f"{label.rjust(label_width)} |{''.join(row)}")
    lines.append(" " * label_width + " +" + "-" * width)
    legend = "   ".join(
        f"{glyph}={name}" for glyph, name in zip(_GLYPHS, series.keys())
    )
    lines.append(" " * label_width + "  " + legend)
    if y_label:
        lines.insert(0, f"{y_label}:")
    return "\n".join(lines)


def ascii_table(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    """Aligned ASCII table (shared renderer with query results)."""
    return format_table(tuple(headers), rows)


def format_series(
    x_name: str, x_values: Sequence[Any], series: Mapping[str, Sequence[Any]]
) -> str:
    """Render named series against a shared x axis as a table.

    Series shorter than the axis are padded with blanks (an experiment
    arm may end early, e.g. a relation that went extinct).
    """
    headers = [x_name, *series.keys()]
    rows = []
    for i, x in enumerate(x_values):
        row: list[Any] = [x]
        for values in series.values():
            row.append(values[i] if i < len(values) else "")
        rows.append(row)
    return ascii_table(headers, rows)


def sparkline(values: Sequence[float], width: int = 60) -> str:
    """A coarse one-line chart for quick visual shape checks."""
    if not values:
        return "(empty)"
    marks = " .:-=+*#%@"
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0
    if len(values) > width:
        step = len(values) / width
        values = [values[int(i * step)] for i in range(width)]
    return "".join(marks[int((v - lo) / span * (len(marks) - 1))] for v in values)


def render_result(result: ExperimentResult) -> str:
    """Full report for one experiment: banner, claim, tables, series."""
    lines = [
        "=" * 72,
        f"{result.experiment_id}: {result.title}",
        "=" * 72,
        f"paper claim: {result.claim}",
        "",
    ]
    if result.headers and result.rows:
        lines.append(ascii_table(result.headers, result.rows))
        lines.append("")
    for name, (x_name, x_values, series) in result.series.items():
        lines.append(f"-- {name} --")
        numeric = {
            s_name: [v for v in values if isinstance(v, (int, float))]
            for s_name, values in series.items()
        }
        if all(len(v) >= 2 for v in numeric.values()) and numeric:
            lines.append(line_chart(numeric, y_label=name))
            lines.append("")
        lines.append(format_series(x_name, x_values, series))
        lines.append("")
    for note in result.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines)
