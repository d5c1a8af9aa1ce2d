"""ASCII figure rendering for experiment series.

The paper has no figures; the evaluation harness nevertheless renders its
sweep series as monospace line charts (F1–F3) so trends are visible
directly in terminal output and archived artifacts — the closest
equivalent of a paper's figures in a text-only pipeline.

:class:`AsciiChart` plots one or more named series over a shared x-axis
on a character grid with axis labels and a legend.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

#: Plot glyphs assigned to series in order.
_GLYPHS = "*o+x#@%"


class AsciiChart:
    """A monospace line chart.

    Args:
        title: Chart heading.
        x_label: X-axis label.
        y_label: Y-axis label.
        width: Plot-area width in characters.
        height: Plot-area height in rows.
    """

    def __init__(
        self,
        title: str,
        x_label: str = "x",
        y_label: str = "y",
        width: int = 60,
        height: int = 16,
    ) -> None:
        if width < 10 or height < 4:
            raise ValueError("chart area too small")
        self.title = title
        self.x_label = x_label
        self.y_label = y_label
        self.width = width
        self.height = height
        self._series: Dict[str, List[Tuple[float, float]]] = {}

    def add_series(self, name: str, xs: Sequence[float], ys: Sequence[float]) -> None:
        """Add one named series (points sorted by x)."""
        if len(xs) != len(ys):
            raise ValueError("xs and ys must have equal length")
        if len(xs) == 0:
            raise ValueError(f"series {name!r} is empty")
        if name in self._series:
            raise ValueError(f"duplicate series {name!r}")
        points = sorted(zip((float(x) for x in xs), (float(y) for y in ys)))
        self._series[name] = list(points)

    def _bounds(self) -> Tuple[float, float, float, float]:
        all_x = [x for pts in self._series.values() for x, _ in pts]
        all_y = [y for pts in self._series.values() for _, y in pts]
        x_lo, x_hi = min(all_x), max(all_x)
        y_lo, y_hi = min(all_y), max(all_y)
        if x_hi == x_lo:
            x_hi = x_lo + 1.0
        if y_hi == y_lo:
            y_hi = y_lo + 1.0
        return x_lo, x_hi, y_lo, y_hi

    def render(self) -> str:
        """Render the chart to a multi-line string."""
        if not self._series:
            raise ValueError("no series to plot")
        x_lo, x_hi, y_lo, y_hi = self._bounds()
        grid = [[" "] * self.width for _ in range(self.height)]

        def to_cell(x: float, y: float) -> Tuple[int, int]:
            col = round((x - x_lo) / (x_hi - x_lo) * (self.width - 1))
            row = round((y - y_lo) / (y_hi - y_lo) * (self.height - 1))
            return self.height - 1 - row, col

        # Draw linear interpolation between consecutive points so trends
        # read as lines, then overdraw the data points with the glyph.
        for idx, (name, points) in enumerate(self._series.items()):
            glyph = _GLYPHS[idx % len(_GLYPHS)]
            for (x0, y0), (x1, y1) in zip(points, points[1:]):
                steps = max(
                    abs(to_cell(x1, y1)[1] - to_cell(x0, y0)[1]),
                    abs(to_cell(x1, y1)[0] - to_cell(x0, y0)[0]),
                    1,
                )
                for s in range(steps + 1):
                    t = s / steps
                    r, c = to_cell(x0 + (x1 - x0) * t, y0 + (y1 - y0) * t)
                    if grid[r][c] == " ":
                        grid[r][c] = "."
            for x, y in points:
                r, c = to_cell(x, y)
                grid[r][c] = glyph

        lines = [self.title, "=" * max(len(self.title), self.width + 10)]
        y_labels = [f"{y_hi:.3g}", f"{(y_lo + y_hi) / 2:.3g}", f"{y_lo:.3g}"]
        label_width = max(len(s) for s in y_labels) + 1
        for r, row in enumerate(grid):
            if r == 0:
                label = y_labels[0]
            elif r == self.height // 2:
                label = y_labels[1]
            elif r == self.height - 1:
                label = y_labels[2]
            else:
                label = ""
            lines.append(f"{label:>{label_width}} |" + "".join(row))
        lines.append(f"{'':>{label_width}} +" + "-" * self.width)
        x_axis = f"{x_lo:.3g}".ljust(self.width - 8) + f"{x_hi:.3g}"
        lines.append(f"{'':>{label_width}}  {x_axis}   ({self.x_label})")
        legend = "   ".join(
            f"{_GLYPHS[i % len(_GLYPHS)]} {name}"
            for i, name in enumerate(self._series)
        )
        lines.append(f"  y: {self.y_label}    {legend}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


def figure_from_table(
    table,
    x_column: str,
    y_columns: Sequence[str],
    title: str = "",
    y_label: str = "value",
) -> AsciiChart:
    """Build a chart from a :class:`~repro.experiments.reporting.Table`.

    Mean values are extracted from :class:`~repro.metrics.stats.Summary`
    cells; plain numeric cells pass through.
    """
    from repro.metrics.stats import Summary

    def value(cell) -> float:
        if isinstance(cell, Summary):
            return cell.mean
        return float(cell)

    xs = [value(c) for c in table.column(x_column)]
    chart = AsciiChart(
        title or table.title, x_label=x_column, y_label=y_label
    )
    for name in y_columns:
        chart.add_series(name, xs, [value(c) for c in table.column(name)])
    return chart


#: The F1–F3 trend figures, keyed by figure id: ``(source suite, x
#: column, y columns, title, y label)``. The benchmarks render them from
#: their suite's table, and :meth:`ResultsStore.write_bench
#: <repro.experiments.store.ResultsStore.write_bench>` writes them next to
#: that table, so one CLI run regenerates both.
FIGURES: Dict[str, Tuple[str, str, Tuple[str, ...], str, str]] = {
    "F1": ("E1", "nodes", ("single utility", "coalition utility"),
           "F1 — utility vs neighborhood size (movie, phone requester)",
           "mean utility"),
    "F2": ("E4", "nodes", ("messages", "proposals"),
           "F2 — protocol cost vs node count (agent-based)", "count"),
    "F3": ("E7", "cpu spread", ("solo utility", "coalition utility", "gain"),
           "F3 — coalition gain vs capacity heterogeneity", "utility / gain"),
}


def render_figure(figure_id: str, table) -> AsciiChart:
    """Figure ``figure_id`` of :data:`FIGURES`, drawn from its source
    suite's ``table``."""
    _suite, x_column, y_columns, title, y_label = FIGURES[figure_id]
    return figure_from_table(table, x_column, y_columns, title=title, y_label=y_label)
