"""Plain-text table rendering for benchmark output.

Every benchmark regenerates its paper table/figure as text; this keeps
the rendering in one place so the output stays uniform.
"""

from __future__ import annotations

from typing import List, Sequence


def render_table(title: str, headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render an aligned text table with a title rule."""
    columns = len(headers)
    for row in rows:
        if len(row) != columns:
            raise ValueError(f"row {row!r} has {len(row)} cells, expected {columns}")
    cells = [[str(h) for h in headers]] + [[_fmt(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(columns)]
    ruler = "-+-".join("-" * w for w in widths)
    lines = [title, "=" * len(title)]
    lines.append(" | ".join(cells[0][i].ljust(widths[i]) for i in range(columns)))
    lines.append(ruler)
    for row in cells[1:]:
        lines.append(" | ".join(row[i].ljust(widths[i]) for i in range(columns)))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def fmt_percent(value: float, decimals: int = 2) -> str:
    """Format a ratio as a percentage; NaN (an undefined metric, e.g.
    precision with zero positive predictions) renders as an em dash."""
    if value != value:  # NaN-safe without importing math
        return "—"
    return f"{value:.{decimals}%}"


def render_task_timings(timings: Sequence[object],
                        title: str = "Experiment task timings") -> str:
    """Render the engine's task timing records as a table.

    ``timings`` is a sequence of :class:`repro.experiments.parallel.TaskTiming`
    (anything with ``label`` and ``elapsed`` works).
    """
    rows = [[t.label, f"{t.elapsed:.2f}s"] for t in timings]
    summary = (f"{len(rows)} tasks, "
               f"{sum(t.elapsed for t in timings):.2f}s total task time")
    table = render_table(title, ["task", "elapsed"], rows)
    return f"{table}\n{summary}"


def render_metrics_snapshot(snapshot: dict,
                            title: str = "Guard metrics") -> str:
    """Render a :meth:`repro.obs.metrics.MetricsRegistry.snapshot` dict.

    Counters and gauges share one table; histograms get a second table
    with count/mean/min/max (empty histograms render as dashes).
    """
    rows = []
    for name, value in sorted(snapshot.get("counters", {}).items()):
        rows.append([name, "counter", value])
    for name, gauge in sorted(snapshot.get("gauges", {}).items()):
        rows.append([name, "gauge", f"{gauge['value']:g} (high {gauge['high_water']:g})"])
    sections = []
    if rows:
        sections.append(render_table(title, ["metric", "kind", "value"], rows))
    hist_rows = []
    for name, hist in sorted(snapshot.get("histograms", {}).items()):
        count = hist["count"]
        if count:
            mean = hist["total"] / count
            hist_rows.append([name, count, f"{mean:.4g}",
                              f"{hist['min']:.4g}", f"{hist['max']:.4g}"])
        else:
            hist_rows.append([name, 0, "—", "—", "—"])
    if hist_rows:
        sections.append(render_table(f"{title}: histograms",
                                     ["histogram", "count", "mean", "min", "max"],
                                     hist_rows))
    if not sections:
        return f"{title}\n{'=' * len(title)}\n(no metrics recorded)"
    return "\n\n".join(sections)


def render_histogram(title: str, values: Sequence[float], bins: Sequence[float],
                     width: int = 40) -> str:
    """ASCII histogram (used for the Figure 7 delay distribution)."""
    if len(bins) < 2:
        raise ValueError("need at least two bin edges")
    counts: List[int] = [0] * (len(bins) - 1)
    for value in values:
        for i in range(len(bins) - 1):
            last = i == len(bins) - 2
            if bins[i] <= value < bins[i + 1] or (last and value == bins[i + 1]):
                counts[i] += 1
                break
    peak = max(counts) if counts else 1
    lines = [title, "=" * len(title)]
    for i, count in enumerate(counts):
        bar = "#" * (0 if peak == 0 else round(width * count / max(peak, 1)))
        lines.append(f"[{bins[i]:5.2f}, {bins[i+1]:5.2f})  {count:>4}  {bar}")
    return "\n".join(lines)
