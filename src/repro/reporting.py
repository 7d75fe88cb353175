"""Plain-text reporting helpers (tables, bars, unit formatting).

Used by the CLI and the examples; benchmarks write similar tables under
``benchmarks/results/``.  No plotting dependencies — output is terminal-
and log-friendly text.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.units import format_latency, to_mbps

#: Columns of a :func:`render_timeline` bar.
TIMELINE_WIDTH = 60


def format_seconds(value: float) -> str:
    """Human-scaled duration: us / ms / s with sensible precision."""
    return format_latency(value, micro="us")


def format_mbps(bytes_per_second: float) -> str:
    """Bandwidth in Mb/s (the paper's unit)."""
    return f"{to_mbps(bytes_per_second):.0f} Mb/s"


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]]
) -> str:
    """Render an aligned text table; columns auto-size to their content."""
    if not headers:
        raise ValueError("a table needs headers")
    cells = [[str(h) for h in headers]]
    for row in rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row width {len(row)} != header width {len(headers)}"
            )
        cells.append([str(x) for x in row])
    widths = [
        max(len(line[col]) for line in cells) for col in range(len(headers))
    ]
    lines = []
    for index, line in enumerate(cells):
        lines.append(
            "  ".join(text.rjust(width) for text, width in zip(line, widths))
        )
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def bar_chart(
    labels: Sequence[str],
    values: Sequence[float],
    width: int = 40,
    unit: str = "",
) -> str:
    """Horizontal ASCII bar chart, scaled to the largest value."""
    if len(labels) != len(values):
        raise ValueError("labels and values lengths differ")
    if not labels:
        return ""
    if any(v < 0 for v in values):
        raise ValueError("bar charts need non-negative values")
    peak = max(values) or 1.0
    label_width = max(len(label) for label in labels)
    lines = []
    for label, value in zip(labels, values):
        bar = "#" * max(1 if value > 0 else 0, round(width * value / peak))
        suffix = f" {value:g}{unit}" if unit else f" {value:g}"
        lines.append(f"{label.rjust(label_width)} |{bar}{suffix}")
    return "\n".join(lines)


def sparkline(values: Sequence[float]) -> str:
    """One-line sparkline (8 levels) for a time series."""
    glyphs = "▁▂▃▄▅▆▇█"
    if not values:
        return ""
    low = min(values)
    high = max(values)
    if high == low:
        return glyphs[0] * len(values)
    span = high - low
    return "".join(
        glyphs[min(int((v - low) / span * 8), 7)] for v in values
    )


# ----------------------------------------------------------------------
# Trace timelines
# ----------------------------------------------------------------------
def render_timeline(events: Sequence) -> str:
    """ASCII timeline of a traced run, one row per tracer track,
    :data:`TIMELINE_WIDTH` columns wide.

    ``events`` is a sequence of :class:`repro.obs.TraceEvent` (straight
    from a :class:`~repro.obs.Tracer` or re-read from a JSONL dump).
    Spans (flow transfers) paint solid bars over the track's row; instant
    events mark single cells.  A final row sparklines the number of
    concurrently active flows, which is what the adaptive scheduler
    modulates.
    """
    events = list(events)
    if not events:
        return "(no events)"
    t0 = min(event.t for event in events)
    t1 = max(event.t for event in events)
    span = (t1 - t0) or 1.0
    width = TIMELINE_WIDTH

    def column(t: float) -> int:
        return min(int((t - t0) / span * (width - 1)), width - 1)

    # Pair begin/end spans per (track, span_id); unmatched begins run to t1.
    open_spans: dict[tuple[str, int | None], float] = {}
    spans: dict[str, list[tuple[float, float]]] = {}
    instants: dict[str, list[float]] = {}
    for event in events:
        if event.kind == "begin":
            open_spans[(event.track, event.span_id)] = event.t
        elif event.kind == "end":
            start = open_spans.pop((event.track, event.span_id), None)
            if start is not None:
                spans.setdefault(event.track, []).append((start, event.t))
        else:
            instants.setdefault(event.track, []).append(event.t)
    for (track, _), start in open_spans.items():
        spans.setdefault(track, []).append((start, t1))

    tracks = _ordered_tracks(set(spans) | set(instants))
    label_width = max(len(track) for track in tracks)
    lines = [
        f"timeline: {format_seconds(t0)} .. {format_seconds(t1)} "
        f"({format_seconds(t1 - t0)} span)"
    ]
    for track in tracks:
        row = [" "] * width
        for t in instants.get(track, ()):
            row[column(t)] = "·"
        for start, stop in spans.get(track, ()):
            lo, hi = column(start), column(stop)
            for i in range(lo, hi + 1):
                row[i] = "█"
        lines.append(f"{track.rjust(label_width)} |{''.join(row)}|")
    concurrency = _active_flow_series(spans, t0, span, width)
    if any(concurrency):
        lines.append(
            f"{'active'.rjust(label_width)} |{sparkline(concurrency)}| "
            f"peak {int(max(concurrency))}"
        )
    return "\n".join(lines)


def _ordered_tracks(tracks) -> list[str]:
    """Node tracks by id first, then named tracks alphabetically."""
    nodes, named = [], []
    for track in tracks:
        if track.startswith("node:"):
            try:
                nodes.append((int(track.split(":", 1)[1]), track))
                continue
            except ValueError:
                pass
        named.append(track)
    return [t for _, t in sorted(nodes)] + sorted(named)


def _active_flow_series(
    spans: dict[str, list[tuple[float, float]]],
    t0: float,
    span: float,
    width: int,
) -> list[float]:
    """Concurrently-open span count sampled at each timeline column."""
    intervals = [pair for pairs in spans.values() for pair in pairs]
    series = []
    for i in range(width):
        t = t0 + span * i / max(width - 1, 1)
        series.append(
            float(sum(1 for start, stop in intervals if start <= t <= stop))
        )
    return series
