"""Self-contained HTML run report (``repro report --html``).

Renders one run's observability artefacts — trace events, flight-recorder
samples, and a :class:`~repro.obs.analysis.RunDiagnosis` — into a single
HTML file with **zero external dependencies**: all styling is inline CSS
and every chart is hand-built inline SVG, so the file opens offline and
survives being attached to a ticket.

Three panels:

* **utilization heatmap** — links (node x direction) on the y axis,
  sample time on the x axis, cell colour from cool (idle) to hot
  (saturated);
* **repair waterfall** — one bar per diagnosed repair, segmented by
  attributed cause (transfer / contention / governor / stall);
* **governor timeline** — the repair rate cap as a step function over
  the run, with uncapped intervals left blank.

Everything here is deterministic: element order follows sorted node ids
and event order, and floats are formatted with fixed precision, so two
same-seed runs produce byte-identical reports.
"""

from __future__ import annotations

import html
from collections.abc import Sequence

from repro.obs.analysis import RunDiagnosis
from repro.obs.critpath import FLOW_CATEGORIES
from repro.units import to_mbps

__all__ = ["render_html_report"]

#: Waterfall segment colour per flow category; ``strict`` so a category
#: added to the vocabulary cannot silently render as a zero-width bar.
_COMPONENT_COLOURS = tuple(
    zip(
        FLOW_CATEGORIES,
        ("#4c9f70", "#e0a83c", "#7d6fb3", "#c0504d"),
        strict=True,
    )
)

_CSS = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2rem auto; max-width: 70rem; color: #222; }
h1 { font-size: 1.4rem; } h2 { font-size: 1.1rem; margin-top: 2rem; }
table { border-collapse: collapse; font-size: 0.85rem; }
th, td { border: 1px solid #ccc; padding: 0.3rem 0.6rem; text-align: right; }
th { background: #f0f0f0; }
td.label, th.label { text-align: left; }
.anomaly { color: #b00020; font-weight: 600; }
.ok { color: #2e7d32; }
.legend span { display: inline-block; margin-right: 1rem; }
.legend i { display: inline-block; width: 0.8rem; height: 0.8rem;
            margin-right: 0.3rem; vertical-align: middle; }
svg text { font-family: inherit; }
.meta { color: #666; font-size: 0.8rem; }
"""


def _fmt(value: float) -> str:
    """Fixed-precision float for deterministic SVG geometry."""
    return f"{value:.2f}"


def _heat_colour(util: float) -> str:
    """Idle-to-saturated colour ramp (light grey -> amber -> red)."""
    u = min(max(util, 0.0), 1.0)
    if u < 0.5:
        # grey (0xee) -> amber
        f = u / 0.5
        r = int(0xEE + (0xE0 - 0xEE) * f)
        g = int(0xEE + (0xA8 - 0xEE) * f)
        b = int(0xEE + (0x3C - 0xEE) * f)
    else:
        f = (u - 0.5) / 0.5
        r = int(0xE0 + (0xC0 - 0xE0) * f)
        g = int(0xA8 + (0x30 - 0xA8) * f)
        b = int(0x3C + (0x30 - 0x3C) * f)
    return f"#{r:02x}{g:02x}{b:02x}"


#: Heatmap column budget: long runs are bucketed (max util per bucket)
#: so the report stays small no matter how many samples were recorded.
_HEATMAP_COLUMNS = 160


def _utilization_heatmap(samples: Sequence) -> str:
    """Links x time heatmap from flight-recorder samples (inline SVG)."""
    if not samples:
        return "<p class='meta'>no flight-recorder samples in this run</p>"
    links: set[tuple[str, int]] = set()
    for sample in samples:
        links.update(("up", node) for node in sample.up_util)
        links.update(("down", node) for node in sample.down_util)
    if not links:
        return "<p class='meta'>samples carry no per-link utilization</p>"
    rows = sorted(links, key=lambda key: (key[1], key[0]))
    columns = min(len(samples), _HEATMAP_COLUMNS)
    per_bucket = len(samples) / columns

    def bucket_util(direction: str, node: int, col: int) -> float:
        lo = int(col * per_bucket)
        hi = max(int((col + 1) * per_bucket), lo + 1)
        best = 0.0
        for sample in samples[lo:hi]:
            series = (
                sample.up_util if direction == "up" else sample.down_util
            )
            util = series.get(node, 0.0)
            if util != util or util == float("inf"):
                util = 1.0
            best = max(best, util)
        return best

    cell_w, cell_h, label_w, top = 8, 14, 70, 18
    width = label_w + cell_w * columns + 10
    height = top + cell_h * len(rows) + 24
    parts = [
        f"<svg viewBox='0 0 {width} {height}' width='{width}' "
        f"height='{height}' role='img'>"
    ]
    for row_index, (direction, node) in enumerate(rows):
        y = top + row_index * cell_h
        parts.append(
            f"<text x='{label_w - 6}' y='{y + cell_h - 3}' "
            f"text-anchor='end' font-size='10'>N{node} {direction}</text>"
        )
        for col in range(columns):
            util = bucket_util(direction, node, col)
            t = samples[int(col * per_bucket)].t
            parts.append(
                f"<rect x='{label_w + col * cell_w}' y='{y}' "
                f"width='{cell_w}' height='{cell_h - 1}' "
                f"fill='{_heat_colour(util)}'>"
                f"<title>N{node} {direction} @ {_fmt(t)}s: "
                f"{_fmt(util * 100)}%</title></rect>"
            )
    t0, t1 = samples[0].t, samples[-1].t
    axis_y = top + len(rows) * cell_h + 12
    parts.append(
        f"<text x='{label_w}' y='{axis_y}' font-size='10'>{_fmt(t0)}s</text>"
        f"<text x='{label_w + cell_w * columns}' y='{axis_y}' "
        f"text-anchor='end' font-size='10'>{_fmt(t1)}s</text>"
    )
    parts.append("</svg>")
    if len(samples) > columns:
        parts.append(
            f"<p class='meta'>{len(samples)} samples bucketed into "
            f"{columns} columns (peak utilization per bucket)</p>"
        )
    return "".join(parts)


def _repair_waterfall(diagnosis: RunDiagnosis) -> str:
    """Per-repair stacked bar of attributed seconds (inline SVG)."""
    repairs = [d for d in diagnosis.repairs if d.duration > 0]
    if not repairs:
        return "<p class='meta'>no finished repair flows to attribute</p>"
    longest = max(d.duration for d in repairs)
    bar_h, gap, label_w, bar_w, top = 16, 6, 150, 600, 6
    height = top + len(repairs) * (bar_h + gap) + 20
    width = label_w + bar_w + 90
    parts = [
        f"<svg viewBox='0 0 {width} {height}' width='{width}' "
        f"height='{height}' role='img'>"
    ]
    for index, diag in enumerate(repairs):
        y = top + index * (bar_h + gap)
        label = html.escape(diag.label[:22])
        parts.append(
            f"<text x='{label_w - 6}' y='{y + bar_h - 4}' "
            f"text-anchor='end' font-size='10'>{label}</text>"
        )
        x = float(label_w)
        for key, colour in _COMPONENT_COLOURS:
            seconds = diag.components.get(key, 0.0)
            if seconds <= 0:
                continue
            w = bar_w * seconds / longest
            parts.append(
                f"<rect x='{_fmt(x)}' y='{y}' width='{_fmt(w)}' "
                f"height='{bar_h}' fill='{colour}'>"
                f"<title>{key}: {_fmt(seconds)}s</title></rect>"
            )
            x += w
        parts.append(
            f"<text x='{_fmt(x + 5)}' y='{y + bar_h - 4}' "
            f"font-size='10'>{_fmt(diag.duration)}s</text>"
        )
    parts.append("</svg>")
    legend = "".join(
        f"<span><i style='background:{colour}'></i>{key}</span>"
        for key, colour in _COMPONENT_COLOURS
    )
    return f"<div class='legend'>{legend}</div>" + "".join(parts)


def _governor_timeline(samples: Sequence, diagnosis: RunDiagnosis) -> str:
    """Repair cap step function over the run (inline SVG)."""
    points: list[tuple[float, float | None]] = []
    previous: object = object()
    for sample in samples:
        if sample.repair_cap != previous:
            points.append((sample.t, sample.repair_cap))
            previous = sample.repair_cap
    if not points and not diagnosis.governor:
        return "<p class='meta'>no governor activity recorded</p>"
    if not points:
        return (
            "<p class='meta'>governor made "
            f"{diagnosis.governor.get('decisions', 0)} decisions "
            "(enable the flight recorder for the cap timeline)</p>"
        )
    t0 = points[0][0]
    t1 = samples[-1].t if samples else points[-1][0]
    span = (t1 - t0) or 1.0
    caps = [cap for _, cap in points if cap is not None]
    peak = max(caps) if caps else 1.0
    width, height, label_w, top = 620, 120, 60, 10
    plot_w, plot_h = width - label_w - 10, height - top - 24

    def x_of(t: float) -> float:
        return label_w + plot_w * (t - t0) / span

    def y_of(cap: float | None) -> float:
        if cap is None:
            return float(top)  # uncapped drawn at the top edge, dashed
        return top + plot_h * (1 - min(cap / peak, 1.0) if peak else 1)

    parts = [
        f"<svg viewBox='0 0 {width} {height}' width='{width}' "
        f"height='{height}' role='img'>",
        f"<line x1='{label_w}' y1='{top + plot_h}' x2='{width - 10}' "
        f"y2='{top + plot_h}' stroke='#999'/>",
        f"<text x='{label_w - 4}' y='{top + 8}' text-anchor='end' "
        f"font-size='10'>{_fmt(to_mbps(peak))} Mb/s</text>",
        f"<text x='{label_w - 4}' y='{top + plot_h}' text-anchor='end' "
        f"font-size='10'>0</text>",
    ]
    extended = points + [(t1, points[-1][1])]
    for (t, cap), (t_next, _) in zip(extended, extended[1:]):
        x1, x2 = x_of(t), x_of(max(t_next, t))
        y = y_of(cap)
        dash = " stroke-dasharray='4 3'" if cap is None else ""
        title = (
            "uncapped" if cap is None else f"{_fmt(to_mbps(cap))} Mb/s"
        )
        parts.append(
            f"<line x1='{_fmt(x1)}' y1='{_fmt(y)}' x2='{_fmt(x2)}' "
            f"y2='{_fmt(y)}' stroke='#7d6fb3' stroke-width='2'{dash}>"
            f"<title>{title} from {_fmt(t)}s</title></line>"
        )
    parts.append(
        f"<text x='{label_w}' y='{height - 6}' font-size='10'>"
        f"{_fmt(t0)}s</text>"
        f"<text x='{width - 10}' y='{height - 6}' text-anchor='end' "
        f"font-size='10'>{_fmt(t1)}s</text>"
    )
    parts.append("</svg>")
    return "".join(parts)


def _summary_table(diagnosis: RunDiagnosis) -> str:
    rows = []
    for diag in diagnosis.repairs:
        ratio = diag.achieved_over_oracle
        if ratio is None:
            ratio = diag.achieved_over_claimed
        neck = "-" if diag.bottleneck is None else html.escape(
            diag.bottleneck.describe()
        )
        rows.append(
            "<tr>"
            f"<td class='label'>{html.escape(diag.label)}</td>"
            f"<td>{_fmt(diag.duration)}</td>"
            f"<td>{_fmt(to_mbps(diag.achieved_rate))}</td>"
            f"<td>{'-' if ratio is None else _fmt(ratio)}</td>"
            f"<td class='label'>{neck}</td>"
            "</tr>"
        )
    if not rows:
        return "<p class='meta'>no repairs diagnosed</p>"
    return (
        "<table><tr><th class='label'>repair</th><th>duration (s)</th>"
        "<th>rate (Mb/s)</th><th>vs B_min</th>"
        "<th class='label'>bottleneck</th></tr>"
        + "".join(rows)
        + "</table>"
    )


def render_html_report(
    diagnosis: RunDiagnosis,
    samples: Sequence = (),
    title: str = "repro run report",
) -> str:
    """One self-contained HTML page for a diagnosed run."""
    samples = list(samples)
    anomalies = (
        "<p class='ok'>no invariant violations</p>"
        if not diagnosis.anomalies
        else "<ul>"
        + "".join(
            f"<li class='anomaly'>{html.escape(issue)}</li>"
            for issue in diagnosis.anomalies
        )
        + "</ul>"
    )
    top = diagnosis.top_bottleneck
    headline = (
        "no bottleneck identified"
        if top is None
        else f"bottleneck: {html.escape(top.describe())}"
    )
    ratio = diagnosis.achieved_over_oracle
    if ratio is not None:
        headline += f" &middot; achieved/oracle B_min {_fmt(ratio)}"
    return f"""<!doctype html>
<html lang="en"><head><meta charset="utf-8">
<title>{html.escape(title)}</title>
<style>{_CSS}</style></head>
<body>
<h1>{html.escape(title)}</h1>
<p>{headline}</p>
<h2>Repairs</h2>
{_summary_table(diagnosis)}
<h2>Attribution waterfall</h2>
{_repair_waterfall(diagnosis)}
<h2>Link utilization</h2>
{_utilization_heatmap(samples)}
<h2>Governor timeline</h2>
{_governor_timeline(samples, diagnosis)}
<h2>Invariants</h2>
{anomalies}
<p class="meta">generated by repro report; all panels inline SVG,
no external assets.</p>
</body></html>
"""
