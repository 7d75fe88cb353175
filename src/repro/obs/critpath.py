"""Trace attribution: one index, one flow rule, exact critical paths.

This module owns trace digestion and the flow-attribution rule for every
view of *where repair time went*:

* :func:`build_spans` digests an event stream in one pass into a
  :class:`TraceIndex` — the span DAG, each flow's ``flow.rate_change``
  profile and the governor cap timeline;
* :func:`flow_categories` is the one rule that splits any
  ``[start, end]`` of a flow into seconds per category against a
  reference rate (see its docstring for the rule);
* :func:`critical_paths` applies it to the critical-path segments of
  every repair against the *claimed* ``B_min`` stamped on the flow at
  submit, and :func:`repro.obs.analysis.diagnose` applies it to every
  repair flow end to end against the oracle (else stamped) ``B_min``.

The critical path answers the scheduling question: **which chain of
intervals determined each repair's makespan, and what category of work
was each second of that chain?**

Every repair executor opens a ``repair.task`` span when the repair is
*handed to the orchestrator* (so scheduler queueing is inside the span)
and closes it when the rebuilt chunk lands.  Everything the repair does
— attempt flows, planning charges, retry backoffs, the pipeline-fill
tail — is emitted as a child interval (``parent_id`` pointing at the
task span) with ``links`` recording what each interval *followed from*
(the previous attempt, the planning span).  The critical path of a
repair is then recovered by a backward covering walk over its child
intervals:

* starting from the task's end, repeatedly extend backwards through the
  child interval that was active at the cursor (preferring explicit
  dependency spans, then the flow that carried progress furthest);
* where no child interval covers the cursor, the hole is a **gap** —
  queue wait before the first attempt started, stall otherwise.

By construction the emitted segments partition ``[start, end]`` exactly,
so their durations sum to the measured makespan to float precision — an
invariant this module checks per repair (``residual``) and the tests
assert at ``1e-9``.

Each segment's seconds are then attributed to categories: flow segments
by the flow rule, explicit spans directly — ``repair.planning`` →
``planning``, ``repair.fill`` → ``pipeline``,
``repair.backoff`` → ``stall``.  Contention seconds are further charged
to the *rivals* whose flows shared a link with the repair at that
instant: foreground **tenants** (``tenant`` is stamped on foreground
flows by the load generator) and other concurrent **repairs** — labelled
by owning control-plane job (``repair:<job>``, from the ``job`` field
the fleet plane stamps on task spans) or, for single-job traces, by
stripe track (``repair:<stripe>``).

The decomposition is *exact by category too*: per repair,
``sum(categories.values()) == makespan`` within float tolerance.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import islice

__all__ = [
    "CATEGORIES",
    "FLOW_CATEGORIES",
    "GLYPHS",
    "Span",
    "TraceIndex",
    "PathSegment",
    "RepairPath",
    "CritPathReport",
    "build_spans",
    "cap_at",
    "critical_paths",
    "flow_categories",
    "flow_resources",
    "rate_profile",
    "stamped_bmin",
]

#: Rates below this fraction of the reference count as a stall.
_STALL_EPS = 1e-9

#: A rate within this relative tolerance of the active cap is "at cap".
_CAP_TOL = 0.02

#: Per-repair residual tolerance for the tiling invariant.
TILE_TOL = 1e-9

#: The one vocabulary: category -> waterfall glyph, in render order.
GLYPHS = {
    "transfer": "#", "contention": "~", "governor": "g", "stall": ".",
    "queue": "q", "planning": "p", "pipeline": "=",
}
CATEGORIES = tuple(GLYPHS)

#: What a flow's own seconds can be (the rule's outputs); the rest are
#: gaps and explicit dependency spans, which only a critical path has.
FLOW_CATEGORIES = ("transfer", "contention", "governor", "stall")

#: Child spans that are explicit dependency intervals (not flows); the
#: covering walk prefers them over flows when both cover an instant.
_EXPLICIT = {
    "repair.planning": "planning",
    "repair.fill": "pipeline",
    "repair.backoff": "stall",
}


@dataclass(frozen=True)
class Span:
    """A begin/end pair reconstructed from the event stream."""

    span_id: int
    name: str
    track: str
    start: float
    end: float
    parent_id: int | None
    links: tuple[int, ...]
    fields: dict
    cancelled: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class PathSegment:
    """One interval of a repair's critical path."""

    start: float
    end: float
    #: Dominant category ("gap" segments are queue/stall; flow segments
    #: report "transfer" here and split their seconds in ``categories``).
    category: str
    #: Span the segment came from; None for gaps.
    span_id: int | None = None
    name: str = ""
    #: Exact seconds-per-category decomposition of this segment
    #: (sums to ``duration``).
    categories: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "category": self.category,
            "span_id": self.span_id,
            "name": self.name,
            "categories": {
                key: self.categories[key] for key in sorted(self.categories)
            },
        }


@dataclass
class RepairPath:
    """The reconstructed critical path of one repair."""

    label: str
    track: str
    scheme: str
    start: float
    end: float
    failed: bool
    segments: list[PathSegment]
    #: Seconds per category, summed over segments; sums to ``makespan``.
    categories: dict[str, float]
    #: blame label -> contention seconds this repair lost to that
    #: contender — a foreground tenant or a concurrent ``repair:<id>``
    #: (a partition of ``categories["contention"]``).
    tenants: dict[str, float]
    #: ``makespan - sum(segment durations)`` — the tiling invariant.
    residual: float
    #: ``transfer_seconds`` stamped on the task span's end, if any.
    reported_transfer: float | None = None

    @property
    def makespan(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "track": self.track,
            "scheme": self.scheme,
            "start": self.start,
            "end": self.end,
            "makespan": self.makespan,
            "failed": self.failed,
            "residual": self.residual,
            "reported_transfer": self.reported_transfer,
            "categories": {
                key: self.categories[key] for key in sorted(self.categories)
            },
            "tenants": {
                key: self.tenants[key] for key in sorted(self.tenants)
            },
            "segments": [seg.to_dict() for seg in self.segments],
        }


@dataclass
class CritPathReport:
    """Critical paths of every repair in a trace, plus aggregates."""

    repairs: list[RepairPath]
    #: Seconds per category summed over repairs.
    categories: dict[str, float]
    #: tenant -> contention seconds charged across all repairs.
    tenants: dict[str, float]
    anomalies: list[str] = field(default_factory=list)

    @property
    def max_residual(self) -> float:
        return max(
            (abs(path.residual) for path in self.repairs), default=0.0
        )

    def to_dict(self) -> dict:
        return {
            "repairs": [path.to_dict() for path in self.repairs],
            "categories": {
                key: self.categories[key] for key in sorted(self.categories)
            },
            "tenants": {
                key: self.tenants[key] for key in sorted(self.tenants)
            },
            "max_residual": self.max_residual,
            "anomalies": list(self.anomalies),
        }

    def to_json(self) -> str:
        """Deterministic JSON (sorted keys, compact separators)."""
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )

    # ------------------------------------------------------------------
    # ASCII waterfall ("repro critpath")
    # ------------------------------------------------------------------
    def render(self, width: int = 48, limit: int = 20) -> str:
        from repro.reporting import format_seconds

        lines = []
        n = len(self.repairs)
        total = sum(path.makespan for path in self.repairs)
        lines.append(
            f"critical paths of {n} repair(s), "
            f"{format_seconds(total)} summed makespan, "
            f"max tiling residual {self.max_residual:.2e}s"
        )
        if self.categories:
            parts = "  ".join(
                f"{key} {format_seconds(self.categories[key])}"
                for key in CATEGORIES if self.categories.get(key, 0.0) > 0
            )
            lines.append(f"critical-path seconds: {parts}")
        if self.tenants:
            parts = "  ".join(
                f"{tenant} {format_seconds(seconds)}"
                for tenant, seconds in sorted(
                    self.tenants.items(), key=lambda kv: (-kv[1], kv[0])
                )
            )
            lines.append(f"contention by tenant: {parts}")
        if self.repairs:
            t0 = min(path.start for path in self.repairs)
            t1 = max(path.end for path in self.repairs)
            span = max(t1 - t0, 1e-12)
            lines.append(
                f"waterfall [{format_seconds(t0)} .. {format_seconds(t1)}] "
                + " ".join(
                    f"{glyph}={key}" for key, glyph in GLYPHS.items()
                )
            )
            for path in self.repairs[:limit]:
                offset = round(width * (path.start - t0) / span)
                bar = _bar(path, max(round(width * path.makespan / span), 1))
                flag = " FAILED" if path.failed else ""
                lines.append(
                    f"  {path.label:<14} |{' ' * offset}{bar}| "
                    f"{format_seconds(path.makespan)}{flag}"
                )
            if n > limit:
                lines.append(f"  ... and {n - limit} more")
        if self.anomalies:
            lines.append("ANOMALIES:")
            lines.extend(f"  ! {issue}" for issue in self.anomalies)
        else:
            lines.append("anomalies: none")
        return "\n".join(lines)


def _bar(path: RepairPath, width: int) -> str:
    """Time-ordered glyph bar: each cell shows the critical-path
    segment's dominant category at that instant."""
    makespan = path.makespan
    if makespan <= 0 or width <= 0:
        return "#"
    cells = []
    for i in range(width):
        t = path.start + (i + 0.5) * makespan / width
        glyph = "#"
        for seg in path.segments:
            if seg.start <= t < seg.end or (
                seg is path.segments[-1] and t >= seg.end
            ):
                dominant = max(
                    seg.categories, key=lambda k: seg.categories[k],
                    default=seg.category,
                )
                glyph = GLYPHS.get(dominant, "#")
                break
        cells.append(glyph)
    return "".join(cells)


# ----------------------------------------------------------------------
# Trace digestion: one pass, one index
# ----------------------------------------------------------------------
@dataclass
class TraceIndex:
    """Everything the attribution views read from a trace.

    Built by :func:`build_spans` in one pass over the events; both
    :func:`critical_paths` and :func:`repro.obs.analysis.diagnose` read
    it and apply :func:`flow_categories` to its flows.
    """

    #: span id -> closed span, in end order.
    spans: dict[int, Span] = field(default_factory=dict)
    #: Begin events whose span never ended (crash / truncated trace).
    unclosed: list = field(default_factory=list)
    #: flow span id -> (t, aggregate rate) change points.
    rates: dict[int, list[tuple[float, float]]] = field(default_factory=dict)
    #: Governor cap step function: (t, cap or None when uncapped).
    caps: list[tuple[float, float | None]] = field(default_factory=list)
    #: parent span id -> child spans.
    children: dict[int, list[Span]] = field(default_factory=dict)

    def flows_of(self, parent_id: int | None) -> list[Span]:
        return [
            child for child in self.children.get(parent_id, ())
            if child.name == "flow"
        ]


def build_spans(events: Sequence) -> TraceIndex:
    """Digest an event stream into a :class:`TraceIndex`.

    Begin/end events pair into :class:`Span` objects by span id, ``end``
    fields merged over ``begin`` fields (the end of a span carries its
    outcome — ``transfer_seconds``, ``failed`` …).  The ``flow.cancel``
    instant precedes its span end, which carries ``cancelled=True``, so
    the span alone says how a flow ended.  Spans with no matching end
    are kept aside in ``unclosed``; callers flag them.
    """
    index = TraceIndex()
    opened: dict[int, object] = {}
    for event in events:
        if event.kind == "begin" and event.span_id is not None:
            opened[event.span_id] = event
        elif event.kind == "end" and event.span_id is not None:
            begin = opened.pop(event.span_id, None)
            if begin is None:
                continue
            fields = dict(begin.fields)
            fields.update(event.fields)
            index.spans[event.span_id] = Span(
                span_id=event.span_id,
                name=begin.name,
                track=begin.track,
                start=begin.t,
                end=event.t,
                parent_id=begin.parent_id,
                links=tuple(begin.links),
                fields=fields,
                cancelled=bool(event.fields.get("cancelled", False)),
            )
        elif event.name == "flow.rate_change" and event.parent_id is not None:
            index.rates.setdefault(event.parent_id, []).append(
                (event.t, float(event.fields["rate"]))
            )
        elif event.name == "governor.decision":
            cap = event.fields.get("cap", -1.0)
            index.caps.append(
                (event.t, None if cap is None or cap < 0 else cap)
            )
    index.unclosed = list(opened.values())
    for span in index.spans.values():
        if span.parent_id is not None:
            index.children.setdefault(span.parent_id, []).append(span)
    return index


def rate_profile(
    flow: Span, rates: list[tuple[float, float]]
) -> list[tuple[float, float, float]]:
    """Piecewise-constant (start, end, rate) intervals covering ``flow``."""
    if flow.end <= flow.start:
        return []
    # Stable, time-only sort: several changes can land at the same
    # instant (resubmission churn) and the last one is the rate that
    # actually held.
    changes = sorted(rates, key=lambda change: change[0])
    intervals = []
    cursor = flow.start
    current = 0.0
    if changes and changes[0][0] <= flow.start + 1e-12:
        current = changes[0][1]
        changes = changes[1:]
    for t, rate in changes:
        t = min(max(t, flow.start), flow.end)
        if t > cursor:
            intervals.append((cursor, t, current))
            cursor = t
        current = rate
    if flow.end > cursor:
        intervals.append((cursor, flow.end, current))
    return intervals


def cap_at(timeline, t: float) -> float | None:
    """The governor cap in force at ``t`` (None before the first)."""
    cap = None
    for at, value in timeline:
        if at > t + 1e-12:
            break
        cap = value
    return cap


def flow_resources(edges) -> set[tuple[str, int]]:
    """The ``("up", src)`` / ``("down", dst)`` links a flow's edges
    cross."""
    out: set[tuple[str, int]] = set()
    for src, dst in edges:
        out.add(("up", int(src)))
        out.add(("down", int(dst)))
    return out


class _Rivals:
    """The flows contention seconds can be charged to, sorted by start,
    each with its link set built once."""

    def __init__(self, contenders) -> None:
        """``contenders``: (blame label, owning task span id or None,
        flow) triples."""
        self.entries = sorted(
            (
                (flow.start, flow.end, name, owner,
                 flow_resources(flow.fields.get("edges", [])))
                for name, owner, flow in contenders
            ),
            key=lambda entry: entry[0],
        )
        self.starts = [entry[0] for entry in self.entries]

    def blamed(self, flow: Span, resources, s: float, e: float) -> list[str]:
        """Labels of the rivals sharing a link with ``flow`` inside
        ``(s, e)``, sorted; the flow's own repair is no rival."""
        return sorted({
            name
            for _, end, name, owner, links in islice(
                self.entries, bisect_left(self.starts, e)
            )
            if end > s and owner != flow.parent_id
            and not resources.isdisjoint(links)
        })


# ----------------------------------------------------------------------
# The covering walk
# ----------------------------------------------------------------------
def _covering_walk(
    task: Span, children: list[Span], first_flow_start: float | None
) -> list[tuple[float, float, Span | None, str]]:
    """Partition ``[task.start, task.end]`` into (start, end, span, gapkind).

    Walks backward from ``task.end``.  At each cursor, among child
    intervals covering it, explicit dependency spans win over flows and
    longer coverage wins among equals; holes become gaps, classified as
    ``queue`` before the repair's first flow ever started and ``stall``
    after.  The emitted triples abut exactly, so the partition is a
    tiling by construction.
    """
    eps = 1e-15
    segments: list[tuple[float, float, Span | None, str]] = []
    cursor = task.end
    guard = 4 * len(children) + 16
    while cursor > task.start + eps and guard > 0:
        guard -= 1
        covering = [
            child for child in children
            if child.start < cursor - eps and child.end >= cursor - 1e-12
        ]
        if covering:
            best = min(
                covering,
                key=lambda child: (
                    0 if child.name in _EXPLICIT else 1,
                    child.start,
                    child.span_id,
                ),
            )
            start = max(best.start, task.start)
            segments.append((start, cursor, best, ""))
            cursor = start
            continue
        # A hole: back up to the latest child edge before the cursor.
        prev = max(
            [task.start]
            + [
                child.end for child in children
                if task.start <= child.end < cursor - eps
            ]
            + [
                child.start for child in children
                if task.start <= child.start < cursor - eps
            ],
        )
        gapkind = (
            "queue"
            if first_flow_start is None or cursor <= first_flow_start + 1e-12
            else "stall"
        )
        segments.append((prev, cursor, None, gapkind))
        cursor = prev
    segments.reverse()
    return segments


# ----------------------------------------------------------------------
# The flow-attribution rule
# ----------------------------------------------------------------------
def flow_categories(
    index: TraceIndex,
    flow: Span,
    start: float,
    end: float,
    ref: float | None,
    contenders: _Rivals | None = None,
    blame_out: dict[str, float] | None = None,
) -> dict[str, float]:
    """Split ``[start, end]`` of a flow into :data:`CATEGORIES`, exactly.

    The one rule both views apply; ``ref`` is the rate the flow is
    measured against (the stamped ``bmin`` on the critical path, the
    oracle ``B_min`` in ``diagnose``).  Near-zero rate is ``stall``;
    time at or above ``ref`` is ``transfer``; below it, the fraction
    ``r / ref`` of each dt is ``transfer`` and the rest is lost to
    ``governor`` when the rate sat at the QoS cap, else to
    ``contention``.  Every dt lands in the tallies exactly once, so the
    values sum to ``end - start``.

    ``contenders`` are the flows — foreground tenants' and other
    repairs' — charged in ``blame_out`` for contention seconds when they
    shared a link with this flow at that instant.
    """
    rates = index.rates.get(flow.span_id)
    if not rates:
        # No rate profile recorded (e.g. a trimmed trace): the whole
        # interval is transfer time — never misread silence as a stall.
        return {"transfer": end - start}
    resources = flow_resources(flow.fields.get("edges", []))
    out: dict[str, float] = {}
    for s0, e0, rate in rate_profile(flow, rates):
        s, e = max(s0, start), min(e0, end)
        dt = e - s
        if dt <= 0:
            continue
        if rate <= _STALL_EPS:
            out["stall"] = out.get("stall", 0.0) + dt
            continue
        if ref is None or rate >= ref:
            out["transfer"] = out.get("transfer", 0.0) + dt
            continue
        carried = dt * rate / ref
        excess = dt - carried
        out["transfer"] = out.get("transfer", 0.0) + carried
        cap = cap_at(index.caps, s)
        at_cap = cap is not None and rate >= cap * (1 - _CAP_TOL)
        bucket = "governor" if at_cap else "contention"
        out[bucket] = out.get(bucket, 0.0) + excess
        if bucket == "contention" and excess > 0 and blame_out is not None:
            blamed = []
            if contenders is not None:
                blamed = contenders.blamed(flow, resources, s, e)
            for tenant in blamed or ["(unattributed)"]:
                blame_out[tenant] = (
                    blame_out.get(tenant, 0.0) + excess / max(
                        len(blamed), 1
                    )
                )
    return out


def stamped_bmin(flow: Span) -> float | None:
    """The planner's claimed ``B_min``, stamped on the flow at submit.

    A claim of 0 (planning through a saturated link) is no reference:
    the flow is measured against nothing rather than divided by zero.
    """
    bmin = flow.fields.get("bmin")
    return float(bmin) if bmin else None


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def critical_paths(events: Sequence) -> CritPathReport:
    """Reconstruct the exact critical path of every repair in a trace."""
    index = build_spans(events)
    spans = index.spans
    tasks = sorted(
        (s for s in spans.values() if s.name == "repair.task"),
        key=lambda s: (s.start, s.span_id),
    )
    task_label = {
        # Control-plane traces stamp the owning job on every repair
        # task; blame then names the rival *repair* ("repair:node3")
        # rather than only its per-stripe track, so fleet contention
        # aggregates per job.
        task.span_id: (
            f"repair:{task.fields['job']}"
            if task.fields.get("job") is not None
            else f"repair:{task.track.split(':', 1)[-1]}"
        )
        for task in tasks
    }
    task_flows = {task.span_id: index.flows_of(task.span_id) for task in tasks}
    rivals = _Rivals(
        [
            (str(span.fields["tenant"]), None, span)
            for span in spans.values()
            if span.name == "flow"
            and span.fields.get("kind") == "foreground"
            and span.fields.get("tenant") is not None
        ]
        + [
            (task_label[task_id], task_id, flow)
            for task_id, flows in task_flows.items()
            for flow in flows
        ]
    )
    anomalies = [
        f"unclosed span {event.name!r} on {event.track!r} at t={event.t:.6g}"
        for event in index.unclosed
    ]
    paths: list[RepairPath] = []
    totals: dict[str, float] = {}
    tenant_totals: dict[str, float] = {}
    for task in tasks:
        children = sorted(
            index.children.get(task.span_id, []),
            key=lambda s: (s.start, s.span_id),
        )
        first_flow = min(
            (f.start for f in task_flows[task.span_id]), default=None
        )
        walk = _covering_walk(task, children, first_flow)
        segments: list[PathSegment] = []
        categories: dict[str, float] = {}
        tenants: dict[str, float] = {}
        for start, end, child, gapkind in walk:
            if child is None:
                seg_cats = {gapkind: end - start}
                segments.append(
                    PathSegment(
                        start=start, end=end, category=gapkind,
                        categories=seg_cats,
                    )
                )
            elif child.name == "flow":
                seg_cats = flow_categories(
                    index, child, start, end, stamped_bmin(child),
                    rivals, tenants,
                ) or {"transfer": end - start}
                segments.append(
                    PathSegment(
                        start=start, end=end, category="transfer",
                        span_id=child.span_id,
                        name=str(child.fields.get("label", child.name)),
                        categories=seg_cats,
                    )
                )
            else:
                category = _EXPLICIT.get(child.name, "stall")
                seg_cats = {category: end - start}
                segments.append(
                    PathSegment(
                        start=start, end=end, category=category,
                        span_id=child.span_id, name=child.name,
                        categories=seg_cats,
                    )
                )
            for key, value in seg_cats.items():
                categories[key] = categories.get(key, 0.0) + value
        covered = sum(seg.duration for seg in segments)
        residual = task.duration - covered
        label = task.track.split(":", 1)[-1]
        label = f"repair:{label}"
        reported = task.fields.get("transfer_seconds")
        path = RepairPath(
            label=label,
            track=task.track,
            scheme=str(task.fields.get("scheme", "")),
            start=task.start,
            end=task.end,
            failed=bool(task.fields.get("failed", False)),
            segments=segments,
            categories=categories,
            tenants=tenants,
            residual=residual,
            reported_transfer=(
                float(reported) if reported is not None else None
            ),
        )
        if abs(residual) > max(TILE_TOL, 1e-12 * abs(task.duration)):
            anomalies.append(
                f"{label}: critical path covers {covered:.9g}s of "
                f"{task.duration:.9g}s makespan "
                f"(residual {residual:.3g}s)"
            )
        cat_residual = task.duration - sum(categories.values())
        if abs(cat_residual) > max(TILE_TOL, 1e-12 * abs(task.duration)):
            anomalies.append(
                f"{label}: category seconds miss makespan by "
                f"{cat_residual:.3g}s"
            )
        if (
            path.reported_transfer is not None
            and path.reported_transfer > task.duration + 1e-9
        ):
            anomalies.append(
                f"{label}: reported transfer_seconds "
                f"{path.reported_transfer:.6g} exceeds span makespan "
                f"{task.duration:.6g}"
            )
        for key, value in categories.items():
            totals[key] = totals.get(key, 0.0) + value
        for tenant, value in tenants.items():
            tenant_totals[tenant] = tenant_totals.get(tenant, 0.0) + value
        paths.append(path)
    return CritPathReport(
        repairs=paths,
        categories=totals,
        tenants=tenant_totals,
        anomalies=anomalies,
    )
