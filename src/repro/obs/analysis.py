"""Bottleneck attribution: decompose where each repair flow's time went.

The paper's central claim is about *where time goes*: the pivot tree
maximises the bottleneck bandwidth ``B_min``, and the scheduler keeps
full-node repair off congested links.  This module answers the question a
reader asks of any run — *which link bottlenecked this repair, and how
far from the oracle-optimal* ``B_min`` *did we land?* — as a per-flow
**view** over the trace index and flow rule of
:mod:`repro.obs.critpath`, plus what spans cannot give:

* optionally the network itself, to recompute an **oracle** ``B_min``:
  the executed tree's bottleneck bandwidth under the recorded bandwidth
  functions at submit time, with no competing traffic — the best the
  pipeline could have done on that tree — and to name each flow's
  **bottleneck link** exactly, over the windows in which every traced
  rate and every capacity is constant;
* run invariants, governor and fault summaries, and rendering.

Every repair flow — finished or cancelled — has its duration ``D``
split exactly (``D = transfer + contention + governor + stall``) by
:func:`repro.obs.critpath.flow_categories` against the reference rate
``ref``: the oracle ``B_min`` when available, else the planner's
claimed value stamped on the flow span at submit.  ``B / ref``
(the time the transfer would take at the reference rate) stays derivable
from ``bytes_per_edge`` and the two ``B_min`` fields.

Invariant checks flag anomalies instead of silently mis-attributing: an
achieved rate above the claimed ``B_min`` (a pipelined tree cannot beat
its planned bottleneck unless capacities moved), a rate profile that
does not integrate to the flow's byte count, and byte-conservation
violations in the telemetry.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.obs.critpath import (
    FLOW_CATEGORIES,
    GLYPHS,
    Span,
    TraceIndex,
    build_spans,
    cap_at,
    flow_categories,
    flow_resources,
    rate_profile,
    stamped_bmin,
)

# NOTE: repro.core imports repro.obs.tracer at module load; the oracle
# helpers import the tree machinery lazily to keep repro.obs importable
# on its own (no package-level cycle).

__all__ = [
    "BottleneckLink",
    "RepairDiagnosis",
    "RunDiagnosis",
    "diagnose",
]

#: Achieved/claimed ratios above this are flagged as anomalous.
_EXCEED_TOL = 1.01

#: Characters of the inline waterfall bar of a diagnosis.
_WATERFALL_WIDTH = 20


@dataclass(frozen=True)
class BottleneckLink:
    """The link a repair spent the most constrained time on."""

    node: int
    direction: str  # "up" | "down"
    #: Time-weighted mean utilization of the link while it was the
    #: flow's tightest.
    utilization: float
    #: Fraction of the repair's duration this link was the tightest
    #: (run-wide: of the seconds some link held a repair).
    share: float

    def describe(self) -> str:
        """The link, its share of the flow and its utilization."""
        name = "uplink" if self.direction == "up" else "downlink"
        return (
            f"node {self.node} {name} ({self.share:.0%} of time, "
            f"util {self.utilization:.2f})"
        )

    def to_dict(self) -> dict:
        return {
            "node": self.node,
            "direction": self.direction,
            "utilization": self.utilization,
            "share": self.share,
        }


@dataclass
class RepairDiagnosis:
    """Attribution of one repair flow's wall time."""

    label: str
    track: str
    submit: float
    finish: float
    shape: str
    cancelled: bool
    edges: list[tuple[int, int]]
    bytes_per_edge: float
    achieved_rate: float
    claimed_bmin: float | None = None
    oracle_bmin: float | None = None
    #: Which B_min the decomposition is measured against.
    reference: str = "none"  # "oracle" | "claimed" | "none"
    #: Seconds per cause, keyed by ``critpath.FLOW_CATEGORIES``; sums to
    #: ``duration``.
    components: dict[str, float] = field(default_factory=dict)
    bottleneck: BottleneckLink | None = None
    #: Seconds some link held the flow: those it moved in, once a
    #: bottleneck link is named (0.0 otherwise).
    held_seconds: float = 0.0
    anomalies: list[str] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.finish - self.submit

    @property
    def achieved_over_oracle(self) -> float | None:
        if self.oracle_bmin and self.oracle_bmin > 0:
            return self.achieved_rate / self.oracle_bmin
        return None

    @property
    def achieved_over_claimed(self) -> float | None:
        if self.claimed_bmin and self.claimed_bmin > 0:
            return self.achieved_rate / self.claimed_bmin
        return None

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "track": self.track,
            "submit": self.submit,
            "finish": self.finish,
            "duration": self.duration,
            "shape": self.shape,
            "cancelled": self.cancelled,
            "edges": [list(edge) for edge in self.edges],
            "bytes_per_edge": self.bytes_per_edge,
            "achieved_rate": self.achieved_rate,
            "claimed_bmin": self.claimed_bmin,
            "oracle_bmin": self.oracle_bmin,
            "achieved_over_oracle": self.achieved_over_oracle,
            "achieved_over_claimed": self.achieved_over_claimed,
            "reference": self.reference,
            "components": {
                key: self.components[key] for key in sorted(self.components)
            },
            "bottleneck": (
                None if self.bottleneck is None else self.bottleneck.to_dict()
            ),
            "anomalies": list(self.anomalies),
        }


@dataclass
class RunDiagnosis:
    """Whole-run attribution: per-repair diagnoses plus aggregates."""

    repairs: list[RepairDiagnosis]
    #: Total attributed seconds per cause, summed over repairs.
    totals: dict[str, float]
    #: (direction, node) -> seconds it was some repair's bottleneck.
    bottleneck_seconds: dict[tuple[str, int], float]
    #: Duration-weighted mean achieved/oracle ratio (None without oracle).
    achieved_over_oracle: float | None
    achieved_over_claimed: float | None
    #: Run-level invariant violations.
    anomalies: list[str] = field(default_factory=list)
    #: Governor activity: decisions seen and capped repair-time fraction.
    governor: dict = field(default_factory=dict)
    #: Fault instants observed in the trace, by event name.
    faults: dict[str, int] = field(default_factory=dict)

    @property
    def top_bottleneck(self) -> BottleneckLink | None:
        """The link that bottlenecked the most repair time, run-wide.

        Its utilization is weighted by the seconds each repair held it,
        and its share counts only seconds some link held: a cancelled
        flow's seconds at rate 0 belong to no link.
        """
        if not self.bottleneck_seconds:
            return None
        (direction, node), seconds = max(
            self.bottleneck_seconds.items(),
            key=lambda kv: (kv[1], -kv[0][1]),
        )
        held = sum(d.held_seconds for d in self.repairs) or 1.0
        util_seconds = sum(
            d.bottleneck.utilization * d.bottleneck.share * d.duration
            for d in self.repairs
            if d.bottleneck is not None
            and (d.bottleneck.direction, d.bottleneck.node)
            == (direction, node)
        )
        return BottleneckLink(
            node=node,
            direction=direction,
            utilization=util_seconds / seconds,
            share=seconds / held,
        )

    def to_dict(self) -> dict:
        top = self.top_bottleneck
        return {
            "repairs": [d.to_dict() for d in self.repairs],
            "totals": {k: self.totals[k] for k in sorted(self.totals)},
            "bottleneck_ranking": [
                {"node": node, "direction": direction, "seconds": seconds}
                for (direction, node), seconds in sorted(
                    self.bottleneck_seconds.items(),
                    key=lambda kv: (-kv[1], kv[0]),
                )
            ],
            "top_bottleneck": None if top is None else top.to_dict(),
            "achieved_over_oracle": self.achieved_over_oracle,
            "achieved_over_claimed": self.achieved_over_claimed,
            "governor": dict(self.governor),
            "faults": {k: self.faults[k] for k in sorted(self.faults)},
            "anomalies": list(self.anomalies),
        }

    def to_json(self) -> str:
        """Deterministic JSON (sorted keys, compact separators)."""
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )

    # ------------------------------------------------------------------
    # Human-readable rendering ("repro explain")
    # ------------------------------------------------------------------
    def render(self, limit: int = 12) -> str:
        from repro.reporting import format_seconds, format_table
        from repro.units import to_mbps

        lines = []
        n = len(self.repairs)
        total = sum(d.duration for d in self.repairs)
        lines.append(
            f"diagnosed {n} repair flow(s), "
            f"{format_seconds(total)} total transfer time"
        )
        top = self.top_bottleneck
        if top is not None:
            lines.append(f"bottleneck: {top.describe()}")
        if self.achieved_over_oracle is not None:
            lines.append(
                f"achieved/oracle B_min: {self.achieved_over_oracle:.2f}"
            )
        if self.achieved_over_claimed is not None:
            lines.append(
                f"achieved/claimed B_min: {self.achieved_over_claimed:.2f}"
            )
        if self.totals:
            parts = "  ".join(
                f"{key} {format_seconds(self.totals[key])}"
                for key in FLOW_CATEGORIES if key in self.totals
            )
            lines.append(f"time attribution: {parts}")
        if self.governor:
            lines.append(
                "governor: "
                f"{self.governor.get('decisions', 0)} decisions, "
                f"capped {self.governor.get('capped_fraction', 0.0):.0%} "
                "of repair time"
            )
        if self.faults:
            fired = ", ".join(
                f"{name} x{count}" for name, count in sorted(
                    self.faults.items()
                )
            )
            lines.append(f"faults observed: {fired}")
        rows = []
        for diag in self.repairs[:limit]:
            ratio = diag.achieved_over_oracle
            if ratio is None:
                ratio = diag.achieved_over_claimed
            neck = (
                "-" if diag.bottleneck is None
                else f"N{diag.bottleneck.node}:{diag.bottleneck.direction}"
            )
            rows.append(
                (
                    diag.label,
                    format_seconds(diag.duration),
                    f"{to_mbps(diag.achieved_rate):.0f} Mb/s",
                    "-" if ratio is None else f"{ratio:.2f}",
                    neck,
                    _waterfall(diag),
                )
            )
        if rows:
            lines.append(
                format_table(
                    ["repair", "duration", "rate", "vs B_min", "neck",
                     "waterfall " + "/".join(FLOW_CATEGORIES)],
                    rows,
                )
            )
        if len(self.repairs) > limit:
            lines.append(f"... and {len(self.repairs) - limit} more")
        if self.anomalies:
            lines.append("ANOMALIES:")
            lines.extend(f"  ! {issue}" for issue in self.anomalies)
        else:
            lines.append("anomalies: none")
        return "\n".join(lines)


def _waterfall(diag: RepairDiagnosis) -> str:
    """Tiny inline stacked bar of a diagnosis' time components."""
    duration = diag.duration
    if duration <= 0:
        return ""
    out = []
    for key in FLOW_CATEGORIES:
        seconds = diag.components.get(key, 0.0)
        out.append(
            GLYPHS[key] * round(_WATERFALL_WIDTH * seconds / duration)
        )
    return "".join(out)[:_WATERFALL_WIDTH] or "#"


# ----------------------------------------------------------------------
# What spans cannot give: oracle B_min and the bottleneck link
# ----------------------------------------------------------------------
def _edges_of(flow: Span) -> list[tuple[int, int]]:
    return [(int(src), int(dst)) for src, dst in flow.fields.get("edges", [])]


def _is_pipelined(flow: Span) -> bool:
    return flow.fields.get("shape", "pipelined") == "pipelined"


def _oracle_bmin(flow: Span, network) -> float | None:
    """Lemma 1's ``B_min`` of the executed tree under the bandwidths at
    submit, with no competing traffic.

    ``None`` without a network, for non-tree shapes, or when the edges
    do not form a tree.
    """
    edges = _edges_of(flow)
    if network is None or not edges or not _is_pipelined(flow):
        return None
    from repro.core.bandwidth_view import BandwidthSnapshot
    from repro.core.tree import RepairTree
    from repro.exceptions import PlanningError

    sources = {src for src, _ in edges}
    sinks = {dst for _, dst in edges if dst not in sources}
    if not sinks:
        return None
    try:
        tree = RepairTree(min(sinks), dict(edges))
    except PlanningError:
        return None
    return tree.bmin(BandwidthSnapshot.from_network(network, flow.start))


def _link_loads(index: TraceIndex) -> dict[tuple[str, int], list]:
    """Node link -> ``(edges on it, rate profile)`` of every rate-traced
    pipelined flow crossing it.

    A pipelined flow moves its one rate over every edge, so it loads a
    link with its rate times its edges there.  Foreground flows carry no
    rate events, so they load nothing here.
    """
    loads: dict[tuple[str, int], list] = {}
    for span_id, flow in index.spans.items():
        rates = index.rates.get(span_id)
        if flow.name != "flow" or not rates or not _is_pipelined(flow):
            continue
        profile = rate_profile(flow, rates)
        edges: Counter = Counter()
        for src, dst in _edges_of(flow):
            edges["up", src] += 1
            edges["down", dst] += 1
        for link, count in edges.items():
            loads.setdefault(link, []).append((count, profile))
    return loads


def _rate_at(profile, t: float) -> float:
    """The rate a ``(start, end, rate)`` profile holds at ``t``."""
    i = bisect_right(profile, (t, math.inf, math.inf)) - 1
    return profile[i][2] if i >= 0 and t < profile[i][1] else 0.0


def _bottleneck(
    flow: Span, profile, loads, network
) -> tuple[BottleneckLink | None, float]:
    """The flow's tightest link, integrated over exact windows, and the
    seconds some link held it.

    The flow is cut at every change point of the traced flows sharing
    one of its links and at every capacity breakpoint, so every load
    and capacity is constant inside a window.  Each window in which the
    flow moves is held by its link with the highest load / capacity (a
    zero capacity counts as 1.0; a tie goes to the lowest
    ``(direction, node)``).  The link holding the most seconds (the
    lower node on a tie) is the bottleneck.
    """
    links = sorted(flow_resources(flow.fields.get("edges", [])))
    crossing = {
        link: [
            (count, rival) for count, rival in loads.get(link, ())
            if rival and rival[0][0] < flow.end and rival[-1][1] > flow.start
        ]
        for link in links
    }
    cuts = {flow.start, flow.end}
    for entries in crossing.values():
        for _, rival in entries:
            cuts.update(
                t for start, end, _ in rival for t in (start, end)
                if flow.start < t < flow.end
            )
    t = network.next_change_after(flow.start)
    while t < flow.end:
        cuts.add(t)
        t = network.next_change_after(t)
    held: dict[tuple[str, int], float] = {}
    util_seconds: dict[tuple[str, int], float] = {}
    cuts = sorted(cuts)
    for start, end in zip(cuts, cuts[1:]):
        mid = (start + end) / 2
        if _rate_at(profile, mid) <= 0:
            continue
        capacities = network.capacities_at(mid)
        best, best_util = None, -1.0
        for link in links:
            load = sum(
                count * _rate_at(rival, mid) for count, rival in crossing[link]
            )
            capacity = capacities.get(link, 0.0)
            util = load / capacity if capacity > 0 else 1.0
            if util > best_util:
                best, best_util = link, util
        held[best] = held.get(best, 0.0) + (end - start)
        util_seconds[best] = (
            util_seconds.get(best, 0.0) + best_util * (end - start)
        )
    if not held:
        return None, 0.0
    winner = min(held, key=lambda link: (-held[link], link[1], link[0]))
    return BottleneckLink(
        node=winner[1],
        direction=winner[0],
        utilization=util_seconds[winner] / held[winner],
        share=held[winner] / flow.duration,
    ), sum(held.values())


# ----------------------------------------------------------------------
# Diagnosis
# ----------------------------------------------------------------------
def _diagnose_flow(
    index: TraceIndex, flow: Span, loads, network
) -> RepairDiagnosis:
    edges = _edges_of(flow)
    pipelined = _is_pipelined(flow)
    bytes_per_edge = float(flow.fields.get("bytes_total", 0.0)) / max(
        len(edges), 1
    )
    duration = flow.duration
    rates = index.rates.get(flow.span_id)
    profile = rate_profile(flow, rates or [])
    carried = sum(rate * (end - start) for start, end, rate in profile)
    # A cancelled flow never delivered its byte count: its achieved rate
    # is what the profile says it carried.
    delivered = carried if flow.cancelled and rates else bytes_per_edge
    achieved = delivered / duration if duration > 0 else 0.0
    claimed = stamped_bmin(flow)
    oracle = _oracle_bmin(flow, network)
    reference, ref_rate = "none", None
    if oracle and oracle > 0:
        reference, ref_rate = "oracle", oracle
    elif claimed:
        reference, ref_rate = "claimed", claimed
    components: dict[str, float] = {}
    if duration > 0:
        components = flow_categories(
            index, flow, flow.start, flow.end, ref_rate
        )
    bottleneck, held_seconds = None, 0.0
    if network is not None and rates and pipelined:
        bottleneck, held_seconds = _bottleneck(flow, profile, loads, network)
    anomalies = []
    # Beating the *claimed* B_min is legal when competitors finished
    # mid-flight (the claim is made against residual bandwidth at plan
    # time), so it is only anomalous when no oracle bound covers it.
    # Per-edge rates only mean something on a pipelined tree: the stages
    # of a staged plan each run at their own link's rate.
    if (
        claimed and pipelined and achieved > claimed * _EXCEED_TOL
        and not (oracle and achieved <= oracle * _EXCEED_TOL)
    ):
        anomalies.append(
            f"achieved rate {achieved:.0f} exceeds claimed B_min "
            f"{claimed:.0f} ({achieved / claimed:.2f}x)"
        )
    if oracle and achieved > oracle * _EXCEED_TOL:
        anomalies.append(
            f"achieved rate {achieved:.0f} exceeds oracle B_min "
            f"{oracle:.0f} ({achieved / oracle:.2f}x)"
        )
    residual = duration - sum(components.values())
    if abs(residual) > max(1e-6 * duration, 1e-9):
        anomalies.append(
            f"attribution residual {residual:.3g}s of {duration:.3g}s"
        )
    # The rule tiles by construction, so a profile that misses the byte
    # count cannot show as a residual; check the integral itself.
    if (
        rates and pipelined and not flow.cancelled
        and abs(carried - bytes_per_edge) > max(1e-6 * bytes_per_edge, 1e-9)
    ):
        anomalies.append(
            f"rate profile integrates to {carried:.6g} of "
            f"{bytes_per_edge:.6g} bytes per edge"
        )
    return RepairDiagnosis(
        label=str(flow.fields.get("label", "")),
        track=flow.track,
        submit=flow.start,
        finish=flow.end,
        shape=str(flow.fields.get("shape", "pipelined")),
        cancelled=flow.cancelled,
        edges=edges,
        bytes_per_edge=bytes_per_edge,
        achieved_rate=achieved,
        claimed_bmin=claimed,
        oracle_bmin=oracle,
        reference=reference,
        components=components,
        bottleneck=bottleneck,
        held_seconds=held_seconds,
        anomalies=anomalies,
    )


def _check_telemetry(telemetry: dict | None, anomalies: list[str]) -> None:
    """Byte-conservation invariants over a run's telemetry snapshot."""
    if not telemetry:
        return
    up = telemetry.get("per_bytes_up", {})
    down = telemetry.get("per_bytes_down", {})
    total_up = sum(up.values())
    total_down = sum(down.values())
    if total_up or total_down:
        scale = max(total_up, total_down)
        if abs(total_up - total_down) > 1e-6 * scale:
            anomalies.append(
                "bytes conservation violated: "
                f"sum(bytes_up)={total_up:.6g} != "
                f"sum(bytes_down)={total_down:.6g}"
            )
    counter = telemetry.get("counters", {}).get("bytes_transferred")
    if counter is not None and total_up and (
        abs(counter - total_up) > 1e-6 * max(counter, total_up)
    ):
        anomalies.append(
            f"bytes_transferred counter {counter:.6g} != "
            f"per-node uplink total {total_up:.6g}"
        )


def _is_repair(fields: dict) -> bool:
    """Repair flows are diagnosed; foreground traffic is not."""
    return fields.get("kind", "repair") == "repair"


def diagnose(
    events: Sequence,
    network=None,
    telemetry: dict | None = None,
) -> RunDiagnosis:
    """Attribute a finished run's repair time; see the module docstring.

    Args:
        events: the run's :class:`~repro.obs.TraceEvent` stream (live
            from a tracer or re-read via
            :func:`~repro.obs.events_from_jsonl`).
        network: the simulated network; enables the oracle ``B_min``
            recomputation and bottleneck-link naming.
        telemetry: a run's registry snapshot, for byte-conservation
            invariant checks.
    """
    events = list(events)
    index = build_spans(events)
    loads = {} if network is None else _link_loads(index)
    anomalies = [
        f"flow {begin.fields.get('label', '')!r} never finished "
        "(unmatched span)"
        for begin in index.unclosed
        if begin.name == "flow" and _is_repair(begin.fields)
    ]
    # Span ids are handed out at begin, so this is submit order.
    repairs = [
        _diagnose_flow(index, flow, loads, network)
        for _, flow in sorted(index.spans.items())
        if flow.name == "flow" and _is_repair(flow.fields)
    ]
    totals: dict[str, float] = {}
    neck_seconds: dict[tuple[str, int], float] = {}
    oracle_num = oracle_den = 0.0
    claimed_num = claimed_den = 0.0
    for diag in repairs:
        for key, value in diag.components.items():
            totals[key] = totals.get(key, 0.0) + value
        if diag.bottleneck is not None:
            key = (diag.bottleneck.direction, diag.bottleneck.node)
            neck_seconds[key] = neck_seconds.get(key, 0.0) + (
                diag.bottleneck.share * diag.duration
            )
        ratio = diag.achieved_over_oracle
        if ratio is not None:
            oracle_num += ratio * diag.duration
            oracle_den += diag.duration
        ratio = diag.achieved_over_claimed
        if ratio is not None:
            claimed_num += ratio * diag.duration
            claimed_den += diag.duration
        anomalies.extend(
            f"{diag.label}: {issue}" for issue in diag.anomalies
        )
    _check_telemetry(telemetry, anomalies)
    repair_time = sum(d.duration for d in repairs)
    capped_time = 0.0
    for diag in repairs:
        for start, end in _segments_with_cap(diag, index.caps):
            capped_time += end - start
    governor_summary = {}
    if index.caps:
        governor_summary = {
            "decisions": len(index.caps),
            "capped_fraction": (
                capped_time / repair_time if repair_time > 0 else 0.0
            ),
        }
    fault_counts: dict[str, int] = {}
    for event in events:
        prefix = event.name.split(".", 1)[0]
        if prefix == "fault" or event.name in (
            "repair.detect", "repair.retry", "repair.replan",
            "repair.failed",
        ):
            fault_counts[event.name] = fault_counts.get(event.name, 0) + 1
    return RunDiagnosis(
        repairs=repairs,
        totals=totals,
        bottleneck_seconds=neck_seconds,
        achieved_over_oracle=(
            oracle_num / oracle_den if oracle_den > 0 else None
        ),
        achieved_over_claimed=(
            claimed_num / claimed_den if claimed_den > 0 else None
        ),
        anomalies=anomalies,
        governor=governor_summary,
        faults=fault_counts,
    )


def _segments_with_cap(diag: RepairDiagnosis, cap_timeline):
    """Sub-intervals of a repair during which a finite cap was in force."""
    if not cap_timeline:
        return
    bounds = [diag.submit]
    bounds += [t for t, _ in cap_timeline if diag.submit < t < diag.finish]
    bounds.append(diag.finish)
    for start, end in zip(bounds, bounds[1:]):
        if end > start and cap_at(cap_timeline, start) is not None:
            yield start, end
