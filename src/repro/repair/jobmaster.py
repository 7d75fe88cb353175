"""The repair master (Section IV-E): one failed node, stepped.

:class:`StripeRepairMaster` is the only implementation of a repair
under way, and the only **attempt state machine**.  It owns one failed
node's pending / in-flight / results state and exposes the repair as
discrete steps — plan a stripe against the residual bandwidth snapshot,
charge the serial planning time on the clock, submit, collect; detect a
flight that stopped, checkpoint, cancel, charge the retry budget, back
off, re-plan — but never runs an event loop of its own.  Three drivers
sequence those steps:

* the single-job loop in :mod:`repro.repair.fullnode`
  (``repair_full_node`` / ``repair_full_node_adaptive``) builds a fresh
  simulator and one master, and differs only in *which* pending stripe
  it starts next (FIFO window vs. Eq. 3 recommendation values);
* :func:`repro.repair.executor.repair_single_chunk_faulted` runs the
  same loop over a master of one stripe whose requestor the caller
  names (a degraded read's client);
* the fleet control plane (:mod:`repro.controlplane`) runs several
  masters over **one** shared simulator, advancing the clock itself and
  routing each completed task back to the master that owns it.

Each task's requestor is the node with the most available downlink among
nodes not holding a chunk of the stripe ("PivotRepair always selects the
node that has the most downlink bandwidth as the requestor"), so
requestors spread across the cluster; a degraded read names its client
instead, in the stripe's ledger.  Planning happens serially at the
Master and its modelled cost (``RepairPlanner.plan``) advances the
simulated clock — this is what sinks PPT at large k in
Figure 7.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field, replace
from typing import NamedTuple

from repro.core.bandwidth_view import BandwidthSnapshot, best_uplinks
from repro.core.plan import RepairPlan, RepairPlanner
from repro.core.scheduler import RunningTask
from repro.ec.stripe import Stripe
from repro.exceptions import ClusterError, PlanningError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.faults.policy import RetryPolicy
from repro.network.simulator import FluidSimulator, TaskHandle
from repro.network.topology import StarNetwork
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER
from repro.repair.metrics import FullNodeResult, RepairFailed, RepairResult
from repro.repair.pipeline import (
    ExecutionConfig,
    remaining_bytes_per_edge,
    verified_watermark,
)

logger = logging.getLogger(__name__)

__all__ = [
    "StripeRepairMaster",
    "choose_requestor",
    "slice_ranges",
]

#: Degradation level 2: submit-rate cap as a fraction of the plan's bmin.
DEGRADED_RATE_FACTOR = 0.5
#: Degradation level 2: slice width multiplier for uncheckpointed stripes.
DEGRADED_SLICE_FACTOR = 4
#: Smallest degraded-rate cap worth honouring (bytes/s); below this the
#: plan-time residual carried no signal.
MIN_DEGRADED_RATE = 2.0 ** 20


def choose_requestor(
    snapshot: BandwidthSnapshot,
    stripe: Stripe,
    failed_node: int,
    node_count: int,
    exclude: frozenset[int] | set[int] = frozenset(),
    survivors: Sequence[int] | None = None,
) -> int:
    """Requestor = max-downlink node not already holding a stripe chunk.

    ``exclude`` removes nodes that cannot serve (crashed under a fault
    plan).  ``survivors`` is ``stripe.surviving_nodes(failed_node)`` for
    a caller that already holds it.
    """
    if survivors is None:
        survivors = stripe.surviving_nodes(failed_node)
    holders = set(survivors)
    down = snapshot.down
    try:
        # Largest downlink, ties toward the smaller node id.
        best = max(
            (
                (down[node], -node)
                for node in range(node_count)
                if node != failed_node
                and node not in holders
                and node not in exclude
            ),
            default=None,
        )
    except KeyError as missing:
        raise PlanningError(
            f"node {missing.args[0]} not in snapshot"
        ) from None
    if best is None:
        raise ClusterError(
            f"stripe {stripe.stripe_id}: no node available as requestor"
        )
    return -best[1]


class ResidualView:
    """A network's residual bandwidth under one simulator, per change.

    Residual bandwidth is the available bandwidth net of in-flight
    repair traffic.  The Master measures instantaneous link usage (the
    paper uses ``nload``), which includes the repair tasks already
    running; planning against the residual keeps concurrent repair
    trees from piling onto the same pivots.

    A scheduling round reads every pending stripe's planner inputs from
    "the instant bandwidths situation"; between two reads of a round
    nothing moved.
    The view keeps the last residual snapshot with what it was read
    from — ``sim.now`` and the simulator's rate epoch — and the
    traffic-free half (``BandwidthSnapshot.from_network``) with the
    capacity epoch ``[t, network.next_change_after(t))`` it holds for.
    Every rate change bumps the epoch and every capacity change moves
    ``now`` past a breakpoint, so a hit is what a rebuild would return.
    Every caller between two changes gets the same snapshot object, to
    be read, not written.

    The counters are the planning layer's self-observation: plain ints,
    read after a run.
    """

    def __init__(self, network, sim: FluidSimulator) -> None:
        self.network = network
        self.sim = sim
        self.snapshots_built = 0
        self.snapshots_reused = 0
        self.base_builds = 0
        self._now = math.nan
        self._epoch = -1
        self._snapshot: BandwidthSnapshot | None = None
        self._base: BandwidthSnapshot | None = None
        self._base_until = -math.inf

    def snapshot(self) -> BandwidthSnapshot:
        sim = self.sim
        now = sim.now
        if sim.rate_epoch == self._epoch and now == self._now:
            self.snapshots_reused += 1
            return self._snapshot
        base = self._base
        if base is None or not base.time <= now < self._base_until:
            network = self.network
            base = self._base = BandwidthSnapshot.from_network(network, now)
            self._base_until = network.next_change_after(now)
            self.base_builds += 1
        used_up, used_down = sim.current_usage()
        up = {
            node: max(capacity - used_up.get(node, 0.0), 0.0)
            for node, capacity in base.up.items()
        }
        down = {
            node: max(capacity - used_down.get(node, 0.0), 0.0)
            for node, capacity in base.down.items()
        }
        self._snapshot = BandwidthSnapshot(up=up, down=down, time=now)
        self._now, self._epoch = now, sim.rate_epoch
        self.snapshots_built += 1
        return self._snapshot


class PlanInputs(NamedTuple):
    """One stripe's planner arguments, read from one residual snapshot."""

    stripe: Stripe
    snapshot: BandwidthSnapshot
    requestor: int
    candidates: list[int]
    k: int


@dataclass
class _InFlight:
    handle: TaskHandle
    plan: RepairPlan
    running: RunningTask
    stripe: Stripe
    tree_nodes: frozenset[int]
    #: Per-edge bytes the submission actually carries (shrinks when the
    #: task resumed from a checkpointed slice watermark).
    bytes_per_edge: float
    #: First slice this flight delivers (> 0 on a resumed re-plan).
    start_slice: int
    #: The flow's trace span (the simulator forgets it at completion).
    span: int | None = None
    #: When the flight's rate was first seen at zero (the stall watch).
    stalled_since: float | None = None


@dataclass
class _Ledger:
    """One stripe's attempt history and slice provenance (which slices
    are verified, on which requestor, by which flight), moved only by
    the transitions below.  A flight is anything with a ``plan`` and a
    ``start_slice``; slices index ``config``, the slicing of the
    stripe's first submission."""

    #: The requestor the caller pinned, if any: the stripe is rebuilt
    #: there or not at all (a degraded read cannot move its client).
    requestor: int | None = None
    #: Attempts that failed (a pause or shed is not one).
    failed: int = 0
    #: A failed attempt's re-plan has not started yet.
    replan_due: bool = False
    #: Verified slice watermark and the requestor whose disk holds it.
    watermark: int = 0
    holder: int | None = None
    #: ``(plan, start_slice)`` per verified slice range, delivery order.
    segments: list = field(default_factory=list)
    planning_seconds: float = 0.0
    #: Span of the stripe's most recent flow (a re-plan or resume links
    #: its new flow to the one it replaces).
    last_flow: int | None = None
    config: ExecutionConfig | None = None

    def pin(self, requestor: int) -> None:
        """Rebuild the stripe at ``requestor`` or not at all."""
        self.requestor = requestor

    def launch(self, plan: RepairPlan, config: ExecutionConfig) -> bool:
        """A flight of ``plan`` starts; True if it re-plans a failure.
        No range is dropped: a flight from scratch on another requestor
        may deliver nothing, and the next resume on the holder."""
        self.planning_seconds += plan.planning_seconds
        self.config = config
        replan, self.replan_due = self.replan_due, False
        return replan

    def progress(self, flight, fraction: float) -> int | None:
        """Checkpoint ``flight`` at ``fraction``: the new watermark, or
        None (and no change) when it verified nothing past its start."""
        verified = verified_watermark(
            self.config, flight.plan.tree.depth(), flight.start_slice,
            fraction,
        )
        if verified <= flight.start_slice:
            return None
        self._deliver(flight)
        self.watermark, self.holder = verified, flight.plan.requestor
        return verified

    def fail(self) -> int:
        """An attempt failed (after its checkpoint); the watermark."""
        self.failed += 1
        self.replan_due = True
        return self.watermark

    def finish(self, flight) -> list:
        """``flight`` delivered the rest: the result's segments."""
        self._deliver(flight)
        return self.segments

    def resume_slice(self, requestor: int) -> int:
        """The watermark if ``requestor`` holds the verified slices."""
        return self.watermark if requestor == self.holder else 0

    def requestor_for(self, dead, stalled) -> int | None:
        """The pinned requestor (ClusterError once dead), else the holder
        while neither dead nor stalled, else None (the caller picks)."""
        if self.requestor is not None:
            if self.requestor in dead:
                raise ClusterError(f"requestor {self.requestor} crashed")
            return self.requestor
        return None if self.holder in dead | stalled else self.holder

    def _deliver(self, flight) -> None:
        if flight.start_slice == 0:
            # A range from scratch supersedes every earlier one.
            self.segments = []
        self.segments.append((flight.plan, flight.start_slice))


def slice_ranges(segments: list, slices: int, stripe_id: int) -> list:
    """A result's ``(plan, start_slice)`` segments as ``(plan, first,
    end)`` slice ranges: each ends where the next starts, the last at
    ``slices``.  Raises :class:`ClusterError`, naming the stripe, unless
    they tile ``[0, slices)``: a gap or an overlap would stitch a short
    or long chunk."""
    starts = [start for _, start in segments]
    ends = starts[1:] + [slices]
    if starts[:1] != [0] or any(b <= a for a, b in zip(starts, ends)):
        raise ClusterError(
            f"stripe {stripe_id}: slice ranges "
            f"{list(zip(starts, ends))} do not tile [0, {slices})"
        )
    return [(plan, a, b) for (plan, a), b in zip(segments, ends)]


class StripeRepairMaster:
    """Repair every lost chunk of one failed node, one step at a time.

    The master owns the pending / in-flight / results state and exposes
    the repair as discrete operations a driver sequences::

        tick()                  failed flights, ended backoffs
        plan(stripe)            plan one stripe on the residual snapshot,
                                = plan_from(plan_inputs(stripe))
        candidate()             plan the head pending stripe (or None)
        charge_planning(...)    advance the clock by the planner's cost
        submit(stripe, plan)    launch the planned stripe on the simulator
        run_bound()             how far the clock may run before a tick
        collect(handles)        absorb completions handed back by the driver
        pause() / watermark     checkpoint + cancel every in-flight task
        degrade_to(level)       shrink helper sets / coarsen slices

    ``job_id`` names the repair in a fleet run: it is stamped on the
    master's spans, journal records and plan notes, and folded into its
    track names and backoff keys.  A single-job driver passes ``None``
    and gets none of that.  ``scheme`` is the name results and spans
    report.

    ``faults`` / ``retry_policy`` arm the attempt machine
    (docs/fault_injection.md).  ``tick`` fails a flight whose tree lost
    a node (after the detection timeout) or whose rate sat at zero for
    that long; its verified slices are checkpointed so the re-plan
    resumes after them; the failure costs the stripe one of its
    ``max_retries`` and a ``policy.backoff`` wait while the other stripes
    proceed; a stripe out of budget, or with fewer than ``k`` helpers
    left, comes back as a clean :class:`RepairFailed`.  With an empty
    plan every hook is a no-op behind ``faulted``.

    ``degrade_to`` implements graceful degradation: level 1 trims the
    helper candidate set to exactly ``k`` (fewer helpers, smaller trees,
    less fan-in on congested links); level 2 additionally coarsens the
    slice width for stripes not yet submitted (fewer, larger slices cut
    pipeline bookkeeping under churn) and caps the submit rate below
    the plan's ``bmin`` whenever the plan saw real headroom (a saturated
    snapshot yields a meaningless near-zero ``bmin``; such a cap is
    skipped rather than wedging the flight).
    """

    def __init__(
        self,
        job_id: str | None,
        planner: RepairPlanner,
        network,
        stripes: Iterable[Stripe],
        failed_node: int,
        *,
        sim: FluidSimulator,
        scheme: str,
        config: ExecutionConfig | None = None,
        tracer=NULL_TRACER,
        faults: FaultPlan | None = None,
        retry_policy: RetryPolicy | None = None,
        journal=None,
    ):
        self.job_id = job_id
        self.planner = planner
        #: Already fault-wrapped by the driver (one wrap for the whole
        #: fleet — wrapping per-master would apply degradation factors
        #: twice).
        self.network = network
        self.failed_node = failed_node
        self.sim = sim
        self.scheme = scheme
        self.config = config or ExecutionConfig()
        self.tracer = tracer
        self.registry = MetricsRegistry()
        self.journal = journal

        self.pending: list[Stripe] = [
            s for s in stripes if s.chunk_on_node(failed_node) is not None
        ]
        if not self.pending:
            raise ClusterError(f"node {failed_node} stores no chunk to repair")
        self.in_flight: dict[int, _InFlight] = {}
        self.results: list[RepairResult] = []
        self.failures: list[RepairFailed] = []
        self.start_time = sim.now
        self.level = 0
        #: Planner calls so far (``plan_from``), a plain int for the
        #: runtime's own ledger, like the snapshot counters on ``view``.
        self.plans = 0
        #: What every plan of a scheduling round reads.
        self.view = ResidualView(network, sim)
        #: Completion hook ``(stripe, chunk_index, requestor)``; drivers
        #: with foreground traffic wire it to
        #: ``ForegroundEngine.note_repaired`` so degraded reads stop once
        #: the chunk is rebuilt.
        self.on_chunk_repaired = None

        self.faults = faults if faults is not None else FaultPlan.none()
        self.policy = retry_policy or RetryPolicy()
        self.faulted = bool(self.faults)
        #: Clock-advance hook, returning the repair handles that finished
        #: on the way.  Drivers with foreground traffic swap in the
        #: engine's drive so arrivals land inside detection, backoff and
        #: planning windows; the control plane swaps in its routed advance.
        self.advance = sim.advance_to
        self.injector = FaultInjector(self.faults, tracer, self.registry)
        #: Cumulative failed attempts, the degradation escalation signal.
        self.requeue_events = 0
        self.ledgers = {s.stripe_id: _Ledger() for s in self.pending}
        #: (due time, stripe) of stripes waiting out a retry backoff:
        #: not pending, so no driver can plan them before they are due.
        self.backing_off: list[tuple[float, Stripe]] = []

        #: stripe_id -> its ``repair.task`` span, the causal root
        #: :mod:`repro.obs.critpath` walks.  It opens the moment the
        #: master accepts the work, so time spent waiting in the
        #: concurrency window or the Eq. 3 queue is *inside* it, and
        #: closes when the chunk is rebuilt or abandoned.
        self.spans: dict[int, int] = {}
        if tracer.enabled:
            # The job lets the critical path blame a *rival repair job*.
            job = {} if job_id is None else {"job": job_id}
            for stripe in self.pending:
                self.spans[stripe.stripe_id] = tracer.begin(
                    "repair.task", t=sim.now,
                    track=self.track(stripe.stripe_id),
                    stripe=stripe.stripe_id, scheme=scheme, **job,
                )

    # -- How a stripe is named in spans, events and journal records:
    # -- ``stripe`` says which repair an event or record belongs to
    def track(self, stripe_id: int) -> str:
        """The stripe's trace track; a fleet job's id is folded in (two
        jobs repair stripes with colliding ids)."""
        if self.job_id is not None:
            return f"repair:{self.job_id}/{stripe_id}"
        return f"repair:{stripe_id}"

    def begin_span(self, name: str, stripe_id: int, t: float,
                   **fields) -> int | None:
        """Open a span under the stripe's root span, on its track."""
        if not self.tracer.enabled:
            return None
        return self.tracer.begin(
            name, t=t, track=self.track(stripe_id),
            parent_id=self.spans.get(stripe_id), **fields,
        )

    def end_span(self, name: str, span: int | None, stripe_id: int,
                 t: float, **fields) -> None:
        if span is not None:
            self.tracer.end(
                name, t=t, span_id=span, track=self.track(stripe_id),
                **fields,
            )

    def end_task(self, stripe_id: int, t: float, **fields) -> None:
        self.end_span(
            "repair.task", self.spans.pop(stripe_id, None), stripe_id, t,
            **fields,
        )

    def note(self, name: str, stripe: Stripe, **fields) -> None:
        """A trace instant under the stripe's repair span."""
        if self.tracer.enabled:
            self.tracer.instant(
                name, t=self.sim.now, track="executor",
                parent_id=self.spans.get(stripe.stripe_id),
                **fields, stripe=stripe.stripe_id,
            )

    def record(self, kind: str, stripe: Stripe | None = None,
               **data) -> None:
        """A journal record, about ``stripe`` if given; ``job`` tells
        the masters sharing a storm's journal apart."""
        if self.journal is not None:
            if stripe is not None:
                data["stripe"] = stripe.stripe_id
            if self.job_id is not None:
                data["job"] = self.job_id
            self.journal.append(kind, t=self.sim.now, **data)

    def announce(self, kind: str, journaled: dict, **fields) -> None:
        """A job-level transition: ``plane.<kind>`` instant + record."""
        if self.tracer.enabled:
            self.tracer.instant(
                f"plane.{kind}", t=self.sim.now, track="plane",
                job=self.job_id, **journaled, **fields,
            )
        self.record(kind, **journaled)

    # ------------------------------------------------------------------
    # Stepping (called by the driver)
    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        return not (self.pending or self.in_flight or self.backing_off)

    def running_tasks(self):
        """The master's live tasks, for Eq. 3 scoring."""
        return [flight.running for flight in self.in_flight.values()]

    def collect(self, handles: Iterable[TaskHandle]) -> None:
        """Absorb completed task handles the driver hands back."""
        for handle in handles:
            flight = self.in_flight.pop(handle.task_id, None)
            if flight is None:
                # A failing flight that "completed" inside its detection
                # window.
                continue
            stripe, plan = flight.stripe, flight.plan
            if self.faulted:
                self.injector.announce_until(self.sim.now)
            ledger = self.ledgers[stripe.stripe_id]
            segments = ledger.finish(flight)
            # The span ends at the flow's exact finish (collection can
            # lag behind completion by a planning window): its duration
            # is the makespan the critical path sums to.
            self.end_task(
                stripe.stripe_id, t=handle.finish_time,
                transfer_seconds=handle.duration, requestor=plan.requestor,
            )
            self.results.append(RepairResult(
                scheme=plan.scheme,
                planning_seconds=ledger.planning_seconds,
                transfer_seconds=handle.duration, bmin=plan.bmin, plan=plan,
                # A resumed flight only carries the slices past its
                # watermark, so charge what it actually moved, not the
                # full chunk.
                bytes_transferred=(
                    flight.bytes_per_edge * len(plan.tree.edges())
                ),
                attempts=ledger.failed + 1, segments=segments,
            ))
            self.record(
                "task_done", stripe, scheme=plan.scheme,
                start_slice=flight.start_slice,
            )
            if self.on_chunk_repaired is not None:
                chunk_index = stripe.chunk_on_node(self.failed_node)
                if chunk_index is not None:
                    self.on_chunk_repaired(
                        stripe, chunk_index, plan.requestor
                    )

    def degrade_to(self, level: int) -> bool:
        """Escalate (never relax) the degradation level; True if changed."""
        if level <= self.level:
            return False
        self.level = level
        self.announce(
            "degrade", {"level": level}, requeues=self.requeue_events
        )
        return True

    # ------------------------------------------------------------------
    # The attempt machine: detection, budget, backoff, checkpoints
    # ------------------------------------------------------------------
    def tick(self) -> None:
        """Fail flights that stopped, end backoffs."""
        if not self.faulted:
            return
        faults = self.faults
        now = self.sim.now
        dead = faults.dead_nodes(now)
        unreadable = faults.unreadable_nodes(now) - dead
        stalled, doomed = [], []
        for flight in list(self.in_flight.values()):
            # A read error matters on a helper only: the requestor
            # reads no chunk.
            gone = sorted(flight.tree_nodes & dead)
            lost = gone + sorted(
                flight.tree_nodes & unreadable - {flight.plan.requestor}
            )
            if lost:
                # Out of the collection path now: a read error leaves
                # link capacity intact, so the flow may "complete"
                # (delivering garbage) inside the detection window.
                del self.in_flight[flight.handle.task_id]
                doomed.append(
                    (flight, "crash" if gone else "readerr", lost)
                )
                continue
            if now >= self.stall_deadline(flight):
                del self.in_flight[flight.handle.task_id]
                stalled.append((flight, "stall", sorted(
                    flight.tree_nodes & faults.stalled_nodes(now)
                )))
        if stalled or doomed or not self.in_flight:
            self.injector.announce_until(now)
        if doomed:
            # Detection latency: healthy flights keep transferring while
            # the Master notices the failure (a stall already waited).
            self.collect(self.advance(now + self.policy.detection_timeout))
        for flight, kind, nodes in stalled + doomed:
            self.fail(flight, kind, nodes)
        now = self.sim.now
        due = [stripe for t, stripe in self.backing_off if t <= now]
        if due:
            self.backing_off = [
                entry for entry in self.backing_off if entry[0] > now
            ]
            self.pending.extend(due)

    def stall_deadline(self, flight: _InFlight) -> float:
        """When a flight at zero rate is declared stalled (inf: moving)."""
        rate = self.sim.current_rate(flight.handle)
        if rate > 1e-12:
            flight.stalled_since = None
            return math.inf
        if flight.stalled_since is None:
            flight.stalled_since = self.sim.now
        return flight.stalled_since + self.policy.detection_timeout

    def fail(self, flight: _InFlight, kind: str, nodes: list[int]) -> None:
        """One failed attempt: checkpoint, cancel, budget, backoff."""
        sim, stripe = self.sim, flight.stripe
        ledger = self.ledgers[stripe.stripe_id]
        attempt = ledger.failed + 1
        self.requeue_events += 1
        self.registry.counter("fault_detections").inc()
        self.note(
            "repair.detect", stripe, kind=kind, nodes=nodes, attempt=attempt,
        )
        # A read error leaves link capacity intact, so the flow may have
        # "completed" inside the detection window — nothing is left to
        # cancel then — and what it delivered is garbage either way: it
        # advances no watermark.
        live = not flight.handle.done
        if live and kind != "readerr":
            self.checkpoint(flight)
        watermark = ledger.fail()
        self.record(
            "attempt_failed", stripe, attempt=attempt, failure=kind,
            watermark=watermark, bytes_transferred=sim.total_bytes_transferred,
        )
        if live:
            sim.cancel_task(flight.handle)
            self.registry.counter("flows_cancelled").inc()
        if attempt > self.policy.max_retries:
            self.abort_stripe(
                stripe,
                f"retry budget exhausted after {attempt} attempts "
                f"(last failure: {kind})",
            )
            return
        # Keyed, so stripes (and jobs) failing at one instant come back
        # at different ones under ``jitter``.
        stripe_id = stripe.stripe_id
        backoff = self.policy.backoff(
            attempt - 1,
            key=stripe_id if self.job_id is None
            else f"{self.job_id}/{stripe_id}",
        )
        self.registry.counter("retries").inc()
        self.note(
            "repair.retry", stripe, attempt=attempt, backoff=backoff
        )
        if backoff > 0:
            # Explicit span so the wait shows up as stall time on the
            # repair's critical path.
            self.end_span("repair.backoff", self.begin_span(
                "repair.backoff", stripe_id, sim.now,
                attempt=attempt, seconds=backoff,
            ), stripe_id, sim.now + backoff)
        self.backing_off.append((sim.now + backoff, stripe))

    def checkpoint(self, flight: _InFlight) -> None:
        """Checkpoint what the flight verifiably delivered; a watermark
        that advanced is journaled as ``progress``."""
        verified = self.ledgers[flight.stripe.stripe_id].progress(
            flight, self.sim.task_progress(flight.handle)
        )
        if verified is not None:
            self.record(
                "progress", flight.stripe, watermark=verified,
                requestor=flight.plan.requestor,
            )

    def usable(self, survivors: Sequence[int], k: int) -> list[int]:
        """Helpers a plan made now may use: alive and readable, and not
        frozen right now when enough of those remain — a plan through a
        stalled node would only stall again."""
        now = self.sim.now
        unusable = self.faults.dead_nodes(now)
        unusable |= self.faults.unreadable_nodes(now)
        alive = [node for node in survivors if node not in unusable]
        if len(alive) < k:
            raise ClusterError(
                f"only {len(alive)} of {len(survivors)} helpers survive, "
                f"need k={k}"
            )
        stalled = self.faults.stalled_nodes(now)
        moving = [node for node in alive if node not in stalled]
        return moving if len(moving) >= k else alive

    def abort_stripe(self, stripe: Stripe, reason: str) -> None:
        """Record a stripe that can no longer be repaired."""
        attempts = self.ledgers[stripe.stripe_id].failed
        self.registry.counter("repairs_failed").inc()
        self.note(
            "repair.failed", stripe, scheme=self.scheme, reason=reason,
            attempts=attempts,
        )
        self.end_task(
            stripe.stripe_id, t=self.sim.now, failed=True, attempts=attempts
        )
        logger.warning(
            "stripe %d unrepairable: %s", stripe.stripe_id, reason
        )
        self.failures.append(RepairFailed(
            scheme=self.scheme, reason=reason,
            elapsed_seconds=self.sim.now - self.start_time,
            attempts=attempts, stripe_id=stripe.stripe_id,
        ))

    def run_bound(self) -> float:
        """Latest time the clock may free-run to before the next tick.

        The earliest of: a backoff ending, the fault plan changing
        anything (every crash, read error and stall window edge is one
        of its breakpoints), a stalled flight's deadline.
        """
        if not self.faulted:
            return math.inf
        bound = min((t for t, _ in self.backing_off), default=math.inf)
        if self.in_flight:
            bound = min(bound, self.faults.next_change_after(self.sim.now))
        for flight in self.in_flight.values():
            bound = min(bound, self.stall_deadline(flight))
        return bound

    # ------------------------------------------------------------------
    # Planning and submission
    # ------------------------------------------------------------------
    def plan(self, stripe: Stripe) -> RepairPlan:
        """Plan one stripe against residual bandwidth."""
        return self.plan_from(self.plan_inputs(stripe))

    def plan_inputs(self, stripe: Stripe) -> PlanInputs:
        """What the planner is handed for ``stripe``, validated.

        The chunk is rebuilt at the requestor the caller named, if any;
        else a stripe that carries a slice watermark keeps its requestor
        (the verified slices live on that node's disk, so re-planning
        elsewhere would forfeit them) unless that node has since died or
        is frozen right now; else at :func:`choose_requestor`'s pick.

        Raises :class:`ClusterError` when fewer than ``k`` helpers
        survive, or when the named requestor died, and the planner's
        :class:`PlanningError` on inputs it would refuse — so a round
        can drop an unrepairable stripe without planning it.
        """
        snapshot = self.view.snapshot()
        survivors = stripe.surviving_nodes(self.failed_node)
        k = stripe.code.k
        dead = stalled = frozenset()
        if self.faulted:
            dead = self.faults.dead_nodes(self.sim.now)
            stalled = self.faults.stalled_nodes(self.sim.now)
        requestor = self.ledgers[stripe.stripe_id].requestor_for(dead, stalled)
        if requestor is None:
            requestor = choose_requestor(
                snapshot, stripe, self.failed_node, len(self.network),
                exclude=dead, survivors=survivors,
            )
        candidates = survivors
        if self.faulted:
            candidates = self.usable(survivors, k)
        if self.level >= 1 and len(candidates) > k:
            # Graceful degradation, step 1: fewer helpers.  Keep the k
            # best uplinks so the shrunken tree still has the fattest
            # sources; sorted tiebreak keeps the choice deterministic.
            candidates = sorted(best_uplinks(snapshot, candidates, k))
        candidates = self.planner._validated(
            snapshot, requestor, candidates, k
        )
        return PlanInputs(stripe, snapshot, requestor, candidates, k)

    def plan_from(self, inputs: PlanInputs) -> RepairPlan:
        """Run the planner on :meth:`plan_inputs`' answer."""
        self.plans += 1
        plan = self.planner.plan(
            inputs.snapshot, inputs.requestor, inputs.candidates, inputs.k
        )
        plan.notes["stripe_id"] = inputs.stripe.stripe_id
        plan.notes["planned_at"] = self.sim.now
        if self.job_id is not None:
            plan.notes["job"] = self.job_id
        return plan

    def pin(self, stripe: Stripe, requestor: int) -> None:
        """Rebuild ``stripe`` at ``requestor`` or not at all."""
        self.ledgers[stripe.stripe_id].pin(requestor)

    def resume_slice(self, stripe: Stripe, plan: RepairPlan) -> int:
        """First slice the stripe's next flight must fetch (0 = all)."""
        return self.ledgers[stripe.stripe_id].resume_slice(plan.requestor)

    def candidate(self) -> tuple[Stripe, RepairPlan] | None:
        """Plan the head pending stripe against residual bandwidth.

        Stripes that became unrepairable (fewer than ``k`` surviving
        helpers) are aborted as clean ``RepairFailed`` entries and
        skipped — degradation can shrink a helper set, not conjure one.
        Returns ``None`` when nothing plannable is pending.  The plan is
        *not* yet charged or submitted; the driver decides that.
        """
        while self.pending:
            stripe = self.pending[0]
            try:
                # Scoped so the planner.plan instant inherits the
                # stripe's repair span as its causal parent.
                with self.tracer.scope(self.spans.get(stripe.stripe_id)):
                    plan = self.plan(stripe)
            except (ClusterError, PlanningError) as exc:
                if not self.faulted:
                    raise
                self.pending.pop(0)
                self.abort_stripe(stripe, str(exc))
                continue
            return stripe, plan
        return None

    def config_for(self, stripe: Stripe) -> ExecutionConfig:
        """Execution config the stripe's next submission is cut with."""
        known = self.ledgers[stripe.stripe_id].config
        if known is not None:
            return known
        config = self.config
        if self.level >= 2:
            # Graceful degradation, step 2: coarser slices, only for a
            # stripe never submitted: its ledger's slice indices keep the
            # slicing of its first submission.
            config = replace(
                config,
                slice_size=min(
                    config.chunk_size,
                    config.slice_size * DEGRADED_SLICE_FACTOR,
                ),
            )
        return config

    def charge_planning(self, stripe: Stripe, plan: RepairPlan) -> int | None:
        """Advance the clock by the plan's planning cost; returns its span.

        Planning is serial at the Master: the clock moves while it runs,
        and other tasks may complete in that window — they are collected
        before the stripe starts.
        """
        stripe_id = stripe.stripe_id
        span = self.begin_span(
            "repair.planning", stripe_id, self.sim.now, stripe=stripe_id
        )
        done_meanwhile = self.advance(
            self.sim.now + plan.planning_seconds
        )
        self.end_span("repair.planning", span, stripe_id, self.sim.now)
        self.collect(done_meanwhile)
        return span

    def submit(
        self,
        stripe: Stripe,
        plan: RepairPlan,
        max_rate: float | None = None,
        planning_span: int | None = None,
    ) -> _InFlight:
        """Launch a planned pending stripe on the simulator."""
        stripe_id = stripe.stripe_id
        self.pending.pop(
            next(i for i, s in enumerate(self.pending) if s is stripe)
        )
        ledger = self.ledgers[stripe_id]
        if ledger.launch(plan, self.config_for(stripe)):
            self.registry.counter("replans").inc()
            self.note(
                "repair.replan", stripe, attempt=ledger.failed + 1,
                scheme=plan.scheme, helpers=sorted(plan.helpers),
                bmin=plan.bmin,
            )
        start_slice = self.resume_slice(stripe, plan)
        cap = max_rate
        if self.level >= 2 and plan.bmin > 0:
            degraded_cap = plan.bmin * DEGRADED_RATE_FACTOR
            # A fully saturated residual snapshot plans with bmin ~= 0;
            # capping the flight at that rate would wedge it forever
            # (nothing ever re-opens a submit-time cap).  Politeness only
            # applies when the plan saw real headroom — otherwise max-min
            # sharing arbitrates as usual.
            if degraded_cap >= MIN_DEGRADED_RATE:
                cap = degraded_cap if cap is None else min(cap, degraded_cap)
        self.record(
            "task_start", stripe, requestor=plan.requestor,
            scheme=plan.scheme, start_slice=start_slice,
        )
        if not plan.is_pipelined:
            raise ClusterError(
                "the repair master supports pipelined plans only"
            )
        tree = plan.tree
        bytes_per_edge = remaining_bytes_per_edge(
            ledger.config, tree.depth(), start_slice
        )
        handle = self.sim.submit_pipelined(
            tree.edges(), bytes_per_edge,
            label=f"{plan.scheme}-r{plan.requestor}", max_rate=cap,
            parent_id=self.spans.get(stripe_id),
            links=tuple(
                span for span in (ledger.last_flow, planning_span)
                if span is not None
            ),
            meta={"stripe": stripe_id, "bmin": plan.bmin,
                  "start_slice": start_slice}
            if self.tracer.enabled else None,
        )
        expected = (
            bytes_per_edge / plan.bmin if plan.bmin > 0 else bytes_per_edge
        )
        flight = _InFlight(
            handle=handle, plan=plan,
            running=RunningTask(
                tree=tree, start_time=self.sim.now, expected_seconds=expected
            ),
            stripe=stripe,
            tree_nodes=frozenset({tree.root, *tree.helpers}),
            bytes_per_edge=bytes_per_edge, start_slice=start_slice,
            span=self.sim.task_span(handle),
        )
        self.in_flight[handle.task_id] = flight
        ledger.last_flow = flight.span
        return flight

    # ------------------------------------------------------------------
    # Pause / resume (backpressure shedding)
    # ------------------------------------------------------------------
    def pause(self) -> float:
        """Checkpoint and cancel every in-flight task; requeue stripes.

        Each flight's verified slice progress is checkpointed
        (journaled as ``progress``), so the eventual resume re-plans from
        there instead of re-transferring delivered slices.  A pause is
        not a failed attempt: no budget, no backoff.  Returns the
        in-flight bytes the cancelled tasks left uncarried (summed over
        each task's edges); the control plane reports it as the
        ``released_bytes`` of its ``shed`` decision.
        """
        released = 0.0
        resumed_stripes: list[Stripe] = []
        for task_id in sorted(self.in_flight):
            flight = self.in_flight.pop(task_id)
            self.checkpoint(flight)
            remaining = self.sim.cancel_task(flight.handle)
            released += remaining * len(flight.plan.tree.edges())
            resumed_stripes.append(flight.stripe)
        # Paused stripes go back to the *front*, oldest first, so the
        # resume replays them before untouched work.
        self.pending[:0] = resumed_stripes
        self.announce(
            "pause", {"stripes": [s.stripe_id for s in resumed_stripes]}
        )
        return released

    def note_resumed(self) -> None:
        self.announce("resume", {}, pending=len(self.pending))

    # ------------------------------------------------------------------
    # Result
    # ------------------------------------------------------------------
    def build_result(self, telemetry: dict | None = None) -> FullNodeResult:
        return FullNodeResult(
            scheme=self.scheme,
            failed_node=self.failed_node,
            total_seconds=self.sim.now - self.start_time,
            task_results=self.results,
            telemetry=telemetry,
            failures=list(self.failures),
        )

