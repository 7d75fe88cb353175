"""The full-node repair master (Section IV-E): one failed node, stepped.

:class:`StripeRepairMaster` is the only implementation of full-node
repair.  It owns one failed node's pending / in-flight / results state
and exposes the repair as discrete steps — plan a stripe against the
residual bandwidth snapshot, charge the serial planning time on the
clock, submit, collect, checkpoint and re-plan on faults — but never
runs an event loop of its own.  Two drivers sequence those steps:

* the single-job loop in :mod:`repro.repair.fullnode`
  (``repair_full_node`` / ``repair_full_node_adaptive``) builds a fresh
  simulator and one master, and differs only in *which* pending stripe
  it starts next (FIFO window vs. Eq. 3 recommendation values);
* the fleet control plane (:mod:`repro.controlplane`) runs several
  masters over **one** shared simulator, advancing the clock itself and
  routing each completed task back to the master that owns it.

Each task's requestor is the node with the most available downlink among
nodes not holding a chunk of the stripe ("PivotRepair always selects the
node that has the most downlink bandwidth as the requestor"), so
requestors spread across the cluster.  Planning happens serially at the
Master and its wall-clock cost advances the simulated clock — this is
what sinks PPT at large k in Figure 7.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, replace

from repro.core.bandwidth_view import BandwidthSnapshot
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
    "residual_snapshot",
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

    A scheduling round plans every pending stripe against "the instant
    bandwidths situation"; between two plans of a round nothing moved.
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


def residual_snapshot(
    network: StarNetwork, sim: FluidSimulator
) -> BandwidthSnapshot:
    """Available bandwidth net of in-flight repair traffic.

    The Master measures instantaneous link usage (the paper uses ``nload``),
    which includes the repair tasks already running; planning against the
    residual keeps concurrent repair trees from piling onto the same pivots.

    A from-scratch build; a caller that asks repeatedly (the master, once
    per plan) keeps a :class:`ResidualView` instead.
    """
    return ResidualView(network, sim).snapshot()


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
    #: Execution config the flight was submitted with.  The control plane
    #: submits degraded flights with a coarser slice width; watermark
    #: accounting must use the config the bytes were actually cut with,
    #: not the master-wide default.
    config: ExecutionConfig


class _SpanBook:
    """Per-stripe ``repair.task`` spans — the causal roots of a run.

    One span per stripe opens on track ``repair:<stripe_id>`` the moment
    the master accepts the work, so time spent waiting in the
    concurrency window or the Eq. 3 recommendation queue is *inside* the
    span; it closes when the stripe's chunk is rebuilt (at the flow's
    exact finish time) or abandoned.  Planning windows, flows, re-plans
    and slice-watermark resumes all hang off it via ``parent_id`` /
    ``links``, which is what :mod:`repro.obs.critpath` walks to
    reconstruct each repair's critical path.
    """

    def __init__(self, tracer, stripes: Sequence[Stripe], t: float,
                 scheme: str, job: str | None = None):
        self.tracer = tracer
        self.enabled = tracer.enabled
        #: Fleet-run job id; single-master runs leave it None.  Stamped
        #: on every ``repair.task`` span (the critical-path analyzer uses
        #: it to blame contention on a *rival repair job*, not just a
        #: tenant) and folded into the track name so two jobs repairing
        #: stripes with colliding ids never share a track.
        self.job = job
        self.spans: dict[int, int] = {}
        #: stripe_id -> span of the stripe's most recent flow (a re-plan
        #: or resume links its new flow to the one it replaces).
        self.last_flow: dict[int, int] = {}
        if self.enabled:
            for stripe in stripes:
                self.spans[stripe.stripe_id] = tracer.begin(
                    "repair.task", t=t, track=self.track(stripe.stripe_id),
                    stripe=stripe.stripe_id, scheme=scheme,
                    **({"job": job} if job is not None else {}),
                )

    def track(self, stripe_id: int) -> str:
        if self.job is not None:
            return f"repair:{self.job}/{stripe_id}"
        return f"repair:{stripe_id}"

    def parent(self, stripe_id: int) -> int | None:
        return self.spans.get(stripe_id)

    def begin_planning(self, stripe_id: int, t: float) -> int | None:
        """Open the span covering a stripe's serial-planning clock charge."""
        if not self.enabled:
            return None
        return self.tracer.begin(
            "repair.planning", t=t, track=self.track(stripe_id),
            parent_id=self.spans.get(stripe_id), stripe=stripe_id,
        )

    def end_planning(self, span: int | None, stripe_id: int,
                     t: float) -> None:
        if span is not None:
            self.tracer.end(
                "repair.planning", t=t, span_id=span,
                track=self.track(stripe_id),
            )

    def note_flow(self, stripe_id: int, flow_span: int | None) -> None:
        if self.enabled and flow_span is not None:
            self.last_flow[stripe_id] = flow_span

    def flow_links(
        self, stripe_id: int, planning_span: int | None
    ) -> tuple[int, ...]:
        links = []
        previous = self.last_flow.get(stripe_id)
        if previous is not None:
            links.append(previous)
        if planning_span is not None:
            links.append(planning_span)
        return tuple(links)

    def end_task(self, stripe_id: int, t: float, **fields) -> None:
        span = self.spans.pop(stripe_id, None)
        if span is not None:
            self.tracer.end(
                "repair.task", t=t, span_id=span,
                track=self.track(stripe_id), **fields,
            )


class _FaultDriver:
    """The master's fault handling.

    Watches the fault plan as simulated time advances: announces events,
    cancels in-flight repairs whose tree lost a node (after the policy's
    detection timeout), requeues their stripes for re-planning, and
    records stripes that became unrepairable as clean
    :class:`RepairFailed` entries.  With an empty plan every method is a
    cheap no-op, so the fault-free paths behave exactly as before.

    The driver also keeps slice-level progress watermarks: before a
    doomed flight is cancelled, its verified slice count (pipeline depth
    subtracted — slices still in flight are not trusted) is recorded,
    journaled when a ``journal`` is attached, and offered back through
    :meth:`resume_slice` so the re-planned task transfers only the
    remaining slice range.
    """

    def __init__(
        self,
        faults: FaultPlan | None,
        policy: RetryPolicy | None,
        sim: FluidSimulator,
        scheme: str,
        tracer,
        registry: MetricsRegistry,
        book: _SpanBook,
        journal=None,
    ):
        self.faults = faults if faults is not None else FaultPlan.none()
        self.policy = policy or RetryPolicy()
        self.sim = sim
        self.scheme = scheme
        self.tracer = tracer
        self.registry = registry
        #: Parents fault instants to their stripe's repair span and
        #: closes spans of aborted stripes.
        self.book = book
        self.journal = journal
        self.active = bool(self.faults)
        #: Clock-advance hook, returning the repair handles that finished
        #: on the way.  Drivers with foreground traffic swap in the
        #: engine's drive so arrivals land inside detection and planning
        #: windows; the control plane swaps in its routed advance.
        self.advance = sim.advance_to
        self.injector = FaultInjector(self.faults, tracer, registry)
        self.requeued_ids: set[int] = set()
        #: Cumulative fault-requeue events, the degradation escalation
        #: signal (monotone, unlike ``requeued_ids`` which drains).
        self.requeue_events = 0
        self.failures: list[RepairFailed] = []
        self.start_time = sim.now
        #: stripe_id -> (verified slice watermark, requestor that holds it).
        self.watermarks: dict[int, tuple[int, int]] = {}

    def tick(
        self,
        in_flight: dict[int, _InFlight],
        pending: list[Stripe],
        collect,
    ) -> None:
        """Cancel flights doomed by faults at the current time; requeue."""
        if not self.active:
            return
        self.injector.announce_until(self.sim.now)
        unusable = self.faults.dead_nodes(self.sim.now)
        unusable |= self.faults.unreadable_nodes(self.sim.now)
        if not unusable:
            return
        doomed = [
            task_id
            for task_id, flight in in_flight.items()
            if flight.tree_nodes & unusable
        ]
        if not doomed:
            return
        # Detection latency: healthy flights keep transferring while the
        # Master notices the failure.
        done = self.advance(self.sim.now + self.policy.detection_timeout)
        collect(done)
        self.injector.announce_until(self.sim.now)
        unreadable = self.faults.unreadable_nodes(self.sim.now)
        for task_id in doomed:
            flight = in_flight.pop(task_id, None)
            if flight is None:  # finished inside the detection window
                continue
            lost = sorted(flight.tree_nodes & unusable)
            self.record_watermark(flight, lost, unreadable)
            self.sim.cancel_task(flight.handle)
            self.registry.counter("flows_cancelled").inc()
            self.registry.counter("fault_detections").inc()
            stripe_id = flight.stripe.stripe_id
            if self.tracer.enabled:
                self.tracer.instant(
                    "repair.detect", t=self.sim.now, track="executor",
                    parent_id=self.book.parent(stripe_id),
                    stripe=stripe_id, nodes=lost, kind="crash",
                )
            pending.append(flight.stripe)
            self.requeued_ids.add(stripe_id)
            self.requeue_events += 1

    def record_watermark(
        self,
        flight: _InFlight,
        lost: list[int],
        unreadable: frozenset[int] | set[int],
    ) -> None:
        """Checkpoint the doomed flight's verified slice progress.

        Slices still inside the pipeline (one per tree level) have not
        reached the requestor, so they are subtracted; a flight doomed
        purely by corrupted reads (``readerr``) contributes nothing —
        its delivered bytes cannot be trusted.
        """
        if lost and all(node in unreadable for node in lost):
            return
        watermark = verified_watermark(
            flight.config, flight.plan.tree.depth(), flight.start_slice,
            self.sim.task_progress(flight.handle),
        )
        if watermark <= 0:
            return
        stripe_id = flight.stripe.stripe_id
        self.watermarks[stripe_id] = (watermark, flight.plan.requestor)
        if self.journal is not None:
            self.journal.append(
                "progress", t=self.sim.now, stripe=stripe_id,
                watermark=watermark, requestor=flight.plan.requestor,
            )

    def preferred_requestor(
        self, stripe: Stripe, dead: frozenset[int]
    ) -> int | None:
        """Requestor holding this stripe's verified slices, if it lives."""
        recorded = self.watermarks.get(stripe.stripe_id)
        if recorded is None:
            return None
        _, requestor = recorded
        if requestor in dead:
            return None
        return requestor

    def resume_slice(self, stripe: Stripe, plan: RepairPlan) -> int:
        """First slice the re-planned task must fetch (0 = from scratch).

        The watermark is only honoured when the re-plan lands on the same
        requestor — verified slices live on the requestor's disk, and a
        different requestor holds none of them.
        """
        recorded = self.watermarks.get(stripe.stripe_id)
        if recorded is None:
            return 0
        watermark, requestor = recorded
        if plan.requestor != requestor:
            return 0
        return watermark

    def note_started(self, stripe: Stripe, plan: RepairPlan) -> None:
        """Count a re-plan when a previously killed stripe restarts."""
        if stripe.stripe_id not in self.requeued_ids:
            return
        self.requeued_ids.discard(stripe.stripe_id)
        self.registry.counter("replans").inc()
        if self.tracer.enabled:
            self.tracer.instant(
                "repair.replan", t=self.sim.now, track="executor",
                parent_id=self.book.parent(stripe.stripe_id),
                stripe=stripe.stripe_id, requestor=plan.requestor,
                helpers=sorted(plan.helpers), bmin=plan.bmin,
            )

    def abort_stripe(self, stripe: Stripe, reason: str) -> None:
        """Record a stripe that can no longer be repaired."""
        self.requeued_ids.discard(stripe.stripe_id)
        self.registry.counter("repairs_failed").inc()
        if self.tracer.enabled:
            self.tracer.instant(
                "repair.failed", t=self.sim.now, track="executor",
                parent_id=self.book.parent(stripe.stripe_id),
                stripe=stripe.stripe_id, reason=reason,
            )
            self.book.end_task(stripe.stripe_id, t=self.sim.now, failed=True)
        logger.warning(
            "stripe %d unrepairable: %s", stripe.stripe_id, reason
        )
        self.failures.append(
            RepairFailed(
                scheme=self.scheme,
                reason=reason,
                elapsed_seconds=self.sim.now - self.start_time,
                stripe_id=stripe.stripe_id,
            )
        )

    def run_bound(self, in_flight: dict[int, _InFlight]) -> float:
        """Latest time the simulator may free-run to before a fault check."""
        if not self.active:
            return math.inf
        return min(
            (
                self.faults.next_failure_affecting(
                    flight.tree_nodes, self.sim.now
                )
                for flight in in_flight.values()
            ),
            default=math.inf,
        )


class _JobJournal:
    """Journal adapter stamping every record with its repair job id.

    Several masters share one :class:`~repro.resilience.RepairJournal`
    during a storm; the ``job`` field disambiguates records whose stripe
    ids would otherwise collide across jobs, and lets the determinism
    tests diff per-job record streams.
    """

    def __init__(self, journal, job: str):
        self._journal = journal
        self._job = job

    def append(self, kind: str, t: float = 0.0, **data):
        return self._journal.append(kind, t=t, job=self._job, **data)


class StripeRepairMaster:
    """Repair every lost chunk of one failed node, one step at a time.

    The master owns the pending / in-flight / results state and exposes
    the repair as discrete operations a driver sequences::

        tick()                  fault detection + doomed-flight requeue
        plan(stripe)            plan one stripe on the residual snapshot
        candidate()             plan the head pending stripe (or None)
        charge_planning(...)    advance the clock by the planner's cost
        submit(stripe, plan)    launch the planned stripe on the simulator
        collect(handles)        absorb completions handed back by the driver
        pause() / watermark     checkpoint + cancel every in-flight task
        degrade_to(level)       shrink helper sets / coarsen slices

    ``job_id`` names the repair in a fleet run: it is stamped on the
    master's spans, journal records and plan notes, and folded into its
    track names.  A single-job driver passes ``None`` and gets none of
    that.  ``scheme`` is the name results and spans report.

    ``degrade_to`` implements graceful degradation: level 1 trims the
    helper candidate set to exactly ``k`` (fewer helpers, smaller trees,
    less fan-in on congested links); level 2 additionally coarsens the
    slice width for stripes that have no checkpoint yet (fewer, larger
    slices cut pipeline bookkeeping under churn) and caps the submit
    rate below the plan's ``bmin`` whenever the plan saw real headroom
    (a saturated snapshot yields a meaningless near-zero ``bmin``; such
    a cap is skipped rather than wedging the flight).  A stripe that
    already carries a slice watermark keeps the config it was
    checkpointed under — the watermark is an index into *that* slicing.
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
        if journal is not None and job_id is not None:
            journal = _JobJournal(journal, job_id)
        self.journal = journal

        self.pending: list[Stripe] = [
            s for s in stripes if s.chunk_on_node(failed_node) is not None
        ]
        if not self.pending:
            raise ClusterError(f"node {failed_node} stores no chunk to repair")
        self.in_flight: dict[int, _InFlight] = {}
        self.results: list[RepairResult] = []
        self.start_time = sim.now
        self.level = 0
        #: Stripes planned so far (``plan`` calls), a plain int for the
        #: runtime's own ledger, like the snapshot counters on ``view``.
        self.plans = 0
        #: What every plan of a scheduling round reads.
        self.view = ResidualView(network, sim)
        #: Config each stripe was last submitted under; re-submissions
        #: reuse it so slice watermarks keep their meaning.
        self._stripe_config: dict[int, ExecutionConfig] = {}
        #: Completion hook ``(stripe, chunk_index, requestor)``; drivers
        #: with foreground traffic wire it to
        #: ``ForegroundEngine.note_repaired`` so degraded reads stop once
        #: the chunk is rebuilt.
        self.on_chunk_repaired = None

        self.book = _SpanBook(
            tracer, self.pending, sim.now, scheme, job=job_id,
        )
        self.driver = _FaultDriver(
            faults, retry_policy, sim, scheme, tracer, self.registry,
            self.book, journal=self.journal,
        )

    # ------------------------------------------------------------------
    # Stepping (called by the driver)
    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        return not self.pending and not self.in_flight

    @property
    def failures(self):
        return self.driver.failures

    def running_tasks(self):
        """The master's live tasks, for Eq. 3 scoring."""
        return [flight.running for flight in self.in_flight.values()]

    def collect(self, handles: Iterable[TaskHandle]) -> None:
        """Absorb completed task handles the driver hands back."""
        for handle in handles:
            flight = self.in_flight.pop(handle.task_id)
            stripe, plan = flight.stripe, flight.plan
            # Close at the flow's exact finish time (collection can lag
            # behind completion by a planning window): the span duration
            # is the stripe's measured makespan the critical path must
            # sum to.
            self.book.end_task(
                stripe.stripe_id, t=handle.finish_time,
                transfer_seconds=handle.duration, requestor=plan.requestor,
            )
            self.results.append(
                RepairResult(
                    scheme=plan.scheme,
                    planning_seconds=plan.effective_planning_seconds,
                    transfer_seconds=handle.duration,
                    bmin=plan.bmin,
                    plan=plan,
                    # A resumed flight only carries the slices past its
                    # watermark, so charge what it actually moved, not
                    # the full chunk.
                    bytes_transferred=(
                        flight.bytes_per_edge * len(plan.tree.edges())
                    ),
                )
            )
            self.registry.histogram("task_seconds").observe(handle.duration)
            self.registry.histogram("planner_seconds").observe(
                plan.effective_planning_seconds
            )
            if self.journal is not None:
                self.journal.append(
                    "task_done", t=self.sim.now, stripe=stripe.stripe_id,
                    scheme=plan.scheme, start_slice=flight.start_slice,
                )
            if self.on_chunk_repaired is not None:
                chunk_index = stripe.chunk_on_node(self.failed_node)
                if chunk_index is not None:
                    self.on_chunk_repaired(
                        stripe, chunk_index, plan.requestor
                    )

    def tick(self) -> None:
        """Fault detection: cancel doomed flights, requeue their stripes."""
        self.driver.tick(self.in_flight, self.pending, self.collect)

    def degrade_to(self, level: int) -> bool:
        """Escalate (never relax) the degradation level; True if changed."""
        if level <= self.level:
            return False
        self.level = level
        if self.tracer.enabled:
            self.tracer.instant(
                "plane.degrade", t=self.sim.now, track="plane",
                job=self.job_id, level=level,
                requeues=self.driver.requeue_events,
            )
        if self.journal is not None:
            self.journal.append("degrade", t=self.sim.now, level=level)
        return True

    # ------------------------------------------------------------------
    # Planning and submission
    # ------------------------------------------------------------------
    def plan(self, stripe: Stripe) -> RepairPlan:
        """Plan one stripe against residual bandwidth.

        A stripe that carries a slice watermark keeps its requestor (the
        verified slices live on that node's disk, so re-planning
        elsewhere would forfeit them) unless that node has since died.
        Raises :class:`ClusterError` when fewer than ``k`` helpers
        survive.
        """
        self.plans += 1
        snapshot = self.view.snapshot()
        dead = unusable = frozenset()
        if self.driver.active:
            dead = self.driver.faults.dead_nodes(self.sim.now)
            unusable = dead | self.driver.faults.unreadable_nodes(
                self.sim.now
            )
        survivors = stripe.surviving_nodes(self.failed_node)
        requestor = self.driver.preferred_requestor(stripe, dead)
        if requestor is None:
            requestor = choose_requestor(
                snapshot, stripe, self.failed_node, len(self.network),
                exclude=dead, survivors=survivors,
            )
        candidates = survivors
        if unusable:
            candidates = [
                node for node in survivors if node not in unusable
            ]
        k = stripe.code.k
        if len(candidates) < k:
            raise ClusterError(
                f"stripe {stripe.stripe_id}: only {len(candidates)} "
                f"helpers survive, need k={k}"
            )
        if self.level >= 1 and len(candidates) > k:
            # Graceful degradation, step 1: fewer helpers.  Keep the k
            # best uplinks so the shrunken tree still has the fattest
            # sources; sorted tiebreak keeps the choice deterministic.
            candidates = sorted(
                candidates, key=lambda node: (-snapshot.up_of(node), node)
            )[:k]
            candidates.sort()
        plan = self.planner.plan(snapshot, requestor, candidates, k)
        plan.notes["stripe_id"] = stripe.stripe_id
        plan.notes["planned_at"] = self.sim.now
        if self.job_id is not None:
            plan.notes["job"] = self.job_id
        return plan

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
                with self.tracer.scope(self.book.parent(stripe.stripe_id)):
                    plan = self.plan(stripe)
            except (ClusterError, PlanningError) as exc:
                if not self.driver.active:
                    raise
                self.pending.pop(0)
                self.driver.abort_stripe(stripe, str(exc))
                continue
            return stripe, plan
        return None

    def config_for(self, stripe: Stripe) -> ExecutionConfig:
        """Execution config the stripe's next submission is cut with."""
        known = self._stripe_config.get(stripe.stripe_id)
        if known is not None:
            return known
        config = self.config
        if self.level >= 2:
            # Graceful degradation, step 2: coarser slices.  Only for
            # stripes with no checkpoint yet — a watermark indexes the
            # slicing it was recorded under.
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
        span = self.book.begin_planning(stripe.stripe_id, self.sim.now)
        done_meanwhile = self.driver.advance(
            self.sim.now + plan.effective_planning_seconds
        )
        self.book.end_planning(span, stripe.stripe_id, self.sim.now)
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
        if not plan.is_pipelined:
            raise ClusterError(
                "full-node orchestration supports pipelined plans only"
            )
        stripe_id = stripe.stripe_id
        self.pending.pop(
            next(i for i, s in enumerate(self.pending) if s is stripe)
        )
        self.driver.note_started(stripe, plan)
        start_slice = self.driver.resume_slice(stripe, plan)
        config = self.config_for(stripe)
        self._stripe_config[stripe_id] = config
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
        if self.journal is not None:
            self.journal.append(
                "task_start", t=self.sim.now, stripe=stripe_id,
                requestor=plan.requestor, scheme=plan.scheme,
                start_slice=start_slice,
            )
        tree = plan.tree
        bytes_per_edge = remaining_bytes_per_edge(
            config, tree.depth(), start_slice
        )
        meta = None
        if self.book.enabled:
            meta = {
                "stripe": stripe_id, "bmin": plan.bmin,
                "start_slice": start_slice,
            }
        handle = self.sim.submit_pipelined(
            tree.edges(), bytes_per_edge,
            label=f"{plan.scheme}-r{plan.requestor}", max_rate=cap,
            parent_id=self.book.parent(stripe_id),
            links=self.book.flow_links(stripe_id, planning_span), meta=meta,
        )
        self.book.note_flow(stripe_id, self.sim.task_span(handle))
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
            config=config,
        )
        self.in_flight[handle.task_id] = flight
        return flight

    # ------------------------------------------------------------------
    # Pause / resume (backpressure shedding)
    # ------------------------------------------------------------------
    def pause(self) -> float:
        """Checkpoint and cancel every in-flight task; requeue stripes.

        Each flight's verified slice progress is recorded through the
        fault driver's watermark path (journaled as ``progress``), so
        the eventual resume re-plans from the checkpoint instead of
        re-transferring delivered slices.  Returns the in-flight bytes
        released back to the admission budget (remaining bytes summed
        over each task's edges).
        """
        released = 0.0
        resumed_stripes: list[Stripe] = []
        for task_id in sorted(self.in_flight):
            flight = self.in_flight.pop(task_id)
            self.driver.record_watermark(flight, [], frozenset())
            remaining = self.sim.cancel_task(flight.handle)
            released += remaining * len(flight.plan.tree.edges())
            resumed_stripes.append(flight.stripe)
        # Paused stripes go back to the *front*, oldest first, so the
        # resume replays them before untouched work.
        self.pending[:0] = resumed_stripes
        if self.journal is not None:
            self.journal.append(
                "pause", t=self.sim.now,
                stripes=[s.stripe_id for s in resumed_stripes],
            )
        if self.tracer.enabled:
            self.tracer.instant(
                "plane.pause", t=self.sim.now, track="plane",
                job=self.job_id,
                stripes=[s.stripe_id for s in resumed_stripes],
            )
        return released

    def note_resumed(self) -> None:
        if self.journal is not None:
            self.journal.append("resume", t=self.sim.now)
        if self.tracer.enabled:
            self.tracer.instant(
                "plane.resume", t=self.sim.now, track="plane",
                job=self.job_id, pending=len(self.pending),
            )

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
            failures=list(self.driver.failures),
        )
