"""Single-job full-node repair (Section IV-E, Experiment 6).

Repairs every lost chunk of one failed node on a fresh simulator.  The
repair itself — planning against residual bandwidth, charging planning
time, submitting, collecting, checkpointing and re-planning on faults —
is :class:`~repro.repair.jobmaster.StripeRepairMaster`; this module is
the event loop that drives one master to completion, in two flavours
that differ only in which pending stripe starts next:

* :func:`repair_full_node` — fixed-concurrency window: stripes are repaired
  in order, keeping ``concurrency`` single-chunk repairs in flight.  Used
  for RP, PPT, and PivotRepair without the adaptive strategy.
* :func:`repair_full_node_adaptive` — PivotRepair's adaptive scheduling:
  :func:`eq3_round` over every pending stripe, which starts the one with
  the best recommendation value (Eq. 3) under current bandwidths while
  that value clears the threshold, planning only the stripes whose value
  ceiling can still win.

The fleet control plane (:mod:`repro.controlplane`), the third driver of
the same master over a simulator shared by several repairs, runs the
same :func:`eq3_round` over its admitted jobs' head stripes.
"""

from __future__ import annotations

import heapq
import logging
import math
from collections.abc import Callable, Sequence

from repro.core.plan import RepairPlanner
from repro.core.scheduler import (
    IDLE_CHECK_INTERVAL,
    MAX_IDLE_WAIT,
    SchedulerConfig,
    recommendation_ceiling,
    recommendation_value,
)
from repro.ec.stripe import Stripe
from repro.exceptions import ClusterError, PlanningError
from repro.faults.network import FaultyNetwork
from repro.faults.plan import FaultPlan
from repro.faults.policy import RetryPolicy
from repro.network.simulator import FluidSimulator
from repro.network.topology import StarNetwork
from repro.obs.tracer import NULL_TRACER
from repro.repair.jobmaster import StripeRepairMaster
from repro.repair.metrics import FullNodeResult
from repro.repair.pipeline import ExecutionConfig
from repro.repair.telemetry import run_counters

logger = logging.getLogger(__name__)

#: Dispatch step of the single-job loop: start pending stripes of the
#: master (per-flow rate cap given) until the policy says wait.
Dispatch = Callable[[StripeRepairMaster, float | None], None]


# ----------------------------------------------------------------------
# Foreground traffic and repair QoS (repro.loadgen)
# ----------------------------------------------------------------------
# The drivers accept an optional ForegroundEngine and RepairQoSGovernor.
# Every clock movement goes through the engine's ``drive_to`` /
# ``run_until_repair_event`` when one is attached, so client arrivals
# are injected at their due times and foreground completions never reach
# the repair collection path; with ``foreground=None`` and
# ``governor=None`` the loop makes the exact pre-loadgen simulator calls,
# keeping the repair-only path byte-identical (guarded by
# tests/loadgen/test_equivalence.py).

def _apply_governor(
    governor, foreground, master: StripeRepairMaster
) -> float | None:
    """Consult the governor; retune every in-flight repair pipeline.

    Returns the per-flow cap so newly submitted repairs start throttled
    too.  The ``repair_rate_cap`` gauge reports -1 for "uncapped" (inf is
    not JSON-serialisable).
    """
    if governor is None:
        return None
    sim = master.sim
    cap = governor.repair_rate_cap(sim.now, foreground)
    if sim.sampler is not None:
        sim.sampler.note_governor_cap(cap)
    for flight in master.in_flight.values():
        sim.set_task_max_rate(flight.handle, cap)
    master.registry.gauge("repair_rate_cap").set(-1.0 if cap is None else cap)
    if master.tracer.enabled:
        master.tracer.instant(
            "governor.decision", t=sim.now, track="governor",
            policy=governor.name, cap=-1.0 if cap is None else cap,
            in_flight=len(master.in_flight),
        )
    return cap


def _note_progress(sim: FluidSimulator, completed: int, total: int) -> None:
    """Feed the repair-progress series of an attached telemetry TSDB.

    The ``repair_progress`` gauge (0..1) is what the repair-deadline SLO
    burns against and what ``repro top`` renders; it only exists when the
    run carries a flight recorder with a TSDB attached, so the plain
    paths pay one attribute check.
    """
    sampler = sim.sampler
    if sampler is None or getattr(sampler, "tsdb", None) is None:
        return
    fraction = completed / total if total else 1.0
    sampler.tsdb.record("repair_progress", sim.now, fraction)
    sampler.tsdb.record("repairs_completed", sim.now, completed)


def run_rounds(
    master: StripeRepairMaster, dispatch: Dispatch, foreground=None,
    governor=None,
) -> None:
    """Sequence one master on its own simulator until it is done.

    Each round: tick, governor, ``dispatch`` (the only step the drivers
    differ in), then free-run to the next repair completion, the
    master's bound or the governor's next look, and collect.
    """
    sim = master.sim
    run_until_event = sim.run_until_completion
    if foreground is not None:
        run_until_event = foreground.run_until_repair_event
    total_stripes = len(master.pending)
    _note_progress(sim, 0, total_stripes)
    while not master.done:
        if foreground is not None:
            foreground.abort_on_crash()
        master.tick()
        cap = _apply_governor(governor, foreground, master)
        dispatch(master, cap)
        bound = master.run_bound()
        if not master.in_flight:
            # Every stripe left is waiting out a retry backoff: let the
            # clock (and the foreground) run to the earliest due time.
            if math.isfinite(bound):
                master.collect(master.advance(bound))
            continue
        if governor is not None and math.isfinite(
            governor.decision_interval
        ):
            bound = min(bound, sim.now + governor.decision_interval)
        master.collect(run_until_event(max_time=bound))
        _note_progress(sim, len(master.results), total_stripes)


def _repair_single_job(
    scheme: str,
    dispatch: Dispatch,
    planner: RepairPlanner,
    network: StarNetwork,
    stripes: Sequence[Stripe],
    failed_node: int,
    config: ExecutionConfig | None,
    start_time: float,
    tracer,
    faults: FaultPlan | None,
    retry_policy: RetryPolicy | None,
    foreground,
    governor,
    sampler,
    journal,
) -> FullNodeResult:
    """Drive one master on a fresh simulator until its node is repaired."""
    config = config or ExecutionConfig()
    network = FaultyNetwork.wrap(network, faults)
    sim = FluidSimulator(
        network, start_time=start_time, tracer=tracer, sampler=sampler
    )
    master = StripeRepairMaster(
        None, planner, network, stripes, failed_node, sim=sim, scheme=scheme,
        config=config, tracer=tracer, faults=faults,
        retry_policy=retry_policy, journal=journal,
    )
    logger.info(
        "full-node repair (%s): node %d, %d stripes",
        scheme, failed_node, len(master.pending),
    )
    if foreground is not None:
        foreground.bind(sim, network, faults)
        master.advance = foreground.drive_to
        master.on_chunk_repaired = foreground.note_repaired
    with planner.traced(tracer):
        run_rounds(master, dispatch, foreground, governor)
    registry = master.registry
    for task in master.results:
        registry.histogram("task_seconds").observe(task.transfer_seconds)
        registry.histogram("planner_seconds").observe(task.planning_seconds)
    return master.build_result(
        registry.snapshot(run_counters(sim, tracer))
    )


def repair_full_node(
    planner: RepairPlanner,
    network: StarNetwork,
    stripes: Sequence[Stripe],
    failed_node: int,
    concurrency: int = 4,
    config: ExecutionConfig | None = None,
    start_time: float = 0.0,
    tracer=NULL_TRACER,
    faults: FaultPlan | None = None,
    retry_policy: RetryPolicy | None = None,
    foreground=None,
    governor=None,
    sampler=None,
    journal=None,
) -> FullNodeResult:
    """Fixed-concurrency full-node repair (the non-adaptive driver).

    ``foreground`` (a :class:`~repro.loadgen.ForegroundEngine`) injects
    client traffic as competing flows on the same simulator; ``governor``
    (a :class:`~repro.loadgen.RepairQoSGovernor`) is consulted at every
    decision point to throttle repair for foreground QoS.  Both default
    to None, which leaves the repair-only path unchanged.  ``sampler``
    (a :class:`~repro.obs.FlightRecorder`) records aligned utilization
    time series for dashboards and counter tracks; diagnosis
    (:mod:`repro.obs.analysis`) reads the trace, not the samples.

    ``journal`` (a :class:`~repro.resilience.RepairJournal`) makes the run
    resumable: per-stripe start/progress/done records are appended as the
    run advances, and a re-planned stripe whose requestor survives resumes
    from its last verified slice instead of restarting the transfer.
    """
    if concurrency < 1:
        raise ClusterError("concurrency must be >= 1")

    def fill_window(master, cap):
        while master.pending and len(master.in_flight) < concurrency:
            planned = master.candidate()
            if planned is None:
                return
            span = master.charge_planning(*planned)
            master.submit(*planned, max_rate=cap, planning_span=span)

    return _repair_single_job(
        planner.name, fill_window, planner, network, stripes, failed_node,
        config, start_time, tracer, faults, retry_policy, foreground,
        governor, sampler, journal,
    )


def repair_full_node_adaptive(
    planner: RepairPlanner,
    network: StarNetwork,
    stripes: Sequence[Stripe],
    failed_node: int,
    scheduler: SchedulerConfig | None = None,
    config: ExecutionConfig | None = None,
    start_time: float = 0.0,
    tracer=NULL_TRACER,
    faults: FaultPlan | None = None,
    retry_policy: RetryPolicy | None = None,
    foreground=None,
    governor=None,
    sampler=None,
    journal=None,
) -> FullNodeResult:
    """PivotRepair's adaptive full-node repair (recommendation values).

    ``foreground`` / ``governor`` / ``sampler`` / ``journal`` behave as
    in :func:`repair_full_node`.
    """
    scheduler = scheduler or SchedulerConfig()
    return _repair_single_job(
        f"{planner.name}+strategy",
        lambda master, cap: _start_recommended(master, scheduler, cap),
        planner, network, stripes, failed_node, config, start_time, tracer,
        faults, retry_policy, foreground, governor, sampler, journal,
    )


def _start_recommended(
    master: StripeRepairMaster,
    scheduler: SchedulerConfig,
    max_rate: float | None,
) -> None:
    """:func:`eq3_round` over every pending stripe of one master."""
    eq3_round(lambda: [(master, len(master.pending))], scheduler, max_rate)


def eq3_round(
    offers: Callable[[], list[tuple[StripeRepairMaster, int]]],
    scheduler: SchedulerConfig,
    max_rate: float | None = None,
    on_start: Callable[..., None] | None = None,
) -> None:
    """Start the best offered stripe while Eq. 3 says so (Section IV-E).

    Each pass asks ``offers`` for ``(master, count)`` pairs: the master
    offers its first ``count`` pending stripes, and the running tasks of
    every master listed are the Eq. 3 penalty's.  The offer with the
    largest recommendation value starts, the first offer on a tie.  The
    pass plans offers in descending :func:`recommendation_ceiling` order
    and stops once no ceiling left can beat the best value (an equal
    one only from an earlier place), which finds the same offer as
    planning them all.  A faulted master's unrepairable offer is
    aborted after the ranking (master by master, last place first), and
    its next pending stripe beyond ``count`` takes the offer's place.
    Below ``scheduler.threshold`` the round waits for a completion; with
    nothing running it re-checks every :data:`IDLE_CHECK_INTERVAL` and
    starts the best anyway after :data:`MAX_IDLE_WAIT`.  A start is
    charged its planning time, goes ahead if the stripe is still
    pending, and is shown to ``on_start(master, flight, value)``.
    Nothing offered ends the round.
    """
    idle_since: float | None = None
    while True:
        pool = offers()
        running = [
            task for master, _ in pool for task in master.running_tasks()
        ]
        if (
            scheduler.max_concurrency is not None
            and len(running) >= scheduler.max_concurrency
        ):
            return
        # Entries (-ceiling, place, master, inputs): one per place.
        ranked: list = []
        unrepairable = []  # (place, master, stripe, reason)
        spares = {}
        offered = 0

        def enqueue(place, master, stripe):
            nonlocal offered
            while stripe is not None:
                offered += 1
                try:
                    inputs = master.plan_inputs(stripe)
                except (ClusterError, PlanningError) as exc:
                    if not master.faulted:
                        raise
                    unrepairable.append((place, master, stripe, str(exc)))
                    stripe = next(spares[master], None)
                    continue
                ceiling = recommendation_ceiling(
                    inputs.snapshot, inputs.requestor, inputs.candidates,
                    inputs.k,
                )
                heapq.heappush(ranked, (-ceiling, place, master, inputs))
                return

        for master, count in pool:
            spares[master] = iter(master.pending[count:])
            for stripe in master.pending[:count]:
                # Places rise in offer order; a spare keeps its offer's.
                enqueue(offered, master, stripe)
        best_value = float("-inf")
        best_place = best_master = best_plan = best_stripe = None
        planned = 0
        # Unscoped: the round, not one stripe, is the planner events'
        # cause.
        while ranked:
            ceiling, place = -ranked[0][0], ranked[0][1]
            if ceiling < best_value or (
                ceiling == best_value and place > best_place
            ):
                break
            _, _, master, inputs = heapq.heappop(ranked)
            planned += 1
            try:
                plan = master.plan_from(inputs)
            except (ClusterError, PlanningError) as exc:
                if not master.faulted:
                    raise
                unrepairable.append((place, master, inputs.stripe, str(exc)))
                enqueue(place, master, next(spares[master], None))
                continue
            value = recommendation_value(
                plan.tree, plan.bmin, running, master.sim.now, scheduler,
                tracer=master.tracer,
            )
            if value > best_value or (
                value == best_value and place < best_place
            ):
                best_value, best_place, best_master = value, place, master
                best_plan, best_stripe = plan, inputs.stripe
        order = {master: index for index, (master, _) in enumerate(pool)}
        for _, master, stripe, reason in sorted(
            unrepairable, key=lambda entry: (order[entry[1]], -entry[0])
        ):
            master.pending.remove(stripe)
            master.abort_stripe(stripe, reason)
        if best_plan is None:
            return
        master, sim, tracer = best_master, best_master.sim, best_master.tracer
        master.registry.counter("scheduler_rounds").inc()
        master.registry.histogram("recommendation_value").observe(best_value)
        if tracer.enabled:
            tracer.instant(
                "scheduler.round", t=sim.now, track="scheduler",
                parent_id=master.spans.get(best_stripe.stripe_id),
                candidates=offered - len(unrepairable), planned=planned,
                running=len(running),
                best_value=best_value, best_stripe=best_stripe.stripe_id,
                started=best_value >= scheduler.threshold,
            )
        if best_value < scheduler.threshold:
            if running:
                return
            if idle_since is None:
                idle_since = sim.now
            if sim.now - idle_since < MAX_IDLE_WAIT:
                master.advance(sim.now + IDLE_CHECK_INTERVAL)
                continue
        idle_since = None
        planning_span = master.charge_planning(best_stripe, best_plan)
        # The planning window may have killed or finished things.
        if best_stripe not in master.pending:
            continue
        if tracer.enabled:
            tracer.instant(
                "scheduler.start", t=sim.now, track="scheduler",
                parent_id=master.spans.get(best_stripe.stripe_id),
                stripe=best_stripe.stripe_id,
                requestor=best_plan.requestor, value=best_value,
            )
        flight = master.submit(
            best_stripe, best_plan, max_rate=max_rate,
            planning_span=planning_span,
        )
        if on_start is not None:
            on_start(master, flight, best_value)
