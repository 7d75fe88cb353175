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
  at every decision point the pending stripe with the best recommendation
  value (Eq. 3) under current bandwidths is started while that value
  clears the threshold; only stripes whose value ceiling can still win
  are planned.

The fleet control plane (:mod:`repro.controlplane`) is the third driver
of the same master, over a simulator shared by several repairs.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Callable, Sequence

from repro.core.plan import RepairPlanner
from repro.core.scheduler import (
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
from repro.repair.jobmaster import (  # noqa: F401 - re-exported names
    StripeRepairMaster,
    choose_requestor,
    residual_snapshot,
)
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
    time series for post-run diagnosis (:mod:`repro.obs.analysis`).

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
    """Start best-stripe tasks while their recommendation clears the bar.

    Each round starts the pending stripe with the largest Eq. 3 value
    under the current residual bandwidths, the first in pending order on
    a tie.  Planning every pending stripe would find it; the round plans
    them in descending :func:`recommendation_ceiling` order instead and
    stops once no ceiling left can beat the best value found (an equal
    ceiling can only win on a smaller index), which finds the same one.
    """
    sim, tracer, pending = master.sim, master.tracer, master.pending
    faulted = master.faulted
    idle_since: float | None = None
    while pending:
        if (
            scheduler.max_concurrency is not None
            and len(master.in_flight) >= scheduler.max_concurrency
        ):
            return
        running = master.running_tasks()
        unrepairable: list[tuple[int, Stripe, str]] = []
        ranked = []
        for index, stripe in enumerate(pending):
            try:
                inputs = master.plan_inputs(stripe)
            except (ClusterError, PlanningError) as exc:
                if not faulted:
                    raise
                unrepairable.append((index, stripe, str(exc)))
                continue
            ceiling = recommendation_ceiling(
                inputs.snapshot, inputs.requestor, inputs.candidates,
                inputs.k,
            )
            ranked.append((ceiling, index, inputs))
        ranked.sort(key=lambda entry: (-entry[0], entry[1]))
        best_value = float("-inf")
        best_index = best_plan = best_stripe = None
        planned = 0
        # Unscoped: the round, not one stripe, is the planner events'
        # cause.
        for ceiling, index, inputs in ranked:
            if ceiling < best_value or (
                ceiling == best_value and index > best_index
            ):
                break
            planned += 1
            try:
                plan = master.plan_from(inputs)
            except (ClusterError, PlanningError) as exc:
                if not faulted:
                    raise
                unrepairable.append((index, inputs.stripe, str(exc)))
                continue
            value = recommendation_value(
                plan.tree, plan.bmin, running, sim.now, scheduler,
                tracer=tracer,
            )
            if value > best_value or (
                value == best_value and index < best_index
            ):
                best_value, best_index = value, index
                best_plan, best_stripe = plan, inputs.stripe
        for index, stripe, reason in sorted(unrepairable, reverse=True):
            pending.pop(index)
            master.abort_stripe(stripe, reason)
        if best_plan is None:
            return
        master.registry.counter("scheduler_rounds").inc()
        master.registry.histogram("recommendation_value").observe(best_value)
        if tracer.enabled:
            tracer.instant(
                "scheduler.round", t=sim.now, track="scheduler",
                parent_id=master.spans.get(best_stripe.stripe_id),
                candidates=len(pending), planned=planned,
                running=len(master.in_flight),
                best_value=best_value, best_stripe=best_stripe.stripe_id,
                started=best_value >= scheduler.threshold,
            )
        if best_value < scheduler.threshold:
            # Below the threshold we wait for a completion; when nothing is
            # running we check periodically until bandwidths turn
            # sufficient, bounded so a permanently congested network still
            # makes progress.
            if master.in_flight:
                return
            if idle_since is None:
                idle_since = sim.now
            if sim.now - idle_since < scheduler.max_idle_wait:
                master.advance(sim.now + scheduler.check_interval)
                continue
        idle_since = None
        planning_span = master.charge_planning(best_stripe, best_plan)
        if tracer.enabled:
            tracer.instant(
                "scheduler.start", t=sim.now, track="scheduler",
                parent_id=master.spans.get(best_stripe.stripe_id),
                stripe=best_stripe.stripe_id,
                requestor=best_plan.requestor, value=best_value,
            )
        master.submit(
            best_stripe, best_plan, max_rate=max_rate,
            planning_span=planning_span,
        )
