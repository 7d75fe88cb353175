"""Execute repair plans on the fluid network simulator.

* The fault-free path (:func:`execute_plan`, :func:`repair_single_chunk`)
  runs a plan to clean completion.
* The fault-aware path (:func:`repair_single_chunk_faulted`) is a
  one-stripe driver over the repair master, whose attempt machine
  detects a helper that crashed, stalled or lost its chunk, re-plans
  over the survivors and retries with backoff until the repair
  completes or cleanly aborts with a
  :class:`~repro.repair.metrics.RepairFailed` result.
"""

from __future__ import annotations

import logging
from collections.abc import Sequence
from dataclasses import replace

from repro.core.bandwidth_view import BandwidthSnapshot
from repro.core.plan import RepairPlan, RepairPlanner
from repro.ec.stripe import Stripe
from repro.exceptions import PlanningError
from repro.faults.network import FaultyNetwork
from repro.faults.plan import FaultPlan
from repro.faults.policy import RetryPolicy
from repro.network.simulator import FluidSimulator
from repro.network.topology import StarNetwork
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER
from repro.repair.fullnode import run_rounds
from repro.repair.jobmaster import StripeRepairMaster
from repro.repair.metrics import RepairFailed, RepairResult
from repro.repair.pipeline import (
    ExecutionConfig,
    pipeline_bytes_per_edge,
    pipeline_overhead_seconds,
    trace_fill,
)
from repro.repair.telemetry import run_counters
from repro.resilience.health import HealthPolicy

logger = logging.getLogger(__name__)


def execute_plan(
    plan: RepairPlan,
    network: StarNetwork,
    start_time: float = 0.0,
    config: ExecutionConfig | None = None,
    tracer=NULL_TRACER,
) -> RepairResult:
    """Run a repair plan on a fresh simulator and time the transfer.

    Pipelined plans become one coupled task (every tree edge at a common
    rate); staged plans run their rounds back-to-back, each round a set of
    independent whole-chunk flows.  With a live ``tracer`` the simulator
    emits flow events and the result carries a ``telemetry`` snapshot.
    """
    config = config or ExecutionConfig()
    sim = FluidSimulator(network, start_time=start_time, tracer=tracer)
    task_span = None
    task_track = f"repair:{plan.requestor}"
    if tracer.enabled:
        # The repair's root causal span: every flow, fill and planning
        # event of this repair hangs off it, and its duration is the
        # makespan repro.obs.critpath reconstructs exactly.
        task_span = tracer.begin(
            "repair.task", t=start_time, track=task_track,
            scheme=plan.scheme, requestor=plan.requestor, bmin=plan.bmin,
        )
    if plan.is_pipelined:
        transfer = _run_pipelined(
            plan, sim, config, task_span=task_span, task_track=task_track
        )
    else:
        transfer = _run_staged(
            plan, sim, config, task_span=task_span
        )
    if tracer.enabled:
        # The transfer alone: the planning charge is not in the task span.
        tracer.end(
            "repair.task", t=start_time + transfer, span_id=task_span,
            track=task_track, transfer_seconds=transfer,
        )
    # The simulator's byte readers build what they return; read once.
    carried = sim.total_bytes_transferred
    if logger.isEnabledFor(logging.INFO):
        logger.info(
            "%s repair: transfer %.3fs, %.0f bytes over %d links",
            plan.scheme, transfer, carried, len(sim.bytes_up),
        )
    return RepairResult(
        scheme=plan.scheme,
        planning_seconds=plan.planning_seconds,
        transfer_seconds=transfer,
        bmin=plan.bmin,
        plan=plan,
        bytes_transferred=carried,
        telemetry=_telemetry(plan, sim, transfer, carried, tracer),
    )


def _telemetry(
    plan: RepairPlan, sim: FluidSimulator, transfer: float,
    carried: float, tracer,
) -> dict:
    """Registry snapshot of one single-chunk run."""
    registry = MetricsRegistry()
    if plan.is_pipelined and plan.bmin > 0 and transfer > 0:
        # Achieved pipeline rate over the planner's promised bottleneck:
        # ~1.0 when the plan held, < 1 when congestion moved against it.
        bytes_per_edge = carried / max(len(plan.tree.edges()), 1)
        registry.gauge("bottleneck_utilization").set(
            bytes_per_edge / transfer / plan.bmin
        )
    registry.gauge("planner_seconds").set(plan.planning_seconds)
    registry.histogram("task_seconds").observe(transfer)
    return registry.snapshot(run_counters(sim, tracer))


def _run_pipelined(
    plan: RepairPlan,
    sim: FluidSimulator,
    config: ExecutionConfig,
    task_span: int | None = None,
    task_track: str = "sim",
) -> float:
    tree = plan.tree
    assert tree is not None
    handle = sim.submit_pipelined(
        tree.edges(),
        pipeline_bytes_per_edge(config, tree.depth()),
        label=plan.scheme,
        parent_id=task_span,
        meta={"bmin": plan.bmin} if task_span is not None else None,
    )
    flow_span = sim.task_span(handle)
    sim.run()
    trace_fill(
        sim, config, finish=handle.finish_time,
        task_span=task_span, task_track=task_track,
        flow_span=flow_span,
    )
    return handle.duration + pipeline_overhead_seconds(config)


def _run_staged(
    plan: RepairPlan,
    sim: FluidSimulator,
    config: ExecutionConfig,
    task_span: int | None = None,
) -> float:
    assert plan.stages is not None
    start = sim.now
    previous: tuple[int, ...] = ()
    for stage in plan.stages:
        handle = sim.submit_bulk(
            [(src, dst, float(config.chunk_size)) for src, dst in stage],
            label=plan.scheme,
            parent_id=task_span,
            links=previous,
            meta={"bmin": plan.bmin} if task_span is not None else None,
        )
        span = sim.task_span(handle)
        previous = (span,) if span is not None else ()
        sim.run()
        if not handle.done:
            raise PlanningError(f"stage of {plan.scheme} never completed")
    return sim.now - start


def repair_single_chunk(
    planner: RepairPlanner,
    network: StarNetwork,
    requestor: int,
    candidates: Sequence[int],
    k: int,
    start_time: float = 0.0,
    config: ExecutionConfig | None = None,
    tracer=NULL_TRACER,
) -> RepairResult:
    """Plan (from a snapshot at ``start_time``) and execute one repair."""
    snapshot = BandwidthSnapshot.from_network(network, start_time)
    with planner.traced(tracer):
        plan = planner.plan(snapshot, requestor, candidates, k)
    return execute_plan(
        plan, network, start_time=start_time, config=config, tracer=tracer
    )


# ----------------------------------------------------------------------
# Fault-aware execution: a one-stripe driver over the repair master
# ----------------------------------------------------------------------
def repair_single_chunk_faulted(
    planner: RepairPlanner,
    network,
    requestor: int,
    stripe: Stripe,
    failed_node: int,
    faults: FaultPlan,
    policy: RetryPolicy | None = None,
    start_time: float = 0.0,
    config: ExecutionConfig | None = None,
    tracer=NULL_TRACER,
    journal=None,
    health: HealthPolicy | None = None,
) -> RepairResult | RepairFailed:
    """Rebuild ``stripe``'s chunk on ``failed_node`` at ``requestor``
    under an injected fault plan.

    A one-stripe job on a fresh simulator: the rounds of a full-node
    repair (:func:`~repro.repair.fullnode.run_rounds`, without the
    planning clock charge) over the attempt machine every repair shares
    (:class:`~repro.repair.jobmaster.StripeRepairMaster`).  The caller
    names the requestor (a degraded read's client), so the repair fails
    if that node dies.  Returns a :class:`RepairResult` (``attempts`` > 1
    when it re-planned) or a :class:`RepairFailed`; never hangs, never
    returns short data.  ``bytes_transferred`` is the simulator's
    accounting: what a cancelled attempt moved is counted exactly once.

    A re-plan resumes from the last verified slice, and
    ``result.segments`` says which plan carried which slice range.
    ``health`` enables hedging (``result.hedges``).  ``transfer_seconds``
    runs from ``start_time`` to the last flow's finish, plus the
    per-slice tail, as in :func:`execute_plan`.
    """
    config = config or ExecutionConfig()
    net = FaultyNetwork.wrap(network, faults)
    sim = FluidSimulator(net, start_time=start_time, tracer=tracer)
    master = StripeRepairMaster(
        None, planner, net, [stripe], failed_node, sim=sim,
        scheme=planner.name, config=config, tracer=tracer, faults=faults,
        retry_policy=policy, journal=journal, health=health,
    )
    master.pin(stripe, requestor)

    def start(master, cap):
        planned = master.candidate()
        if planned is not None:
            master.submit(*planned)

    with planner.traced(tracer):
        run_rounds(master, start)
    registry = master.registry
    if master.failures:
        (record,) = master.failures
    else:
        (record,) = master.results
        transfer = sim.now - start_time + pipeline_overhead_seconds(config)
        registry.gauge("planner_seconds").set(record.planning_seconds)
        registry.histogram("task_seconds").observe(transfer)
        record = replace(record, transfer_seconds=transfer)
    return replace(
        record, bytes_transferred=sim.total_bytes_transferred,
        telemetry=registry.snapshot(run_counters(sim, tracer)),
    )
