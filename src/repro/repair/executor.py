"""Execute repair plans on the fluid network simulator.

Two execution modes:

* the fault-free path (:func:`execute_plan`, :func:`repair_single_chunk`)
  runs a plan to clean completion;
* the fault-aware path (:func:`repair_single_chunk_faulted`) threads a
  :class:`~repro.faults.plan.FaultPlan` through the run — helpers can
  crash, stall, or lose their chunk mid-transfer, and the executor
  detects the failure (after the policy's timeout), cancels the flow,
  re-plans over the survivors, and retries with backoff until the repair
  completes or cleanly aborts with a
  :class:`~repro.repair.metrics.RepairFailed` result.
"""

from __future__ import annotations

import logging
from collections.abc import Sequence
from dataclasses import dataclass

from repro.core.bandwidth_view import BandwidthSnapshot
from repro.core.plan import RepairPlan, RepairPlanner
from repro.exceptions import PlanningError, SimulationError
from repro.faults.injector import FaultInjector
from repro.faults.network import FaultyNetwork
from repro.faults.plan import FaultPlan
from repro.faults.policy import RetryPolicy
from repro.network.simulator import FluidSimulator, TaskHandle
from repro.network.topology import StarNetwork
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER
from repro.repair.metrics import RepairFailed, RepairResult
from repro.repair.pipeline import (
    ExecutionConfig,
    pipeline_bytes_per_edge,
    pipeline_overhead_seconds,
    remaining_bytes_per_edge,
    verified_watermark,
)
from repro.repair.telemetry import registry_from_run
from repro.resilience.health import HealthMonitor, HealthPolicy

logger = logging.getLogger(__name__)


def execute_plan(
    plan: RepairPlan,
    network: StarNetwork,
    start_time: float = 0.0,
    config: ExecutionConfig | None = None,
    tracer=NULL_TRACER,
    sampler=None,
) -> RepairResult:
    """Run a repair plan on a fresh simulator and time the transfer.

    Pipelined plans become one coupled task (every tree edge at a common
    rate); staged plans run their rounds back-to-back, each round a set of
    independent whole-chunk flows.  With a live ``tracer`` the simulator
    emits flow events and the result carries a ``telemetry`` snapshot.
    ``sampler`` (a :class:`~repro.obs.FlightRecorder`) records aligned
    utilization time series for post-run diagnosis.
    """
    config = config or ExecutionConfig()
    sim = FluidSimulator(
        network, start_time=start_time, tracer=tracer, sampler=sampler,
        engine=config.engine,
    )
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
        # Only simulated-time-derived fields here: wall-clock planning
        # seconds would break byte-determinism of the default stream.
        tracer.end(
            "repair.task", t=start_time + transfer, span_id=task_span,
            track=task_track, transfer_seconds=transfer,
        )
    logger.info(
        "%s repair: transfer %.3fs, %.0f bytes over %d links",
        plan.scheme, transfer, sim.total_bytes_transferred,
        len(sim.bytes_up),
    )
    return RepairResult(
        scheme=plan.scheme,
        planning_seconds=plan.effective_planning_seconds,
        transfer_seconds=transfer,
        bmin=plan.bmin,
        plan=plan,
        bytes_transferred=sim.total_bytes_transferred,
        telemetry=_telemetry(plan, sim, transfer, tracer),
    )


def _telemetry(
    plan: RepairPlan, sim: FluidSimulator, transfer: float, tracer
) -> dict:
    """Registry snapshot of one single-chunk run."""
    registry = registry_from_run(sim, tracer)
    if plan.is_pipelined and plan.bmin > 0 and transfer > 0:
        # Achieved pipeline rate over the planner's promised bottleneck:
        # ~1.0 when the plan held, < 1 when congestion moved against it.
        bytes_per_edge = sim.total_bytes_transferred / max(
            len(plan.tree.edges()), 1
        )
        registry.gauge("bottleneck_utilization").set(
            bytes_per_edge / transfer / plan.bmin
        )
    registry.gauge("planner_seconds").set(plan.effective_planning_seconds)
    registry.histogram("task_seconds").observe(transfer)
    return registry.snapshot()


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
    _trace_fill(
        sim, config, finish=handle.finish_time,
        task_span=task_span, task_track=task_track,
        flow_span=flow_span,
    )
    return handle.duration + pipeline_overhead_seconds(config)


def _trace_fill(
    sim: FluidSimulator,
    config: ExecutionConfig,
    finish: float,
    task_span: int | None,
    task_track: str,
    flow_span: int | None,
) -> None:
    """Span for the analytic pipeline fill/overhead tail of a repair.

    The fluid flow models the steady stream; the first-slice fill and
    per-slice handling are charged after it as
    :func:`pipeline_overhead_seconds`.  Making that tail an explicit
    span (following from the flow) lets the critical path attribute it
    as *pipeline dependency* time rather than an anonymous gap.
    """
    overhead = pipeline_overhead_seconds(config)
    if task_span is None or not sim.tracer.enabled or overhead <= 0:
        return
    links = (flow_span,) if flow_span is not None else ()
    span = sim.tracer.begin(
        "repair.fill", t=finish, track=task_track, parent_id=task_span,
        links=links, overhead=overhead,
    )
    sim.tracer.end(
        "repair.fill", t=finish + overhead, span_id=span, track=task_track
    )


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
    sampler=None,
) -> RepairResult:
    """Plan (from a snapshot at ``start_time``) and execute one repair."""
    snapshot = BandwidthSnapshot.from_network(network, start_time)
    with planner.traced(tracer):
        plan = planner.plan(snapshot, requestor, candidates, k)
    return execute_plan(
        plan, network, start_time=start_time, config=config, tracer=tracer,
        sampler=sampler,
    )


# ----------------------------------------------------------------------
# Fault-aware execution
# ----------------------------------------------------------------------
@dataclass
class _Failure:
    """Why a running attempt stopped making progress."""

    kind: str  # "crash" | "readerr" | "stall" | "stuck"
    nodes: list[int]
    time: float


@dataclass
class _Hedge:
    """A speculative alternate flow racing a straggling primary."""

    handle: TaskHandle
    plan: RepairPlan
    #: First slice the hedge fetches (the primary's verified watermark at
    #: launch time); the primary covers slices below it.
    start_slice: int
    tree_nodes: frozenset[int]
    #: Trace span of the hedge flow (None when untraced).
    span: int | None = None


def _drive_attempt_hedged(
    sim: FluidSimulator,
    handle: TaskHandle,
    plan: RepairPlan,
    tree_nodes: set[int],
    faults: FaultPlan,
    policy: RetryPolicy,
    monitor: HealthMonitor | None,
    planner: RepairPlanner,
    net,
    requestor: int,
    usable: Sequence[int],
    k: int,
    config: ExecutionConfig,
    watermark: int,
    attempt: int,
    tracer,
    registry: MetricsRegistry,
    journal,
    task_span: int | None = None,
) -> tuple[_Failure | None, _Hedge | None, int]:
    """Advance the simulation until ``handle`` finishes or fails.

    Failure means: a tree node died or lost its chunk, or the task's
    rate sat at zero for ``detection_timeout`` (stalled helper, collapsed
    link).  The loop bounds every advance by the next fault event so a
    crash can never strand the fluid model in a zero-rate stuck state.

    With a ``monitor`` (gray-failure hedging on) the primary flow's
    relative progress is also checked on the simulated-time grid.  On a
    straggler verdict a *hedge* — an alternate tree over the non-culprit
    survivors, fetching only the remaining slice range — is submitted
    under the ``hedge`` traffic class and raced against the primary;
    whichever finishes first wins, the loser is cancelled (its bytes stay
    accounted in the ``hedge`` bucket).  ``monitor=None`` never hedges.
    Returns ``(failure, adopted_hedge, hedges_launched)``; ``failure`` is
    ``None`` on completion.
    """
    stalled_since: float | None = None
    hedge: _Hedge | None = None
    launched = 0

    def drop_hedge(reason: str) -> None:
        nonlocal hedge
        if hedge is None or hedge.handle.done:
            hedge = None
            return
        remaining = sim.cancel_task(hedge.handle)
        registry.counter("hedges_cancelled").inc()
        registry.counter("hedge_events", kind="cancel").inc()
        if tracer.enabled:
            tracer.instant(
                "hedge.cancel", t=sim.now, track="executor",
                parent_id=task_span,
                task=handle.task_id, hedge_task=hedge.handle.task_id,
                reason=reason, bytes_remaining=remaining,
            )
        if journal is not None:
            journal.append(
                "hedge_cancel", t=sim.now, task=handle.task_id,
                hedge_task=hedge.handle.task_id, reason=reason,
            )
        hedge = None

    def launch_hedge(verdict) -> _Hedge | None:
        culprits = set(verdict.nodes)
        alternates = [n for n in usable if n not in culprits]
        if requestor in culprits or len(alternates) < k:
            return None
        snapshot = BandwidthSnapshot.from_network(net, sim.now)
        try:
            hedge_plan = planner.plan(snapshot, requestor, alternates, k)
        except PlanningError:
            return None
        start_slice = verified_watermark(
            config, plan.tree.depth(), watermark, sim.task_progress(handle)
        )
        hedge_tree = hedge_plan.tree
        primary_span = sim.task_span(handle)
        hedge_handle = sim.submit_pipelined(
            hedge_tree.edges(),
            remaining_bytes_per_edge(config, hedge_tree.depth(), start_slice),
            label=f"{hedge_plan.scheme}-h{attempt}",
            kind="hedge",
            parent_id=task_span,
            # The hedge races the primary it follows from.
            links=(primary_span,) if primary_span is not None else (),
            meta={
                "bmin": hedge_plan.bmin, "start_slice": start_slice,
                "hedge_of": handle.task_id,
            } if task_span is not None else None,
        )
        registry.counter("hedges_launched").inc()
        registry.counter("hedge_events", kind="launch").inc()
        if tracer.enabled:
            tracer.instant(
                "hedge.launch", t=sim.now, track="executor",
                parent_id=task_span,
                task=handle.task_id, hedge_task=hedge_handle.task_id,
                start_slice=start_slice, helpers=sorted(hedge_plan.helpers),
                excluded=sorted(culprits),
            )
        if journal is not None:
            journal.append(
                "hedge_launch", t=sim.now, task=handle.task_id,
                hedge_task=hedge_handle.task_id, start_slice=start_slice,
            )
        return _Hedge(
            handle=hedge_handle,
            plan=hedge_plan,
            start_slice=start_slice,
            tree_nodes=frozenset({hedge_tree.root, *hedge_tree.helpers}),
            span=sim.task_span(hedge_handle),
        )

    while True:
        if handle.done:
            drop_hedge("primary_won")
            return None, None, launched
        if hedge is not None and hedge.handle.done:
            adopted = hedge
            sim.cancel_task(handle)
            registry.counter("flows_cancelled").inc()
            registry.counter("hedges_adopted").inc()
            registry.counter("hedge_events", kind="adopt").inc()
            if tracer.enabled:
                tracer.instant(
                    "hedge.adopt", t=sim.now, track="executor",
                    parent_id=task_span,
                    task=handle.task_id, hedge_task=adopted.handle.task_id,
                    start_slice=adopted.start_slice,
                )
                if adopted.span is not None and task_span is not None:
                    # Late causal edge: the repair's completion now
                    # follows from the adopted hedge, not the primary.
                    tracer.link(
                        adopted.span, task_span, t=sim.now,
                        track="executor", reason="hedge_adopt",
                    )
            if journal is not None:
                journal.append(
                    "hedge_adopt", t=sim.now, task=handle.task_id,
                    hedge_task=adopted.handle.task_id,
                    start_slice=adopted.start_slice,
                )
            return None, adopted, launched
        now = sim.now
        dead = sorted(n for n in tree_nodes if faults.is_dead(n, now))
        bad = sorted(
            n for n in tree_nodes
            if faults.chunk_unreadable(n, now) and n not in dead
        )
        if hedge is not None and not (dead or bad):
            # A fault touching only the hedge tree drops the hedge and
            # lets the primary keep racing alone.
            hedge_hit = any(
                faults.is_dead(n, now) or faults.chunk_unreadable(n, now)
                for n in hedge.tree_nodes
            )
            if hedge_hit:
                drop_hedge("fault")
        if dead or bad:
            drop_hedge("primary_fault")
            kind = "crash" if dead else "readerr"
            return _Failure(kind=kind, nodes=dead + bad, time=now), None, \
                launched
        watched = (
            tree_nodes | hedge.tree_nodes if hedge is not None else tree_nodes
        )
        bound = min(
            faults.next_failure_affecting(watched, now),
            faults.next_change_after(now),
        )
        rate = sim.current_rate(handle)
        if hedge is not None:
            rate += sim.current_rate(hedge.handle)
        if rate <= 1e-12:
            if stalled_since is None:
                stalled_since = now
            deadline = stalled_since + policy.detection_timeout
            if now >= deadline:
                culprits = sorted(
                    n for n in tree_nodes
                    if faults.capacity_factor(n, "up", now) == 0.0
                    or faults.capacity_factor(n, "down", now) == 0.0
                )
                drop_hedge("stall")
                return _Failure(kind="stall", nodes=culprits, time=now), \
                    None, launched
            bound = min(bound, deadline)
        else:
            stalled_since = None
        if monitor is not None and hedge is None:
            bound = min(bound, monitor.next_check)
        try:
            sim.run_until_completion(max_time=bound)
        except SimulationError:
            drop_hedge("stuck")
            return _Failure(kind="stuck", nodes=[], time=sim.now), None, \
                launched
        if monitor is not None and hedge is None:
            verdict = monitor.observe(net)
            if verdict is not None:
                registry.counter("stragglers").inc()
                if tracer.enabled:
                    tracer.instant(
                        "health.straggler", t=sim.now, track="health",
                        parent_id=task_span,
                        task=handle.task_id, nodes=sorted(verdict.nodes),
                        since=verdict.since, observed=verdict.observed,
                        promised=verdict.promised,
                    )
                if journal is not None:
                    journal.append(
                        "straggler", t=sim.now, task=handle.task_id,
                        nodes=sorted(verdict.nodes), since=verdict.since,
                    )
                hedge = launch_hedge(verdict)
                if hedge is not None:
                    launched += 1


def repair_single_chunk_faulted(
    planner: RepairPlanner,
    network,
    requestor: int,
    candidates: Sequence[int],
    k: int,
    faults: FaultPlan,
    policy: RetryPolicy | None = None,
    start_time: float = 0.0,
    config: ExecutionConfig | None = None,
    tracer=NULL_TRACER,
    sampler=None,
    journal=None,
    health: HealthPolicy | None = None,
) -> RepairResult | RepairFailed:
    """Single-chunk repair under an injected fault plan.

    The repair plans over the helpers alive *now*, executes on the
    fault-mutated network, and reacts to failures mid-transfer: detection
    after ``policy.detection_timeout``, flow cancellation, exponential
    backoff, and a re-plan over the surviving helpers (a traced
    ``repair.replan``).  Completes with a normal :class:`RepairResult`
    (``attempts`` > 1 when it had to re-plan) or aborts with
    :class:`RepairFailed` — it never hangs and never returns short data.

    ``bytes_transferred`` is taken from the simulator's fluid accounting,
    so bytes a cancelled attempt already moved are counted exactly once —
    a restarted flow does not double-count its chunk.

    Resilience (both default off, leaving the legacy path byte-identical):

    * ``journal`` — a :class:`~repro.resilience.RepairJournal`.  Slice
      progress is checkpointed per attempt and a re-plan **resumes from
      the last verified slice**: the new tree only fetches the remaining
      slice range, and ``result.segments`` records which plan carried
      which range so the cluster layer can decode-verify the stitched
      chunk (:meth:`~repro.cluster.Cluster.rebuild_slice_range`).
      Passing ``health`` alone also enables resume (with an in-memory
      journal's semantics but no durability).
    * ``health`` — a :class:`~repro.resilience.HealthPolicy`.  Enables the
      gray-failure detector and hedged re-planning (see
      :func:`_drive_attempt_hedged`); ``result.hedges`` counts adopted or
      cancelled hedges.
    """
    policy = policy or RetryPolicy()
    config = config or ExecutionConfig()
    net = FaultyNetwork.wrap(network, faults)
    sim = FluidSimulator(
        net, start_time=start_time, tracer=tracer, sampler=sampler,
        engine=config.engine,
    )
    task_span: int | None = None
    task_track = f"repair:{requestor}"
    if tracer.enabled:
        task_span = tracer.begin(
            "repair.task", t=start_time, track=task_track,
            scheme=planner.name, requestor=requestor,
        )
    registry = MetricsRegistry()
    injector = FaultInjector(faults, tracer=tracer, registry=registry)
    candidates = list(candidates)
    attempts = 0
    planning_total = 0.0
    plan: RepairPlan | None = None
    resilient = journal is not None or health is not None
    watermark = 0
    last_flow_span: int | None = None
    segments: list[tuple[RepairPlan, int]] = []
    hedges = 0
    if journal is not None:
        journal.append(
            "task_start", t=start_time, requestor=requestor,
            candidates=sorted(candidates), k=k, scheme=planner.name,
        )

    def failed(reason: str) -> RepairFailed:
        registry.counter("repairs_failed").inc()
        if tracer.enabled:
            tracer.instant(
                "repair.failed", t=sim.now, track="executor",
                parent_id=task_span,
                scheme=planner.name, reason=reason, attempts=attempts,
            )
            tracer.end(
                "repair.task", t=sim.now, span_id=task_span,
                track=task_track, failed=True, attempts=attempts,
            )
        logger.warning("repair failed after %d attempts: %s", attempts, reason)
        return RepairFailed(
            scheme=planner.name,
            reason=reason,
            elapsed_seconds=sim.now - start_time,
            attempts=attempts,
            bytes_transferred=sim.total_bytes_transferred,
            telemetry=registry_from_run(sim, tracer, registry).snapshot(),
        )

    with planner.traced(tracer):
        while True:
            now = sim.now
            injector.announce_until(now)
            if faults.is_dead(requestor, now):
                return failed(f"requestor {requestor} crashed")
            alive = [
                node for node in candidates
                if not faults.is_dead(node, now)
                and not faults.chunk_unreadable(node, now)
            ]
            if len(alive) < k:
                return failed(
                    f"only {len(alive)} of {len(candidates)} helpers "
                    f"survive, need k={k}"
                )
            # Prefer helpers that are not frozen right now, when enough
            # healthy ones remain — a plan through a stalled node would
            # only stall again.
            stalled = faults.stalled_nodes(now)
            usable = [node for node in alive if node not in stalled]
            if len(usable) < k:
                usable = alive
            snapshot = BandwidthSnapshot.from_network(net, now)
            try:
                # Scoped so the planner.plan instant inherits the repair
                # span as its causal parent.
                with tracer.scope(task_span):
                    plan = planner.plan(snapshot, requestor, usable, k)
            except PlanningError as error:
                return failed(f"planning failed: {error}")
            planning_total += plan.planning_seconds
            if attempts > 0:
                registry.counter("replans").inc()
                if tracer.enabled:
                    tracer.instant(
                        "repair.replan", t=now, track="executor",
                        parent_id=task_span,
                        attempt=attempts + 1, scheme=plan.scheme,
                        helpers=sorted(plan.helpers), bmin=plan.bmin,
                    )
            attempts += 1
            if not plan.is_pipelined:
                raise PlanningError(
                    "fault-aware execution supports pipelined plans only"
                )
            tree = plan.tree
            handle = sim.submit_pipelined(
                tree.edges(),
                remaining_bytes_per_edge(config, tree.depth(), watermark),
                label=f"{plan.scheme}-a{attempts}",
                parent_id=task_span,
                # A retried / journal-resumed attempt follows from the
                # flow it replaces.
                links=(last_flow_span,) if last_flow_span is not None
                else (),
                meta={
                    "bmin": plan.bmin, "attempt": attempts,
                    "start_slice": watermark,
                } if task_span is not None else None,
            )
            last_flow_span = sim.task_span(handle)
            tree_nodes = {tree.root, *tree.helpers}
            if journal is not None:
                journal.append(
                    "attempt", t=now, attempt=attempts, scheme=plan.scheme,
                    helpers=sorted(plan.helpers), watermark=watermark,
                    bmin=plan.bmin,
                )
            monitor = None
            if health is not None and hedges < health.max_hedges:
                monitor = HealthMonitor(
                    health, sim, handle, plan, snapshot, tree_nodes
                )
            failure, adopted, launched = _drive_attempt_hedged(
                sim, handle, plan, tree_nodes, faults, policy, monitor,
                planner, net, requestor, usable, k, config, watermark,
                attempts, tracer, registry, journal, task_span=task_span,
            )
            hedges += launched
            injector.announce_until(sim.now)
            if failure is None:
                if adopted is not None:
                    if adopted.start_slice > watermark:
                        segments.append((plan, watermark))
                    segments.append((adopted.plan, adopted.start_slice))
                    planning_total += adopted.plan.planning_seconds
                    plan = adopted.plan
                elif resilient:
                    segments.append((plan, watermark))
                transfer = (
                    sim.now - start_time + pipeline_overhead_seconds(config)
                )
                if tracer.enabled:
                    _trace_fill(
                        sim, config, finish=sim.now,
                        task_span=task_span, task_track=task_track,
                        flow_span=adopted.span if adopted is not None
                        else last_flow_span,
                    )
                    tracer.end(
                        "repair.task", t=start_time + transfer,
                        span_id=task_span, track=task_track,
                        transfer_seconds=transfer,
                        attempts=attempts, hedges=hedges,
                    )
                registry.gauge("planner_seconds").set(planning_total)
                registry.histogram("task_seconds").observe(transfer)
                if journal is not None:
                    journal.append(
                        "task_done", t=sim.now, scheme=plan.scheme,
                        attempts=attempts, hedges=hedges,
                    )
                return RepairResult(
                    scheme=plan.scheme,
                    planning_seconds=planning_total,
                    transfer_seconds=transfer,
                    bmin=plan.bmin,
                    plan=plan,
                    bytes_transferred=sim.total_bytes_transferred,
                    telemetry=registry_from_run(
                        sim, tracer, registry
                    ).snapshot(),
                    attempts=attempts,
                    segments=segments,
                    hedges=hedges,
                )
            # Detection latency: the failure is noticed one timeout after
            # it happened (or immediately for a stall, whose detection
            # already waited the timeout inside the drive loop).
            if failure.kind in ("crash", "readerr"):
                sim.advance_to(
                    max(sim.now, failure.time + policy.detection_timeout)
                )
            registry.counter("fault_detections").inc()
            if tracer.enabled:
                tracer.instant(
                    "repair.detect", t=sim.now, track="executor",
                    parent_id=task_span,
                    kind=failure.kind, nodes=failure.nodes,
                    attempt=attempts,
                )
            if resilient:
                # Advance the slice watermark past what this attempt
                # verifiably delivered; the next attempt resumes there.
                # A read error yields garbage bytes for the attempt's whole
                # range, so it contributes nothing (earlier attempts'
                # verified segments stay good).
                if failure.kind != "readerr" and not handle.done:
                    verified = verified_watermark(
                        config, tree.depth(), watermark,
                        sim.task_progress(handle),
                    )
                    if verified > watermark:
                        segments.append((plan, watermark))
                        watermark = verified
                if journal is not None:
                    journal.append(
                        "attempt_failed", t=sim.now, attempt=attempts,
                        failure=failure.kind, watermark=watermark,
                        bytes_transferred=sim.total_bytes_transferred,
                    )
            # A read error leaves link capacity intact, so the doomed flow
            # may have "completed" (delivering garbage) inside the
            # detection window — there is nothing left to cancel then, but
            # the attempt still failed and must be re-planned.
            if not handle.done:
                sim.cancel_task(handle)
                registry.counter("flows_cancelled").inc()
            if attempts > policy.max_retries:
                return failed(
                    f"retry budget exhausted after {attempts} attempts "
                    f"(last failure: {failure.kind})"
                )
            backoff = policy.backoff(attempts - 1)
            registry.counter("retries").inc()
            if tracer.enabled:
                tracer.instant(
                    "repair.retry", t=sim.now, track="executor",
                    parent_id=task_span,
                    attempt=attempts, backoff=backoff,
                )
                if backoff > 0:
                    # Explicit backoff span so the wait shows up as
                    # stall time on the repair's critical path.
                    backoff_span = tracer.begin(
                        "repair.backoff", t=sim.now, track=task_track,
                        parent_id=task_span, attempt=attempts,
                        seconds=backoff,
                    )
                    tracer.end(
                        "repair.backoff", t=sim.now + backoff,
                        span_id=backoff_span, track=task_track,
                    )
            if backoff > 0:
                sim.advance_to(sim.now + backoff)
