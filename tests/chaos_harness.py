"""Chaos harness: seeded random fault plans, and one faulted single-chunk
repair whose bytes are checked.

Glues the two halves of the stack together the way the chaos tests need
them: the *timing* half — the one attempt machine retrying, re-planning
and resuming on the fluid simulator — and the *correctness* half — the
byte-accurate :class:`~repro.cluster.master.Cluster`, which executes
whatever trees the attempts settled on
(:func:`repro.faults.runner.adopt_result`) and is checked against an
independent erasure-code decode (:func:`expected_payload`).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.cluster.master import Cluster
from repro.core.algorithm import PivotRepairPlanner
from repro.core.bandwidth_view import BandwidthSnapshot
from repro.core.plan import RepairPlanner
from repro.core.seeding import rng_from
from repro.ec.stripe import Stripe
from repro.exceptions import ClusterError, FaultError
from repro.faults.plan import (
    ChunkReadError,
    FaultEvent,
    FaultPlan,
    HelperStall,
    LinkDegradation,
    NodeCrash,
)
from repro.faults.policy import RetryPolicy
from repro.faults.runner import adopt_result
from repro.network.topology import StarNetwork
from repro.obs.tracer import NULL_TRACER
from repro.repair.executor import repair_single_chunk_faulted
from repro.repair.jobmaster import choose_requestor
from repro.repair.metrics import RepairFailed, RepairResult
from repro.repair.pipeline import ExecutionConfig

#: Degradation directions, in the order a random plan draws from.
DIRECTIONS = ("up", "down", "both")


def random_fault_plan(
    seed: int | np.random.Generator,
    node_count: int,
    *,
    horizon: float = 30.0,
    crashes: int = 1,
    degradations: int = 1,
    stalls: int = 1,
    read_errors: int = 0,
    protect: Sequence[int] = (),
) -> FaultPlan:
    """A seeded random plan over ``node_count`` nodes — the chaos source.

    ``protect`` lists nodes never chosen as fault targets (e.g. the
    requestor, when a test wants the repair to remain possible).
    ``seed`` is an integer or an already-spawned child generator (see
    :func:`repro.core.seeding.spawn_rng`).  The draws are in a fixed
    order, so the recorded attempt digests stay valid.
    """
    rng = rng_from(seed)
    targets = [n for n in range(node_count) if n not in set(protect)]
    if not targets:
        raise FaultError("no nodes left to inject faults into")
    events: list[FaultEvent] = []
    for _ in range(crashes):
        events.append(
            NodeCrash(
                node=int(rng.choice(targets)),
                time=float(rng.uniform(0.0, horizon)),
            )
        )
    for _ in range(degradations):
        start = float(rng.uniform(0.0, horizon))
        events.append(
            LinkDegradation(
                node=int(rng.choice(targets)),
                start=start,
                end=start + float(rng.uniform(horizon / 20, horizon / 2)),
                factor=float(rng.uniform(0.05, 0.8)),
                direction=str(rng.choice(DIRECTIONS)),
            )
        )
    for _ in range(stalls):
        events.append(
            HelperStall(
                node=int(rng.choice(targets)),
                start=float(rng.uniform(0.0, horizon)),
                duration=float(rng.uniform(horizon / 20, horizon / 4)),
            )
        )
    for _ in range(read_errors):
        events.append(
            ChunkReadError(
                node=int(rng.choice(targets)),
                time=float(rng.uniform(0.0, horizon)),
            )
        )
    return FaultPlan(events)


class ChaosOutcome:
    """What one chaos run produced: a timing result plus verified bytes.

    ``result`` is the executor's :class:`RepairResult` or
    :class:`RepairFailed`.  On success ``payload`` holds the bytes the
    final repair tree reconstructed and ``correct`` says whether they
    match an independent decode of the stripe; on failure both stay
    ``None`` — a failed repair must deliver *no* data, not short data.
    """

    def __init__(
        self,
        result: RepairResult | RepairFailed,
        payload: np.ndarray | None = None,
        correct: bool | None = None,
    ):
        self.result = result
        self.payload = payload
        self.correct = correct

    @property
    def ok(self) -> bool:
        return self.result.ok

    def __repr__(self) -> str:
        return (
            f"ChaosOutcome(ok={self.ok}, correct={self.correct}, "
            f"attempts={self.result.attempts})"
        )


def expected_payload(
    cluster: Cluster, stripe: Stripe, lost_index: int
) -> np.ndarray:
    """Ground truth via an independent decode from k surviving chunks."""
    holders = [
        node
        for index, node in enumerate(stripe.placement)
        if index != lost_index and cluster.nodes[node].alive
    ]
    if len(holders) < cluster.code.k:
        raise ClusterError(
            f"stripe {stripe.stripe_id}: cannot decode ground truth, "
            f"only {len(holders)} chunks survive"
        )
    available = {
        stripe.chunk_on_node(node): cluster.nodes[node].read(
            stripe.chunk_id(stripe.chunk_on_node(node))
        )
        for node in holders[: cluster.code.k]
    }
    data = cluster.code.decode(available)
    return cluster.code.encode(data)[lost_index]


def run_chaos_single_chunk(
    cluster: Cluster,
    network: StarNetwork,
    stripe: Stripe,
    lost_index: int,
    faults: FaultPlan,
    policy: RetryPolicy | None = None,
    planner: RepairPlanner | None = None,
    config: ExecutionConfig | None = None,
    tracer=NULL_TRACER,
    journal=None,
) -> ChaosOutcome:
    """Repair one lost chunk under a fault plan; verify the bytes.

    The holder of ``lost_index`` is crashed (if it still lives), the
    fault-aware executor runs the repair on the simulator, and — when it
    completes — the plan's tree is executed byte-accurately through the
    cluster and compared against an independent decode.  The contract the
    chaos tests pin down: the outcome is either a completed repair with
    ``correct=True`` or a clean :class:`RepairFailed`; never a hang,
    never silently short data.

    A helper the cluster already knows is dead is refused with a
    :class:`ClusterError`: a helper dies mid-repair through the fault
    plan.  ``journal`` threads through to the executor.  A resumed
    repair delivers its slice ranges through
    *different* trees; :func:`repro.faults.runner.rebuilt_payload` then
    rebuilds each recorded segment through the plan that actually
    carried it and stitches the ranges before comparing — exactly what a
    production requestor would hold on disk.
    """
    planner = planner or PivotRepairPlanner()
    config = config or ExecutionConfig()
    failed_node = stripe.placement[lost_index]
    dead = [
        node for node in stripe.surviving_nodes(failed_node)
        if not cluster.nodes[node].alive
    ]
    if dead:
        raise ClusterError(
            f"stripe {stripe.stripe_id}: helpers {dead} are already dead "
            "in the cluster; crash a helper through the fault plan"
        )
    expected = expected_payload(cluster, stripe, lost_index)
    if cluster.nodes[failed_node].alive:
        cluster.fail_node(failed_node)
    snapshot = BandwidthSnapshot.from_network(network, 0.0)
    requestor = choose_requestor(
        snapshot, stripe, failed_node, cluster.node_count,
        exclude=faults.dead_nodes(0.0),
    )
    result = repair_single_chunk_faulted(
        planner, network, requestor, stripe, failed_node,
        faults, policy=policy, config=config, tracer=tracer,
        journal=journal,
    )
    if not result.ok:
        return ChaosOutcome(result)
    payload = adopt_result(cluster, stripe, lost_index, result, config)
    correct = bool(np.array_equal(payload, expected))
    return ChaosOutcome(result, payload=payload, correct=correct)
