"""Fault-aware degraded reads: the master re-plans, the cluster executes.

A degraded read under faults is the one attempt machine with the client
as requestor (:func:`repro.repair.repair_single_chunk_faulted`): it
detects the helper that dies mid-read, backs off, re-plans over the
survivors or gives up with a reason.  The byte-accurate cluster then
rebuilds the chunk through the plan(s) the machine settled on
(:func:`repro.faults.runner.rebuilt_payload`) and stores nothing — the
payload must still be the exact coded bytes.
"""

import numpy as np

from repro.cluster import Cluster
from repro.core import BandwidthSnapshot, PivotRepairPlanner
from repro.ec import RSCode
from repro.faults import FaultPlan, RetryPolicy
from repro.faults.runner import rebuilt_payload
from repro.network.topology import StarNetwork
from repro.repair import (
    ExecutionConfig,
    RepairFailed,
    repair_single_chunk_faulted,
)
from repro.units import gbps

NODE_COUNT = 10
CODE = RSCode(5, 3)
#: 1 MiB in 1 KiB slices over 1/64 Gbps links (64 MiB over 1 Gbps,
#: scaled by 1/64) is a read of ~0.5 s or more: a fault in [0, 0.5]
#: lands mid-transfer.  The cluster stores chunks of the same size, so
#: a resumed read's slice ranges are the bytes the cluster rebuilds.
CONFIG = ExecutionConfig(chunk_size=1024 * 1024, slice_size=1024)
LINK = gbps(1) / 64


def make_cluster(seed=7):
    rng = np.random.default_rng(seed)
    cluster = Cluster(NODE_COUNT, CODE)
    data = [
        rng.integers(0, 256, size=CONFIG.chunk_size, dtype=np.uint8)
        for _ in range(CODE.k)
    ]
    stripe = cluster.write_stripe(data, rng)
    coded = CODE.encode(data)
    return cluster, stripe, coded


def outside_client(stripe):
    return next(n for n in range(NODE_COUNT) if n not in stripe.placement)


def first_plan_helpers(network, stripe, chunk_index, client):
    """Helpers the first degraded-read plan will pick at t=0."""
    holder = stripe.placement[chunk_index]
    candidates = [
        node
        for node in stripe.surviving_nodes(holder)
        if node != client
    ]
    snapshot = BandwidthSnapshot.from_network(network, 0.0)
    plan = PivotRepairPlanner().plan(snapshot, client, candidates, CODE.k)
    return sorted(plan.helpers)


def degraded_read(
    cluster, network, stripe, chunk_index, client, faults,
    policy=None, start_time=0.0,
):
    """The machine's outcome, and the bytes its plan(s) deliver at the
    client (None when it gave up: a failed read delivers no data)."""
    holder = stripe.placement[chunk_index]
    before = {
        node.node_id: node.chunk_ids() for node in cluster.nodes
    }
    result = repair_single_chunk_faulted(
        PivotRepairPlanner(), network, client, stripe, holder, faults,
        policy=policy, start_time=start_time, config=CONFIG,
    )
    payload = None
    if result.ok:
        payload = rebuilt_payload(
            cluster, stripe, chunk_index, result, CONFIG
        )
    # A read adopts nothing: no chunk stored, no placement moved.
    assert before == {
        node.node_id: node.chunk_ids() for node in cluster.nodes
    }
    assert stripe.placement[chunk_index] == holder
    return result, payload


class TestDegradedReadFaulted:
    def test_helper_crash_mid_read_replans_and_verifies(self):
        cluster, stripe, coded = make_cluster()
        network = StarNetwork.uniform(NODE_COUNT, LINK)
        cluster.fail_node(stripe.placement[0])
        client = outside_client(stripe)
        victim = first_plan_helpers(network, stripe, 0, client)[0]
        # The victim helper crashes inside the first attempt's transfer.
        faults = FaultPlan.from_spec(f"crash:{victim}@0.3")
        result, payload = degraded_read(
            cluster, network, stripe, 0, client, faults,
            policy=RetryPolicy(detection_timeout=0.5),
        )
        assert result.attempts == 2
        assert victim not in result.plan.helpers
        # The read resumed past the slices the first tree delivered
        # (no journal needed), and the stitched bytes are still exact.
        (first, _), (last, resumed_at) = result.segments
        assert victim in first.helpers and last is result.plan
        assert resumed_at > 0
        np.testing.assert_array_equal(payload, coded[0])
        assert not payload.flags.writeable  # stitched, read-only all the same

    def test_fault_free_read_takes_one_attempt(self):
        cluster, stripe, coded = make_cluster()
        network = StarNetwork.uniform(NODE_COUNT, LINK)
        cluster.fail_node(stripe.placement[1])
        result, payload = degraded_read(
            cluster, network, stripe, 1, outside_client(stripe),
            FaultPlan.none(),
        )
        assert result.attempts == 1
        np.testing.assert_array_equal(payload, coded[1])

    def test_healthy_holder_served_directly(self):
        cluster, stripe, coded = make_cluster()
        network = StarNetwork.uniform(NODE_COUNT, LINK)

        class NeverPlans(PivotRepairPlanner):
            def plan(self, *args, **kwargs):
                raise AssertionError("a healthy holder needs no plan")

        # No attempt, no helpers, no time: the holder's own bytes.
        payload = cluster.degraded_read(
            NeverPlans(), BandwidthSnapshot.from_network(network, 0.0),
            stripe, 2, outside_client(stripe),
        )
        np.testing.assert_array_equal(payload, coded[2])

    def test_fault_dead_holder_forces_degraded_path(self):
        cluster, stripe, coded = make_cluster()
        network = StarNetwork.uniform(NODE_COUNT, LINK)
        holder = stripe.placement[0]
        # The holder is alive at the cluster level but dead per the fault
        # plan (transient failure): the read reconstructs around it.
        faults = FaultPlan.from_spec(f"crash:{holder}@0")
        result, payload = degraded_read(
            cluster, network, stripe, 0, outside_client(stripe), faults,
            start_time=1.0,
        )
        assert result.attempts == 1
        assert len(result.plan.helpers) == CODE.k
        assert holder not in result.plan.helpers
        np.testing.assert_array_equal(payload, coded[0])

    def test_too_few_survivors_raises(self):
        cluster, stripe, _ = make_cluster()
        network = StarNetwork.uniform(NODE_COUNT, LINK)
        holder = stripe.placement[0]
        cluster.fail_node(holder)
        survivors = stripe.surviving_nodes(holder)
        dead = ";".join(f"crash:{n}@0" for n in survivors[: 2])
        result, payload = degraded_read(
            cluster, network, stripe, 0, outside_client(stripe),
            FaultPlan.from_spec(dead), start_time=1.0,
        )
        assert isinstance(result, RepairFailed)
        assert "helpers" in result.reason and payload is None

    def test_client_crash_raises(self):
        cluster, stripe, _ = make_cluster()
        network = StarNetwork.uniform(NODE_COUNT, LINK)
        cluster.fail_node(stripe.placement[0])
        client = outside_client(stripe)
        result, payload = degraded_read(
            cluster, network, stripe, 0, client,
            FaultPlan.from_spec(f"crash:{client}@0"), start_time=1.0,
        )
        assert isinstance(result, RepairFailed)
        assert "requestor" in result.reason and payload is None

    def test_retry_budget_exhaustion_raises(self):
        cluster, stripe, _ = make_cluster()
        network = StarNetwork.uniform(NODE_COUNT, LINK)
        cluster.fail_node(stripe.placement[0])
        client = outside_client(stripe)
        # With max_retries=0 the first interruption exhausts the budget.
        victim = first_plan_helpers(network, stripe, 0, client)[0]
        faults = FaultPlan.from_spec(f"crash:{victim}@0.3")
        result, payload = degraded_read(
            cluster, network, stripe, 0, client, faults,
            policy=RetryPolicy(max_retries=0),
        )
        assert isinstance(result, RepairFailed)
        assert "retry budget" in result.reason and payload is None
        assert result.attempts == 1
