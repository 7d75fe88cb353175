"""Integration tests: multi-chunk stripe repair and degraded reads."""

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.core import BandwidthSnapshot, PivotRepairPlanner
from repro.ec import RSCode
from repro.exceptions import ClusterError

NODE_COUNT = 14
CHUNK = 128


def uniform_snapshot(count=NODE_COUNT, value=1000.0):
    return BandwidthSnapshot(
        up={i: value for i in range(count)},
        down={i: value for i in range(count)},
    )


@pytest.fixture
def cluster():
    c = Cluster(NODE_COUNT, RSCode(9, 6))
    c.write_random_stripes(3, CHUNK, np.random.default_rng(11))
    return c


def originals_of(cluster, stripe, indices):
    return {
        i: cluster.nodes[stripe.placement[i]]
        .read(stripe.chunk_id(i))
        .copy()
        for i in indices
    }


def spare_nodes(cluster, stripe, count):
    holders = set(stripe.placement)
    return [n for n in range(cluster.node_count) if n not in holders][:count]


class TestRepairStripe:
    def test_single_loss_uses_pipelined_path(self, cluster):
        stripe = cluster.stripes[0]
        lost = [2]
        originals = originals_of(cluster, stripe, lost)
        cluster.fail_node(stripe.placement[2])
        spare = spare_nodes(cluster, stripe, 1)[0]
        rebuilt = cluster.repair_stripe(
            PivotRepairPlanner(), uniform_snapshot(), stripe, lost,
            {2: spare},
        )
        np.testing.assert_array_equal(rebuilt[2], originals[2])
        assert cluster.nodes[spare].has(stripe.chunk_id(2))

    def test_double_loss_falls_back_to_conventional(self, cluster):
        stripe = cluster.stripes[0]
        lost = [1, 7]
        originals = originals_of(cluster, stripe, lost)
        cluster.fail_node(stripe.placement[1])
        cluster.fail_node(stripe.placement[7])
        spares = spare_nodes(cluster, stripe, 2)
        rebuilt = cluster.repair_stripe(
            PivotRepairPlanner(), uniform_snapshot(), stripe, lost,
            {1: spares[0], 7: spares[1]},
        )
        for index in lost:
            np.testing.assert_array_equal(rebuilt[index], originals[index])
        assert cluster.nodes[spares[0]].has(stripe.chunk_id(1))
        assert cluster.nodes[spares[1]].has(stripe.chunk_id(7))

    def test_double_loss_plans_one_tree_per_lost_chunk(self, cluster):
        class Counting(PivotRepairPlanner):
            def plan(self, snapshot, requestor, candidates, k):
                plan = super().plan(snapshot, requestor, candidates, k)
                plans.append(plan)
                return plan

        plans = []
        stripe = cluster.stripes[0]
        lost = [1, 7]
        lost_nodes = {stripe.placement[i] for i in lost}
        for node in lost_nodes:
            cluster.fail_node(node)
        spares = spare_nodes(cluster, stripe, 2)
        cluster.repair_stripe(
            Counting(), uniform_snapshot(), stripe, lost,
            {1: spares[0], 7: spares[1]},
        )
        assert [plan.requestor for plan in plans] == spares
        for plan in plans:
            assert len(plan.helpers) == cluster.code.k
            assert not set(plan.helpers) & (lost_nodes | set(spares))

    def test_triple_loss_including_parity(self, cluster):
        stripe = cluster.stripes[1]
        lost = [0, 6, 8]  # one data, two parity chunks
        originals = originals_of(cluster, stripe, lost)
        for index in lost:
            cluster.fail_node(stripe.placement[index])
        spares = spare_nodes(cluster, stripe, 3)
        rebuilt = cluster.repair_stripe(
            PivotRepairPlanner(), uniform_snapshot(), stripe, lost,
            dict(zip(lost, spares)),
        )
        for index in lost:
            np.testing.assert_array_equal(rebuilt[index], originals[index])

    def test_too_many_losses_rejected(self, cluster):
        stripe = cluster.stripes[0]
        lost = [0, 1, 2, 3]  # n - k = 3 < 4 losses: unrecoverable
        for index in lost:
            cluster.fail_node(stripe.placement[index])
        spares = spare_nodes(cluster, stripe, 4)
        with pytest.raises(ClusterError):
            cluster.repair_stripe(
                PivotRepairPlanner(), uniform_snapshot(), stripe, lost,
                dict(zip(lost, spares)),
            )

    def test_empty_loss_list_rejected(self, cluster):
        with pytest.raises(ClusterError):
            cluster.repair_stripe(
                PivotRepairPlanner(), uniform_snapshot(),
                cluster.stripes[0], [], {},
            )

    def test_missing_replacement_rejected(self, cluster):
        stripe = cluster.stripes[0]
        with pytest.raises(ClusterError):
            cluster.repair_stripe(
                PivotRepairPlanner(), uniform_snapshot(), stripe, [1, 2],
                {1: 0},
            )


class TestDegradedRead:
    def test_healthy_chunk_served_directly(self, cluster):
        stripe = cluster.stripes[0]
        expected = cluster.nodes[stripe.placement[3]].read(
            stripe.chunk_id(3)
        )
        payload = cluster.degraded_read(
            PivotRepairPlanner(), uniform_snapshot(), stripe, 3,
            client=spare_nodes(cluster, stripe, 1)[0],
        )
        np.testing.assert_array_equal(payload, expected)

    def test_failed_chunk_reconstructed_on_the_fly(self, cluster):
        stripe = cluster.stripes[0]
        original = cluster.nodes[stripe.placement[4]].read(
            stripe.chunk_id(4)
        ).copy()
        cluster.fail_node(stripe.placement[4])
        client = spare_nodes(cluster, stripe, 1)[0]
        payload = cluster.degraded_read(
            PivotRepairPlanner(), uniform_snapshot(), stripe, 4, client
        )
        np.testing.assert_array_equal(payload, original)
        # A degraded read does not persist the chunk anywhere.
        assert not cluster.nodes[client].has(stripe.chunk_id(4))

    def test_degraded_read_after_transient_recovery(self, cluster):
        stripe = cluster.stripes[2]
        holder = stripe.placement[0]
        original = cluster.nodes[holder].read(stripe.chunk_id(0)).copy()
        cluster.fail_node(holder)
        client = spare_nodes(cluster, stripe, 1)[0]
        first = cluster.degraded_read(
            PivotRepairPlanner(), uniform_snapshot(), stripe, 0, client
        )
        np.testing.assert_array_equal(first, original)
        # The node comes back empty (transient failure lost its disk here),
        # so reads keep being served degraded.
        cluster.nodes[holder].alive = True
        second = cluster.degraded_read(
            PivotRepairPlanner(), uniform_snapshot(), stripe, 0, client
        )
        np.testing.assert_array_equal(second, original)
