"""Tests for the SMFRepair-style idle-node forwarding baseline."""

import numpy as np
import pytest

from repro.baselines.rp import RPPlanner
from repro.baselines.smf import SMFPlanner, pairwise_bmin
from repro.core.bandwidth_view import (
    BandwidthSnapshot,
    PairwiseBandwidthSnapshot,
)
from repro.core.tree import RepairTree
from repro.exceptions import PlanningError


def uniform(count, value=100.0):
    return BandwidthSnapshot(
        up={i: value for i in range(count)},
        down={i: value for i in range(count)},
    )


def pairwise(count, caps, value=100.0):
    return PairwiseBandwidthSnapshot(
        up={i: value for i in range(count)},
        down={i: value for i in range(count)},
        link_caps=caps,
    )


class TestPairwiseSnapshot:
    def test_link_caps_apply(self):
        view = pairwise(4, {(1, 0): 5.0})
        assert view.link(1, 0) == 5.0
        assert view.link(0, 1) == 100.0

    def test_caps_never_raise_bandwidth(self):
        view = pairwise(4, {(1, 0): 1e9})
        assert view.link(1, 0) == 100.0

    def test_unknown_pair_rejected(self):
        with pytest.raises(PlanningError):
            pairwise(4, {(9, 0): 5.0})

    def test_self_pair_rejected(self):
        with pytest.raises(PlanningError):
            pairwise(4, {(1, 1): 5.0})

    def test_negative_cap_rejected(self):
        with pytest.raises(PlanningError):
            pairwise(4, {(1, 0): -1.0})


class TestPairwiseBmin:
    def test_reduces_to_tree_bmin_without_caps(self):
        view = uniform(4)
        tree = RepairTree.chain(0, [1, 2, 3])
        assert pairwise_bmin(tree, view) == tree.bmin(view)

    def test_capped_edge_lowers_bottleneck(self):
        view = pairwise(4, {(2, 1): 7.0})
        tree = RepairTree.chain(0, [1, 2, 3])
        assert pairwise_bmin(tree, view) == 7.0


class TestStarDegeneracy:
    """On a star topology forwarding can never beat the direct link."""

    def test_equals_rp_on_uniform_network(self):
        view = uniform(8)
        smf = SMFPlanner().plan(view, 0, [1, 2, 3, 4], 4)
        rp = RPPlanner().plan(view, 0, [1, 2, 3, 4], 4)
        assert smf.tree == rp.tree
        assert smf.notes["forwarders"] == []

    def test_never_forwards_on_random_star_snapshots(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            view = BandwidthSnapshot(
                up={i: float(rng.integers(10, 1000)) for i in range(10)},
                down={i: float(rng.integers(10, 1000)) for i in range(10)},
            )
            plan = SMFPlanner().plan(view, 0, list(range(1, 7)), 4)
            assert plan.notes["forwarders"] == [], seed


class TestForwarding:
    def test_slow_pair_link_bypassed(self):
        # The direct 1 -> 0 pair is degraded to 5; idle node 4 relays.
        view = pairwise(5, {(1, 0): 5.0})
        plan = SMFPlanner().plan(view, 0, [1, 2, 3], 3)
        assert plan.notes["forwarders"] == [4]
        assert plan.tree.parent(4) == 0
        assert plan.tree.parent(1) == 4
        assert plan.bmin == 100.0

    def test_each_forwarder_used_once(self):
        view = pairwise(6, {(1, 0): 5.0, (2, 1): 5.0, (3, 2): 5.0})
        plan = SMFPlanner().plan(view, 0, [1, 2, 3], 3)
        # Only two idle nodes exist (4, 5); the third slow link stays.
        assert sorted(plan.notes["forwarders"]) == [4, 5]
        assert plan.bmin == 5.0

    def test_beats_rp_under_pairwise_degradation(self):
        view = pairwise(6, {(1, 0): 5.0})
        smf = SMFPlanner().plan(view, 0, [1, 2, 3], 3)
        rp = RPPlanner().plan(view, 0, [1, 2, 3], 3)
        assert pairwise_bmin(rp.tree, view) == 5.0
        assert smf.bmin == 100.0

    def test_helpers_are_chunk_holders_only(self):
        plan = SMFPlanner().plan(uniform(10), 0, [1, 2, 3, 4, 5], 4)
        assert plan.helpers == [1, 2, 3, 4]


class TestByteAccurateForwarding:
    def test_cluster_repair_through_forwarder(self):
        """A tree containing a chunk-less relay still rebuilds correctly."""
        from repro.cluster import Cluster
        from repro.ec import RSCode

        cluster = Cluster(12, RSCode(6, 4))
        stripe = cluster.write_random_stripes(
            1, 96, np.random.default_rng(9)
        )[0]
        lost_index = 1
        failed = stripe.placement[lost_index]
        original = cluster.nodes[failed].read(
            stripe.chunk_id(lost_index)
        ).copy()
        cluster.fail_node(failed)
        holders = set(stripe.placement)
        spare_nodes = [
            n for n in range(12) if n not in holders and n != failed
        ]
        requestor, idle = spare_nodes[0], spare_nodes[1]
        survivors = [
            n
            for n in stripe.surviving_nodes(failed)
            if cluster.nodes[n].alive
        ]
        # Degrade the first helper's direct link so the idle node relays;
        # the view holds the survivors, the requestor and that one idle
        # node, so it is the only forwarder the planner can pick.
        nodes = [*survivors, requestor, idle]
        view = PairwiseBandwidthSnapshot(
            up={i: 100.0 for i in nodes},
            down={i: 100.0 for i in nodes},
            link_caps={(survivors[0], requestor): 5.0},
        )
        plan, rebuilt = cluster.repair_chunk(
            SMFPlanner(), view, stripe, lost_index, requestor,
        )
        assert plan.notes["forwarders"] == [idle]
        np.testing.assert_array_equal(rebuilt, original)
