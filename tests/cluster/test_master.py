"""Integration tests: byte-accurate end-to-end repair through the cluster."""

import numpy as np
import pytest

from repro.baselines import ConventionalPlanner, PPRPlanner, PPTPlanner, RPPlanner
from repro.cluster import Cluster
from repro.core import BandwidthSnapshot, PivotRepairPlanner
from repro.ec import RSCode
from repro.exceptions import ClusterError

NODE_COUNT = 12
CHUNK = 256


def uniform_snapshot(count=NODE_COUNT, value=1000.0):
    return BandwidthSnapshot(
        up={i: value for i in range(count)},
        down={i: value for i in range(count)},
    )


def heterogeneous_snapshot(count=NODE_COUNT, seed=0):
    rng = np.random.default_rng(seed)
    return BandwidthSnapshot(
        up={i: float(rng.integers(10, 1000)) for i in range(count)},
        down={i: float(rng.integers(10, 1000)) for i in range(count)},
    )


@pytest.fixture
def cluster():
    c = Cluster(NODE_COUNT, RSCode(6, 4))
    c.write_random_stripes(5, CHUNK, np.random.default_rng(42))
    return c


def pick_requestor(cluster, stripe, failed_node):
    holders = set(stripe.surviving_nodes(failed_node))
    return next(
        n
        for n in range(cluster.node_count)
        if n not in holders and n != failed_node
    )


class TestClusterBasics:
    def test_too_small_cluster_rejected(self):
        with pytest.raises(ClusterError):
            Cluster(4, RSCode(6, 4))

    def test_write_places_all_chunks(self, cluster):
        for stripe in cluster.stripes.values():
            for index, node in enumerate(stripe.placement):
                assert cluster.nodes[node].has(stripe.chunk_id(index))

    def test_fail_node_reports_lost_chunks(self, cluster):
        some_stripe = cluster.stripes[0]
        victim = some_stripe.placement[0]
        lost = cluster.fail_node(victim)
        assert len(lost) >= 1
        assert not cluster.nodes[victim].alive
        assert victim not in cluster.alive_nodes()

    def test_double_fail_rejected(self, cluster):
        victim = cluster.stripes[0].placement[0]
        cluster.fail_node(victim)
        with pytest.raises(ClusterError):
            cluster.fail_node(victim)

    def test_lost_chunks_match_placement(self, cluster):
        victim = cluster.stripes[0].placement[2]
        expected = [
            (s, s.chunk_on_node(victim))
            for s in cluster.stripes.values()
            if s.chunk_on_node(victim) is not None
        ]
        cluster.fail_node(victim)
        assert cluster.lost_chunks(victim) == expected


@pytest.mark.parametrize(
    "planner_factory",
    [
        PivotRepairPlanner,
        RPPlanner,
        PPRPlanner,
        ConventionalPlanner,
        PPTPlanner,
    ],
    ids=["pivot", "rp", "ppr", "conventional", "ppt"],
)
class TestByteAccurateRepair:
    def test_rebuilt_chunk_matches_original(self, cluster, planner_factory):
        stripe = cluster.stripes[0]
        lost_index = 1
        failed_node = stripe.placement[lost_index]
        original = cluster.nodes[failed_node].read(
            stripe.chunk_id(lost_index)
        )
        original = original.copy()
        cluster.fail_node(failed_node)
        requestor = pick_requestor(cluster, stripe, failed_node)
        plan, rebuilt = cluster.repair_chunk(
            planner_factory(), heterogeneous_snapshot(), stripe,
            lost_index, requestor,
        )
        np.testing.assert_array_equal(rebuilt, original)
        assert cluster.nodes[requestor].has(stripe.chunk_id(lost_index))
        assert len(plan.helpers) == cluster.code.k

    def test_parity_chunk_repair(self, cluster, planner_factory):
        stripe = cluster.stripes[1]
        lost_index = cluster.code.n - 1  # a parity chunk
        failed_node = stripe.placement[lost_index]
        original = cluster.nodes[failed_node].read(
            stripe.chunk_id(lost_index)
        ).copy()
        cluster.fail_node(failed_node)
        requestor = pick_requestor(cluster, stripe, failed_node)
        _, rebuilt = cluster.repair_chunk(
            planner_factory(), uniform_snapshot(), stripe,
            lost_index, requestor,
        )
        np.testing.assert_array_equal(rebuilt, original)


class TestFullNodeByteAccuracy:
    def test_all_lost_chunks_rebuilt_correctly(self):
        cluster = Cluster(NODE_COUNT, RSCode(9, 6))
        cluster.write_random_stripes(8, CHUNK, np.random.default_rng(7))
        victim = cluster.stripes[0].placement[0]
        originals = {}
        for stripe, index in cluster.lost_chunks(victim):
            originals[stripe.stripe_id] = (
                index,
                cluster.nodes[victim].read(stripe.chunk_id(index)).copy(),
            )
        cluster.fail_node(victim)
        planner = PivotRepairPlanner()
        for stripe, index in cluster.lost_chunks(victim):
            requestor = pick_requestor(cluster, stripe, victim)
            _, rebuilt = cluster.repair_chunk(
                planner, heterogeneous_snapshot(seed=stripe.stripe_id),
                stripe, index, requestor,
            )
            np.testing.assert_array_equal(
                rebuilt, originals[stripe.stripe_id][1]
            )


class TestConventionalMultiRepair:
    """Two or more lost chunks are each rebuilt through their own tree
    over the surviving chunks; the bytes must equal what conventional
    repair — decode all k data chunks, re-encode the whole stripe —
    produces."""

    @pytest.mark.parametrize("lost", [[1, 7], [0, 6, 8], [6, 7, 8]])
    def test_equals_decode_then_encode(self, lost):
        cluster = Cluster(14, RSCode(9, 6))
        cluster.write_random_stripes(2, 70_000, np.random.default_rng(11))
        stripe = cluster.stripes[1]
        snapshot = heterogeneous_snapshot(14, seed=3)
        originals = {
            i: cluster.nodes[stripe.placement[i]]
            .read(stripe.chunk_id(i))
            .copy()
            for i in range(9)
        }
        for index in lost:
            cluster.fail_node(stripe.placement[index])
        # Conventional repair, by hand, over the k best uplinks.
        helpers = sorted(
            (n for i, n in enumerate(stripe.placement) if i not in lost),
            key=lambda n: (-snapshot.up_of(n), n),
        )[:6]
        available = {
            stripe.chunk_on_node(n): originals[stripe.chunk_on_node(n)]
            for n in helpers
        }
        old = cluster.code.encode(cluster.code.decode(available))

        spares = [n for n in range(14) if n not in stripe.placement]
        replacements = dict(zip(lost, spares))
        rebuilt = cluster.repair_stripe(
            PivotRepairPlanner(), snapshot, stripe, lost, replacements
        )
        assert sorted(rebuilt) == lost
        for index in lost:
            np.testing.assert_array_equal(rebuilt[index], old[index])
            np.testing.assert_array_equal(rebuilt[index], originals[index])
            np.testing.assert_array_equal(
                cluster.nodes[replacements[index]].read(
                    stripe.chunk_id(index)
                ),
                originals[index],
            )
            assert stripe.placement[index] == replacements[index]


class TestRebuildSliceRange:
    """Slice ranges of a resumed repair, rebuilt through the tree."""

    CHUNK = 150_001  # odd, and long enough for the wide gather

    def _failed(self):
        cluster = Cluster(NODE_COUNT, RSCode(6, 4))
        cluster.write_random_stripes(1, self.CHUNK, np.random.default_rng(9))
        stripe = cluster.stripes[0]
        lost_index = 2
        victim = stripe.placement[lost_index]
        original = cluster.nodes[victim].read(
            stripe.chunk_id(lost_index)
        ).copy()
        cluster.fail_node(victim)
        requestor = pick_requestor(cluster, stripe, victim)
        plan = PivotRepairPlanner().plan(
            heterogeneous_snapshot(), requestor,
            stripe.surviving_nodes(victim), cluster.code.k,
        )
        return cluster, stripe, lost_index, plan, original

    def test_range_starting_at_an_odd_byte_offset(self):
        cluster, stripe, lost_index, plan, original = self._failed()
        slice_size = 9973  # odd: slice 1 starts at an odd byte
        part = cluster.rebuild_slice_range(
            stripe, lost_index, plan, 1, 14, slice_size
        )
        np.testing.assert_array_equal(
            part, original[slice_size : 14 * slice_size]
        )

    def test_ranges_stitch_to_the_whole_chunk(self):
        cluster, stripe, lost_index, plan, original = self._failed()
        slice_size = 9973
        count = -(-self.CHUNK // slice_size)
        pieces = [
            cluster.rebuild_slice_range(
                stripe, lost_index, plan, start, end, slice_size
            )
            for start, end in [(0, 3), (3, 4), (4, count + 2)]
        ]
        np.testing.assert_array_equal(np.concatenate(pieces), original)
        np.testing.assert_array_equal(
            np.concatenate(pieces),
            cluster.rebuild_from_plan(stripe, lost_index, plan),
        )
