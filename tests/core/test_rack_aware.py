"""Tests for rack-aware repair planning (§IV-F extension)."""

import pytest

from repro.core import PivotRepairPlanner
from repro.core.rack_aware import (
    RackAwarePivotPlanner,
    RackSnapshot,
    cross_rack_edges,
    rack_bmin,
)
from repro.core.tree import RepairTree
from repro.exceptions import PlanningError
from tests.network.links import uniform_racks


def snapshot_2x4(node_cap=1000.0, rack_cap=1500.0):
    """2 racks x 4 nodes, homogeneous, oversubscribed core."""
    net = uniform_racks(2, 4, node_cap, rack_cap)
    return RackSnapshot.from_network(net, 0.0)


class TestRackSnapshot:
    def test_from_network(self):
        view = snapshot_2x4()
        assert view.rack_of[0] == 0
        assert view.rack_of[7] == 1
        assert view.rack_up[0] == 1500
        assert view.rack_of[0] == view.rack_of[3]
        assert view.rack_of[0] != view.rack_of[4]

    def test_rack_of_must_cover_nodes(self):
        with pytest.raises(PlanningError):
            RackSnapshot(
                up={0: 1.0}, down={0: 1.0},
                rack_of={}, rack_up={}, rack_down={},
            )

    def test_missing_rack_link_rejected(self):
        with pytest.raises(PlanningError):
            RackSnapshot(
                up={0: 1.0}, down={0: 1.0},
                rack_of={0: 3}, rack_up={}, rack_down={},
            )


class TestRackBmin:
    def test_intra_rack_tree_equals_flat_bmin(self):
        view = snapshot_2x4(rack_cap=1.0)  # core nearly dead
        tree = RepairTree(0, {1: 0, 2: 1, 3: 1})  # all in rack 0
        assert cross_rack_edges(tree, view.rack_of) == []
        assert rack_bmin(tree, view) == tree.bmin(view)

    def test_cross_rack_edges_split_rack_links(self):
        view = snapshot_2x4(node_cap=1000, rack_cap=600)
        # Two rack-1 nodes upload straight to the rack-0 requestor.
        tree = RepairTree(0, {4: 0, 5: 0})
        edges = cross_rack_edges(tree, view.rack_of)
        assert len(edges) == 2
        # Rack 1's uplink and rack 0's downlink each carry two streams.
        assert rack_bmin(tree, view) == pytest.approx(300)

    def test_single_cross_edge_not_split(self):
        view = snapshot_2x4(node_cap=1000, rack_cap=600)
        # Rack-local aggregation: 5 -> 4 (local), 4 -> 0 (one cross edge).
        tree = RepairTree(0, {4: 0, 5: 4})
        assert rack_bmin(tree, view) == pytest.approx(600)


class TestRackAwarePlanner:
    def test_requires_rack_snapshot(self):
        from repro.core.bandwidth_view import BandwidthSnapshot

        flat = BandwidthSnapshot(
            up={i: 1.0 for i in range(6)}, down={i: 1.0 for i in range(6)}
        )
        with pytest.raises(PlanningError):
            RackAwarePivotPlanner().plan(flat, 0, [1, 2, 3, 4], 4)

    def test_at_most_one_cross_edge_per_rack(self):
        view = snapshot_2x4()
        plan = RackAwarePivotPlanner().plan(
            view, 0, [1, 2, 3, 4, 5, 6, 7], 6
        )
        crossings = cross_rack_edges(plan.tree, view.rack_of)
        remote_racks = {
            view.rack_of[h] for h in plan.helpers
        } - {view.rack_of[0]}
        # Each remote rack contributes exactly one rack-head upload.
        assert len(crossings) == len(remote_racks)
        assert {view.rack_of[c] for c, _ in crossings} == remote_racks

    def test_beats_flat_planner_under_oversubscription(self):
        # Strongly oversubscribed core: local aggregation wins clearly.
        view = snapshot_2x4(node_cap=1000, rack_cap=500)
        rack_plan = RackAwarePivotPlanner().plan(
            view, 0, [1, 2, 3, 4, 5, 6, 7], 6
        )
        # The flat plan sees node links only; score it on the rack model.
        flat_plan = PivotRepairPlanner().plan(
            view, 0, [1, 2, 3, 4, 5, 6, 7], 6
        )
        assert rack_plan.bmin >= rack_bmin(flat_plan.tree, view)

    def test_matches_flat_when_core_is_fat(self):
        # With a non-oversubscribed core, rack-awareness cannot be far off.
        view = snapshot_2x4(node_cap=1000, rack_cap=100_000)
        rack_plan = RackAwarePivotPlanner().plan(
            view, 0, [1, 2, 3, 4, 5, 6, 7], 6
        )
        flat_plan = PivotRepairPlanner().plan(
            view, 0, [1, 2, 3, 4, 5, 6, 7], 6
        )
        assert rack_plan.bmin >= 0.5 * flat_plan.bmin

    def test_all_helpers_planned(self):
        view = snapshot_2x4()
        plan = RackAwarePivotPlanner().plan(view, 0, [1, 2, 3, 4, 5, 6], 5)
        assert len(plan.helpers) == 5
        assert plan.scheme == "RackAwarePivotRepair"

    def test_requestor_rack_helpers_attach_locally(self):
        view = snapshot_2x4()
        plan = RackAwarePivotPlanner().plan(view, 0, [1, 2, 3], 3)
        # All helpers share the requestor's rack: no cross-rack edges.
        assert cross_rack_edges(plan.tree, view.rack_of) == []
