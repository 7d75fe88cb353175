"""Tests for the RepairPlan record and planner base-class validation."""

import pytest

from repro.core.bandwidth_view import BandwidthSnapshot
from repro.core.plan import RepairPlan, RepairPlanner
from repro.core.tree import RepairTree
from repro.exceptions import PlanningError


def tree():
    return RepairTree(0, {1: 0, 2: 1})


class TestRepairPlanValidation:
    def test_needs_tree_or_stages(self):
        with pytest.raises(PlanningError):
            RepairPlan(scheme="x", requestor=0, helpers=[1, 2])

    def test_cannot_have_both(self):
        with pytest.raises(PlanningError):
            RepairPlan(
                scheme="x", requestor=0, helpers=[1, 2],
                tree=tree(), stages=[[(1, 0)]],
            )

    def test_tree_root_must_be_requestor(self):
        with pytest.raises(PlanningError):
            RepairPlan(scheme="x", requestor=9, helpers=[1, 2], tree=tree())

    def test_is_pipelined(self):
        pipelined = RepairPlan(
            scheme="x", requestor=0, helpers=[1, 2], tree=tree()
        )
        staged = RepairPlan(
            scheme="x", requestor=0, helpers=[1], stages=[[(1, 0)]]
        )
        assert pipelined.is_pipelined
        assert not staged.is_pipelined


class _NullPlanner(RepairPlanner):
    name = "null"

    def _build(self, snapshot, requestor, candidates, k):
        return RepairPlan(
            scheme=self.name,
            requestor=requestor,
            helpers=candidates[:k],
            tree=RepairTree.chain(requestor, candidates[:k]),
            bmin=1.0,
        )


class TestPlannerBaseValidation:
    def view(self, count=6):
        return BandwidthSnapshot(
            up={i: 1.0 for i in range(count)},
            down={i: 1.0 for i in range(count)},
        )

    def test_happy_path_records_timing(self):
        plan = _NullPlanner().plan(self.view(), 0, [1, 2, 3], 2)
        assert plan.planning_seconds > 0
        assert plan.scheme == "null"

    def test_rejects_zero_k(self):
        with pytest.raises(PlanningError):
            _NullPlanner().plan(self.view(), 0, [1, 2], 0)

    def test_rejects_requestor_as_candidate(self):
        with pytest.raises(PlanningError):
            _NullPlanner().plan(self.view(), 0, [0, 1], 1)

    def test_rejects_duplicates(self):
        with pytest.raises(PlanningError):
            _NullPlanner().plan(self.view(), 0, [1, 1], 1)

    def test_rejects_insufficient_candidates(self):
        with pytest.raises(PlanningError):
            _NullPlanner().plan(self.view(), 0, [1], 2)

    def test_rejects_unknown_nodes(self):
        with pytest.raises(PlanningError):
            _NullPlanner().plan(self.view(2), 0, [1, 7], 2)
