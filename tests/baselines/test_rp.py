"""Tests for the RP chain baseline."""

import pytest

from repro.baselines.rp import RPPlanner
from repro.core.bandwidth_view import BandwidthSnapshot


def snap(up, down):
    return BandwidthSnapshot(up=up, down=down)


def uniform_snapshot(count, value=100.0):
    return snap({i: value for i in range(count)}, {i: value for i in range(count)})


class TestRP:
    def test_chain_shape(self):
        plan = RPPlanner().plan(uniform_snapshot(6), 0, [1, 2, 3, 4, 5], 4)
        tree = plan.tree
        assert tree.depth() == 4
        assert tree.parent(1) == 0
        assert tree.parent(2) == 1
        assert tree.parent(3) == 2
        assert tree.parent(4) == 3
        assert 5 not in tree

    def test_uses_first_k_candidates_in_order(self):
        plan = RPPlanner().plan(uniform_snapshot(6), 0, [5, 3, 1, 2, 4], 3)
        assert plan.tree.parent(5) == 0
        assert plan.tree.parent(3) == 5
        assert plan.tree.parent(1) == 3

    def test_bmin_is_slowest_stage(self):
        up = {0: 980, 1: 600, 2: 800, 3: 510, 4: 600}
        down = {0: 980, 1: 130, 2: 500, 3: 200, 4: 900}
        plan = RPPlanner().plan(snap(up, down), 0, [1, 2, 3, 4], 4)
        # Node 1 non-leaf: min(600, 130)=130 bottlenecks.
        assert plan.bmin == pytest.approx(130)

    def test_plan_is_pipelined(self):
        plan = RPPlanner().plan(uniform_snapshot(6), 0, [1, 2, 3, 4], 4)
        assert plan.is_pipelined
        assert plan.stages is None
