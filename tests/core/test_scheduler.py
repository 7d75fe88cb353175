"""Tests for the adaptive scheduling strategy (Eq. 3)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import PPTPlanner, RPPlanner
from repro.core import BandwidthSnapshot, PivotRepairPlanner
from repro.core.rack_aware import RackAwarePivotPlanner, RackSnapshot
from repro.core.scheduler import (
    RunningTask,
    SchedulerConfig,
    recommendation_ceiling,
    recommendation_value,
    tree_similarity,
)
from repro.core.tree import RepairTree
from repro.exceptions import PlanningError
from repro.units import mbps, to_mbps


def make_tree(root=0, parents=None):
    return RepairTree(root, parents or {1: 0, 2: 1, 3: 1})


class TestConfig:
    def test_negative_knobs_rejected(self):
        with pytest.raises(PlanningError):
            SchedulerConfig(alpha=-1)
        with pytest.raises(PlanningError):
            SchedulerConfig(beta=-0.1)
        with pytest.raises(PlanningError):
            SchedulerConfig(max_concurrency=0)


class TestRunningTask:
    def test_uploaders_and_downloaders(self):
        task = RunningTask(make_tree(), start_time=0.0, expected_seconds=10.0)
        assert task.uploaders == frozenset({1, 2, 3})
        assert task.downloaders == frozenset({0, 1})

    def test_relative_delay(self):
        task = RunningTask(make_tree(), start_time=0.0, expected_seconds=10.0)
        assert task.relative_delay(5.0) == 0.0
        assert task.relative_delay(10.0) == 0.0
        assert task.relative_delay(15.0) == pytest.approx(0.5)

    def test_expected_duration_must_be_positive(self):
        with pytest.raises(PlanningError):
            RunningTask(make_tree(), start_time=0.0, expected_seconds=0.0)


class TestSimilarity:
    def test_identical_trees(self):
        tree = make_tree()
        task = RunningTask(tree, 0.0, 10.0)
        # 3 shared uploaders + 2 shared downloaders.
        assert tree_similarity(tree, task) == 5

    def test_disjoint_trees(self):
        running = RunningTask(
            RepairTree(10, {11: 10, 12: 11}), 0.0, 10.0
        )
        assert tree_similarity(make_tree(), running) == 0

    def test_partial_overlap(self):
        running = RunningTask(RepairTree(0, {1: 0, 9: 1}), 0.0, 10.0)
        # Shared uploaders: {1}; shared downloaders: {0, 1}.
        assert tree_similarity(make_tree(), running) == 3


class TestRecommendationValue:
    def test_no_running_tasks_gives_bmin_in_mbps(self):
        value = recommendation_value(make_tree(), mbps(400), [], now=0.0)
        assert value == pytest.approx(400)

    def test_running_tasks_penalise(self):
        tree = make_tree()
        running = [RunningTask(tree, 0.0, 10.0)]
        config = SchedulerConfig(alpha=1.0, beta=2.0)
        value = recommendation_value(tree, mbps(400), running, 0.0, config)
        # Similarity 5, no delay: penalty = 5 * (0 + 2) = 10.
        assert value == pytest.approx(390)

    def test_delayed_tasks_penalise_more(self):
        tree = make_tree()
        running = [RunningTask(tree, 0.0, 10.0)]
        config = SchedulerConfig(alpha=1.0, beta=2.0)
        on_time = recommendation_value(tree, mbps(400), running, 10.0, config)
        delayed = recommendation_value(tree, mbps(400), running, 20.0, config)
        # Delay ratio 1.0 adds 5 * 1.0 to the penalty.
        assert on_time - delayed == pytest.approx(5.0)

    def test_disjoint_running_tasks_do_not_penalise(self):
        running = [
            RunningTask(RepairTree(10, {11: 10, 12: 11}), 0.0, 10.0)
        ]
        value = recommendation_value(make_tree(), mbps(250), running, 5.0)
        assert value == pytest.approx(250)

    def test_higher_bmin_recommended(self):
        fast = recommendation_value(make_tree(), mbps(900), [], 0.0)
        slow = recommendation_value(make_tree(), mbps(100), [], 0.0)
        assert fast > slow

    def test_more_running_tasks_lower_value(self):
        tree = make_tree()
        one = [RunningTask(tree, 0.0, 10.0)]
        two = one + [RunningTask(tree, 0.0, 10.0)]
        v1 = recommendation_value(tree, mbps(400), one, 0.0)
        v2 = recommendation_value(tree, mbps(400), two, 0.0)
        assert v2 < v1


#: Few distinct bandwidths, zero included: bottlenecks meet the bound.
TIE_PRONE = (0.0, 1e8, 2e8, 4e8)


@st.composite
def planning_inputs(draw):
    nodes = draw(st.integers(min_value=5, max_value=10))
    if draw(st.booleans()):
        rate = st.sampled_from(TIE_PRONE)
    else:
        rate = st.floats(min_value=0.0, max_value=1e9)
    up = {node: draw(rate) for node in range(nodes)}
    down = {node: draw(rate) for node in range(nodes)}
    k = draw(st.integers(min_value=2, max_value=nodes - 2))
    candidates = list(
        range(1, draw(st.integers(min_value=k + 1, max_value=nodes)))
    )
    return up, down, k, candidates


class TestRecommendationCeiling:
    """No pipelined planner's ``B_min`` (in Mb/s) exceeds the ceiling,
    nor does any Eq. 3 value of its tree."""

    @settings(max_examples=40, deadline=None)
    @given(planning_inputs(), st.floats(min_value=0.0, max_value=50.0))
    def test_every_pipelined_planner_stays_under(self, inputs, now):
        up, down, k, candidates = inputs
        flat = BandwidthSnapshot(up=up, down=down)
        racked = RackSnapshot(
            up=up, down=down, rack_of={node: node % 3 for node in up},
            rack_up={rack: 3e8 for rack in range(3)},
            rack_down={rack: 3e8 for rack in range(3)},
        )
        planners = [
            (PivotRepairPlanner(), flat),
            (RPPlanner(), flat),
            (PPTPlanner(), flat),
            (RackAwarePivotPlanner(), racked),
        ]
        for planner, snapshot in planners:
            ceiling = recommendation_ceiling(snapshot, 0, candidates, k)
            plan = planner.plan(snapshot, 0, candidates, k)
            assert to_mbps(plan.bmin) <= ceiling, planner.name
            running = [RunningTask(plan.tree, 0.0, 1.0)]
            for tasks in ([], running):
                value = recommendation_value(plan.tree, plan.bmin, tasks, now)
                assert value <= ceiling, planner.name

    def test_the_kth_largest_uplink_and_the_requestor_downlink(self):
        snapshot = BandwidthSnapshot(
            up={0: 0.0, 1: mbps(500), 2: mbps(100), 3: mbps(300)},
            down={0: mbps(400), 1: 0.0, 2: 0.0, 3: 0.0},
        )
        assert recommendation_ceiling(snapshot, 0, [1, 2, 3], 2) == 300
        assert recommendation_ceiling(snapshot, 0, [1, 2, 3], 1) == 400
        assert recommendation_ceiling(snapshot, 0, [1, 2, 3], 3) == 100
