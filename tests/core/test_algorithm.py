"""Tests for Algorithm 1 — including the paper's Figure 4 walkthrough and a
property-based check of Theorem 1 (optimal B_min) against exhaustive
enumeration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.algorithm import (
    PivotRepairPlanner,
    build_pivot_tree,
    insert_pivots,
    select_pivots,
)
from repro.core.bandwidth_view import BandwidthSnapshot
from repro.exceptions import PlanningError
from tests.baselines.ppt_oracle import all_subsets
from tests.core.threshold_oracle import optimal_bmin

# Figure 4's bandwidth table (Mb/s). Node 0 plays the requestor R; node 1
# is the failed node, nodes 2..6 are helpers N2..N6.
FIG4_UP = {2: 750, 3: 500, 4: 150, 5: 500, 6: 500, 0: 980}
FIG4_DOWN = {2: 100, 3: 130, 4: 1000, 5: 200, 6: 900, 0: 980}


def snap(up, down):
    return BandwidthSnapshot(up=up, down=down)


def fig4_snapshot():
    return snap(FIG4_UP, FIG4_DOWN)


class TestPivotSelection:
    def test_figure4_pivot_order(self):
        """S = {N6, N5, N4, N3} sorted descending by theo(.)."""
        pivots = select_pivots(fig4_snapshot(), [2, 3, 4, 5, 6], 4)
        assert pivots == [6, 5, 4, 3]

    def test_ties_break_on_node_id(self):
        view = snap({1: 10, 2: 10, 3: 10}, {1: 10, 2: 10, 3: 10})
        assert select_pivots(view, [3, 2, 1], 2) == [1, 2]

    def test_too_few_candidates_rejected(self):
        with pytest.raises(PlanningError):
            select_pivots(fig4_snapshot(), [2, 3], 4)


class TestInserting:
    def test_figure4_preliminary_tree(self):
        """Inserting yields R <- {N6, N4}, N6 <- {N5, N3} (Figure 4)."""
        parents = insert_pivots(fig4_snapshot(), 0, [6, 5, 4, 3])
        assert parents == {6: 0, 5: 6, 4: 0, 3: 6}


class TestReplacing:
    def test_figure4_replaces_n4_with_n2(self):
        tree = build_pivot_tree(fig4_snapshot(), 0, [2, 3, 4, 5, 6], 4)
        # Final tree: R <- {N6, N2}, N6 <- {N5, N3}; N4 swapped out for N2.
        assert tree.parent(6) == 0
        assert tree.parent(2) == 0
        assert tree.parent(5) == 6
        assert tree.parent(3) == 6
        assert 4 not in tree

    def test_figure4_bmin(self):
        view = fig4_snapshot()
        tree = build_pivot_tree(view, 0, [2, 3, 4, 5, 6], 4)
        assert tree.bmin(view) == pytest.approx(450)

    def test_no_replacement_when_k_equals_candidates(self):
        view = fig4_snapshot()
        tree = build_pivot_tree(view, 0, [3, 4, 5, 6], 4)
        assert sorted(tree.helpers) == [3, 4, 5, 6]


class TestMotivatingExample:
    def test_figure3_beats_rp_chain(self):
        """PivotRepair's tree (450) beats RP's id-ordered chain (<=200)."""
        from repro.baselines.rp import RPPlanner

        view = fig4_snapshot()
        pivot_plan = PivotRepairPlanner().plan(view, 0, [2, 3, 4, 5, 6], 4)
        rp_plan = RPPlanner().plan(view, 0, [3, 4, 5, 6], 4)
        assert pivot_plan.bmin == pytest.approx(450)
        # N5's 200 Mb/s downlink bottlenecks any chain through it (§III-B).
        assert rp_plan.bmin <= 200
        assert pivot_plan.bmin > 2 * rp_plan.bmin


class TestPlannerInterface:
    def test_plan_records_time_and_bmin(self):
        plan = PivotRepairPlanner().plan(fig4_snapshot(), 0, [2, 3, 4, 5, 6], 4)
        assert plan.scheme == "PivotRepair"
        assert plan.is_pipelined
        assert plan.planning_seconds > 0
        assert plan.bmin == pytest.approx(450)

    def test_requestor_in_candidates_rejected(self):
        with pytest.raises(PlanningError):
            PivotRepairPlanner().plan(fig4_snapshot(), 0, [0, 2, 3, 4], 4)

    def test_duplicate_candidates_rejected(self):
        with pytest.raises(PlanningError):
            PivotRepairPlanner().plan(fig4_snapshot(), 0, [2, 2, 3, 4], 4)

    def test_bad_k_rejected(self):
        with pytest.raises(PlanningError):
            PivotRepairPlanner().plan(fig4_snapshot(), 0, [2, 3, 4, 5], 0)

    def test_node_missing_from_snapshot_rejected(self):
        with pytest.raises(PlanningError):
            PivotRepairPlanner().plan(fig4_snapshot(), 0, [2, 3, 4, 99], 4)


def random_snapshot(node_count, seed, low=1, high=1000):
    rng = np.random.default_rng(seed)
    up = {i: float(rng.integers(low, high)) for i in range(node_count)}
    down = {i: float(rng.integers(low, high)) for i in range(node_count)}
    return snap(up, down)


@st.composite
def wide_snapshots(draw):
    """``(view, k)`` with k up to 64 and up to 40 spare candidates.

    Integer, bimodal (20 / 900: hot storage's congested nodes), float
    and three-value (ties everywhere) bandwidths; optionally some links
    at zero, and optionally a requestor downlink under 10, below every
    link but a zero one, so that the root's own share is the
    bottleneck.
    """
    k = draw(st.integers(min_value=1, max_value=64))
    node_count = 1 + k + draw(st.integers(min_value=0, max_value=40))
    kind = draw(st.sampled_from(["integer", "bimodal", "float", "ties"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def links():
        if kind == "integer":
            return rng.integers(1, 1000, node_count).astype(float)
        if kind == "bimodal":
            return rng.choice([20.0, 900.0], node_count)
        if kind == "float":
            return rng.uniform(0.5, 1000.0, node_count)
        return rng.choice([100.0, 200.0, 300.0], node_count)

    up, down = links(), links()
    if draw(st.booleans()):
        up[rng.random(node_count) < 0.1] = 0.0
        down[rng.random(node_count) < 0.1] = 0.0
    if draw(st.booleans()):
        down[0] = float(rng.uniform(0.0, 10.0))
    view = snap(
        {i: float(v) for i, v in enumerate(up)},
        {i: float(v) for i, v in enumerate(down)},
    )
    return view, k


class TestTheorem1Optimality:
    """Algorithm 1's B_min must match exhaustive enumeration (Theorem 1)."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=0, max_value=2),
    )
    def test_matches_exhaustive_optimum(self, seed, k, extra):
        node_count = 1 + k + extra  # requestor + candidates
        view = random_snapshot(node_count, seed)
        candidates = list(range(1, node_count))
        greedy = build_pivot_tree(view, 0, candidates, k)
        optimum, _, _ = all_subsets(view, 0, candidates, k)
        assert greedy.bmin(view) == pytest.approx(optimum, rel=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_matches_exhaustive_with_congested_nodes(self, seed):
        # Bimodal bandwidths: some nodes nearly saturated (hot storage).
        rng = np.random.default_rng(seed)
        node_count = 6
        up, down = {}, {}
        for i in range(node_count):
            up[i] = float(rng.choice([20, 900]))
            down[i] = float(rng.choice([20, 900]))
        view = snap(up, down)
        candidates = list(range(1, node_count))
        greedy = build_pivot_tree(view, 0, candidates, 4)
        optimum, _, _ = all_subsets(view, 0, candidates, 4)
        assert greedy.bmin(view) == pytest.approx(optimum, rel=1e-9)

    @settings(max_examples=150, deadline=None)
    @given(wide_snapshots())
    def test_matches_threshold_oracle_at_every_width(self, instance):
        # k up to 64, far past what enumeration reaches: the oracle
        # bisects over bottleneck values with slot counting
        # (tests/core/threshold_oracle.py), and the optimum is a float
        # the tree computes the same way, so `==` is exact.
        view, k = instance
        candidates = list(range(1, len(view.up)))
        tree = build_pivot_tree(view, 0, candidates, k)
        assert tree.bmin(view) == optimal_bmin(view, 0, candidates, k)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=2),
    )
    def test_threshold_oracle_matches_exhaustive_optimum(
        self, seed, k, extra
    ):
        # The oracle itself, against Prüfer enumeration where that runs.
        node_count = 1 + k + extra
        view = random_snapshot(node_count, seed)
        candidates = list(range(1, node_count))
        optimum, _, _ = all_subsets(view, 0, candidates, k)
        assert optimal_bmin(view, 0, candidates, k) == optimum

    @pytest.mark.parametrize(
        "root_down, link, k, expected",
        [
            (5.0, 1000.0, 8, 5.0),      # the root's one child is the limit
            (0.0, 1000.0, 8, 0.0),      # a dead requestor downlink
            (1000.0, 0.0, 8, 0.0),      # every helper link dead
            (300.0, 300.0, 64, 300.0),  # ties everywhere: a 64-long chain
        ],
    )
    def test_threshold_oracle_edge_cases(self, root_down, link, k, expected):
        up = {i: link for i in range(k + 3)}
        down = dict(up)
        down[0] = root_down
        view = snap(up, down)
        candidates = list(range(1, k + 3))
        assert optimal_bmin(view, 0, candidates, k) == expected
        tree = build_pivot_tree(view, 0, candidates, k)
        assert tree.bmin(view) == expected

    def test_structural_invariants(self):
        for seed in range(30):
            view = random_snapshot(8, seed)
            tree = build_pivot_tree(view, 0, list(range(1, 8)), 5)
            assert len(tree.helpers) == 5
            assert tree.root == 0
            # All helpers distinct and drawn from candidates.
            assert set(tree.helpers) <= set(range(1, 8))
