"""Deeper property-based tests for Algorithm 1's structure and guarantees.

Complements ``test_algorithm.py``'s Theorem 1 check with invariants on the
algorithm's *internals*: Lemma 2's claim about the Inserting step, the
Replacing step's monotonicity, and B_min's response to bandwidth changes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.algorithm import (
    build_pivot_tree,
    insert_pivots,
    replace_leaves,
    select_pivots,
)
from repro.core.bandwidth_view import BandwidthSnapshot
from repro.core.tree import RepairTree
from tests.baselines.ppt_oracle import rooted_trees


def snap(up, down):
    return BandwidthSnapshot(up=up, down=down)


def random_snapshot(node_count, seed, low=1, high=1000):
    rng = np.random.default_rng(seed)
    return snap(
        {i: float(rng.integers(low, high)) for i in range(node_count)},
        {i: float(rng.integers(low, high)) for i in range(node_count)},
    )


def min_nonleaf_bandwidth(tree: RepairTree, view: BandwidthSnapshot) -> float:
    """min{S_nl} of Lemma 2: the non-leaf terms of B_min (Lemma 1: the
    root's downlink split among its children, a non-leaf helper's
    uplink or split downlink, whichever is smaller)."""
    root = tree.root
    return min([view.down[root] / tree.child_count(root)] + [
        min(view.up[node], view.down[node] / tree.child_count(node))
        for node in tree.non_leaf_helpers()
    ])


class TestLemma2InsertingOptimality:
    """The Inserting step maximises min{S_nl} over trees on the same
    pivot set (proved by induction in the paper's appendix; checked here
    by brute force over every labelled tree shape)."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.integers(min_value=2, max_value=4),
    )
    def test_inserting_maximises_min_snl(self, seed, k):
        view = random_snapshot(k + 1, seed)
        pivots = select_pivots(view, list(range(1, k + 1)), k)
        parents = insert_pivots(view, 0, pivots)
        greedy = RepairTree(0, parents)
        greedy_value = min_nonleaf_bandwidth(greedy, view)
        best = max(
            min_nonleaf_bandwidth(RepairTree(0, candidate), view)
            for candidate in rooted_trees([0, *pivots], 0)
        )
        assert greedy_value == pytest.approx(best, rel=1e-9)


class TestReplacingMonotonicity:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=1, max_value=3),
    )
    def test_replacing_never_lowers_bmin(self, seed, k, extra):
        node_count = 1 + k + extra
        view = random_snapshot(node_count, seed)
        candidates = list(range(1, node_count))
        pivots = select_pivots(view, candidates, k)
        parents = insert_pivots(view, 0, pivots)
        before = RepairTree(0, dict(parents)).bmin(view)
        unselected = [n for n in candidates if n not in set(pivots)]
        replaced = replace_leaves(view, 0, parents, unselected)
        after = RepairTree(0, replaced).bmin(view)
        assert after >= before - 1e-9

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.integers(min_value=2, max_value=5),
    )
    def test_replacing_preserves_tree_shape(self, seed, k):
        node_count = 1 + k + 3
        view = random_snapshot(node_count, seed)
        candidates = list(range(1, node_count))
        pivots = select_pivots(view, candidates, k)
        parents = insert_pivots(view, 0, pivots)
        shape_before = sorted(
            len([c for c, p in parents.items() if p == node])
            for node in [0, *parents]
        )
        unselected = [n for n in candidates if n not in set(pivots)]
        replaced = replace_leaves(view, 0, parents, unselected)
        shape_after = sorted(
            len([c for c, p in replaced.items() if p == node])
            for node in [0, *replaced]
        )
        assert shape_before == shape_after


class TestBminMonotonicity:
    """More bandwidth can never hurt the optimal tree's B_min."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.floats(min_value=1.0, max_value=3.0),
    )
    def test_uniform_scaling_scales_bmin(self, seed, factor):
        view = random_snapshot(8, seed)
        candidates = list(range(1, 8))
        base = build_pivot_tree(view, 0, candidates, 5).bmin(view)
        scaled_view = snap(
            {n: v * factor for n, v in view.up.items()},
            {n: v * factor for n, v in view.down.items()},
        )
        scaled = build_pivot_tree(scaled_view, 0, candidates, 5).bmin(
            scaled_view
        )
        assert scaled == pytest.approx(base * factor, rel=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.integers(min_value=1, max_value=7),
    )
    def test_raising_one_node_never_lowers_bmin(self, seed, node):
        view = random_snapshot(8, seed)
        candidates = list(range(1, 8))
        base = build_pivot_tree(view, 0, candidates, 5).bmin(view)
        boosted_view = snap(
            {n: (v * 2 if n == node else v) for n, v in view.up.items()},
            {n: (v * 2 if n == node else v) for n, v in view.down.items()},
        )
        boosted = build_pivot_tree(boosted_view, 0, candidates, 5).bmin(
            boosted_view
        )
        assert boosted >= base - 1e-9


class TestPivotSelectionProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.integers(min_value=1, max_value=6),
    )
    def test_pivots_dominate_unselected_by_theo(self, seed, k):
        view = random_snapshot(10, seed)
        candidates = list(range(1, 10))
        pivots = select_pivots(view, candidates, k)
        unselected = [n for n in candidates if n not in set(pivots)]
        if unselected:
            weakest_pivot = min(view.theo(p) for p in pivots)
            strongest_out = max(view.theo(u) for u in unselected)
            assert weakest_pivot >= strongest_out

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_descending_theo_order(self, seed):
        view = random_snapshot(9, seed)
        pivots = select_pivots(view, list(range(1, 9)), 6)
        theos = [view.theo(p) for p in pivots]
        assert theos == sorted(theos, reverse=True)
