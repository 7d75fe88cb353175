"""Tests for the PPT baseline: Prüfer decoding, the closed form against
the enumeration it replaced (``tests/baselines/ppt_oracle.py``), and the
modelled planning charge."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.ppt import (
    SECONDS_PER_TREE,
    PPTPlanner,
    prufer_decode,
    tree_count,
)
from repro.core.algorithm import build_pivot_tree
from repro.core.bandwidth_view import BandwidthSnapshot
from repro.core.tree import RepairTree
from repro.exceptions import PlanningError
from tests.baselines.ppt_oracle import all_subsets, enumerate_ppt, rooted_trees


def snap(up, down):
    return BandwidthSnapshot(up=up, down=down)


def prufer_encode(edges, size):
    """Reference encoder used to verify the decoder round-trips."""
    adjacency = {i: set() for i in range(size)}
    for a, b in edges:
        adjacency[a].add(b)
        adjacency[b].add(a)
    sequence = []
    for _ in range(size - 2):
        leaf = min(node for node, nbrs in adjacency.items() if len(nbrs) == 1)
        neighbour = next(iter(adjacency[leaf]))
        sequence.append(neighbour)
        adjacency[neighbour].discard(leaf)
        del adjacency[leaf]
    return sequence


class TestPrufer:
    def test_decode_rejects_bad_input(self):
        with pytest.raises(PlanningError):
            prufer_decode([], 1)
        with pytest.raises(PlanningError):
            prufer_decode([0, 1], 3)
        with pytest.raises(PlanningError):
            prufer_decode([5], 3)

    def test_decode_produces_spanning_tree(self):
        for size in (3, 4, 5):
            for sequence in itertools.product(range(size), repeat=size - 2):
                edges = prufer_decode(list(sequence), size)
                assert len(edges) == size - 1
                nodes = {x for e in edges for x in e}
                assert nodes == set(range(size))

    def test_encode_decode_round_trip(self):
        for size in (3, 4, 5):
            for sequence in itertools.product(range(size), repeat=size - 2):
                edges = prufer_decode(list(sequence), size)
                assert prufer_encode(edges, size) == list(sequence)

    def test_all_decoded_trees_distinct(self):
        size = 5
        seen = set()
        for sequence in itertools.product(range(size), repeat=size - 2):
            edges = frozenset(
                tuple(sorted(e)) for e in prufer_decode(list(sequence), size)
            )
            seen.add(edges)
        assert len(seen) == size ** (size - 2)  # Cayley's formula


class TestRootedTrees:
    def test_counts_match_cayley(self):
        for m in (2, 3, 4, 5):
            labels = list(range(10, 10 + m))
            trees = list(rooted_trees(labels, labels[0]))
            expected = 1 if m == 2 else m ** (m - 2)
            assert len(trees) == expected
            # All distinct.
            assert len({frozenset(t.items()) for t in trees}) == expected

    def test_trees_are_valid(self):
        labels = [7, 3, 9, 5]
        for parents in rooted_trees(labels, 7):
            tree = RepairTree(7, parents)
            assert sorted(tree.helpers) == [3, 5, 9]

    def test_root_must_be_label(self):
        with pytest.raises(PlanningError):
            list(rooted_trees([1, 2], 5))

    def test_single_label_rejected(self):
        with pytest.raises(PlanningError):
            list(rooted_trees([1], 1))


class TestTreeCount:
    def test_first_k_matches_formula(self):
        assert tree_count(4) == 5**3
        assert tree_count(6) == 7**5
        assert tree_count(1) == 1

    def test_grows_exponentially_with_k(self):
        counts = [tree_count(k) for k in (4, 6, 8, 10)]
        assert all(b / a > 50 for a, b in zip(counts, counts[1:]))


FIG4_UP = {2: 750, 3: 500, 4: 150, 5: 500, 6: 500, 0: 980}
FIG4_DOWN = {2: 100, 3: 130, 4: 1000, 5: 200, 6: 900, 0: 980}


class TestPPTPlanner:
    def test_all_subsets_finds_figure4_optimum(self):
        view = snap(FIG4_UP, FIG4_DOWN)
        bmin, _, examined = all_subsets(view, 0, [2, 3, 4, 5, 6], 4)
        assert bmin == pytest.approx(450)
        assert examined == math.comb(5, 4) * tree_count(4)
        # PPT searches one helper pool, so it cannot beat the global optimum.
        plan = PPTPlanner().plan(view, 0, [2, 3, 4, 5, 6], 4)
        assert plan.bmin <= bmin

    def test_first_k_restricts_helper_pool(self):
        plan = PPTPlanner().plan(
            snap(FIG4_UP, FIG4_DOWN), 0, [2, 3, 4, 5], 4
        )
        assert sorted(plan.helpers) == [2, 3, 4, 5]
        assert plan.trees_examined == tree_count(4)
        # Best tree over {N2..N5} cannot use N6's strong links.
        assert plan.bmin < 450

    def test_beats_every_chain(self):
        rng = np.random.default_rng(17)
        up = {i: float(rng.integers(10, 1000)) for i in range(6)}
        down = {i: float(rng.integers(10, 1000)) for i in range(6)}
        view = snap(up, down)
        bmin, _, _ = all_subsets(view, 0, [1, 2, 3, 4, 5], 3)
        for helpers in itertools.permutations([1, 2, 3, 4, 5], 3):
            chain = RepairTree.chain(0, list(helpers))
            assert bmin >= chain.bmin(view) - 1e-9


#: Bandwidths drawn from a four-value menu tie often, so many count
#: vectors share the largest B_min and the first one in product order
#: has to be picked, not just any of them.
TIE_PRONE = st.sampled_from([100.0, 200.0, 400.0, 800.0])
FREE = st.floats(min_value=1.0, max_value=1e4, allow_nan=False)


@st.composite
def ppt_cases(draw):
    k = draw(st.integers(min_value=1, max_value=6))
    node_count = draw(st.integers(min_value=max(3, k + 1), max_value=10))
    value = draw(st.sampled_from([TIE_PRONE, FREE]))
    nodes = range(node_count)
    up = {i: draw(value) for i in nodes}
    down = {i: draw(value) for i in nodes}
    requestor = draw(st.sampled_from(list(nodes)))
    candidates = draw(st.permutations([i for i in nodes if i != requestor]))
    return snap(up, down), requestor, candidates, k


class TestClosedFormDifferential:
    """The closed form returns the enumeration's first best tree."""

    @settings(deadline=None)
    @given(ppt_cases())
    def test_matches_enumeration(self, case):
        view, requestor, candidates, k = case
        plan = PPTPlanner().plan(view, requestor, candidates, k)
        bmin, parents, examined = enumerate_ppt(
            view, requestor, candidates, k
        )
        assert plan.bmin == bmin
        # Insertion order too: it orders children, hence flow submission.
        assert list(plan.tree._parents.items()) == list(parents.items())
        assert plan.trees_examined == examined

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.sampled_from([8, 10]),
        st.integers(min_value=0, max_value=3),
    )
    def test_large_k_is_optimal_on_its_pool(self, seed, k, extra):
        # Beyond enumeration's reach, Theorem 1 is the reference: Algorithm
        # 1 over PPT's helper pool reaches the same B_min.
        rng = np.random.default_rng(seed)
        nodes = range(k + 1 + extra)
        view = snap(
            {i: float(rng.choice([100, 200, 400, 800])) for i in nodes},
            {i: float(rng.integers(1, 1000)) for i in nodes},
        )
        plan = PPTPlanner().plan(view, 0, list(nodes)[1:], k)
        pool = sorted(plan.helpers)
        assert plan.bmin == build_pivot_tree(view, 0, pool, k).bmin(view)
        assert plan.tree.bmin(view) == plan.bmin


class TestPlanningCharge:
    @pytest.mark.parametrize("k", [1, 4, 8, 10])
    def test_charge_is_modelled_and_repeatable(self, k):
        view = snap(
            {i: 100.0 + i for i in range(12)},
            {i: 300.0 - i for i in range(12)},
        )
        first, second = (
            PPTPlanner().plan(view, 0, list(range(1, 12)), k)
            for _ in range(2)
        )
        assert first.planning_seconds == SECONDS_PER_TREE * (k + 1) ** (k - 1)
        assert first.planning_seconds == second.planning_seconds
        assert first.trees_examined == tree_count(k)
