"""Tests for the RepairTree structure and Lemma 1 B_min."""

import pytest

from repro.core.bandwidth_view import BandwidthSnapshot
from repro.core.tree import RepairTree
from repro.exceptions import PlanningError


def snap(up, down):
    return BandwidthSnapshot(up=up, down=down)


class TestStructure:
    def test_basic_tree(self):
        tree = RepairTree(0, {1: 0, 2: 0, 3: 1})
        assert tree.root == 0
        assert tree.helpers == [1, 2, 3]
        assert tree.parent(3) == 1
        assert tree.parent(0) is None
        assert tree.children(0) == [1, 2]
        assert tree.child_count(1) == 1
        assert [n for n in tree.helpers if not tree.child_count(n)] == [2, 3]
        assert tree.non_leaf_helpers() == [1]
        assert tree.edges() == [(1, 0), (2, 0), (3, 1)]
        assert len(tree) == 4
        assert 3 in tree and 9 not in tree

    def test_depth(self):
        assert RepairTree(0, {1: 0, 2: 1, 3: 2}).depth() == 3
        assert RepairTree(0, {1: 0, 2: 0}).depth() == 1

    def test_root_with_parent_rejected(self):
        with pytest.raises(PlanningError):
            RepairTree(0, {0: 1, 1: 0})

    def test_unknown_parent_rejected(self):
        with pytest.raises(PlanningError):
            RepairTree(0, {1: 9})

    def test_cycle_rejected(self):
        with pytest.raises(PlanningError):
            RepairTree(0, {1: 2, 2: 1})

    def test_unknown_node_queries_rejected(self):
        tree = RepairTree(0, {1: 0})
        with pytest.raises(PlanningError):
            tree.parent(9)
        with pytest.raises(PlanningError):
            tree.children(9)

    def test_equality_and_hash(self):
        a = RepairTree(0, {1: 0, 2: 1})
        b = RepairTree(0, {2: 1, 1: 0})
        c = RepairTree(0, {1: 0, 2: 0})
        assert a == b
        assert hash(a) == hash(b)
        assert a != c

    def test_render_contains_all_nodes(self):
        text = RepairTree(0, {1: 0, 2: 1, 3: 0}).render()
        for node in ("N0", "N1", "N2", "N3"):
            assert node in text
        assert "requestor" in text

    def test_chain_constructor(self):
        tree = RepairTree.chain(0, [3, 2, 1])
        assert tree.parent(3) == 0
        assert tree.parent(2) == 3
        assert tree.parent(1) == 2
        assert tree.depth() == 3

    def test_chain_needs_helpers(self):
        with pytest.raises(PlanningError):
            RepairTree.chain(0, [])

    def test_star_constructor(self):
        tree = RepairTree(0, {1: 0, 2: 0, 3: 0})
        assert [n for n in tree.helpers if not tree.child_count(n)] == [
            1, 2, 3,
        ]
        assert tree.depth() == 1


class TestBmin:
    def test_chain_bmin_is_slowest_link(self):
        view = snap(
            {0: 1000, 1: 40, 2: 500}, {0: 1000, 1: 1000, 2: 1000}
        )
        tree = RepairTree.chain(0, [1, 2])
        # Node 1 is non-leaf: min(up=40, down/1=1000) = 40; leaf 2: up=500.
        assert tree.bmin(view) == 40

    def test_root_downlink_split_among_children(self):
        view = snap({0: 10_000, 1: 10_000, 2: 10_000}, {0: 90, 1: 1, 2: 1})
        tree = RepairTree(0, {1: 0, 2: 0})
        assert tree.bmin(view) == pytest.approx(45)

    def test_root_uplink_never_constrains(self):
        # The requestor only downloads; up(root)=0 must not matter.
        view = snap({0: 0, 1: 100}, {0: 100, 1: 100})
        tree = RepairTree(0, {1: 0})
        assert tree.bmin(view) == 100

    def test_non_leaf_helper_downlink_split(self):
        tree = RepairTree(0, {1: 0, 2: 1, 3: 1})
        ups = {0: 1000, 1: 500, 2: 1000, 3: 1000}
        # Node 1 has 2 children: min(up=500, down/2), the only term
        # below 1000: its split downlink binds at 300, its uplink at 1200.
        for down1, term in ((300, 150), (1200, 500)):
            view = snap(ups, {0: 1000, 1: down1, 2: 1000, 3: 1000})
            assert tree.bmin(view) == pytest.approx(term)

    def test_paper_figure4_final_tree_bmin(self):
        """The final tree of Figure 4 achieves B_min = 450 Mb/s."""
        up = {2: 750, 3: 500, 4: 150, 5: 500, 6: 500, 0: 980}
        down = {2: 100, 3: 130, 4: 1000, 5: 200, 6: 900, 0: 980}
        view = snap(up, down)
        tree = RepairTree(0, {6: 0, 2: 0, 5: 6, 3: 6})
        assert tree.bmin(view) == pytest.approx(450)

    def test_childless_root_rejected_in_bottleneck(self):
        view = snap({0: 1, 1: 1}, {0: 1, 1: 1})
        with pytest.raises(PlanningError, match="at least one child"):
            RepairTree(0, {}).bmin(view)
        # A tree node the snapshot does not know is no bandwidth of 0.
        with pytest.raises(PlanningError, match="not in snapshot"):
            RepairTree(0, {1: 0, 9: 1}).bmin(view)
