"""Pipelined repair tree.

A repair tree is rooted at the requestor; every other node is a helper.
Leaves stream their (coefficient-scaled) chunk upward; each non-leaf node
XOR-aggregates its children's partial results with its own chunk and streams
the sum to its parent (Section II-B linearity).  Every edge therefore carries
exactly one chunk's worth of bytes.

The bottleneck bandwidth ``B_min`` follows Lemma 1:

    B_min = min( min over non-leaf nodes of prac(i),
                 min over leaf nodes of up(i) )

with ``prac(i) = min(up(i), down(i) / c_i)`` for a non-leaf helper with
``c_i`` children, and ``prac(root) = down(root) / c_root`` (the requestor
never uploads during the repair, cf. the Lemma 2 base case).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from repro.core.bandwidth_view import BandwidthSnapshot
from repro.exceptions import PlanningError


class RepairTree:
    """Immutable-ish rooted tree given as child -> parent pointers."""

    def __init__(self, root: int, parents: Mapping[int, int]):
        self.root = root
        self._parents = dict(parents)
        self._helpers = tuple(sorted(self._parents))
        self._children: dict[int, list[int]] = {root: []}
        for child in self._parents:
            self._children.setdefault(child, [])
        for child, parent in self._parents.items():
            if child == root:
                raise PlanningError("the root cannot have a parent")
            if parent not in self._children:
                raise PlanningError(
                    f"parent {parent} of node {child} is not in the tree"
                )
            self._children[parent].append(child)
        self._validate_connected()

    def _validate_connected(self) -> None:
        seen = set()
        frontier = [self.root]
        while frontier:
            node = frontier.pop()
            if node in seen:
                raise PlanningError(f"cycle detected at node {node}")
            seen.add(node)
            frontier.extend(self._children[node])
        if seen != set(self._children):
            orphans = set(self._children) - seen
            raise PlanningError(f"nodes unreachable from root: {orphans}")

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def helpers(self) -> list[int]:
        """All non-root nodes (the k helpers), sorted."""
        return list(self._helpers)

    def parent(self, node: int) -> int | None:
        if node == self.root:
            return None
        try:
            return self._parents[node]
        except KeyError:
            raise PlanningError(f"node {node} not in tree") from None

    def children(self, node: int) -> list[int]:
        try:
            return list(self._children[node])
        except KeyError:
            raise PlanningError(f"node {node} not in tree") from None

    def child_count(self, node: int) -> int:
        return len(self.children(node))

    def non_leaf_helpers(self) -> list[int]:
        return sorted(
            node
            for node, kids in self._children.items()
            if kids and node != self.root
        )

    def edges(self) -> list[tuple[int, int]]:
        """Directed (child, parent) transfer edges, child uploads to parent."""
        return sorted(self._parents.items())

    def depth(self) -> int:
        """Longest root-to-leaf path length in edges (pipeline stages)."""
        best = 0
        stack = [(self.root, 0)]
        while stack:
            node, d = stack.pop()
            best = max(best, d)
            for child in self._children[node]:
                stack.append((child, d + 1))
        return best

    def __len__(self) -> int:
        return len(self._children)

    def __contains__(self, node: int) -> bool:
        return node in self._children

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RepairTree):
            return NotImplemented
        return self.root == other.root and self._parents == other._parents

    def __hash__(self) -> int:
        return hash((self.root, frozenset(self._parents.items())))

    def __repr__(self) -> str:
        return f"RepairTree(root={self.root}, parents={self._parents!r})"

    def render(self) -> str:
        """Multi-line ASCII rendering for logs and examples."""
        lines: list[str] = []

        def walk(node: int, prefix: str, is_last: bool) -> None:
            connector = "└── " if is_last else "├── "
            lines.append(prefix + connector + f"N{node}")
            kids = sorted(self._children[node])
            child_prefix = prefix + ("    " if is_last else "│   ")
            for i, child in enumerate(kids):
                walk(child, child_prefix, i == len(kids) - 1)

        lines.append(f"N{self.root} (requestor)")
        kids = sorted(self._children[self.root])
        for i, child in enumerate(kids):
            walk(child, "", i == len(kids) - 1)
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Bandwidth (Lemma 1)
    # ------------------------------------------------------------------
    def _bottleneck(self, up, down, node: int, kids: list[int]) -> float:
        if node == self.root:
            if not kids:
                raise PlanningError("the root must have at least one child")
            return down[node] / len(kids)
        if not kids:
            return up[node]
        return min(up[node], down[node] / len(kids))

    def bmin(self, snapshot: BandwidthSnapshot) -> float:
        """Bottleneck (minimum) bandwidth of the pipelined tree."""
        up, down = snapshot.up, snapshot.down
        for node in self._children:
            if node not in up:
                raise PlanningError(f"node {node} not in snapshot")
        return min(
            self._bottleneck(up, down, node, kids)
            for node, kids in self._children.items()
        )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def chain(cls, root: int, order: Iterable[int]) -> RepairTree:
        """A chain pipeline: order[0] -> root, order[1] -> order[0], ..."""
        parents = {}
        previous = root
        for node in order:
            parents[node] = previous
            previous = node
        if not parents:
            raise PlanningError("a chain needs at least one helper")
        return cls(root, parents)
