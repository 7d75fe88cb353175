"""Parallel Pipeline Tree (PPT) baseline [Bai et al., ICPP'19].

PPT searches *all* pipelined trees for the one whose slowest link is fastest.
The search is exponential, which is exactly what makes PPT unable to track
rapidly-changing congestion.

PPT fixes the k helpers with the largest available node bandwidth, then
enumerates every labelled tree over them and the requestor by Prüfer
sequence — ``(k+1)^(k-1)`` trees — and keeps the first one, in
``itertools.product`` order, with the largest B_min.  This planner returns
that very tree without enumerating: B_min (Lemma 1) reads only child
counts, and a label's child count is fixed by how often it occurs in the
sequence, so the answer is a threshold and a count vector:

1. the largest threshold T at which every helper's uplink reaches T and the
   per-label child caps at T leave room for the ``k-1`` sequence slots;
2. counts filled greedily from the lowest label index, which makes the
   ascending sequence of those counts the first maximum in product order.

The enumeration's cost is what the paper reports for PPT, so the planning
charge is modelled, not timed: :data:`SECONDS_PER_TREE` x the tree count.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.bandwidth_view import BandwidthSnapshot
from repro.core.plan import RepairPlan, RepairPlanner
from repro.core.tree import RepairTree
from repro.exceptions import PlanningError

#: Host cost of enumerating one tree (decode, root, B_min), seconds: the
#: median of eight runs of ``python tests/baselines/ppt_oracle.py``, which
#: times the (9, 6) enumeration (16 807 trees), on a 2-vCPU Intel Xeon
#: host (9.9-13.3 us per tree).
SECONDS_PER_TREE = 12.0e-6


def prufer_decode(sequence: Sequence[int], size: int) -> list[tuple[int, int]]:
    """Decode a Prüfer sequence over labels 0..size-1 into tree edges."""
    if size < 2:
        raise PlanningError("Prüfer decoding needs at least two labels")
    if len(sequence) != size - 2:
        raise PlanningError(
            f"sequence length {len(sequence)} != size-2 = {size - 2}"
        )
    degree = [1] * size
    for label in sequence:
        if not 0 <= label < size:
            raise PlanningError(f"label {label} outside 0..{size - 1}")
        degree[label] += 1
    edges: list[tuple[int, int]] = []
    # ptr scans for the smallest leaf; `leaf` tracks the current one.
    ptr = 0
    while degree[ptr] != 1:
        ptr += 1
    leaf = ptr
    for label in sequence:
        edges.append((leaf, label))
        degree[label] -= 1
        if degree[label] == 1 and label < ptr:
            leaf = label
        else:
            ptr += 1
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
    # The remaining leaf always joins the highest label (standard decode).
    edges.append((leaf, size - 1))
    return edges


def rooted_parents(
    edges: list[tuple[int, int]], labels: Sequence[int], root_index: int
) -> dict[int, int]:
    """Child -> parent map of a decoded tree, rooted at ``labels[root_index]``.

    Edges index into ``labels``; the map is filled in depth-first stack
    order, so two callers that decode one sequence get one dict order.
    """
    adjacency: list[list[int]] = [[] for _ in labels]
    for a, b in edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    parents: dict[int, int] = {}
    stack = [root_index]
    seen = {root_index}
    while stack:
        node = stack.pop()
        for neighbour in adjacency[node]:
            if neighbour not in seen:
                seen.add(neighbour)
                parents[labels[neighbour]] = labels[node]
                stack.append(neighbour)
    return parents


def tree_count(k: int) -> int:
    """Number of trees PPT enumerates: ``(k+1)^(k-1)``, every labelled
    tree over the k helpers plus the requestor."""
    return (k + 1) ** max(k - 1, 0)


def _first_max_counts(rows: list[list[float]]) -> tuple[float, list[int]]:
    """Largest B_min and the count vector of its first tree.

    ``rows[i][c]`` is label i's B_min term when it occurs c times in the
    sequence, non-increasing in c; every row spans the ``len(rows[0]) - 1``
    slots.  Counts are filled from the lowest label, so the ascending
    sequence they spell is the lexicographically first at that B_min.
    """
    slots = len(rows[0]) - 1
    for threshold in sorted({v for row in rows for v in row}, reverse=True):
        if any(row[0] < threshold for row in rows):
            continue
        caps = []
        for row in rows:
            cap = 0
            while cap < slots and row[cap + 1] >= threshold:
                cap += 1
            caps.append(cap)
        if sum(caps) < slots:
            continue
        counts = []
        left = slots
        for cap in caps:
            counts.append(min(cap, left))
            left -= counts[-1]
        return threshold, counts
    raise PlanningError("no feasible B_min threshold")


class PPTPlanner(RepairPlanner):
    """PPT's exhaustive search, answered in closed form.

    The helpers are the k candidates with the largest available node
    bandwidth (ties to the lower node id); the tree is the first of their
    ``(k+1)^(k-1)`` trees with the largest B_min, and the planning charge
    is :data:`SECONDS_PER_TREE` per tree.
    """

    name = "PPT"

    def plan(
        self,
        snapshot: BandwidthSnapshot,
        requestor: int,
        candidates: Sequence[int],
        k: int,
    ) -> RepairPlan:
        """Plan as every planner does, then charge the modelled cost."""
        plan = super().plan(snapshot, requestor, candidates, k)
        plan.planning_seconds = SECONDS_PER_TREE * plan.trees_examined
        return plan

    def _build(
        self,
        snapshot: BandwidthSnapshot,
        requestor: int,
        candidates: list[int],
        k: int,
    ) -> RepairPlan:
        pool = sorted(
            candidates, key=lambda node: (-snapshot.theo(node), node)
        )[:k]
        labels = [requestor, *pool]
        # The same float expressions the enumeration's B_min evaluates:
        # the root's downlink over 1 + c children, a helper's
        # min(up, down / c) over c children (its uplink alone as a leaf).
        root_down = snapshot.down_of(requestor)
        rows = [[root_down / (1 + c) for c in range(k)]]
        for node in pool:
            up, down = snapshot.up_of(node), snapshot.down_of(node)
            rows.append([up] + [min(up, down / c) for c in range(1, k)])
        bmin, counts = _first_max_counts(rows)
        sequence = [
            label for label, count in enumerate(counts)
            for _ in range(count)
        ]
        parents = rooted_parents(
            prufer_decode(sequence, k + 1), labels, 0
        )
        tree = RepairTree(requestor, parents)
        return RepairPlan(
            scheme=self.name,
            requestor=requestor,
            helpers=tree.helpers,
            tree=tree,
            bmin=bmin,
            trees_examined=tree_count(k),
        )
