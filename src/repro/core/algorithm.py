"""Algorithm 1 of the paper: pivot-based pipelined repair tree construction.

Two steps (Section IV-B):

1. **Inserting** — the k candidates with the largest theoretical available
   node bandwidth ``theo(i) = min(up(i), down(i))`` are the *pivots*.  They
   are inserted in descending theo(.) order; each new pivot becomes a child
   of the tree node with the largest *practical* bandwidth
   ``prac(i) = min(up(i), down(i) / (c_i + 1))`` (the bandwidth the new
   child's link would get, since the parent's downlink is split among its
   children).  A priority queue makes each choice O(log n).
2. **Replacing** — leaves only contribute their uplink to B_min, so leaves
   with weak uplinks are swapped for unselected nodes with stronger uplinks
   (keeping the tree shape, hence min{S_nl}, intact — Lemma 3).

Total cost is O(n log n); Theorem 1 shows the result maximises B_min.
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence

from repro.core.bandwidth_view import BandwidthSnapshot
from repro.core.plan import RepairPlan, RepairPlanner
from repro.core.tree import RepairTree
from repro.exceptions import PlanningError
from repro.obs.tracer import NULL_TRACER


def _require_nodes(snapshot: BandwidthSnapshot, nodes) -> None:
    """The membership check the snapshot's accessors make, made once.

    The steps below read ``snapshot.up`` / ``snapshot.down`` directly —
    a plan makes ~60 such reads — so each validates its nodes on entry.
    """
    up = snapshot.up
    for node in nodes:
        if node not in up:
            raise PlanningError(f"node {node} not in snapshot")


def select_pivots(
    snapshot: BandwidthSnapshot, candidates: Sequence[int], k: int
) -> list[int]:
    """The k candidates with the largest theo(.), in descending order.

    Ties break on node id so planning is deterministic.
    """
    if len(candidates) < k:
        raise PlanningError(
            f"need at least k={k} candidates, got {len(candidates)}"
        )
    _require_nodes(snapshot, candidates)
    up, down = snapshot.up, snapshot.down
    ranked = sorted((-min(up[node], down[node]), node) for node in candidates)
    return [node for _, node in ranked[:k]]


def insert_pivots(
    snapshot: BandwidthSnapshot,
    requestor: int,
    pivots: Sequence[int],
    tracer=NULL_TRACER,
) -> dict[int, int]:
    """Step 1 (Inserting): attach each pivot under the max-prac tree node.

    ``prac(i) = min(up(i), down(i) / (c_i + 1))`` is the bandwidth a new
    child's link would get under node ``i``: its downlink is split among
    ``c_i + 1`` children.  The requestor never uploads during a repair,
    so its uplink does not constrain it (cf. the Lemma 2 base case,
    prac(R) = down(R)).

    Returns child -> parent pointers of the preliminary tree.
    """
    _require_nodes(snapshot, (requestor, *pivots))
    up, down = snapshot.up, snapshot.down
    heappush, heappop = heapq.heappush, heapq.heappop
    parents: dict[int, int] = {}
    child_count: dict[int, int] = {requestor: 0}
    # Each tree node has exactly one live heap entry; entries are
    # (-prac, node) so ties resolve toward smaller node ids.  A childless
    # node's share is ``down / (0 + 1)``, written out so an integer
    # capacity becomes the float every other share is.
    heap: list[tuple[float, int]] = [(-(down[requestor] / 1), requestor)]
    for pivot in pivots:
        neg_prac, parent = heappop(heap)
        parents[pivot] = parent
        children = child_count[parent] = child_count[parent] + 1
        child_count[pivot] = 0
        pivot_up, pivot_down = up[pivot], down[pivot]
        if tracer.enabled:
            tracer.instant(
                "planner.insert", t=snapshot.time, track="planner",
                pivot=pivot, parent=parent, parent_prac=-neg_prac,
                theo=min(pivot_up, pivot_down),
            )
        share = down[parent] / (children + 1)
        if parent != requestor:
            share = min(up[parent], share)
        heappush(heap, (-share, parent))
        heappush(heap, (-min(pivot_up, pivot_down / 1), pivot))
    return parents


def replace_leaves(
    snapshot: BandwidthSnapshot,
    requestor: int,
    parents: dict[int, int],
    unselected: Sequence[int],
    tracer=NULL_TRACER,
) -> dict[int, int]:
    """Step 2 (Replacing): swap weak-uplink leaves for stronger outsiders.

    Returns updated child -> parent pointers (the input is not mutated).
    """
    _require_nodes(snapshot, (*parents, *unselected))
    up = snapshot.up
    parents = dict(parents)
    non_leaves = set(parents.values())
    leaves = [node for node in parents if node not in non_leaves]
    leaf_set = set(leaves)
    pool = sorted((-up[node], node) for node in (*leaves, *unselected))
    # L*: the l strongest uplinks
    chosen = {node for _, node in pool[: len(leaves)]}
    outgoing = sorted(leaf for leaf in leaves if leaf not in chosen)
    incoming = sorted(node for node in chosen if node not in leaf_set)
    for leaf, newcomer in zip(outgoing, incoming):
        parents[newcomer] = parents.pop(leaf)
        if tracer.enabled:
            tracer.instant(
                "planner.replace", t=snapshot.time, track="planner",
                leaf=leaf, newcomer=newcomer,
                leaf_up=up[leaf], newcomer_up=up[newcomer],
            )
    return parents


def build_pivot_tree(
    snapshot: BandwidthSnapshot,
    requestor: int,
    candidates: Sequence[int],
    k: int,
    tracer=NULL_TRACER,
) -> RepairTree:
    """Run Algorithm 1 and return the optimal pipelined repair tree."""
    pivots = select_pivots(snapshot, candidates, k)
    if tracer.enabled:
        tracer.instant(
            "planner.pivots", t=snapshot.time, track="planner",
            requestor=requestor, pivots=list(pivots),
        )
    parents = insert_pivots(snapshot, requestor, pivots, tracer=tracer)
    selected = set(pivots)
    unselected = [node for node in candidates if node not in selected]
    parents = replace_leaves(
        snapshot, requestor, parents, unselected, tracer=tracer
    )
    tree = RepairTree(requestor, parents)
    if tracer.enabled:
        tracer.instant(
            "planner.tree", t=snapshot.time, track="planner",
            requestor=requestor, edges=tree.edges(),
            bmin=tree.bmin(snapshot), depth=tree.depth(),
        )
    return tree


class PivotRepairPlanner(RepairPlanner):
    """The paper's scheme: O(n log n) pivot-based tree construction."""

    name = "PivotRepair"

    def __init__(self, tracer=NULL_TRACER):
        self.tracer = tracer

    def _build(
        self,
        snapshot: BandwidthSnapshot,
        requestor: int,
        candidates: list[int],
        k: int,
    ) -> RepairPlan:
        tree = build_pivot_tree(
            snapshot, requestor, candidates, k, tracer=self.tracer
        )
        return RepairPlan(
            scheme=self.name,
            requestor=requestor,
            helpers=tree.helpers,
            tree=tree,
            bmin=tree.bmin(snapshot),
        )
