"""Rack-aware pipelined repair (the paper's Section IV-F future work).

"To address the topology heterogeneity, we can construct the PivotRepair's
pipelining tree such that the pipelined repair can be performed locally
within racks as much as possible."  This module implements that idea:

* :class:`RackSnapshot` extends the flat bandwidth view with rack
  membership and per-rack link bandwidths;
* :func:`rack_bmin` generalises Lemma 1 — a tree's bottleneck now also
  includes each rack uplink/downlink divided by the number of cross-rack
  tree edges traversing it;
* :class:`RackAwarePivotPlanner` arranges the selected pivots so every rack
  aggregates locally into one *rack head* and only rack heads cross the
  oversubscribed core, minimising cross-rack edges to at most one per rack.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from repro.core.algorithm import insert_pivots, select_pivots
from repro.core.bandwidth_view import BandwidthSnapshot
from repro.core.plan import RepairPlan, RepairPlanner
from repro.core.tree import RepairTree
from repro.exceptions import PlanningError
from repro.network.hierarchical import RackNetwork


@dataclass(frozen=True)
class RackSnapshot(BandwidthSnapshot):
    """Bandwidth view of a two-level (rack) topology at one instant."""

    rack_of: Mapping[int, int] = field(default_factory=dict)
    rack_up: Mapping[int, float] = field(default_factory=dict)
    rack_down: Mapping[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        super().__post_init__()
        if set(self.rack_of) != set(self.up):
            raise PlanningError("rack_of must cover exactly the nodes")
        for node, rack in self.rack_of.items():
            if rack not in self.rack_up or rack not in self.rack_down:
                raise PlanningError(
                    f"node {node} in rack {rack} without rack link data"
                )

    @classmethod
    def from_network(cls, network: RackNetwork, t: float) -> RackSnapshot:
        capacities = network.capacities_at(t)
        nodes, racks = network.node_ids, range(network.rack_count)
        return cls(
            up={n: capacities["up", n] for n in nodes},
            down={n: capacities["down", n] for n in nodes},
            time=t,
            rack_of={n: network.rack_of(n) for n in nodes},
            rack_up={r: capacities["rack_up", r] for r in racks},
            rack_down={r: capacities["rack_down", r] for r in racks},
        )


def cross_rack_edges(
    tree: RepairTree, rack_of: Mapping[int, int]
) -> list[tuple[int, int]]:
    """The tree's (child, parent) edges whose endpoints sit in two racks."""
    return [
        (child, parent)
        for child, parent in tree.edges()
        if rack_of[child] != rack_of[parent]
    ]


def rack_bmin(tree: RepairTree, snapshot: RackSnapshot) -> float:
    """Bottleneck bandwidth of a tree on a rack topology.

    Extends Lemma 1: besides every node's term, each rack uplink carries
    one pipeline stream per cross-rack edge leaving the rack (and its
    downlink one per cross-rack edge entering it), so those links divide
    among the streams like a relaying node's downlink does.
    """
    bottleneck = tree.bmin(snapshot)
    out_count: dict[int, int] = {}
    in_count: dict[int, int] = {}
    for child, parent in cross_rack_edges(tree, snapshot.rack_of):
        src_rack = snapshot.rack_of[child]
        dst_rack = snapshot.rack_of[parent]
        out_count[src_rack] = out_count.get(src_rack, 0) + 1
        in_count[dst_rack] = in_count.get(dst_rack, 0) + 1
    for rack, count in out_count.items():
        bottleneck = min(bottleneck, snapshot.rack_up[rack] / count)
    for rack, count in in_count.items():
        bottleneck = min(bottleneck, snapshot.rack_down[rack] / count)
    return bottleneck


class RackAwarePivotPlanner(RepairPlanner):
    """Pivot-based tree construction that aggregates within racks first.

    The k pivots are chosen by theo(.) exactly as in Algorithm 1.  Pivots
    are then grouped by rack; each remote group runs Algorithm 1's
    Inserting step locally, rooted at the group's best relay (largest
    min(up, down)), so only that *rack head* uploads across the core — at
    most one cross-rack edge leaves each rack.

    The heads themselves can be arranged in two ways with different rack
    footprints: a *star* (every head uploads to the requestor; the
    requestor rack's downlink divides among the heads) or a *chain* (heads
    relay one another; every rack link carries at most one stream).  The
    planner builds both, also scores Algorithm 1's rack-oblivious flat
    tree, and returns whichever maximises the rack-aware bottleneck
    bandwidth (:func:`rack_bmin`) — so it never loses to the flat plan it
    extends.
    """

    name = "RackAwarePivotRepair"

    def _build(
        self,
        snapshot: BandwidthSnapshot,
        requestor: int,
        candidates: list[int],
        k: int,
    ) -> RepairPlan:
        if not isinstance(snapshot, RackSnapshot):
            raise PlanningError(
                "RackAwarePivotPlanner needs a RackSnapshot "
                "(use RackSnapshot.from_network)"
            )
        pivots = select_pivots(snapshot, candidates, k)
        local_parents, heads = self._local_subtrees(
            snapshot, requestor, pivots
        )
        arrangements: list[tuple[str, RepairTree]] = []
        if heads:
            star = dict(local_parents)
            for head in heads:
                star[head] = requestor
            arrangements.append(("star", RepairTree(requestor, star)))
            chain = dict(local_parents)
            previous = requestor
            for head in sorted(
                heads, key=lambda n: (-snapshot.theo(n), n)
            ):
                chain[head] = previous
                previous = head
            arrangements.append(("chain", RepairTree(requestor, chain)))
        else:
            arrangements.append(
                ("local", RepairTree(requestor, dict(local_parents)))
            )
        from repro.core.algorithm import build_pivot_tree

        arrangements.append(
            ("flat", build_pivot_tree(snapshot, requestor, candidates, k))
        )
        best_name, best_tree = max(
            arrangements, key=lambda item: rack_bmin(item[1], snapshot)
        )
        return RepairPlan(
            scheme=self.name,
            requestor=requestor,
            helpers=best_tree.helpers,
            tree=best_tree,
            bmin=rack_bmin(best_tree, snapshot),
            notes={"arrangement": best_name},
        )

    def _local_subtrees(
        self,
        snapshot: RackSnapshot,
        requestor: int,
        pivots: Sequence[int],
    ) -> tuple[dict[int, int], list[int]]:
        """Per-rack aggregation subtrees; returns (parents, remote heads)."""
        groups: dict[int, list[int]] = {}
        for pivot in pivots:
            groups.setdefault(snapshot.rack_of[pivot], []).append(pivot)
        parents: dict[int, int] = {}
        heads: list[int] = []
        for rack, members in groups.items():
            if rack == snapshot.rack_of[requestor]:
                # Local helpers aggregate under the requestor directly.
                parents.update(
                    insert_pivots(
                        snapshot,
                        requestor,
                        sorted(
                            members, key=lambda n: (-snapshot.theo(n), n)
                        ),
                    )
                )
                continue
            head = max(members, key=lambda n: (snapshot.theo(n), -n))
            rest = sorted(
                (n for n in members if n != head),
                key=lambda n: (-snapshot.theo(n), n),
            )
            parents.update(insert_pivots(snapshot, head, rest))
            heads.append(head)
        return parents, heads
