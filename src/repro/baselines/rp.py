"""Repair Pipelining (RP) baseline [Li et al., USENIX ATC'17].

RP arranges the k helpers as a chain ending at the requestor and pipelines
slices along it.  In a homogeneous network no link carries more traffic than
another, but the chain is congestion-oblivious: the slowest node on the path
bottlenecks the whole pipeline (Section III-B, Figure 3(a)).

Helper choice and ordering follow the supplied candidate order (node-id
order in our experiments), mirroring RP's lack of bandwidth awareness.
"""

from __future__ import annotations

from repro.core.bandwidth_view import BandwidthSnapshot
from repro.core.plan import RepairPlan, RepairPlanner
from repro.core.tree import RepairTree


class RPPlanner(RepairPlanner):
    """Chain-pipeline planner: the first k candidates, in the order given."""

    name = "RP"

    def _build(
        self,
        snapshot: BandwidthSnapshot,
        requestor: int,
        candidates: list[int],
        k: int,
    ) -> RepairPlan:
        tree = RepairTree.chain(requestor, list(candidates)[:k])
        return RepairPlan(
            scheme=self.name,
            requestor=requestor,
            helpers=tree.helpers,
            tree=tree,
            bmin=tree.bmin(snapshot),
        )
