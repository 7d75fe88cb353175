"""SMFRepair-style baseline: multi-level forwarding through idle nodes.

SMFRepair [Zhou et al., ICPP'21, cited as [55]] "uses idle nodes to bypass
low-bandwidth links in the heterogeneous network": when the direct link
from a helper to its parent is slow, an *idle* node — one that stores no
chunk of the stripe — can relay the stream through two faster links.

The scheme presumes **per-pair** link heterogeneity.  On a pure star
topology a link is ``min(up(src), down(dst))`` and any via-path contains
both of those terms, so forwarding can never beat the direct link and this
planner degenerates to RP's chain (a property the tests pin down).  Under
a :class:`~repro.core.bandwidth_view.PairwiseBandwidthSnapshot` — where
individual pairs can be capped below their node-derived bandwidth —
forwarding pays, which is exactly SMFRepair's setting.

Forwarders carry partial results without contributing a chunk, which the
linearity of Section II-B permits (XOR with nothing is the identity); the
byte-accurate cluster path handles them as pass-through relays.
"""

from __future__ import annotations

from repro.core.bandwidth_view import BandwidthSnapshot
from repro.core.plan import RepairPlan, RepairPlanner
from repro.core.tree import RepairTree


def pairwise_bmin(tree: RepairTree, snapshot: BandwidthSnapshot) -> float:
    """Bottleneck bandwidth honouring per-pair link caps.

    Generalises Lemma 1: each edge is additionally capped by
    ``snapshot.link(child, parent)`` (which equals the node-derived value
    on plain snapshots, so this reduces to ``tree.bmin`` there); fan-in
    still divides the parent's downlink.
    """
    bottleneck = tree.bmin(snapshot)
    for child, parent in tree.edges():
        bottleneck = min(bottleneck, snapshot.link(child, parent))
    return bottleneck


class SMFPlanner(RepairPlanner):
    """Chain pipeline with idle-node forwarding around slow pair links."""

    name = "SMFRepair"

    def _build(
        self,
        snapshot: BandwidthSnapshot,
        requestor: int,
        candidates: list[int],
        k: int,
    ) -> RepairPlan:
        helpers = list(candidates)[:k]
        # Forwarders store no chunk of the stripe: every snapshot node
        # that is neither the requestor nor a candidate.
        used = {requestor, *candidates}
        available = [node for node in snapshot.nodes if node not in used]
        parents: dict[int, int] = {}
        forwarders: list[int] = []
        parent = requestor
        for helper in helpers:
            direct = snapshot.link(helper, parent)
            best_idle = None
            best_rate = direct
            for node in available:
                via = min(
                    snapshot.link(helper, node),
                    snapshot.link(node, parent),
                )
                if via > best_rate:
                    best_rate = via
                    best_idle = node
            if best_idle is not None:
                available.remove(best_idle)
                forwarders.append(best_idle)
                parents[best_idle] = parent
                parents[helper] = best_idle
            else:
                parents[helper] = parent
            parent = helper
        tree = RepairTree(requestor, parents)
        return RepairPlan(
            scheme=self.name,
            requestor=requestor,
            helpers=sorted(helpers),
            tree=tree,
            bmin=pairwise_bmin(tree, snapshot),
            notes={"forwarders": sorted(forwarders)},
        )
