"""Instantaneous view of per-node available bandwidths.

Planners work on a :class:`BandwidthSnapshot` — the Master's view of every
node's available uplink/downlink bandwidth at planning time (the paper's
Master "generates a repair scheme with the instant bandwidths situation",
Section V-A).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field

from repro.exceptions import PlanningError
from repro.network.topology import StarNetwork


@dataclass(frozen=True)
class BandwidthSnapshot:
    """Available up/down bandwidth of every node at one instant."""

    up: Mapping[int, float]
    down: Mapping[int, float]
    time: float = field(default=0.0)

    def __post_init__(self) -> None:
        if set(self.up) != set(self.down):
            raise PlanningError("snapshot up/down node sets differ")
        for node in self.up:
            if self.up[node] < 0 or self.down[node] < 0:
                raise PlanningError(f"negative bandwidth on node {node}")

    @classmethod
    def from_network(
        cls, network: StarNetwork, t: float
    ) -> BandwidthSnapshot:
        """Sample a network's available bandwidths at time ``t``.

        One ``capacities_at`` read: the row the simulator's engine and
        every observer of the same second share.
        """
        capacities = network.capacities_at(t)
        nodes = network.node_ids
        up = {node: capacities["up", node] for node in nodes}
        down = {node: capacities["down", node] for node in nodes}
        return cls(up=up, down=down, time=t)

    @property
    def nodes(self) -> list[int]:
        return sorted(self.up)

    def up_of(self, node: int) -> float:
        self._check(node)
        return self.up[node]

    def down_of(self, node: int) -> float:
        self._check(node)
        return self.down[node]

    def theo(self, node: int) -> float:
        """Theoretical available node bandwidth min{up, down} (§IV-B)."""
        return min(self.up_of(node), self.down_of(node))

    def link(self, src: int, dst: int) -> float:
        """Available bandwidth of directed link src -> dst (Figure 3)."""
        if src == dst:
            raise PlanningError(f"self-link on node {src}")
        return min(self.up_of(src), self.down_of(dst))

    def _check(self, node: int) -> None:
        if node not in self.up:
            raise PlanningError(f"node {node} not in snapshot")


def best_uplinks(
    snapshot: BandwidthSnapshot, nodes: Iterable[int], k: int
) -> list[int]:
    """The ``k`` of ``nodes`` with the largest uplinks, best first; ties
    go to the smaller id.  A degraded master's shrunken helper set: the
    helpers' uplinks are what its repair waits on.
    """
    return sorted(nodes, key=lambda node: (-snapshot.up_of(node), node))[:k]


@dataclass(frozen=True)
class PairwiseBandwidthSnapshot(BandwidthSnapshot):
    """A snapshot with per-pair link bandwidths on top of node capacities.

    Star topologies decompose every link into the sender's uplink and the
    receiver's downlink; real networks add pairwise effects (cross-switch
    paths, flaky NICs, in-network contention).  ``link_caps[(src, dst)]``
    caps the corresponding directed link below the node-derived value.
    This is the model in which forwarding baselines like SMFRepair [55]
    operate — there, relaying through a third node genuinely can beat a
    slow direct link.
    """

    link_caps: Mapping[tuple[int, int], float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        super().__post_init__()
        for (src, dst), cap in self.link_caps.items():
            if src not in self.up or dst not in self.up:
                raise PlanningError(
                    f"link cap on unknown pair ({src}, {dst})"
                )
            if src == dst:
                raise PlanningError(f"link cap on self-pair ({src}, {src})")
            if cap < 0:
                raise PlanningError(
                    f"negative link cap on ({src}, {dst})"
                )

    def link(self, src: int, dst: int) -> float:
        base = super().link(src, dst)
        return min(base, self.link_caps.get((src, dst), base))
