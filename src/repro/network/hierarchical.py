"""Multi-layer (rack-based) network topology.

Section IV-F of the paper: "in modern data center networks, multi-layer
network topologies are common and nodes may reside in different racks ...
the available bandwidth in cross-rack links is typically lower than that in
the same rack."  The paper poses rack-aware pipelining as future work; this
module supplies the substrate for it.

A :class:`RackNetwork` has two levels: every node hangs off its rack's
top-of-rack switch through its own uplink/downlink, and each rack connects
to a non-blocking core through a rack uplink/downlink.  Cross-rack traffic
consumes four resources (node up, rack up, rack down, node down); intra-rack
traffic only the two node links.  Rack links are usually *oversubscribed*:
their capacity is less than the sum of their nodes' edge capacities.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Mapping, Sequence

from repro.exceptions import SimulationError
from repro.network.bandwidth import CapacityRows, NodeBandwidth


class RackNetwork(CapacityRows):
    """Two-level topology: nodes in racks, racks on a core switch."""

    def __init__(
        self,
        node_racks: Sequence[int],
        node_bandwidths: Sequence[NodeBandwidth],
        rack_bandwidths: Sequence[NodeBandwidth],
    ):
        if len(node_racks) != len(node_bandwidths):
            raise SimulationError(
                "node_racks and node_bandwidths lengths differ"
            )
        if not node_bandwidths:
            raise SimulationError("a network needs at least one node")
        rack_count = len(rack_bandwidths)
        for node, rack in enumerate(node_racks):
            if not 0 <= rack < rack_count:
                raise SimulationError(
                    f"node {node} assigned to unknown rack {rack}"
                )
        self._racks = list(node_racks)
        self._nodes = list(node_bandwidths)
        self._rack_links = list(rack_bandwidths)
        # Traces are immutable; merge all node + rack breakpoints once so
        # ``next_change_after`` is a single bisect per event and
        # ``capacities_at`` one row per visited epoch.
        self._keep_rows(
            ("up", "down", self._nodes),
            ("rack_up", "rack_down", self._rack_links),
        )

    @property
    def rack_count(self) -> int:
        return len(self._rack_links)

    def rack_of(self, node: int) -> int:
        self._check(node)
        return self._racks[node]

    def nodes_in_rack(self, rack: int) -> list[int]:
        self._check_rack(rack)
        return [n for n, r in enumerate(self._racks) if r == rack]

    def same_rack(self, a: int, b: int) -> bool:
        return self.rack_of(a) == self.rack_of(b)

    # ------------------------------------------------------------------
    # Fluid-simulator topology interface
    # ------------------------------------------------------------------
    def capacities_at(self, t: float) -> Mapping:
        """Every node and rack link's capacity at ``t``: the epoch's
        shared row, to be read (copy it to change it)."""
        return self._row(t)

    def edge_usage(self, src: int, dst: int) -> dict:
        self._check(src)
        self._check(dst)
        if src == dst:
            raise SimulationError(f"self-edge on node {src}")
        usage = {("up", src): 1.0, ("down", dst): 1.0}
        if not self.same_rack(src, dst):
            usage[("rack_up", self.rack_of(src))] = 1.0
            usage[("rack_down", self.rack_of(dst))] = 1.0
        return usage

    def next_change_after(self, t: float) -> float:
        index = bisect_right(self._breakpoints, t)
        if index >= len(self._breakpoints):
            return math.inf
        return self._breakpoints[index]

    def _check_rack(self, rack: int) -> None:
        if not 0 <= rack < self.rack_count:
            raise SimulationError(f"unknown rack {rack}")
