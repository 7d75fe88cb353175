"""Star (single-switch) cluster topology.

The paper assumes all nodes hang off one non-blocking switch (Section IV-F),
so the only capacity constraints are each node's uplink and downlink.  The
available bandwidth of a directed link ``i -> j`` at time ``t`` is
``min(up_i(t), down_j(t))`` — exactly the assumption stated under Figure 3.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Mapping, Sequence

from repro.network.bandwidth import (
    BandwidthTrace,
    CapacityRows,
    NodeBandwidth,
)
from repro.exceptions import SimulationError


class StarNetwork(CapacityRows):
    """A cluster of nodes connected through a single switch."""

    def __init__(self, nodes: Sequence[NodeBandwidth]):
        if not nodes:
            raise SimulationError("a network needs at least one node")
        self._nodes = list(nodes)
        # Merged once: traces are immutable, so the set of breakpoints is
        # fixed at construction.  Turns the event loop's per-event
        # ``next_change_after`` from an O(nodes) scan into one bisect, and
        # names the epochs ``capacities_at`` keeps one row each for.
        self._keep_rows(("up", "down", self._nodes))

    @classmethod
    def constant(
        cls, ups: Sequence[float], downs: Sequence[float]
    ) -> StarNetwork:
        """Build a static network from per-node up/down capacities."""
        if len(ups) != len(downs):
            raise SimulationError(
                f"{len(ups)} uplinks but {len(downs)} downlinks"
            )
        return cls(
            [NodeBandwidth.constant(u, d) for u, d in zip(ups, downs)]
        )

    @classmethod
    def uniform(cls, node_count: int, capacity: float) -> StarNetwork:
        """A homogeneous network (every link has the same capacity)."""
        return cls.constant([capacity] * node_count, [capacity] * node_count)

    @classmethod
    def from_traces(
        cls,
        up_traces: Sequence[BandwidthTrace],
        down_traces: Sequence[BandwidthTrace],
    ) -> StarNetwork:
        if len(up_traces) != len(down_traces):
            raise SimulationError("uplink/downlink trace counts differ")
        return cls(
            [NodeBandwidth(u, d) for u, d in zip(up_traces, down_traces)]
        )

    def next_change_after(self, t: float) -> float:
        """Earliest capacity breakpoint strictly after ``t`` on any node."""
        index = bisect_right(self._breakpoints, t)
        if index >= len(self._breakpoints):
            return math.inf
        return self._breakpoints[index]

    # ------------------------------------------------------------------
    # Fluid-simulator topology interface
    # ------------------------------------------------------------------
    def capacities_at(self, t: float) -> Mapping:
        """All shared resources and their capacities at time ``t``.

        In a star topology the only resources are each node's uplink and
        downlink (the switch is non-blocking).  The mapping is the
        epoch's shared row: read it, copy it to change it.
        """
        return self._row(t)

    def edge_usage(self, src: int, dst: int) -> dict:
        """Resources one unit of rate on the directed edge src -> dst uses."""
        self._check(src)
        self._check(dst)
        if src == dst:
            raise SimulationError(f"self-edge on node {src}")
        return {("up", src): 1.0, ("down", dst): 1.0}
