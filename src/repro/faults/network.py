"""Fault-aware network wrapper for the fluid simulator.

:class:`FaultyNetwork` wraps any topology exposing the simulator interface
(``capacities_at``, ``edge_usage``, ``next_change_after`` — both
:class:`~repro.network.topology.StarNetwork` and
:class:`~repro.network.hierarchical.RackNetwork` qualify) and applies a
:class:`~repro.faults.plan.FaultPlan` to it: per-node uplink/downlink
capacities are multiplied by the plan's factor at query time (zero once a
node is dead), and the plan's breakpoints join the base network's capacity
breakpoints, so the fluid simulator re-allocates rates exactly when a fault
begins or ends.  Rack-level resources are passed through untouched.
"""

from __future__ import annotations

from repro.faults.plan import FaultPlan

__all__ = ["FaultyNetwork"]


class FaultyNetwork:
    """A network whose per-node capacities are mutated by a fault plan."""

    def __init__(self, base, plan: FaultPlan):
        self.base = base
        self.plan = plan

    @classmethod
    def wrap(cls, network, plan: FaultPlan | None):
        """Wrap ``network`` unless the plan is empty or already applied."""
        if plan is None or not plan:
            return network
        if isinstance(network, cls) and network.plan is plan:
            return network
        return cls(network, plan)

    def __len__(self) -> int:
        return len(self.base)

    @property
    def node_ids(self):
        return self.base.node_ids

    # ------------------------------------------------------------------
    # Fluid-simulator topology interface
    # ------------------------------------------------------------------
    def capacities_at(self, t: float) -> dict:
        # The base answer is the epoch's shared, read-only row: copy it,
        # then apply the factors to the copy.
        capacities = dict(self.base.capacities_at(t))
        for key, capacity in capacities.items():
            kind, node = key
            if kind in ("up", "down"):
                factor = self.plan.capacity_factor(node, kind, t)
                if factor != 1.0:
                    capacities[key] = capacity * factor
        return capacities

    def edge_usage(self, src: int, dst: int) -> dict:
        return self.base.edge_usage(src, dst)

    def next_change_after(self, t: float) -> float:
        return min(
            self.base.next_change_after(t), self.plan.next_change_after(t)
        )

    def __getattr__(self, name: str):
        # Topology-specific extras (rack_of, same_rack, ...) pass through.
        return getattr(self.base, name)

    def __repr__(self) -> str:
        return f"FaultyNetwork({self.base!r}, {self.plan!r})"
