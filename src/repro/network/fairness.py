"""Max-min fair bandwidth allocation for coupled pipelined tasks.

A pipelined repair task moves data along every edge of its tree at a single
common rate (the pipeline cannot outrun its slowest stage).  Each directed
edge ``src -> dst`` consumes the sender's uplink and the receiver's downlink,
so a task's footprint on a resource is *the number of its edges touching that
resource* (a non-leaf node with two children draws twice its rate from its
downlink — cf. Figure 1(d), where the relaying receiver halves each link).

Allocation uses progressive filling in its **water-level** form: every
active task's rate equals a common level that rises round by round; each
round the level jumps straight to the smallest saturation level among the
remaining resources (or the smallest rate cap), the tasks crossing that
bottleneck freeze at the level, and filling continues with the rest.  The
result is the unique max-min fair allocation.

The arithmetic is deliberately **component-decomposable**: a resource's
saturation level ``(capacity - frozen_used) / active_coeff`` only ever
reads state accumulated from that resource's own users, and the frozen-use
accumulator advances by one fused ``used += coeff_sum * level`` update per
freeze round.  Allocating a connected component of the task/resource
constraint graph in isolation therefore reproduces, bit for bit, what a
global allocation assigns to it — the invariant the incremental fast
engine (:mod:`repro.network.engine`) is built on, and what the
differential harness (``tests/network/test_engine_differential.py``)
asserts at float tolerance zero.  :class:`ReferenceEngine` is this
allocator behind the fast engine's interface, so the simulator drives
both the same way.
"""

from __future__ import annotations

import math
from collections.abc import Hashable, Mapping, Sequence

from repro.exceptions import SimulationError

Resource = Hashable


def usage_from_edges(
    edges: Sequence[tuple[int, int]],
) -> dict[Resource, float]:
    """Resource-usage coefficients of a task transferring on ``edges``.

    Resources are ``("up", node)`` and ``("down", node)``.
    """
    usage: dict[Resource, float] = {}
    for src, dst in edges:
        if src == dst:
            raise SimulationError(f"self-edge on node {src}")
        usage[("up", src)] = usage.get(("up", src), 0.0) + 1.0
        usage[("down", dst)] = usage.get(("down", dst), 0.0) + 1.0
    return usage


def max_min_allocate(
    usages: Sequence[Mapping[Resource, float]],
    capacities: Mapping[Resource, float],
    rate_caps: Sequence[float | None] | None = None,
) -> list[float]:
    """Compute max-min fair rates for tasks with coupled resource usage.

    Args:
        usages: per-task mapping from resource to usage coefficient (how many
            units of the resource one unit of task rate consumes).
        capacities: available capacity per resource.  Resources used by a
            task but absent here are treated as capacity 0.
        rate_caps: optional per-task rate ceiling (None = uncapped).  Caps
            model rate-throttled traffic: repair jobs that production
            systems deliberately limit, or foreground flows replayed at
            their recorded intensity.

    Returns:
        One rate per task, in the order given.
    """
    for usage in usages:
        for resource, coeff in usage.items():
            if coeff < 0:
                raise SimulationError(
                    f"negative usage coefficient on {resource}"
                )
    if rate_caps is None:
        rate_caps = [None] * len(usages)
    if len(rate_caps) != len(usages):
        raise SimulationError("rate_caps length must match usages")
    for cap in rate_caps:
        if cap is not None and cap < 0:
            raise SimulationError("rate caps cannot be negative")

    rates = [0.0] * len(usages)
    active = {
        i
        for i, usage in enumerate(usages)
        if any(c > 0 for c in usage.values())
        and (rate_caps[i] is None or rate_caps[i] > 0)
    }
    # Map each resource to its active users, once, up front.  Inactive
    # tasks stay at rate 0 and contribute nothing to any resource.
    users: dict[Resource, list[tuple[int, float]]] = {}
    for i in sorted(active):
        for resource, coeff in usages[i].items():
            if coeff > 0:
                users.setdefault(resource, []).append((i, coeff))
    # Per-resource accumulators.  ``active_coeff`` is the total usage of
    # still-rising tasks; ``frozen_used`` the capacity consumed by frozen
    # ones.  Both advance by order-independent sums (the coefficients are
    # edge counts) so the result does not depend on task enumeration
    # order — one half of the component-decomposability contract.
    frozen_used: dict[Resource, float] = {}
    active_coeff: dict[Resource, float] = {}
    for resource, members in users.items():
        total = 0.0
        for _, coeff in members:
            total += coeff
        active_coeff[resource] = total
        frozen_used[resource] = 0.0

    while active:
        # The water level each remaining resource saturates at, given what
        # the frozen tasks already consume.
        level = math.inf
        levels: dict[Resource, float] = {}
        for resource, coeff in active_coeff.items():
            if coeff <= 0:
                continue
            value = (
                capacities.get(resource, 0.0) - frozen_used[resource]
            ) / coeff
            levels[resource] = value
            if value < level:
                level = value
        # A task's own rate cap is a saturation level of its own.
        for i in active:
            cap = rate_caps[i]
            if cap is not None and cap < level:
                level = cap
        if not math.isfinite(level):
            # No active resource constrains the remaining tasks; they are
            # unconstrained, which cannot happen with well-formed edges.
            raise SimulationError("unconstrained task in max-min allocation")
        # Freeze everything that saturates exactly at this level: tasks
        # whose cap is the level, and every active user of a resource
        # whose saturation level is the level.  Exact float comparison is
        # deliberate — the fast engine computes the same levels with the
        # same operations, so the grouping matches bit for bit.
        newly: set[int] = set()
        for i in active:
            cap = rate_caps[i]
            if cap is not None and cap == level:
                newly.add(i)
        saturated = [r for r, value in levels.items() if value == level]
        for resource in saturated:
            for i, _ in users[resource]:
                if i in active:
                    newly.add(i)
        if not newly:
            raise SimulationError("progressive filling failed to converge")
        # Clamp pathological (float-noise) negative levels to zero; the
        # frozen-use update uses the clamped value so accounting matches
        # the assigned rates.
        assigned = level if level > 0.0 else 0.0
        freeze_sum: dict[Resource, float] = {}
        for i in sorted(newly):
            rates[i] = assigned
            for resource, coeff in usages[i].items():
                if coeff > 0:
                    freeze_sum[resource] = (
                        freeze_sum.get(resource, 0.0) + coeff
                    )
        for resource, coeff in freeze_sum.items():
            frozen_used[resource] += coeff * assigned
            active_coeff[resource] -= coeff
        active -= newly
    return rates


class ReferenceEngine:
    """:func:`max_min_allocate` behind :class:`IncrementalEngine`'s
    interface: the differential oracle of ``FluidSimulator``.

    Every :meth:`ensure` re-solves every live entity, in registration
    order, at ``network.capacities_at(now)`` with the entities' rate
    caps, and reports the entities whose rate moved in
    :attr:`last_changed`.  It always solves, so ``ensure`` is always
    True.
    """

    def __init__(self, network):
        self.network = network
        self._entities: dict[int, object] = {}
        #: Entity ids whose rate moved in the last :meth:`ensure`.
        self.last_changed: list[int] = []

    def add_entity(self, entity_id: int, entity) -> None:
        self._entities[entity_id] = entity

    def remove_entity(self, entity_id: int) -> None:
        del self._entities[entity_id]

    def touch(self, entity_id: int) -> None:
        """A re-cap needs no bookkeeping: every solve reads every cap."""

    def ensure(self, now: float) -> bool:
        entities = self._entities
        rates = max_min_allocate(
            [e.usage for e in entities.values()],
            self.network.capacities_at(now),
            rate_caps=[e.max_rate for e in entities.values()],
        )
        moved = []
        for (entity_id, entity), rate in zip(entities.items(), rates):
            if entity.rate != rate:
                entity.rate = rate
                moved.append(entity_id)
        self.last_changed = moved
        return True


def allocate_edge_tasks(
    task_edges: Sequence[Sequence[tuple[int, int]]],
    up_capacity: Mapping[int, float],
    down_capacity: Mapping[int, float],
) -> list[float]:
    """Convenience wrapper: max-min rates for tasks given as edge lists."""
    usages = [usage_from_edges(edges) for edges in task_edges]
    capacities: dict[Resource, float] = {}
    for node, cap in up_capacity.items():
        capacities[("up", node)] = cap
    for node, cap in down_capacity.items():
        capacities[("down", node)] = cap
    return max_min_allocate(usages, capacities)
