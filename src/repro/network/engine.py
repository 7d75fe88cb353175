"""Incrementally-updated max-min allocation engine.

The reference allocator (:func:`repro.network.fairness.max_min_allocate`)
recomputes every task's rate from scratch on every event — O(tasks ×
resources) per event.  This module supplies the ``engine="fast"``
replacement: :class:`IncrementalEngine` keeps the constraint graph
(tasks ↔ link resources) registered between events and re-solves only
the connected components actually perturbed by an arrival, finish,
cancellation, rate-cap change, or capacity breakpoint.  Untouched
components keep their piecewise-constant rates.  A component is solved
by the reference's own water-level rounds, keyed by registered column
index instead of resource dict (:meth:`IncrementalEngine._solve_small`),
or in closed form when it is one entity.  After the first round the
rounds pop a heap of column levels instead of scanning every column, so
a densely coupled component costs what its rounds freeze, not rounds ×
columns; the heap finds the same level and the same freeze group.

Bit-identity of the incremental scheme rests on two invariants of the
reference formulation (see the :mod:`repro.network.fairness` docstring):
per-resource accumulators are only ever advanced by that resource's own
users, with exact integer-valued coefficient sums; and a component's tasks
freeze exactly when the global water level meets the component's local
minimum.  A component solved in isolation therefore reproduces, bit for
bit, what a global solve assigns to it.  The differential harness
(``tests/network/test_engine_differential.py``) enforces this at float
tolerance zero.
"""

from __future__ import annotations

import heapq
import math

from repro.exceptions import SimulationError

__all__ = ["IncrementalEngine"]


class IncrementalEngine:
    """Component-local rate recomputation for :class:`FluidSimulator`.

    The simulator registers each allocation entity once; the engine keeps
    the task↔resource constraint graph, a capacity snapshot valid for the
    current piecewise-constant epoch, and a dirty set of perturbed
    entities.  :meth:`ensure` re-solves (by size tier, see
    :meth:`_solve`) only the connected components reachable from the
    dirty set — everything else keeps its previous, still-bit-exact
    rate.

    Perturbation sources and who reports them:

    * arrival — :meth:`add_entity` (the new entity is dirty)
    * finish / cancellation — :meth:`remove_entity` (remaining users of
      the departed entity's links are dirty)
    * rate-cap change — :meth:`touch` (the re-capped entity is dirty)
    * capacity breakpoint — detected inside :meth:`ensure` by diffing the
      snapshot against ``network.capacities_at(now)`` whenever ``now``
      leaves the epoch ``[snapshot_time, next_change_after(snapshot_time))``;
      users of every column whose capacity actually changed are dirty.

    A pure time advance inside the epoch with an empty dirty set is a
    no-op: rates are piecewise-constant between events, so there is
    nothing to recompute.  Same-instant submissions batch naturally —
    they accumulate in the dirty set and one :meth:`ensure` solves their
    union of components once.
    """

    def __init__(self, network):
        self.network = network
        self._col_of: dict = {}
        self._resources: list = []
        self._capacity: list[float] = []
        self._users: list[set[int]] = []
        self._entities: dict[int, object] = {}
        self._entity_cols: dict[int, list[int]] = {}
        self._entity_coeffs: dict[int, list[float]] = {}
        self._dirty: set[int] = set()
        self._new_cols: list[int] = []
        self._snapshot_time: float | None = None
        self._snapshot_until: float = -math.inf
        self._snapshot_caps: dict = {}
        #: Solves run, by the size tier :meth:`_solve` dispatched to.
        #: Engine-side only: ``SimulatorStats.as_dict()`` feeds recorded
        #: digests and must not grow keys.
        self.solves_by_tier: dict[str, int] = {"single": 0, "small": 0}
        #: Entities re-rated across all solves (component sizes summed);
        #: ``solved_entities / (solves * len(entities))`` ≪ 1 is the
        #: incremental win becoming visible.
        self.solved_entities: int = 0
        #: Entity ids whose rate actually *moved* in the most recent
        #: :meth:`ensure` solve (most of a component keeps its exact
        #: rate).  Only their tasks can have changed aggregates, so a
        #: tracer need not rescan every live task after a solve.
        self.last_changed: list[int] = []

    @property
    def solves(self) -> int:
        """Solves actually run, both tiers — the fast engine's analogue
        of ``SimulatorStats.rate_recomputations``."""
        return sum(self.solves_by_tier.values())

    # -- registration --------------------------------------------------
    def add_entity(self, entity_id: int, entity) -> None:
        """Register a live entity; it joins the dirty set."""
        cols: list[int] = []
        coeffs: list[float] = []
        for resource, coeff in entity.usage.items():
            if coeff < 0:
                raise SimulationError(
                    f"negative usage coefficient on {resource}"
                )
            if coeff == 0:
                continue
            col = self._col_of.get(resource)
            if col is None:
                col = len(self._resources)
                self._col_of[resource] = col
                self._resources.append(resource)
                self._capacity.append(0.0)
                self._users.append(set())
                self._new_cols.append(col)
            cols.append(col)
            coeffs.append(float(coeff))
            self._users[col].add(entity_id)
        self._entities[entity_id] = entity
        self._entity_cols[entity_id] = cols
        self._entity_coeffs[entity_id] = coeffs
        self._dirty.add(entity_id)

    def remove_entity(self, entity_id: int) -> None:
        """Unregister a finished/cancelled entity; its neighbours become
        dirty (their component lost a competitor)."""
        cols = self._entity_cols.pop(entity_id)
        self._entity_coeffs.pop(entity_id)
        self._entities.pop(entity_id)
        self._dirty.discard(entity_id)
        for col in cols:
            users = self._users[col]
            users.discard(entity_id)
            self._dirty.update(users)

    def touch(self, entity_id: int) -> None:
        """Mark an entity perturbed in place (rate-cap change)."""
        if entity_id in self._entities:
            self._dirty.add(entity_id)

    # -- solving -------------------------------------------------------
    def ensure(self, now: float) -> bool:
        """Bring every registered entity's rate up to date at ``now``.

        Returns True if a solve actually ran.
        """
        if (
            self._new_cols
            or self._snapshot_time is None
            or now >= self._snapshot_until
        ):
            self._refresh_capacities(now)
        if not self._dirty:
            return False
        component = self._closure()
        if component:
            self.last_changed = []
            self._solve(sorted(component))
            return True
        return False

    def _refresh_capacities(self, now: float) -> None:
        """Re-snapshot capacities; users of changed columns become dirty.

        Within one epoch ``[t0, next_change_after(t0))`` capacities are
        constant (the topology contract the event loop already relies
        on), so the snapshot is refreshed at most once per breakpoint —
        not once per event, which is what makes ``capacities_at`` drop
        out of the per-event cost.
        """
        if self._snapshot_time is None or now >= self._snapshot_until:
            capacities = self.network.capacities_at(now)
            self._snapshot_caps = capacities
            for col, resource in enumerate(self._resources):
                value = capacities.get(resource, 0.0)
                if value != self._capacity[col]:
                    self._capacity[col] = value
                    self._dirty.update(self._users[col])
            self._snapshot_time = now
            self._snapshot_until = self.network.next_change_after(now)
        else:
            # Only new columns need filling, and the epoch is still
            # valid, so its cached capacity dict answers them — no
            # O(nodes) network walk for a mere arrival.
            for col in self._new_cols:
                self._capacity[col] = self._snapshot_caps.get(
                    self._resources[col], 0.0
                )
        self._new_cols.clear()

    def _closure(self) -> set[int]:
        """Connected components of the constraint graph reachable from
        the dirty set (entities linked through shared columns)."""
        todo = [e for e in self._dirty if e in self._entities]
        self._dirty.clear()
        seen_entities = set(todo)
        seen_cols: set[int] = set()
        while todo:
            entity_id = todo.pop()
            for col in self._entity_cols[entity_id]:
                if col in seen_cols:
                    continue
                seen_cols.add(col)
                for other in self._users[col]:
                    if other not in seen_entities:
                        seen_entities.add(other)
                        todo.append(other)
        return seen_entities

    def _solve(self, entity_ids: list[int]) -> None:
        """Solve the gathered components; assign rates.

        Two tiers, bit-identical to the reference: one entity is a
        closed form, anything larger runs the water-level rounds over
        the registered column lists.
        """
        self.solved_entities += len(entity_ids)
        if len(entity_ids) == 1:
            self._solve_single(entity_ids[0])
            self.solves_by_tier["single"] += 1
        else:
            self._solve_small(entity_ids)
            self.solves_by_tier["small"] += 1

    def _solve_single(self, entity_id: int) -> None:
        """Closed form for a component of one entity.

        Replays the reference loop's single round exactly: level =
        min over resources of ``capacity / coeff`` (``frozen_used`` is
        zero, and ``c - 0.0 == c`` bitwise for the non-negative
        capacities traces produce), capped by ``max_rate``, clamped at
        zero on assignment.
        """
        entity = self._entities[entity_id]
        cols = self._entity_cols[entity_id]
        max_rate = entity.max_rate
        if not cols or (max_rate is not None and max_rate <= 0):
            if entity.rate != 0.0:
                entity.rate = 0.0
                self.last_changed.append(entity_id)
            return
        level = math.inf
        for col, coeff in zip(cols, self._entity_coeffs[entity_id]):
            value = self._capacity[col] / coeff
            if value < level:
                level = value
        if max_rate is not None and max_rate < level:
            level = max_rate
        if not math.isfinite(level):
            raise SimulationError("unconstrained task in max-min allocation")
        rate = level if level > 0.0 else 0.0
        if entity.rate != rate:
            entity.rate = rate
            self.last_changed.append(entity_id)

    def _solve_small(self, entity_ids: list[int]) -> None:
        """Any multi-entity component: water-level rounds over columns.

        The rounds of :func:`repro.network.fairness.max_min_allocate`,
        operation for operation — ``(capacity - frozen_used) /
        active_coeff`` per live column, the exact-equality freeze group,
        one coefficient sum per frozen column, then ``frozen_used +=
        sum * assigned`` — but keyed by the registered column indices,
        so a solve builds no resource-keyed dict and hashes no tuple.
        ``entity_ids`` is sorted, which makes every sum run in the
        reference's enumeration order.  A component is closed under
        shared columns, so a column's registered ``_users`` are exactly
        its users within the component.

        Round one takes ``min`` over every column's level and scans them
        once for the tie group: it reads every column anyway, and most
        components finish in it or one round later.  If entities are
        still rising after it, the live levels go into a ``(level,
        col)`` heap; each later round pops the minimum and every entry
        equal to it, skips an entry whose column has since been
        re-derived or retired (``levels.get(col) != value``), and pushes
        each re-derived level.  A round therefore costs what it freezes,
        not the component's column count.  The rate caps are one sorted
        ``(cap, entity)`` list read through a moving index.  Float
        ``min`` and ``==`` are exact, so the level and the set of
        columns saturated at it are the ones a full scan finds.
        """
        entities = self._entities
        entity_cols = self._entity_cols
        entity_coeffs = self._entity_coeffs
        capacity = self._capacity
        users = self._users
        rates = dict.fromkeys(entity_ids, 0.0)
        #: Still-rising entities.
        active: set[int] = set()
        #: ``(cap, entity)`` of every capped active entity, ascending.
        capped: list[tuple[float, int]] = []
        active_coeff: dict[int, float] = {}
        for entity_id in entity_ids:
            cols = entity_cols[entity_id]
            max_rate = entities[entity_id].max_rate
            if not cols or (max_rate is not None and max_rate <= 0):
                continue
            active.add(entity_id)
            # An infinite or NaN cap never binds: ``cap < level`` is
            # false for it, and so is ``cap == level`` at a finite level.
            if max_rate is not None and max_rate < math.inf:
                capped.append((max_rate, entity_id))
            for col, coeff in zip(cols, entity_coeffs[entity_id]):
                active_coeff[col] = active_coeff.get(col, 0.0) + coeff
        capped.sort()
        capped_count = len(capped)
        next_cap = 0
        #: Capacity taken by frozen entities, per column that has any.
        frozen_used: dict[int, float] = {}
        # Saturation level per live column: ``capacity - 0.0`` is
        # ``capacity`` to the bit, so round one divides it directly.  A
        # round only moves the columns its freeze group uses, so only
        # those are re-derived; the rest would recompute to the same bits.
        levels = {
            col: capacity[col] / coeff for col, coeff in active_coeff.items()
        }
        heap: list[tuple[float, int]] | None = None
        while active:
            if heap is None:
                level = min(levels.values()) if levels else math.inf
            else:
                while heap and levels.get(heap[0][1]) != heap[0][0]:
                    heapq.heappop(heap)
                level = heap[0][0] if heap else math.inf
            while (
                next_cap < capped_count and capped[next_cap][1] not in active
            ):
                next_cap += 1
            if next_cap < capped_count and capped[next_cap][0] < level:
                level = capped[next_cap][0]
            if not math.isfinite(level):
                raise SimulationError(
                    "unconstrained task in max-min allocation"
                )
            newly: set[int] = set()
            index = next_cap
            while index < capped_count and capped[index][0] == level:
                entity_id = capped[index][1]
                if entity_id in active:
                    newly.add(entity_id)
                index += 1
            if heap is None:
                for col, value in levels.items():
                    if value == level:
                        newly.update(users[col] & active)
            else:
                while heap and heap[0][0] == level:
                    value, col = heapq.heappop(heap)
                    if levels.get(col) == value:
                        newly.update(users[col] & active)
            if not newly:
                raise SimulationError(
                    "progressive filling failed to converge"
                )
            assigned = level if level > 0.0 else 0.0
            freeze_sum: dict[int, float] = {}
            for entity_id in sorted(newly):
                rates[entity_id] = assigned
                active.remove(entity_id)
                for col, coeff in zip(
                    entity_cols[entity_id], entity_coeffs[entity_id]
                ):
                    freeze_sum[col] = freeze_sum.get(col, 0.0) + coeff
            for col, coeff in freeze_sum.items():
                used = frozen_used.get(col, 0.0) + coeff * assigned
                frozen_used[col] = used
                still_rising = active_coeff[col] - coeff
                active_coeff[col] = still_rising
                if still_rising > 0:
                    value = (capacity[col] - used) / still_rising
                    levels[col] = value
                    if heap is not None:
                        heapq.heappush(heap, (value, col))
                else:
                    del levels[col]
            if heap is None and active:
                heap = [(value, col) for col, value in levels.items()]
                heapq.heapify(heap)
        for entity_id, rate in rates.items():
            entity = entities[entity_id]
            if entity.rate != rate:
                entity.rate = rate
                self.last_changed.append(entity_id)
