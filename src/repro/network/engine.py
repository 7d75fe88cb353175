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
columns; the heap finds the same level and the same freeze group.  A
column that only one entity uses enters the rounds as that entity's
rate cap, not as a column.  Before any of that, an arrival or a
departure that provably moves no other entity's rate is settled by an
exact certificate over the perturbed entity's own columns, and no
component is gathered or solved
(:meth:`IncrementalEngine._arrival_rate`,
:meth:`IncrementalEngine._departure_is_quiet`).

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

    * arrival — :meth:`add_entity` (the new entity is dirty; if it
      is the only dirty entity, :meth:`ensure` first tries to rate it
      alone, see :meth:`_arrival_rate`)
    * finish / cancellation — :meth:`remove_entity` (remaining users of
      the departed entity's links are dirty, unless
      :meth:`_departure_is_quiet` shows that none of their rates moves)
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
        #: Per entity, ``{column: coefficient}`` in usage order.
        self._usage: dict[int, dict[int, float]] = {}
        self._dirty: set[int] = set()
        #: An entity that :meth:`add_entity` registered onto a column
        #: someone else uses while nothing else was dirty: if it is
        #: still the whole dirty set at :meth:`ensure`, the arrival
        #: certificate may rate it alone.
        self._fresh: int | None = None
        self._new_cols: list[int] = []
        self._snapshot_time: float | None = None
        self._snapshot_until: float = -math.inf
        self._snapshot_caps: dict = {}
        #: Solves run, by the size tier :meth:`_solve` dispatched to.
        #: Engine-side only: ``SimulatorStats.as_dict()`` feeds recorded
        #: digests and must not grow keys.
        self.solves_by_tier: dict[str, int] = {"single": 0, "small": 0}
        #: Perturbations settled by a certificate instead of a solve
        #: (:meth:`_arrival_rate`, :meth:`_departure_is_quiet`).
        self.certified: dict[str, int] = {"arrival": 0, "departure": 0}
        #: False once a premise of the certificates failed: a
        #: coefficient that is not integer-valued was registered, or a
        #: solve's round level was not strictly above the previous one.
        #: Nothing is certified after that.
        self.certifying = True
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
        usage: dict[int, float] = {}
        shared = False
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
            coeff = float(coeff)
            if coeff % 1.0:
                self.certifying = False
            usage[col] = coeff
            users = self._users[col]
            if users:
                shared = True
            users.add(entity_id)
        self._entities[entity_id] = entity
        self._usage[entity_id] = usage
        self._fresh = (
            entity_id if shared and not self._dirty and self.certifying
            else None
        )
        self._dirty.add(entity_id)

    def remove_entity(self, entity_id: int) -> None:
        """Unregister a finished/cancelled entity; its neighbours become
        dirty (their component lost a competitor) unless the departure
        is certified quiet."""
        usage = self._usage.pop(entity_id)
        entity = self._entities.pop(entity_id)
        dirty = self._dirty
        dirty.discard(entity_id)
        users_of = self._users
        shared = False
        for col in usage:
            users = users_of[col]
            users.discard(entity_id)
            if users:
                shared = True
        if not shared:
            return
        if (
            self.certifying
            and not dirty
            and not self._new_cols
            and self._departure_is_quiet(entity.rate, usage)
        ):
            self.certified["departure"] += 1
            return
        self._fresh = None
        for col in usage:
            dirty.update(users_of[col])

    def touch(self, entity_id: int) -> None:
        """Mark an entity perturbed in place (rate-cap change)."""
        if entity_id in self._entities:
            if entity_id != self._fresh:
                self._fresh = None
            self._dirty.add(entity_id)

    # -- solving -------------------------------------------------------
    def ensure(self, now: float) -> bool:
        """Bring every registered entity's rate up to date at ``now``.

        Returns True if a solve actually ran, or the arrival certificate
        rated the one new entity in its place.
        """
        if (
            self._new_cols
            or self._snapshot_time is None
            or now >= self._snapshot_until
        ):
            self._refresh_capacities(now)
        dirty = self._dirty
        if not dirty:
            return False
        fresh = self._fresh
        if fresh is not None:
            self._fresh = None
            if len(dirty) == 1 and fresh in dirty:
                rate = self._arrival_rate(fresh)
                if rate is not None:
                    dirty.clear()
                    self.certified["arrival"] += 1
                    entity = self._entities[fresh]
                    if entity.rate != rate:
                        entity.rate = rate
                        self.last_changed = [fresh]
                    else:
                        self.last_changed = []
                    return True
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
        users_of = self._users
        while todo:
            entity_id = todo.pop()
            for col in self._usage[entity_id]:
                users = users_of[col]
                # A private column's one user is the entity walked.
                if len(users) == 1 or col in seen_cols:
                    continue
                seen_cols.add(col)
                for other in users:
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
        usage = self._usage[entity_id]
        max_rate = entity.max_rate
        if not usage or (max_rate is not None and max_rate <= 0):
            if entity.rate != 0.0:
                entity.rate = 0.0
                self.last_changed.append(entity_id)
            return
        level = math.inf
        for col, coeff in usage.items():
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

        A private column (one registered user) is a rate cap: until its
        user freezes its level stays ``capacity / coeff``, and when the
        round reaches it, it freezes that user alone.  So each entity's
        cap is the least of its finite ``max_rate`` and its private
        levels, and only shared columns enter the rounds.  Every round
        sees the same candidate levels and the same freeze group as
        with the private columns inside, so every rate and every float
        of a shared column is the same.

        Round one takes ``min`` over every column's level and scans them
        once for the tie group: it reads every column anyway, and most
        components finish in it or one round later.  If entities are
        still rising after it, the live levels go into a ``(level,
        col)`` heap; each later round pops the minimum and every entry
        equal to it, skips an entry whose column has since been
        re-derived or retired (``levels.get(col) != value``), and pushes
        each re-derived level.  A round therefore costs what it freezes,
        not the component's shared column count.  The rate caps are one
        sorted ``(cap, entity)`` list read through a moving index.  Float
        ``min`` and ``==`` are exact, so the level and the set of
        columns saturated at it are the ones a full scan finds.

        A round whose level is not strictly above the previous one's
        turns :attr:`certifying` off for good: the certificates read
        each distinct rate as one round.
        """
        entities = self._entities
        entity_usage = self._usage
        capacity = self._capacity
        users = self._users
        rates = dict.fromkeys(entity_ids, 0.0)
        #: Still-rising entities.
        active: set[int] = set()
        #: ``(cap, entity)`` of every capped active entity, ascending.
        capped: list[tuple[float, int]] = []
        active_coeff: dict[int, float] = {}
        #: Per active entity, its ``(col, coeff)`` on shared columns, in
        #: usage order.
        shared: dict[int, list[tuple[int, float]]] = {}
        for entity_id in entity_ids:
            usage = entity_usage[entity_id]
            max_rate = entities[entity_id].max_rate
            if not usage or (max_rate is not None and max_rate <= 0):
                continue
            active.add(entity_id)
            # An infinite or NaN cap never binds, so the fold starts at
            # inf for it: a NaN start would lose every private level.
            cap = math.inf
            if max_rate is not None and max_rate < math.inf:
                cap = max_rate
            pairs = []
            for col, coeff in usage.items():
                if len(users[col]) == 1:
                    value = capacity[col] / coeff
                    if value < cap:
                        cap = value
                else:
                    pairs.append((col, coeff))
                    active_coeff[col] = active_coeff.get(col, 0.0) + coeff
            shared[entity_id] = pairs
            if cap < math.inf:
                capped.append((cap, entity_id))
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
        previous = -math.inf
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
            if level <= previous:
                self.certifying = False
            previous = level
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
                for col, coeff in shared[entity_id]:
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

    # -- certificates --------------------------------------------------
    #
    # Both certificates replay the water-level rounds of
    # :meth:`_solve_small` on the perturbed entity's own columns only,
    # from their users' current rates, with the operations it applies
    # to a column in the same order: ``(capacity - used) / active``,
    # then ``used + freeze_sum * level``, then ``active - freeze_sum``.
    # They are exact under these premises:
    #
    # * coefficients are integer-valued, so a coefficient sum is the
    #   same float in any order (:meth:`add_entity` stops certifying
    #   otherwise);
    # * every rate read is positive and finite, so it is the level of
    #   the round that froze it, unclamped (a certificate that meets
    #   another rate says unknown);
    # * each distinct rate is one round: round levels rise strictly
    #   (:meth:`_solve_small` stops certifying when one does not), so a
    #   column's users that share a rate froze together, and a column's
    #   float state after any round follows from the rates alone;
    # * the rates read are the solve of the current state: departures
    #   certify only when nothing else is dirty and no column is
    #   pending, arrivals only when the new entity is the whole dirty
    #   set after the capacity refresh.
    #
    # A column not replayed has the same users at the same rates before
    # and after the perturbation, so the full solve walks it through
    # the same states; the replayed columns decide whether the full
    # solve's rounds are the old ones, plus or minus the perturbed
    # entity's own.

    def _arrival_rate(self, entity_id: int) -> float | None:
        """The rate a full solve gives a just-registered entity, if it
        moves no other entity's rate; None when that is not certain.

        The new entity's columns are replayed with it still rising
        through every rate their other users froze at, lowest first.
        It freezes at the first level where one of its columns, or its
        cap, is the minimum: that is its rate.  Certain when no user of
        a column at that level is left rising (the column would freeze
        it lower), and when every column, its use now subtracted, stays
        strictly above each later rate of its users (it would bind them
        otherwise).  Columns only fall by an arrival, so no other round
        moves.
        """
        max_rate = self._entities[entity_id].max_rate
        if max_rate is None:
            max_rate = math.inf
        elif not max_rate > 0.0:
            return None
        entities = self._entities
        entity_usage = self._usage
        capacity = self._capacity
        own = entity_usage[entity_id]
        active: dict[int, float] = {}
        used: dict[int, float] = {}
        levels: dict[int, float] = {}
        #: ``(rate, col, freeze_sum)`` of every other user group.
        events: list[tuple[float, int, float]] = []
        for col, coeff in own.items():
            total = coeff
            by_rate: dict[float, float] = {}
            for other in self._users[col]:
                if other == entity_id:
                    continue
                rate = entities[other].rate
                if not 0.0 < rate < math.inf:
                    return None
                share = entity_usage[other][col]
                total += share
                by_rate[rate] = by_rate.get(rate, 0.0) + share
            active[col] = total
            levels[col] = capacity[col] / total
            for rate, share in by_rate.items():
                events.append((rate, col, share))
        events.sort()
        count = len(events)
        index = 0
        level = min(levels.values())
        if max_rate < level:
            level = max_rate
        # Every group below the entity's own level freezes first; its
        # columns stay at or above that level, so strictly above the
        # group's rate.  Levels must keep rising, as the rounds do.
        while index < count and events[index][0] < level:
            rate = events[index][0]
            while index < count and events[index][0] == rate:
                _, col, share = events[index]
                index += 1
                value = used.get(col, 0.0) + share * rate
                used[col] = value
                left = active[col] - share
                active[col] = left
                levels[col] = (capacity[col] - value) / left
            level = min(levels.values())
            if max_rate < level:
                level = max_rate
            if not level > rate:
                return None
        if not 0.0 < level < math.inf:
            return None
        joint: dict[int, float] = {}
        while index < count and events[index][0] == level:
            _, col, share = events[index]
            index += 1
            joint[col] = share
        for col, coeff in own.items():
            share = coeff + joint.get(col, 0.0)
            left = active[col] - share
            if left > 0:
                if levels[col] == level:
                    return None
                value = used.get(col, 0.0) + share * level
                used[col] = value
                active[col] = left
                levels[col] = (capacity[col] - value) / left
        while index < count:
            rate, col, share = events[index]
            index += 1
            if not levels[col] > rate:
                return None
            value = used.get(col, 0.0) + share * rate
            used[col] = value
            left = active[col] - share
            active[col] = left
            if left > 0:
                levels[col] = (capacity[col] - value) / left
        return level

    def _departure_is_quiet(self, rate: float, usage: dict) -> bool:
        """True when removing an entity that ran at ``rate`` over
        ``usage`` moves no other entity's rate.

        Replays each of its columns with it still registered.  Certain
        when, at every rate the column's users froze at, its level was
        strictly above that rate, except where the departing entity
        froze there alone: the column bound nobody else.  Without the
        entity a column's level is at least what it was at every round,
        so it binds nobody in the full solve either, and every other
        round is the old one.
        """
        if not 0.0 < rate < math.inf:
            return False
        entities = self._entities
        entity_usage = self._usage
        capacity = self._capacity
        for col, coeff in usage.items():
            others = self._users[col]
            if not others:
                continue
            total = coeff
            by_rate = {rate: coeff}
            for other in others:
                other_rate = entities[other].rate
                if not 0.0 < other_rate < math.inf:
                    return False
                share = entity_usage[other][col]
                total += share
                by_rate[other_rate] = by_rate.get(other_rate, 0.0) + share
            used = 0.0
            cap = capacity[col]
            for group_rate in sorted(by_rate):
                share = by_rate[group_rate]
                level = (cap - used) / total
                if not level > group_rate and not (
                    level == group_rate
                    and group_rate == rate
                    and share == coeff
                ):
                    return False
                used = used + share * group_rate
                total -= share
        return True
