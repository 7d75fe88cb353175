"""Test-only oracle: the lifetime loop the ready-heap loop replaced.

The body of ``repro.lifetime.simulate.simulate_lifetime`` as it stood
before dispatch popped a lazily-invalidated heap, kept verbatim as the
independent reference: one event heap with insertion-order sequence
numbers, ``_StripeState`` objects, and a ``dispatch`` that re-scans the
whole ``pending`` set for its minimum on every free stream.  It shares
only the ``LifetimeRunStats`` type with the module under test; the three
self-observation counters are the only lines added (``offers_examined``
counts the pending entries a scan looks at, so it is the one field the
two loops are *meant* to disagree on).
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Mapping, Sequence

import numpy as np

from repro.ec.stripe import Stripe
from repro.exceptions import LifetimeError
from repro.lifetime.durations import DurationModel
from repro.lifetime.failure import Outage
from repro.lifetime.simulate import POLICIES, LifetimeRunStats
from repro.lifetime.units import ClusterLayout, UnitRef
from repro.obs.tracer import NULL_TRACER

# Event kinds, in tie-break order of arrival (heap is insertion-stable
# per timestamp via the monotonic sequence number).
_DOWN, _UP, _DONE = "down", "up", "repair_done"


class _StripeState:
    """Mutable health of one stripe's chunks."""

    __slots__ = (
        "stripe_id", "disks", "destroyed", "queued", "intact",
        "live", "generation", "unavailable_since",
    )

    def __init__(self, stripe_id: int, disks: list[int]):
        self.stripe_id = stripe_id
        self.disks = disks
        self.destroyed = [False] * len(disks)
        self.queued = [False] * len(disks)
        self.intact = len(disks)
        self.live = len(disks)  # corrected for initial outages at t=0 never
        self.generation = 0  # bumped on restore-after-loss
        self.unavailable_since: float | None = None


def scan_simulate_lifetime(
    layout: ClusterLayout,
    stripes: Sequence[Stripe],
    outages: Mapping[UnitRef, Sequence[Outage]],
    scheme: str,
    durations: DurationModel,
    rng: np.random.Generator,
    horizon: float,
    repair_streams: int = 4,
    policy: str = "eager",
    lazy_threshold: int = 2,
    tracer=NULL_TRACER,
) -> LifetimeRunStats:
    """Replay one outage timeline against one repair scheme.

    ``outages`` must be scheme-independent (generated once per run) so
    schemes compare against identical failure histories; ``rng`` must be
    scheme-specific so duration sampling never couples schemes.
    """
    if horizon <= 0:
        raise LifetimeError(f"horizon must be positive, got {horizon}")
    if repair_streams < 1:
        raise LifetimeError("need at least one repair stream")
    if policy not in POLICIES:
        raise LifetimeError(
            f"unknown repair policy {policy!r}; expected one of {POLICIES}"
        )
    if lazy_threshold < 1:
        raise LifetimeError("lazy threshold must be >= 1")
    if not stripes:
        raise LifetimeError("need at least one stripe")

    k = stripes[0].code.k
    n = stripes[0].code.n
    for stripe in stripes:
        if stripe.code.n != n or stripe.code.k != k:
            raise LifetimeError("all stripes must share one (n, k) code")
        for machine in stripe.placement:
            if not 0 <= machine < layout.machines:
                raise LifetimeError(
                    f"stripe {stripe.stripe_id} placed on machine "
                    f"{machine} outside the {layout.machines}-machine layout"
                )

    stats = LifetimeRunStats(
        scheme=scheme, horizon=horizon, stripes=len(stripes)
    )

    # --- static maps -------------------------------------------------
    states: list[_StripeState] = []
    disk_chunks: dict[int, list[tuple[int, int]]] = {}
    for s_index, stripe in enumerate(stripes):
        disks = [
            layout.disk_for_chunk(stripe.stripe_id, c_index, machine)
            for c_index, machine in enumerate(stripe.placement)
        ]
        states.append(_StripeState(stripe.stripe_id, disks))
        for c_index, disk in enumerate(disks):
            disk_chunks.setdefault(disk, []).append((s_index, c_index))

    def disks_below(unit: UnitRef) -> list[int]:
        if unit.kind == "disk":
            return [unit.index]
        if unit.kind == "machine":
            return layout.disks_of_machine(unit.index)
        return [
            disk
            for machine in layout.machines_in_rack(unit.index)
            for disk in layout.disks_of_machine(machine)
        ]

    # --- dynamic state -----------------------------------------------
    offline_depth = [0] * layout.disks  # nested outages stack
    free_streams = repair_streams
    pending: set[tuple[int, int]] = set()
    heap: list = []
    seq = itertools.count()

    def push(time: float, kind: str, payload) -> None:
        heapq.heappush(heap, (time, next(seq), kind, payload))

    for unit, unit_outages in outages.items():
        if not isinstance(unit, UnitRef):
            raise LifetimeError(f"outage key {unit!r} is not a UnitRef")
        for outage in unit_outages:
            if outage.start >= horizon:
                continue
            push(outage.start, _DOWN, (unit, outage))
            push(outage.end, _UP, (unit, outage))

    # --- health bookkeeping ------------------------------------------
    def note_availability(state: _StripeState, now: float) -> None:
        """Track < k live transitions (availability, not durability)."""
        short = state.live < k
        if short and state.unavailable_since is None:
            state.unavailable_since = now
            stats.unavailable_events += 1
        elif not short and state.unavailable_since is not None:
            stats.unavailable_seconds += now - state.unavailable_since
            state.unavailable_since = None

    def enqueue(state: _StripeState, s_index: int) -> None:
        """Queue a stripe's destroyed chunks per the dispatch policy."""
        lost = len(state.disks) - state.intact
        if policy == "lazy" and lost < lazy_threshold:
            return
        for c_index, destroyed in enumerate(state.destroyed):
            if destroyed and not state.queued[c_index]:
                state.queued[c_index] = True
                pending.add((s_index, c_index))

    def destroy(s_index: int, c_index: int, now: float) -> None:
        state = states[s_index]
        if state.destroyed[c_index]:
            return  # failure of a disk whose chunk was already lost
        state.destroyed[c_index] = True
        state.intact -= 1
        stats.chunk_failures += 1
        if offline_depth[state.disks[c_index]] == 0:
            state.live -= 1
        if state.intact < k:
            data_loss(state, s_index, now)
        else:
            enqueue(state, s_index)
        note_availability(state, now)

    def data_loss(state: _StripeState, s_index: int, now: float) -> None:
        stats.data_loss_events += 1
        stats.loss_times.append(now)
        if tracer.enabled:
            tracer.instant(
                "lifetime.loss", now, track="lifetime",
                stripe=state.stripe_id, scheme=scheme,
                event=stats.data_loss_events,
            )
        # Restore from backup by fiat: the estimator counts events, so
        # the stripe re-enters service fully intact and the clock keeps
        # running (renewal-reward gives MTTDL = horizon / events).
        state.generation += 1
        state.destroyed = [False] * len(state.disks)
        state.queued = [False] * len(state.disks)
        state.intact = len(state.disks)
        state.live = sum(
            1 for disk in state.disks if offline_depth[disk] == 0
        )
        pending.difference_update(
            (s_index, c) for c in range(len(state.disks))
        )

    def dispatch(now: float) -> None:
        """Fill free repair streams, most-at-risk stripes first."""
        nonlocal free_streams
        while free_streams > 0 and pending:
            best = None
            for s_index, c_index in pending:
                stats.offers_examined += 1
                state = states[s_index]
                if offline_depth[state.disks[c_index]] > 0:
                    continue  # disk still awaiting replacement
                if state.live < k:
                    continue  # not enough readable sources
                key = (state.intact, state.stripe_id, c_index)
                if best is None or key < best[0]:
                    best = (key, s_index, c_index)
            if best is None:
                return
            _, s_index, c_index = best
            pending.discard((s_index, c_index))
            state = states[s_index]
            free_streams -= 1
            stats.dispatches += 1
            duration = durations.sample(rng, scheme)
            push(
                now + duration, _DONE,
                (s_index, c_index, state.generation, duration),
            )

    # --- event loop ---------------------------------------------------
    while heap:
        now, _, kind, payload = heapq.heappop(heap)
        if now >= horizon:
            break
        stats.events += 1
        if kind == _DOWN:
            unit, outage = payload
            for disk in disks_below(unit):
                offline_depth[disk] += 1
                if offline_depth[disk] != 1:
                    continue
                for s_index, c_index in disk_chunks.get(disk, ()):
                    state = states[s_index]
                    if not state.destroyed[c_index]:
                        state.live -= 1
                        note_availability(state, now)
            if outage.permanent:
                for disk in disks_below(unit):
                    for s_index, c_index in disk_chunks.get(disk, ()):
                        destroy(s_index, c_index, now)
        elif kind == _UP:
            unit, outage = payload
            for disk in disks_below(unit):
                offline_depth[disk] -= 1
                if offline_depth[disk] != 0:
                    continue
                for s_index, c_index in disk_chunks.get(disk, ()):
                    state = states[s_index]
                    if not state.destroyed[c_index]:
                        state.live += 1
                        note_availability(state, now)
        else:  # _DONE
            s_index, c_index, generation, duration = payload
            free_streams += 1
            state = states[s_index]
            if generation != state.generation:
                stats.repairs_aborted += 1  # stripe was restored mid-repair
            elif offline_depth[state.disks[c_index]] > 0 or state.live < k:
                # Target disk or sources vanished mid-repair: the write
                # cannot land — abort and let the chunk re-queue.
                stats.repairs_aborted += 1
                state.queued[c_index] = False
                enqueue(state, s_index)
            else:
                state.destroyed[c_index] = False
                state.queued[c_index] = False
                state.intact += 1
                state.live += 1
                stats.repairs_completed += 1
                stats.repair_seconds += duration
                note_availability(state, now)
        dispatch(now)

    # Close out any window still open at the horizon.
    for state in states:
        if state.unavailable_since is not None:
            stats.unavailable_seconds += horizon - state.unavailable_since
            state.unavailable_since = None
    return stats
