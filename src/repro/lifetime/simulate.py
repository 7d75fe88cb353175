"""Event-driven lifetime simulation of one cluster run.

The loop replays a pre-generated outage timeline (every unit's
:class:`~repro.lifetime.failure.Outage` windows) against the stripes'
chunk placement and a repair plane, tracking two distinct notions of
health per chunk:

* **intact** — the data exists on its disk.  Permanent failures destroy
  every chunk under the failed unit; only a repair brings one back.
* **live** — intact *and* currently reachable (its disk, machine, and
  rack are all up).  Transient outages toggle liveness without touching
  the data.

Durability is about intact: a stripe whose intact chunks drop below
``k`` has lost data — a **data-loss event**.  The stripe is then restored
(from backup, instantly, by fiat) so one unlucky stripe cannot absorb
the rest of the horizon, and counting continues; the Monte-Carlo driver
turns event counts into MTTDL by renewal-reward.  Availability is about
live: windows where a stripe has fewer than ``k`` live chunks are
counted and timed separately — reads stall there, but no data is lost.

The repair plane runs ``repair_streams`` concurrent repairs.  A
destroyed chunk becomes eligible once its disk is back in service and
its stripe has at least ``k`` live chunks to read from (a rack outage
that hides sources therefore *stalls* repairs and stretches the exposure
window — exactly how correlated failures hurt durability without
destroying anything themselves).  Scheduling is most-at-risk-first:
stripes with the fewest intact chunks win the next free stream.  Repair
durations come from the scheme's :class:`~repro.lifetime.durations.
DurationModel` — this is where PivotRepair's faster congested-network
repairs shorten exposure windows and earn their durability nines.

Everything is deterministic: outage edges at one timestamp are taken in
the order the ``outages`` mapping lists them (a unit's down edge before
its up edge), an outage edge goes before a repair completing at that
same instant, simultaneous completions finish in dispatch order, and the
only randomness is the duration model's scheme-specific generator.

An event costs what it changed (docs/lifetime.md, "What an event
costs"): the outage edges are one list sorted once, merged against a
heap of at most ``repair_streams`` completions, and dispatch pops a
lazily-invalidated ``ready`` heap instead of scanning the waiting chunks.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.ec.stripe import Stripe
from repro.exceptions import LifetimeError
from repro.lifetime.durations import DurationModel
from repro.lifetime.failure import Outage
from repro.lifetime.units import ClusterLayout, UnitRef

__all__ = ["POLICIES", "LifetimeRunStats", "simulate_lifetime"]

#: Repair dispatch policies: eager repairs every destroyed chunk at
#: once; lazy waits until a stripe has lost ``lazy_threshold`` chunks
#: (batching repairs at the price of longer exposure windows).
POLICIES = ("eager", "lazy")

# One chunk's state: its data exists; destroyed but not yet let in by
# the dispatch policy; waiting for a stream; being rebuilt on one.
_INTACT, _LOST, _WAITING, _REPAIRING = range(4)


@dataclass
class LifetimeRunStats:
    """Outcome of one simulated cluster life under one scheme."""

    scheme: str
    horizon: float
    stripes: int
    data_loss_events: int = 0
    loss_times: list[float] = field(default_factory=list)
    #: ``stripe_id`` of each loss, aligned with ``loss_times``.
    loss_stripes: list[int] = field(default_factory=list)
    unavailable_events: int = 0
    unavailable_seconds: float = 0.0
    repairs_completed: int = 0
    repairs_aborted: int = 0
    repair_seconds: float = 0.0
    chunk_failures: int = 0
    # The loop's own cost, not an outcome (kept out of artifacts and
    # digests): events processed, repairs started, ready entries popped.
    events: int = 0
    dispatches: int = 0
    offers_examined: int = 0


def simulate_lifetime(
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

    # --- static maps: chunk ``cid = s_index * n + c_index`` -----------
    stripe_ids = [stripe.stripe_id for stripe in stripes]
    disk_of = [
        layout.disk_for_chunk(stripe.stripe_id, c_index, machine)
        for stripe in stripes
        for c_index, machine in enumerate(stripe.placement)
    ]
    disk_chunks: list[list[int]] = [[] for _ in range(layout.disks)]
    for cid, disk in enumerate(disk_of):
        disk_chunks[disk].append(cid)

    # --- the outage timeline, known in full before the loop starts ----
    edges: list[tuple[float, bool, list[int], bool]] = []
    for unit, unit_outages in outages.items():
        if not isinstance(unit, UnitRef):
            raise LifetimeError(f"outage key {unit!r} is not a UnitRef")
        disks = layout.disks_under(unit)  # rejects a unit outside the layout
        for outage in unit_outages:
            if outage.start < horizon:
                edges.append((outage.start, False, disks, outage.permanent))
                edges.append((outage.end, True, disks, False))
    # Stable by time alone: equal timestamps keep generation order (a
    # unit's down edge before its up edge, units in mapping order).
    edges.sort(key=lambda edge: edge[0])
    edges.append((math.inf, True, [], False))  # sentinel: never processed

    # --- dynamic state, flat per stripe / per chunk -------------------
    stripe_count = len(stripes)
    live = [n] * stripe_count  # corrected for initial outages at t=0 never
    generation = [0] * stripe_count  # bumped on restore-after-loss
    # When the stripe's live count last fell below k; None while >= k.
    short_since: list[float | None] = [None] * stripe_count
    chunk = [_INTACT] * (stripe_count * n)
    # A stripe's destroyed cids; its intact count is ``n - len(lost[s])``.
    lost: list[list[int]] = [[] for _ in range(stripe_count)]
    offline_depth = [0] * layout.disks  # nested outages stack
    free_streams = repair_streams
    # Offers, most-at-risk stripes first: (intact, stripe_id, c_index,
    # cid), validated when popped.  ``offered[cid]`` has bit ``intact``
    # set while that entry is in the heap, so none is pushed twice and
    # the heap never outgrows ``chunks * (n - k)``.
    ready: list[tuple[int, int, int, int]] = []
    offered = [0] * (stripe_count * n)
    # Busy streams: (finish, dispatch number, cid, generation, duration).
    done: list[tuple[float, int, int, int, float]] = []
    heappush, heappop = heapq.heappush, heapq.heappop
    # Lost chunks a stripe needs before the policy queues them.
    threshold = 1 if policy == "eager" else lazy_threshold
    dispatches = offers_examined = unavailable_events = 0
    chunk_failures = repairs_completed = repairs_aborted = 0
    repair_seconds = unavailable_seconds = 0.0
    loss_times: list[float] = []
    loss_stripes: list[int] = []

    def offer(s_index: int, admit: bool) -> None:
        """(Re-)offer a stripe's waiting chunks under its current key.

        ``admit`` first queues the destroyed chunks the dispatch policy
        lets in.  Called on every transition that improves a waiting
        chunk's key or eligibility — which is what lets dispatch drop a
        popped entry that is stale or not eligible right now.  A chunk
        whose disk is out of service is skipped: the disk's return
        offers it.
        """
        base = s_index * n
        mine = lost[s_index]
        left = n - len(mine)
        admit = admit and len(mine) >= threshold
        stripe_id = stripe_ids[s_index]
        bit = 1 << left
        for cid in mine:
            state = chunk[cid]
            if state == _LOST and admit:
                chunk[cid] = state = _WAITING
            if state == _WAITING and not (
                offline_depth[disk_of[cid]] or offered[cid] & bit
            ):
                offered[cid] |= bit
                heappush(ready, (left, stripe_id, cid - base, cid))

    # --- event loop: merge the timeline with the completions ----------
    cursor = 0
    while True:
        now, up, disks, permanent = edges[cursor]
        if done and done[0][0] < now:
            # A completion strictly before the next outage edge: an
            # edge at the same instant goes first.
            now, _, cid, repair_generation, duration = heappop(done)
            if now >= horizon:
                break
            free_streams += 1
            s_index = cid // n
            if repair_generation != generation[s_index]:
                repairs_aborted += 1  # stripe was restored mid-repair
            elif offline_depth[disk_of[cid]] or live[s_index] < k:
                # Target disk or sources vanished mid-repair: the write
                # cannot land — abort and let the chunk re-queue.
                repairs_aborted += 1
                chunk[cid] = _LOST
                offer(s_index, True)
            else:
                chunk[cid] = _INTACT
                lost[s_index].remove(cid)
                live[s_index] += 1  # was >= k already: no window closes
                repairs_completed += 1
                repair_seconds += duration
                if lost[s_index]:
                    offer(s_index, False)
        elif now >= horizon:
            break
        elif up:
            cursor += 1
            for disk in disks:
                offline_depth[disk] -= 1
                if offline_depth[disk]:
                    continue
                for cid in disk_chunks[disk]:
                    state = chunk[cid]
                    if state == _INTACT:
                        s_index = cid // n
                        live[s_index] += 1
                        if live[s_index] == k:  # readable again
                            unavailable_seconds += now - short_since[s_index]
                            short_since[s_index] = None
                            offer(s_index, False)
                    elif state == _WAITING:
                        # Its disk is back in service: ``offer`` for
                        # this one chunk, inline on the hot path.
                        s_index = cid // n
                        left = n - len(lost[s_index])
                        if not offered[cid] & 1 << left:
                            offered[cid] |= 1 << left
                            heappush(ready, (
                                left, stripe_ids[s_index],
                                cid - s_index * n, cid,
                            ))
        else:
            cursor += 1
            for disk in disks:
                offline_depth[disk] += 1
                if offline_depth[disk] != 1:
                    continue
                for cid in disk_chunks[disk]:
                    if chunk[cid] == _INTACT:
                        s_index = cid // n
                        live[s_index] -= 1
                        if live[s_index] == k - 1:  # fewer than k readable
                            short_since[s_index] = now
                            unavailable_events += 1
            if permanent:
                for disk in disks:
                    for cid in disk_chunks[disk]:
                        if chunk[cid] != _INTACT:
                            continue  # the chunk was already lost
                        chunk_failures += 1
                        s_index = cid // n
                        if len(lost[s_index]) < n - k:
                            chunk[cid] = _LOST
                            lost[s_index].append(cid)
                            offer(s_index, True)
                            continue
                        # Fewer than k intact: a data-loss event.
                        loss_times.append(now)
                        loss_stripes.append(stripe_ids[s_index])
                        # Restore from backup by fiat: the estimator
                        # counts events, so the stripe re-enters service
                        # fully intact, the clock keeps running (MTTDL =
                        # horizon / events by renewal-reward) and its
                        # in-flight repairs abort on the generation.
                        generation[s_index] += 1
                        base = s_index * n
                        chunk[base:base + n] = [_INTACT] * n
                        lost[s_index].clear()
                        live[s_index] = readable = sum(
                            not offline_depth[d]
                            for d in disk_of[base:base + n]
                        )
                        # Restoring only adds readable chunks: it can
                        # close an unavailability window, never open one.
                        since = short_since[s_index]
                        if since is not None and readable >= k:
                            unavailable_seconds += now - since
                            short_since[s_index] = None

        # Fill free repair streams, most-at-risk stripes first.
        while free_streams and ready:
            left, _, _, cid = heappop(ready)
            offers_examined += 1
            offered[cid] ^= 1 << left
            s_index = cid // n
            if (
                chunk[cid] != _WAITING  # on a stream, or stripe restored
                or left != n - len(lost[s_index])  # re-keyed since the offer
                or offline_depth[disk_of[cid]]  # awaiting replacement
                or live[s_index] < k  # not enough readable sources
            ):
                continue  # the transition that fixes it re-offers
            chunk[cid] = _REPAIRING
            free_streams -= 1
            duration = durations.sample(rng, scheme)
            dispatches += 1
            heappush(done, (
                now + duration, dispatches, cid, generation[s_index],
                duration,
            ))

    # Close out any window still open at the horizon.
    for since in short_since:
        if since is not None:
            unavailable_seconds += horizon - since
    return LifetimeRunStats(
        scheme=scheme, horizon=horizon, stripes=stripe_count,
        data_loss_events=len(loss_times), loss_times=loss_times,
        loss_stripes=loss_stripes,
        unavailable_events=unavailable_events,
        unavailable_seconds=unavailable_seconds,
        repairs_completed=repairs_completed,
        repairs_aborted=repairs_aborted, repair_seconds=repair_seconds,
        chunk_failures=chunk_failures,
        events=cursor + repairs_completed + repairs_aborted,
        dispatches=dispatches, offers_examined=offers_examined,
    )
