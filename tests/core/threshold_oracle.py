"""Theorem 1's optimum by thresholds: the largest feasible bottleneck.

A pipelined repair tree's ``B_min`` is the least, over its nodes, of
``up(v)`` for a helper and ``down(v) / children(v)`` for a parent
(``RepairTree.bmin``).  So a bottleneck ``b`` is reachable exactly when
some k candidates with ``up >= b`` hang under the requestor with every
node ``v`` taking at most ``c(v) = max{c <= k : down(v) / c >= b}``
children.  Slots decide that: attach the k eligible candidates with the
largest ``c(v)`` in descending ``c(v)``, the requestor's slots first;
``b`` is feasible when a free slot is there for every one of them.
Feasibility falls as ``b`` rises, and the optimum is one of the values a
tree's ``B_min`` can take, ``{up(v)} ∪ {down(v) / c : c <= k}``, so a
bisection over those values finds it.

This shares no logic with Algorithm 1 (no pivots, no heap, no
replacing), and it divides exactly as the tree does, so the optimum it
returns is the same float as the optimal tree's ``bmin``.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.bandwidth_view import BandwidthSnapshot


def _slots(down: float, k: int, b: float) -> int:
    """``max{c <= k : down / c >= b}``, 0 when ``down / 1 < b``."""
    low, high = 0, k
    while low < high:
        middle = (low + high + 1) // 2
        if down / middle >= b:
            low = middle
        else:
            high = middle - 1
    return low


def feasible(
    snapshot: BandwidthSnapshot,
    requestor: int,
    candidates: Sequence[int],
    k: int,
    b: float,
) -> bool:
    """Whether some tree of k candidates under ``requestor`` keeps every
    helper's uplink and every parent's per-child downlink at ``b`` or
    more."""
    up, down = snapshot.up, snapshot.down
    slots = sorted(
        (_slots(down[v], k, b) for v in candidates if up[v] >= b),
        reverse=True,
    )
    if len(slots) < k:
        return False
    free = _slots(down[requestor], k, b)
    for taken in slots[:k]:
        if free < 1:
            return False
        free += taken - 1
    return True


def optimal_bmin(
    snapshot: BandwidthSnapshot,
    requestor: int,
    candidates: Sequence[int],
    k: int,
) -> float:
    """The largest ``B_min`` of any tree of k candidates (Theorem 1)."""
    up, down = snapshot.up, snapshot.down
    values = {up[v] for v in candidates}
    for v in (requestor, *candidates):
        values.update(down[v] / c for c in range(1, k + 1))
    values = sorted(values)
    # values[low] is feasible, values[high + 1:] are not; 0 <= every
    # value, and a bottleneck of the least value is always reachable.
    low, high = 0, len(values) - 1
    while low < high:
        middle = (low + high + 1) // 2
        if feasible(snapshot, requestor, candidates, k, values[middle]):
            low = middle
        else:
            high = middle - 1
    return values[low]
