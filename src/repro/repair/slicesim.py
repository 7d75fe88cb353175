"""Slice-level discrete simulation of a pipelined repair tree.

The fluid executor models a pipelined repair as one coupled flow at the
tree's bottleneck rate plus a closed-form fill correction.  This module
validates that abstraction from below: it simulates the *actual* mechanism
of Section IV-D — the chunk split into slices, each node forwarding slice
``i`` to its parent only after receiving slice ``i`` from all of its
children, every edge serialising its slices at its share of the parent's
downlink.

Bandwidths are taken from a static snapshot (the regime of Experiments 4
and 5, "a fixed bandwidth situation").  The recurrence per edge
``child -> parent``::

    finish[child][i] = max(arrive[child][i], finish[child][i-1])
                       + slice_size / rate(child -> parent) + overhead

with ``arrive[node][i]`` the time slice ``i`` is fully aggregated at
``node`` (max over its children's ``finish``; 0 for leaves, which hold
their own data), and the repair completes at ``arrive[root][S-1]``.

Each edge is solved as a numpy scan over gating runs (``_edge_finish``),
which gives the per-slice loop's floats bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.bandwidth_view import BandwidthSnapshot
from repro.core.tree import RepairTree
from repro.exceptions import SimulationError
from repro.obs.tracer import NULL_TRACER
from repro.repair.pipeline import ExecutionConfig


def edge_rate(
    snapshot: BandwidthSnapshot, tree: RepairTree, child: int
) -> float:
    """Static rate of the edge child -> parent(child).

    The parent's downlink is shared evenly among its children, matching
    the fluid model's fan-in coefficient (Figure 1(d)).
    """
    parent = tree.parent(child)
    if parent is None:
        raise SimulationError(f"node {child} is the root; no upward edge")
    share = snapshot.down_of(parent) / tree.child_count(parent)
    return min(snapshot.up_of(child), share)


#: Slices a gating run's first look-ahead covers.  The window doubles while
#: the gate holds and resets at each switch, so a run of ``L`` slices costs
#: O(L) vector work even when the gate alternates every slice.
_FIRST_WINDOW = 64


def _edge_finish(arrivals: np.ndarray, per_slice: float) -> np.ndarray:
    """``finish[i] = max(arrivals[i], finish[i-1]) + per_slice``, exactly.

    ``finish[-1]`` is 0.0.  An edge-gated run (``finish[i-1] >=
    arrivals[i]``) is a left fold of ``per_slice`` onto the previous
    finish — ``np.add.accumulate`` is sequential, unlike ``np.sum`` — and
    an arrival-gated run is ``arrivals + per_slice``.  A run ends at the
    first slice where the other gate wins; at a tie both gates give the
    same float, so the current run goes on.
    """
    slices = len(arrivals)
    # finish[i + 1] holds slice i, so finish[i] is the slice before it.
    finish = np.empty(slices + 1)
    finish[0] = 0.0
    i = 0
    edge_gated = True
    window = _FIRST_WINDOW
    while i < slices:
        end = min(i + window, slices)
        run = finish[i:end + 1]
        if edge_gated:
            run[1:] = per_slice
            np.add.accumulate(run, out=run)
            switch = np.flatnonzero(run[:-1] < arrivals[i:end])
        else:
            np.add(arrivals[i:end], per_slice, out=run[1:])
            switch = np.flatnonzero(run[:-1] > arrivals[i:end])
        if len(switch):
            # Slices past the switch are recomputed under the other gate.
            i += int(switch[0])
            edge_gated = not edge_gated
            window = _FIRST_WINDOW
        else:
            i = end
            window *= 2
    return finish[1:]


def _solve(
    tree: RepairTree,
    snapshot: BandwidthSnapshot,
    config: ExecutionConfig,
    start_slice: int,
) -> tuple[dict[int, list[float]], dict[int, list[float]], dict[int, float], int]:
    """Solve the slice recurrence; returns (arrive, finish, per_slice, S)."""
    if not 0 <= start_slice < config.slices:
        raise SimulationError(
            f"start_slice must be in [0, {config.slices}), got {start_slice}"
        )
    slices = config.slices - start_slice
    slice_seconds: dict[int, float] = {}
    for helper in tree.helpers:
        rate = edge_rate(snapshot, tree, helper)
        if rate <= 0:
            raise SimulationError(
                f"edge from node {helper} has zero bandwidth"
            )
        slice_seconds[helper] = (
            config.slice_size / rate + config.per_slice_overhead
        )

    # Post-order walk: children's finish times feed the parent's arrivals.
    order: list[int] = []
    stack = [tree.root]
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(tree.children(node))
    order.reverse()  # children before parents

    finish_of: dict[int, np.ndarray] = {}
    finish: dict[int, list[float]] = {}
    arrive: dict[int, list[float]] = {}
    for node in order:
        kids = tree.children(node)
        if kids:
            arrivals = np.maximum.reduce([finish_of[child] for child in kids])
        else:
            arrivals = np.zeros(slices)
        arrive[node] = arrivals.tolist()
        if node == tree.root:
            continue
        finish_of[node] = _edge_finish(arrivals, slice_seconds[node])
        finish[node] = finish_of[node].tolist()
    return arrive, finish, slice_seconds, slices


def simulate_slices(
    tree: RepairTree,
    snapshot: BandwidthSnapshot,
    config: ExecutionConfig | None = None,
    start_slice: int = 0,
) -> float:
    """Transfer time of one pipelined single-chunk repair, slice level.

    ``start_slice`` simulates a resumed repair: only the remaining
    ``S - start_slice`` slices stream through the tree (the first
    ``start_slice`` slices are already verified at the requestor).
    """
    config = config or ExecutionConfig()
    arrive, _, _, slices = _solve(tree, snapshot, config, start_slice)
    return arrive[tree.root][slices - 1]


@dataclass(frozen=True)
class SliceSegment:
    """One slice transfer on the critical path of a pipelined repair.

    ``kind`` records why this segment started when it did: ``"arrive"``
    means the edge was waiting on the slice aggregating below it (the
    walk descends into the child subtree), ``"serial"`` means it was
    waiting on the same edge finishing the previous slice (the edge is
    the pipeline bottleneck at this point).
    """

    node: int
    parent: int
    slice_index: int
    start: float
    end: float
    kind: str


def slice_critical_path(
    tree: RepairTree,
    snapshot: BandwidthSnapshot,
    config: ExecutionConfig | None = None,
    start_slice: int = 0,
    tracer=NULL_TRACER,
    parent_id: int | None = None,
) -> list[SliceSegment]:
    """Exact critical path of a slice-level pipelined repair.

    Walks backward from the last slice's arrival at the root.  At each
    point the predecessor of a transfer is either the previous slice on
    the same edge (serialisation) or the slice's arrival from below
    (descend into the child whose finish dominated the max).  Consecutive
    segments abut exactly, so their durations sum to ``simulate_slices``'s
    makespan with no float drift beyond summation order.

    With a live ``tracer``, each segment is emitted as a ``slice.xfer``
    span on track ``slice:<node>``, chained with ``links`` and parented
    under ``parent_id`` — slice-level drill-down under a repair span.
    """
    config = config or ExecutionConfig()
    arrive, finish, slice_seconds, slices = _solve(
        tree, snapshot, config, start_slice
    )
    segments: list[SliceSegment] = []
    # Start at the root's last arrival and descend into the winning child.
    node, i = tree.root, slices - 1
    while True:
        kids = tree.children(node)
        if not kids:
            break  # leaf arrival is t=0: the path is complete
        child = max(kids, key=lambda c: (finish[c][i], -c))
        # Follow the chain of transfers on edge child -> node backwards
        # while the edge's own serialisation (not the arrival from below)
        # is what gated each slice's start.
        while True:
            prev_finish = finish[child][i - 1] if i > 0 else 0.0
            start = max(arrive[child][i], prev_finish)
            kind = (
                "serial"
                if i > 0 and prev_finish >= arrive[child][i]
                else "arrive"
            )
            segments.append(
                SliceSegment(
                    node=child,
                    parent=node,
                    slice_index=i + start_slice,
                    start=start,
                    end=finish[child][i],
                    kind=kind,
                )
            )
            if kind != "serial":
                break
            i -= 1  # same edge, previous slice
        node = child  # descend toward the arrival that gated us
    segments.reverse()
    if tracer.enabled:
        previous_span: int | None = None
        for seg in segments:
            span = tracer.begin(
                "slice.xfer",
                t=seg.start,
                track=f"slice:{seg.node}",
                parent_id=parent_id,
                links=(previous_span,) if previous_span is not None else (),
                slice=seg.slice_index,
                to=seg.parent,
                kind=seg.kind,
            )
            tracer.end(
                "slice.xfer",
                t=seg.end,
                span_id=span,
                track=f"slice:{seg.node}",
            )
            previous_span = span
    return segments


def fluid_estimate(
    tree: RepairTree,
    snapshot: BandwidthSnapshot,
    config: ExecutionConfig | None = None,
) -> float:
    """The fluid executor's closed-form estimate for the same repair."""
    from repro.repair.pipeline import ideal_transfer_seconds

    config = config or ExecutionConfig()
    return ideal_transfer_seconds(config, tree.depth(), tree.bmin(snapshot))
