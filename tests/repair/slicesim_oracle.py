"""Test-only oracle: the scalar slice loop ``slicesim._solve`` replaced.

``solve`` is the per-slice recurrence as it stood in
``repro.repair.slicesim`` before the solver became a scan over gating
runs: one Python ``max`` and one addition per slice per edge, in slice
order.  It is kept as the formulation the scan must equal with ``==`` —
every ``arrive`` and ``finish`` float, not a tolerance.  The per-edge
loop is split out as ``edge_finish`` (otherwise verbatim), so the scan's
edge kernel can also be checked on arrival sequences no tree produces.
It shares the rate model (``edge_rate``) and ``SimulationError`` with
the package, nothing of the scan.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.bandwidth_view import BandwidthSnapshot
from repro.core.tree import RepairTree
from repro.exceptions import SimulationError
from repro.repair.pipeline import ExecutionConfig
from repro.repair.slicesim import edge_rate


def solve(
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

    finish: dict[int, list[float]] = {}
    arrive: dict[int, list[float]] = {}
    for node in order:
        kids = tree.children(node)
        if kids:
            arrivals = [
                max(finish[child][i] for child in kids)
                for i in range(slices)
            ]
        else:
            arrivals = [0.0] * slices
        arrive[node] = arrivals
        if node == tree.root:
            continue
        finish[node] = edge_finish(arrivals, slice_seconds[node])
    return arrive, finish, slice_seconds, slices


def edge_finish(arrivals: Sequence[float], per_slice: float) -> list[float]:
    """One edge's finish times, one slice at a time."""
    out = []
    previous = 0.0
    for i in range(len(arrivals)):
        previous = max(arrivals[i], previous) + per_slice
        out.append(previous)
    return out
