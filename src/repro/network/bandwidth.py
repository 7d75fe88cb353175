"""Time-varying bandwidth traces.

A :class:`BandwidthTrace` is a piecewise-constant function of time giving a
link's **available** capacity (bytes/second) for repair traffic.  The paper
samples bandwidths at one-second intervals (Section III-A); traces here allow
arbitrary breakpoints.  A breakpoint is an instant where the value changes:
a sample equal to the one before it is no breakpoint, so the event loop
never stops at a second in which no capacity moves.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Hashable, Mapping, Sequence
from itertools import compress, repeat
from operator import eq, gt, le, lt, ne
from types import MappingProxyType

import numpy as np

from repro.exceptions import SimulationError, TraceError


class BandwidthTrace:
    """Piecewise-constant available bandwidth over time.

    The trace holds ``values[i]`` on the half-open interval
    ``[times[i], times[i+1])``; the last value extends to infinity.
    Breakpoints and values are finite, values non-negative.  The trace
    keeps the first sample and each sample that differs (``!=``) from
    the one before it, so ``values[i] != values[i+1]`` throughout.
    """

    def __init__(self, times: Sequence[float], values: Sequence[float]):
        try:
            times = [float(t) for t in times]
            values = [float(v) for v in values]
        except TypeError:
            raise TraceError(
                "breakpoints and values must be 1-D sequences of numbers"
            ) from None
        if not times:
            raise TraceError("a trace needs at least one breakpoint")
        if len(times) != len(values):
            raise TraceError(
                f"{len(times)} breakpoints but {len(values)} values"
            )
        # Every comparison with NaN is false, so each check below refuses
        # it; a strictly increasing run is finite once both its ends are.
        # The checks are ``map`` over ``operator`` functions because the
        # 1024-node storms build tens of thousands of short traces.
        if (
            not math.isfinite(times[0])
            or not math.isfinite(times[-1])
            or not all(map(gt, times[1:], times))
        ):
            raise _breakpoint_error(times)
        if not (
            all(map(le, repeat(0.0), values))
            and all(map(lt, values, repeat(math.inf)))
        ):
            bad = next(
                i for i, v in enumerate(values) if not 0 <= v < math.inf
            )
            raise _sample_error(values[bad], f"sample {bad}")
        if any(map(eq, values[1:], values)):
            kept = [True, *map(ne, values[1:], values)]
            times = list(compress(times, kept))
            values = list(compress(values, kept))
        self._times = times
        self._values = values

    @classmethod
    def _checked(
        cls, times: list[float], values: list[float]
    ) -> BandwidthTrace:
        """A trace holding ``times`` and ``values`` themselves: already
        checked, and no value equal to the one before it."""
        trace = cls.__new__(cls)
        trace._times = times
        trace._values = values
        return trace

    @classmethod
    def constant(cls, value: float) -> BandwidthTrace:
        """A trace that never changes."""
        return cls([0.0], [value])

    def __repr__(self) -> str:
        return (
            f"BandwidthTrace({len(self._times)} breakpoints, "
            f"first={self._values[0]:.0f} B/s)"
        )


def sample_grid(
    count: int, interval: float, start: float = 0.0
) -> tuple[float, ...]:
    """The breakpoints ``start + i * interval`` of ``count`` samples.

    Computed by numpy with the same IEEE operations as that expression,
    so the floats are identical; checked once for every trace sampled
    on it (:func:`traces_on_grid`).
    """
    if interval <= 0:
        raise TraceError(f"interval must be positive, got {interval}")
    if count < 1:
        raise TraceError("a trace needs at least one breakpoint")
    grid = start + np.arange(count) * interval
    if not np.isfinite(grid).all() or (np.diff(grid) <= 0).any():
        raise _breakpoint_error(grid.tolist())
    return tuple(grid.tolist())


def traces_on_grid(
    grid: tuple[float, ...], samples: np.ndarray, link: str = "link"
) -> list[BandwidthTrace]:
    """One trace per row of ``samples`` (nodes x samples), on ``grid``.

    The matrix is checked once (finite, non-negative), a bad sample
    named ``<link> of node <row>, sample <column>``.  One ``!=`` over it
    finds every sample that differs from the one before it in its row;
    those and each row's first sample become the traces' breakpoints
    and values (the rows :class:`BandwidthTrace` would keep), converted
    by one ``tolist()`` each.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[1] != len(grid):
        raise TraceError(
            f"{link} samples must be (nodes, {len(grid)}), "
            f"got shape {samples.shape}"
        )
    bad = ~((samples >= 0) & (samples < math.inf))
    if bad.any():
        node, sample = np.argwhere(bad)[0]
        raise _sample_error(
            float(samples[node, sample]),
            f"{link} of node {node}, sample {sample}",
        )
    kept = np.ones(samples.shape, dtype=bool)
    np.not_equal(samples[:, 1:], samples[:, :-1], out=kept[:, 1:])
    times = np.asarray(grid)[np.nonzero(kept)[1]].tolist()
    values = samples[kept].tolist()
    ends = np.cumsum(kept.sum(axis=1)).tolist()
    return [
        BandwidthTrace._checked(times[start:end], values[start:end])
        for start, end in zip([0, *ends], ends)
    ]


def _breakpoint_error(times: list[float]) -> TraceError:
    for index, t in enumerate(times):
        if not math.isfinite(t):
            return TraceError(
                f"breakpoint {index} is {t}: trace breakpoints must be finite"
            )
    return TraceError("trace breakpoints must be strictly increasing")


def _sample_error(value: float, where: str) -> TraceError:
    if value < 0:
        return TraceError("bandwidth cannot be negative")
    return TraceError(f"{where} is {value}: bandwidth must be finite")


class NodeBandwidth:
    """Available uplink and downlink bandwidth of one storage node."""

    def __init__(self, uplink: BandwidthTrace, downlink: BandwidthTrace):
        self.uplink = uplink
        self.downlink = downlink

    @classmethod
    def constant(cls, up: float, down: float) -> NodeBandwidth:
        return cls(BandwidthTrace.constant(up), BandwidthTrace.constant(down))


def merge_breakpoints(links: Sequence[NodeBandwidth]) -> list[float]:
    """Sorted union of every link's breakpoints, deduplicated.

    The first merged breakpoint strictly after ``t`` is the first instant
    after ``t`` where some link's value changes: the topologies'
    ``next_change_after`` is one bisect into this list.
    """
    merged: set[float] = set()
    for link in links:
        merged.update(link.uplink._times)
        merged.update(link.downlink._times)
    return sorted(merged)


class CapacityRows:
    """What the topologies share: one capacity row per visited epoch.

    A capacity epoch belongs to the network, not to whoever asks: traces
    are immutable, so between two merged breakpoints every link holds
    one value and ``bisect_right(breakpoints, t)`` names one row.  It is
    built the first time the epoch is visited and shared by every
    simulator, planner snapshot and observer that asks about the same
    second — hence read-only: copy a row to change it.  A trace keeps
    only the instants where its value changes, so at every merged
    breakpoint some link's capacity changes.  Merging the
    breakpoints once also makes ``next_change_after`` one bisect.

    A topology keeps its per-node links in ``_nodes``; the node count,
    the node ids and the check that a node is in the network are
    defined here once for all of them.
    """

    def __len__(self) -> int:
        return len(self._nodes)

    @property
    def node_ids(self) -> range:
        return range(len(self._nodes))

    def _check(self, node_id: int) -> None:
        if not 0 <= node_id < len(self._nodes):
            raise SimulationError(
                f"node {node_id} outside network of {len(self._nodes)} nodes"
            )

    def _keep_rows(
        self, *groups: tuple[str, str, Sequence[NodeBandwidth]]
    ) -> None:
        """Each group is ``(up kind, down kind, links)``, in resource order."""
        self._breakpoints = merge_breakpoints(
            [link for _, _, links in groups for link in links]
        )
        self._columns = [
            ((kind, index), trace._times, trace._values)
            for up, down, links in groups
            for index, link in enumerate(links)
            for kind, trace in ((up, link.uplink), (down, link.downlink))
        ]
        self._rows: dict[int, Mapping[Hashable, float]] = {}
        #: Self-observation, plain ints read after a run: rows built
        #: (distinct epochs visited) and reads an existing row answered.
        self.rows_built = 0
        self.row_hits = 0

    def _row(self, t: float) -> Mapping[Hashable, float]:
        epoch = bisect_right(self._breakpoints, t)
        row = self._rows.get(epoch)
        if row is None:
            # One bisect per trace, straight into its arrays: the last
            # sample at or before ``t``, else the first (``max(.., 0)``);
            # the values are the float objects the traces already hold.
            self.rows_built += 1
            row = self._rows[epoch] = MappingProxyType({
                resource: values[max(bisect_right(times, t) - 1, 0)]
                for resource, times, values in self._columns
            })
        else:
            self.row_hits += 1
        return row
