"""The run-split slice scan against the scalar loop it replaced.

``slicesim_oracle.solve`` is the per-slice loop.  ``slicesim._solve``
must return the same ``arrive`` and ``finish`` floats with ``==`` — not
within a tolerance — and ``slice_critical_path`` the same segments, with
Python ``float`` fields rather than numpy scalars.
"""

import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bandwidth_view import BandwidthSnapshot
from repro.core.tree import RepairTree
from repro.repair import slicesim
from repro.repair.pipeline import ExecutionConfig
from tests.repair import slicesim_oracle

#: Few distinct rates: uplinks and fan-in shares collide, so a child's
#: slice time often equals its parent edge's and their finishes tie.
TIE_PRONE = (100.0, 200.0, 300.0, 400.0, 600.0, 1200.0)
#: Rates one ulp apart: slice times that differ in the last bit.
NEAR_TIE = (
    300.0,
    math.nextafter(300.0, math.inf),
    math.nextafter(300.0, 0.0),
    150.0,
    600.0,
)


@st.composite
def repairs(draw):
    """A random repair tree, snapshot, config and resume point."""
    count = draw(st.integers(2, 16))
    parents = {i: draw(st.integers(0, i - 1)) for i in range(1, count)}
    menu = draw(st.sampled_from(["tie", "near", "free"]))
    if menu == "free":
        rate = st.floats(1.0, 1e4)
    else:
        rate = st.sampled_from(TIE_PRONE if menu == "tie" else NEAR_TIE)
    snapshot = BandwidthSnapshot(
        up={i: draw(rate) for i in range(count)},
        down={i: draw(rate) for i in range(count)},
    )
    slice_size = draw(st.sampled_from([1, 7, 32]))
    slices = draw(
        st.one_of(st.sampled_from([1, 2, 4096]), st.integers(1, 300))
    )
    config = ExecutionConfig(
        chunk_size=slices * slice_size - draw(st.integers(0, slice_size - 1)),
        slice_size=slice_size,
        per_slice_overhead=draw(st.sampled_from([0.0, 2e-6, 1e-3])),
    )
    start_slice = draw(
        st.one_of(st.just(0), st.integers(0, config.slices - 1))
    )
    return RepairTree(0, parents), snapshot, config, start_slice


class TestAgainstLoopOracle:
    @settings(max_examples=40, deadline=None)
    @given(repairs())
    def test_arrive_finish_and_critical_path_are_equal(self, repair):
        tree, snapshot, config, start_slice = repair
        assert slicesim._solve(*repair) == slicesim_oracle.solve(*repair)
        scanned = slicesim.slice_critical_path(
            tree, snapshot, config, start_slice
        )
        with mock.patch.object(slicesim, "_solve", slicesim_oracle.solve):
            looped = slicesim.slice_critical_path(
                tree, snapshot, config, start_slice
            )
        assert scanned == looped
        for segment in scanned:
            assert type(segment.start) is float
            assert type(segment.end) is float
            assert type(segment.slice_index) is int


class TestAlternatingGate:
    """The gate switches at every slice, and the scan stays exact.

    Each arrival lands one ulp after, then one ulp before, the edge's
    previous finish, so every gating run is one slice long: the case the
    window reset exists for.  A tree cannot produce it — arrivals at a
    node are maxima of finish sequences whose steps are near-constant,
    so an edge switches gates a handful of times at most — so the
    sequence is fed to the edge kernel directly.
    """

    SLICES = 4096
    PER_SLICE = 1 / 3

    def alternating(self):
        arrivals, previous = [], 0.0
        for i in range(self.SLICES):
            arrival = math.nextafter(
                previous, math.inf if i % 2 == 0 else -math.inf
            )
            arrivals.append(arrival)
            previous = max(arrival, previous) + self.PER_SLICE
        return arrivals

    def test_every_slice_switches_and_the_scan_is_exact(self):
        arrivals = self.alternating()
        looped = slicesim_oracle.edge_finish(arrivals, self.PER_SLICE)
        # Arrival-gated on even slices, edge-gated on odd ones.
        previous = [0.0] + looped[:-1]
        assert [a > p for a, p in zip(arrivals, previous)] == [
            i % 2 == 0 for i in range(self.SLICES)
        ]
        assert [a < p for a, p in zip(arrivals, previous)] == [
            i % 2 == 1 for i in range(self.SLICES)
        ]
        scanned = slicesim._edge_finish(np.array(arrivals), self.PER_SLICE)
        assert scanned.tolist() == looped
