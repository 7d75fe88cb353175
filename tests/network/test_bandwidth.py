"""Tests for bandwidth traces and per-node bandwidth."""

import math
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bandwidth_view import BandwidthSnapshot
from repro.exceptions import TraceError
from repro.network.bandwidth import (
    BandwidthTrace,
    NodeBandwidth,
    merge_breakpoints,
    sample_grid,
    traces_on_grid,
)
from repro.network.topology import StarNetwork
from tests.network.links import trace_from_samples


class TestConstruction:
    def test_empty_rejected(self):
        with pytest.raises(TraceError):
            BandwidthTrace([], [])

    def test_length_mismatch_rejected(self):
        with pytest.raises(TraceError):
            BandwidthTrace([0, 1], [5])

    def test_non_increasing_times_rejected(self):
        with pytest.raises(TraceError):
            BandwidthTrace([0, 0], [1, 2])
        with pytest.raises(TraceError):
            BandwidthTrace([1, 0], [1, 2])

    def test_negative_bandwidth_rejected(self):
        with pytest.raises(TraceError):
            BandwidthTrace([0], [-1])

    def test_from_samples_interval(self):
        trace = trace_from_samples([10, 20, 30], interval=2.0)
        assert trace._times == [0.0, 2.0, 4.0]

    def test_from_samples_rejects_bad_interval(self):
        with pytest.raises(TraceError):
            trace_from_samples([1], interval=0)

    def test_nan_breakpoint_rejected(self):
        with pytest.raises(TraceError, match="^breakpoint 1 is nan"):
            BandwidthTrace([0.0, math.nan, 2.0], [1.0, 2.0, 3.0])

    def test_infinite_bandwidth_rejected(self):
        with pytest.raises(TraceError, match="^sample 1 is inf"):
            BandwidthTrace([0, 1], [1, math.inf])

    @pytest.mark.parametrize("times, values, message", [
        ([math.nan], [1.0], "^breakpoint 0 is nan"),
        ([0.0, math.inf], [1.0, 1.0], "^breakpoint 1 is inf"),
        ([-math.inf, 0.0], [1.0, 1.0], "^breakpoint 0 is -inf"),
        ([0.0, 1.0], [math.nan, 1.0], "^sample 0 is nan"),
        ([0.0, 1.0], [1.0, -1.0], "^bandwidth cannot be negative$"),
        ([0.0, 0.0], [1.0, 1.0], "^trace breakpoints must be strictly"),
    ])
    def test_each_bad_input_is_named(self, times, values, message):
        with pytest.raises(TraceError, match=message):
            BandwidthTrace(times, values)

    @pytest.mark.parametrize("times, values", [
        ([[0.0, 1.0]], [[1.0, 2.0]]),
        (np.zeros((2, 2)), np.ones((2, 2))),
        (0.0, 1.0),
    ])
    def test_non_1d_input_is_a_trace_error(self, times, values):
        with pytest.raises(TraceError, match="1-D"):
            BandwidthTrace(times, values)


class TestSampleGrid:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=500),
        st.floats(min_value=1e-3, max_value=1e3),
        st.floats(min_value=-1e4, max_value=1e4),
    )
    def test_grid_is_the_python_expression(self, count, interval, start):
        """numpy computes ``start + i * interval`` with the same IEEE
        operations, so every breakpoint is the same float."""
        grid = sample_grid(count, interval, start)
        assert type(grid) is tuple
        assert all(type(t) is float for t in grid)
        assert list(grid) == [start + i * interval for i in range(count)]
        ramp = trace_from_samples(range(count), interval, start)
        assert ramp._times == list(grid)
        flat = trace_from_samples([1.0] * count, interval, start)
        assert flat._times == [grid[0]]

    @pytest.mark.parametrize("count, interval, start, message", [
        (0, 1.0, 0.0, "^a trace needs at least one breakpoint$"),
        (3, 0.0, 0.0, "^interval must be positive"),
        (3, math.nan, 0.0, "^breakpoint 0 is nan"),
        (3, 1.0, math.inf, "^breakpoint 0 is inf"),
        (3, 1.0, 1e20, "^trace breakpoints must be strictly increasing$"),
    ])
    def test_bad_grid_rejected(self, count, interval, start, message):
        with pytest.raises(TraceError, match=message):
            sample_grid(count, interval, start)


class TestSharedGrid:
    def test_traces_on_grid_keep_the_first_sample_and_changes(self):
        grid = sample_grid(4, 0.5)
        samples = np.array([[1, 1, 2, 2], [4, 5, 5, 4], [3, 3, 3, 3]])
        traces = traces_on_grid(grid, samples)
        assert [trace._times for trace in traces] == [
            [0.0, 1.0], [0.0, 0.5, 1.5], [0.0]
        ]
        assert [trace._values for trace in traces] == [[1, 2], [4, 5, 4], [3]]
        assert all(
            type(v) is float
            for trace in traces
            for v in trace._times + trace._values
        )
        assert [(t._times, t._values) for t in traces] == [
            (t._times, t._values)
            for t in (trace_from_samples(row, 0.5) for row in samples)
        ]

    def test_merge_of_one_grid_is_where_a_link_changes(self):
        grid = sample_grid(5, 1.0, start=2.0)
        up = traces_on_grid(grid, np.ones((3, 5)))
        down = traces_on_grid(
            grid,
            np.array([[0, 0, 1, 1, 1], [2, 2, 2, 2, 3], [4, 4, 4, 4, 4]]),
        )
        merged = merge_breakpoints(
            [NodeBandwidth(u, d) for u, d in zip(up, down)]
        )
        assert type(merged) is list
        assert merged == [2.0, 4.0, 6.0]

    def test_merge_of_distinct_grids_is_their_union(self):
        one = traces_on_grid(sample_grid(3, 1.0), np.array([[1, 2, 3]]))[0]
        other = traces_on_grid(sample_grid(2, 0.5), np.array([[1, 2]]))[0]
        small = BandwidthTrace([0.25, 9.0], [1.0, 2.0])
        links = [NodeBandwidth(one, other), NodeBandwidth(one, small)]
        assert merge_breakpoints(links) == [0.0, 0.25, 0.5, 1.0, 2.0, 9.0]

    @pytest.mark.parametrize("value, message", [
        (math.nan, "^uplink of node 1, sample 2 is nan: .* must be finite$"),
        (math.inf, "^uplink of node 1, sample 2 is inf: .* must be finite$"),
        (-1.0, "^bandwidth cannot be negative$"),
    ])
    def test_bad_sample_is_named(self, value, message):
        samples = np.ones((2, 4))
        samples[1, 2] = value
        with pytest.raises(TraceError, match=message):
            traces_on_grid(sample_grid(4, 1.0), samples, "uplink")

    def test_shape_must_match_the_grid(self):
        with pytest.raises(TraceError, match="must be"):
            traces_on_grid(sample_grid(4, 1.0), np.ones((2, 3)))
        with pytest.raises(TraceError, match="must be"):
            traces_on_grid(sample_grid(4, 1.0), np.ones(4))


def one_link(trace):
    """A one-node network whose uplink and downlink are ``trace``: its
    capacity rows are how the library reads a trace."""
    return StarNetwork([NodeBandwidth(trace, trace)])


def read(network, t):
    return network.capacities_at(t)["up", 0]


class TestLookup:
    def test_piecewise_values(self):
        network = one_link(BandwidthTrace([0, 10, 20], [100, 50, 75]))
        assert read(network, 0) == 100
        assert read(network, 9.999) == 100
        assert read(network, 10) == 50
        assert read(network, 15) == 50
        assert read(network, 20) == 75
        assert read(network, 1e9) == 75

    def test_before_first_breakpoint(self):
        network = one_link(BandwidthTrace([5], [42]))
        assert read(network, 0) == 42

    def test_constant(self):
        network = one_link(BandwidthTrace.constant(7))
        assert read(network, 0) == 7
        assert network.next_change_after(0) == math.inf

    def test_next_change_after(self):
        network = one_link(BandwidthTrace([0, 10, 20], [1, 2, 3]))
        assert network.next_change_after(-1) == 0
        assert network.next_change_after(0) == 10
        assert network.next_change_after(10) == 20
        assert network.next_change_after(20) == math.inf


class TestNodeBandwidth:
    def test_theo_is_min_of_up_down(self):
        node = NodeBandwidth(
            BandwidthTrace([0, 10], [100, 30]),
            BandwidthTrace([0, 5], [80, 200]),
        )
        network = StarNetwork([node])
        for t, theo in ((0, 80), (5, 100), (10, 30)):
            assert BandwidthSnapshot.from_network(network, t).theo(0) == theo

    def test_next_change_merges_links(self):
        network = StarNetwork([NodeBandwidth(
            BandwidthTrace([0, 10], [1, 2]), BandwidthTrace([0, 4], [1, 2])
        )])
        assert network.next_change_after(0) == 4
        assert network.next_change_after(4) == 10

    def test_constant_helper(self):
        network = StarNetwork([NodeBandwidth.constant(5, 9)])
        assert network.capacities_at(123) == {("up", 0): 5, ("down", 0): 9}
        assert network.next_change_after(0) == math.inf


class TestProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=0, max_value=1e9, allow_nan=False),
            min_size=1,
            max_size=20,
        ),
        st.floats(min_value=0, max_value=100, allow_nan=False),
    )
    def test_value_at_matches_sample(self, values, query):
        trace = trace_from_samples(values, interval=1.0)
        index = min(int(query), len(values) - 1)
        assert read(one_link(trace), query) == values[index]

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-1e3, max_value=1e3),
            min_size=1, max_size=30, unique=True,
        ).map(sorted),
        st.data(),
    )
    def test_breakpoints_are_the_first_sample_and_each_change(
        self, times, data
    ):
        """Values on a ladder, so runs of equal samples are common
        (``-0.0 == 0.0`` is one of them): the trace keeps the first
        sample and each one that differs from the sample before it, and
        a network on it reads as the raw samples do."""
        values = data.draw(st.lists(
            st.sampled_from([0.0, -0.0, 1.0, 2.5, 1e9]),
            min_size=len(times), max_size=len(times),
        ))
        trace = BandwidthTrace(times, values)
        kept = [0] + [
            i for i in range(1, len(values)) if values[i] != values[i - 1]
        ]
        changes = [times[i] for i in kept]
        assert trace._times == changes
        assert trace._values == [values[i] for i in kept]

        def raw(t):
            return values[max(bisect_right(times, t) - 1, 0)]

        between = [(a + b) / 2 for a, b in zip(times, times[1:])]
        instants = [times[0] - 1.0, *times, *between, times[-1] + 1.0]
        network = one_link(trace)
        for t in instants:
            assert read(network, t) == raw(t)
        for t in instants:
            later = [c for c in changes if c > t]
            assert network.next_change_after(t) == min(
                later, default=math.inf
            )
