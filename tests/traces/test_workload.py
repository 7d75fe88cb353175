"""Tests for the WorkloadTrace container."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import TraceError
from repro.network.bandwidth import merge_breakpoints
from repro.network.topology import StarNetwork
from repro.traces.generators import TPC_DS, generate_all, generate_trace
from repro.traces.workload import WorkloadTrace
from repro.units import gbps
from tests.network.links import trace_from_samples


def small_trace():
    capacity = 100.0
    used_up = np.array([[10, 90, 50], [0, 100, 20]], dtype=float)
    used_down = np.array([[30, 40, 50], [0, 80, 100]], dtype=float)
    return WorkloadTrace("toy", capacity, used_up, used_down)


class TestValidation:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(TraceError):
            WorkloadTrace("x", 10, np.zeros((2, 3)), np.zeros((2, 4)))

    def test_wrong_rank_rejected(self):
        with pytest.raises(TraceError):
            WorkloadTrace("x", 10, np.zeros(3), np.zeros(3))

    def test_bad_capacity_rejected(self):
        with pytest.raises(TraceError):
            WorkloadTrace("x", 0, np.zeros((1, 1)), np.zeros((1, 1)))

    def test_negative_usage_rejected(self):
        with pytest.raises(TraceError):
            WorkloadTrace("x", 10, -np.ones((1, 1)), np.zeros((1, 1)))

    def test_usage_above_capacity_rejected(self):
        with pytest.raises(TraceError):
            WorkloadTrace("x", 10, 11 * np.ones((1, 1)), np.zeros((1, 1)))

    def test_zero_samples_rejected(self):
        with pytest.raises(
            TraceError,
            match="^usage arrays hold 0 samples: a trace needs at least one$",
        ):
            WorkloadTrace("x", 10, np.zeros((2, 0)), np.zeros((2, 0)))

    def test_bad_interval_rejected(self):
        with pytest.raises(TraceError):
            WorkloadTrace(
                "x", 10, np.zeros((1, 1)), np.zeros((1, 1)), interval=0
            )

    def test_load_rejects_a_file_that_is_not_a_saved_trace(self, tmp_path):
        garbage = tmp_path / "garbage.npz"
        garbage.write_bytes(b"not a trace\n")
        partial = tmp_path / "partial.npz"
        np.savez(partial, name="x", capacity=10.0, interval=1.0)
        for path in (garbage, partial):
            with pytest.raises(TraceError) as raised:
                WorkloadTrace.load(path)
            assert str(raised.value) == f"{path} is not a saved workload trace"


class TestDerivedQuantities:
    def test_shape_accessors(self):
        trace = small_trace()
        assert trace.node_count == 2
        assert trace.sample_count == 3
        assert trace.sample_count * trace.interval == 3.0

    def test_used_node_bandwidth_is_max(self):
        trace = small_trace()
        np.testing.assert_array_equal(
            trace.used_node_bandwidth(),
            np.array([[30, 90, 50], [0, 100, 100]], dtype=float),
        )

    def test_available_is_capacity_minus_used(self):
        trace = small_trace()
        np.testing.assert_array_equal(
            trace.available_up(),
            np.array([[90, 10, 50], [100, 0, 80]], dtype=float),
        )

    def test_available_node_bandwidth_is_min(self):
        trace = small_trace()
        np.testing.assert_array_equal(
            trace.available_node_bandwidth(),
            np.array([[70, 10, 50], [100, 0, 0]], dtype=float),
        )

    def test_window(self):
        trace = small_trace().window(1, 2)
        assert trace.sample_count == 2
        assert trace.used_up[0, 0] == 90

    def test_window_out_of_range(self):
        with pytest.raises(TraceError):
            small_trace().window(5, 1)

    @pytest.mark.parametrize("start, samples", [(0, 0), (10, -3)])
    def test_empty_window_rejected(self, start, samples):
        """An empty window used to be accepted and to fail only in
        ``to_network``, with a message that named no window."""
        trace = generate_trace(TPC_DS, 4, 50, seed=0)
        with pytest.raises(
            TraceError,
            match=f"^a window of {samples} samples: it needs at least one$",
        ):
            trace.window(start, samples)

    def test_window_to_the_end_keeps_the_samples_left(self):
        trace = generate_trace(TPC_DS, 4, 50, seed=0).window(48, 10)
        assert trace.sample_count == 2


class TestNetworkConversion:
    def test_to_network_replays_availability(self):
        trace = small_trace()
        net = trace.to_network()
        assert net.capacities_at(0.0)["up", 0] == 90
        assert net.capacities_at(1.0)["up", 0] == 10
        assert net.capacities_at(2.5)["up", 0] == 50
        assert net.capacities_at(2.0)["down", 1] == 0

    def test_floor_prevents_starvation(self):
        trace = small_trace()
        net = trace.to_network(floor=5.0)
        assert net.capacities_at(2.0)["down", 1] == 5.0

    def test_network_size(self):
        assert len(small_trace().to_network()) == 2

    @pytest.mark.parametrize("floor", [0.0, 35.0])
    def test_every_link_equals_the_per_node_formula(self, floor):
        """``to_network`` clips each matrix once; link by link the trace
        is still ``clip(clip(capacity - used, 0)[node], floor)``, less
        each sample equal to the one before it (the floor makes runs)."""
        rng = np.random.default_rng(8)
        trace = WorkloadTrace(
            "random", 100.0, rng.uniform(0, 100, (5, 40)),
            rng.uniform(0, 100, (5, 40)), interval=0.5,
        )
        network = trace.to_network(floor=floor)
        times = [0.5 * sample for sample in range(40)]
        for node in range(5):
            up = np.clip(trace.available_up()[node], floor, None)
            down = np.clip(trace.available_down()[node], floor, None)
            link = network._nodes[node]
            for kept, row in ((link.uplink, up), (link.downlink, down)):
                changes = first_and_changes(row.tolist())
                assert kept._times == [times[i] for i in changes]
                assert kept._values == row[changes].tolist()
            assert min(up.min(), down.min()) >= floor

    def test_every_trace_keeps_only_its_changes(self):
        """At a floor of 85 every link holds one value from second 1 on,
        node 0's downlink throughout: the network has two epochs, not
        three."""
        network = small_trace().to_network(floor=85.0)
        links = [network._nodes[node] for node in network.node_ids]
        assert [
            (trace._times, trace._values)
            for link in links
            for trace in (link.uplink, link.downlink)
        ] == [
            ([0.0, 1.0], [90.0, 85.0]),
            ([0.0], [85.0]),
            ([0.0, 1.0], [100.0, 85.0]),
            ([0.0, 1.0], [100.0, 85.0]),
        ]
        assert links[0].uplink._times is not links[1].uplink._times
        assert merge_breakpoints(links) == network._breakpoints == [0.0, 1.0]


def first_and_changes(values):
    """Indices of the first sample and of each that differs from the one
    before it: the samples a trace keeps."""
    return [0] + [
        i for i in range(1, len(values)) if values[i] != values[i - 1]
    ]


@st.composite
def workloads(draw):
    """A random usage matrix pair: 1-24 nodes, 1-400 samples, a random
    interval, values continuous or on a coarse ladder (so links tie),
    touching 0 and the capacity."""
    nodes = draw(st.integers(min_value=1, max_value=24))
    samples = draw(st.integers(min_value=1, max_value=400))
    interval = draw(
        st.sampled_from([1.0, 0.5, 0.1, 1 / 3])
        | st.floats(min_value=1e-3, max_value=60.0)
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    capacity = 100.0
    if draw(st.booleans()):
        used = rng.integers(0, 5, (2, nodes, samples)) * 25.0
    else:
        used = rng.uniform(0, capacity, (2, nodes, samples))
    return WorkloadTrace("random", capacity, used[0], used[1], interval)


def reference_network(trace, floor):
    """``to_network`` as it was: one ``trace_from_samples`` trace per row."""
    up = np.clip(trace.available_up(), floor, None)
    down = np.clip(trace.available_down(), floor, None)
    return StarNetwork.from_traces(
        [trace_from_samples(row, trace.interval) for row in up],
        [trace_from_samples(row, trace.interval) for row in down],
    )


class TestMatrixPathDifferential:
    @settings(max_examples=60, deadline=None)
    @given(
        workloads(),
        st.sampled_from([0.0, 30.0]) | st.floats(min_value=0, max_value=150),
        st.lists(st.floats(min_value=-2.0, max_value=1.2), max_size=12),
    )
    def test_network_equals_the_per_trace_construction(
        self, trace, floor, fractions
    ):
        network = trace.to_network(floor=floor)
        reference = reference_network(trace, floor)
        grid = [0.0 + i * trace.interval for i in range(trace.sample_count)]
        changes = sorted({
            grid[i]
            for matrix in (trace.available_up(), trace.available_down())
            for row in np.clip(matrix, floor, None).tolist()
            for i in first_and_changes(row)
        })
        assert network._breakpoints == reference._breakpoints == changes
        assert all(type(t) is float for t in network._breakpoints)
        assert [(r, list(t), v) for r, t, v in network._columns] == [
            (r, list(t), v) for r, t, v in reference._columns
        ]
        assert all(
            type(v) is float for _, _, values in network._columns
            for v in values
        )
        # Before 0, on and between breakpoints, past the end; twice each.
        instants = [fraction * trace.sample_count * trace.interval for fraction in fractions]
        for t in instants + instants:
            assert network.capacities_at(t) == reference.capacities_at(t)
        assert (network.rows_built, network.row_hits) == (
            reference.rows_built, reference.row_hits
        )

    def test_nan_sample_is_rejected_not_planned_on(self):
        """A NaN written into the usage matrix after construction used to
        become node 3's uplink at t=12, and PivotRepair chose node 3 as a
        helper at that bandwidth."""
        trace = generate_all(16, 200, seed=0)["TPC-DS"]
        trace.used_up[3, 10:20] = np.nan
        with pytest.raises(
            TraceError,
            match="^uplink of node 3, sample 10 is nan: bandwidth must be finite$",
        ):
            trace.to_network(floor=1e6)
        with pytest.raises(
            TraceError, match="^used up bandwidth of node 3, sample 10 is nan$"
        ):
            WorkloadTrace(
                trace.name, trace.capacity, trace.used_up, trace.used_down
            )

    def test_empty_and_negative_messages_unchanged(self):
        with pytest.raises(
            TraceError, match="^a trace needs at least one breakpoint$"
        ):
            trace_from_samples([])
        with pytest.raises(
            TraceError, match="^used bandwidth cannot be negative$"
        ):
            WorkloadTrace("x", 10, np.zeros((1, 2)), -np.ones((1, 2)))
        with pytest.raises(TraceError, match="^bandwidth cannot be negative$"):
            trace_from_samples([1.0, -1.0])


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        trace = small_trace()
        path = tmp_path / "trace.npz"
        trace.save(path)
        loaded = WorkloadTrace.load(path)
        assert loaded.name == trace.name
        assert loaded.capacity == trace.capacity
        np.testing.assert_array_equal(loaded.used_up, trace.used_up)
        np.testing.assert_array_equal(loaded.used_down, trace.used_down)


class TestUnits:
    def test_default_capacity_is_one_gbps(self):
        from repro.traces.workload import DEFAULT_CAPACITY

        assert DEFAULT_CAPACITY == gbps(1.0)
