"""Tests for the WorkloadTrace container."""

import numpy as np
import pytest

from repro.exceptions import TraceError
from repro.traces.workload import WorkloadTrace
from repro.units import gbps


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

    def test_bad_interval_rejected(self):
        with pytest.raises(TraceError):
            WorkloadTrace(
                "x", 10, np.zeros((1, 1)), np.zeros((1, 1)), interval=0
            )


class TestDerivedQuantities:
    def test_shape_accessors(self):
        trace = small_trace()
        assert trace.node_count == 2
        assert trace.sample_count == 3
        assert trace.duration == 3.0

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


class TestNetworkConversion:
    def test_to_network_replays_availability(self):
        trace = small_trace()
        net = trace.to_network()
        assert net.up_at(0, 0.0) == 90
        assert net.up_at(0, 1.0) == 10
        assert net.up_at(0, 2.5) == 50
        assert net.down_at(1, 2.0) == 0

    def test_floor_prevents_starvation(self):
        trace = small_trace()
        net = trace.to_network(floor=5.0)
        assert net.down_at(1, 2.0) == 5.0

    def test_network_size(self):
        assert len(small_trace().to_network()) == 2

    @pytest.mark.parametrize("floor", [0.0, 35.0])
    def test_every_link_equals_the_per_node_formula(self, floor):
        """``to_network`` clips each matrix once; link by link the trace
        is still ``clip(clip(capacity - used, 0)[node], floor)``."""
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
            link = network.node(node)
            assert link.uplink.breakpoints == times
            assert link.downlink.breakpoints == times
            assert link.uplink.values == up.tolist()
            assert link.downlink.values == down.tolist()
            assert min(up.min(), down.min()) >= floor


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
