"""Flight-recorder tests: alignment, ring bounds, export, zero cost."""

import numpy as np
import pytest

from repro.core import PivotRepairPlanner, pin_planning
from repro.ec import RSCode, place_stripes
from repro.exceptions import SimulationError
from repro.network.topology import StarNetwork
from repro.obs import FlightRecorder, Sample
from repro.repair import repair_full_node
from repro.repair.pipeline import ExecutionConfig


NODE_COUNT = 10
CODE = RSCode(6, 4)


def network():
    return StarNetwork.constant([500.0] * NODE_COUNT, [800.0] * NODE_COUNT)


def config():
    return ExecutionConfig(
        chunk_size=10_000, slice_size=1000, per_slice_overhead=0.0
    )


def sampled_one_stripe(sampler):
    """Rebuild one lost chunk (a one-stripe full-node repair), sampled."""
    stripes = place_stripes(1, CODE, NODE_COUNT, np.random.default_rng(3))
    return repair_full_node(
        pin_planning(PivotRepairPlanner(), 0.0), network(), stripes,
        stripes[0].placement[0], config=config(), sampler=sampler,
    )


class TestValidation:
    def test_interval_must_be_positive(self):
        with pytest.raises(SimulationError):
            FlightRecorder(interval=0.0)

    def test_capacity_must_be_positive(self):
        with pytest.raises(SimulationError):
            FlightRecorder(capacity=0)

    def test_double_bind_rejected(self):
        sampler = FlightRecorder(interval=0.1)
        sampled_one_stripe(sampler)
        with pytest.raises(SimulationError):
            sampled_one_stripe(sampler)


class TestSampling:
    def test_ticks_are_interval_aligned(self):
        sampler = FlightRecorder(interval=0.5)
        sampled_one_stripe(sampler)
        assert len(sampler) > 1
        ticks = [sample.t for sample in sampler.samples]
        assert ticks == sorted(ticks)
        for index, t in enumerate(ticks):
            assert t == pytest.approx(ticks[0] + index * 0.5)

    def test_samples_see_repair_traffic(self):
        sampler = FlightRecorder(interval=0.5)
        result = sampled_one_stripe(sampler)
        busy = [s for s in sampler.samples if s.rate_by_kind]
        assert busy, "an active repair must show up in the samples"
        for sample in busy:
            assert sample.rate_by_kind.get("repair", 0.0) > 0
            assert sample.active_by_kind.get("repair", 0) >= 1
            # Utilization is rate over capacity, so it stays in (0, 1].
            for series in (sample.up_util, sample.down_util):
                for value in series.values():
                    assert 0 < value <= 1.0 + 1e-9
        assert result.total_seconds > 0

    def test_ring_buffer_bounds_memory_and_counts_drops(self):
        sampler = FlightRecorder(interval=0.01, capacity=8)
        sampled_one_stripe(sampler)
        assert len(sampler) == 8
        assert sampler.dropped > 0
        # The ring keeps the newest samples.
        ticks = [sample.t for sample in sampler.samples]
        assert ticks == sorted(ticks)

    def test_disabled_by_default_and_observation_only(self):
        plain = sampled_one_stripe(None)
        sampler = FlightRecorder(interval=0.05)
        sampled = sampled_one_stripe(sampler)
        assert plain.total_seconds == sampled.total_seconds
        assert plain.bytes_transferred == sampled.bytes_transferred


class TestSampleRoundTrip:
    def test_uncapped_sample_omits_repair_cap(self):
        sample = Sample(t=0.0)
        assert sample.to_dict() == {"t": 0.0}

    def test_to_dict_keys_are_sorted_strings(self):
        sample = Sample(t=0.0, up={9: 1.0, 2: 2.0})
        assert list(sample.to_dict()["up"]) == ["2", "9"]


class TestTsdbFeed:
    def test_samples_mirror_into_labeled_series(self):
        from repro.obs import TimeSeriesDB

        tsdb = TimeSeriesDB()
        sampler = FlightRecorder(interval=0.5, tsdb=tsdb)
        sampled_one_stripe(sampler)
        names = {series.name for series in tsdb.all_series()}
        assert {"link_utilization", "class_rate", "active_tasks",
                "repair_cap"} <= set(names)
        [series] = tsdb.series("class_rate", kind="repair")
        assert all(value > 0 for _, value in series.points)
        # No governor ran, so the cap gauge records the -1.0 sentinel.
        assert tsdb.latest("repair_cap") == -1.0

    def test_governor_cap_is_mirrored(self):
        from repro.obs import TimeSeriesDB

        tsdb = TimeSeriesDB()
        sampler = FlightRecorder(interval=0.5, tsdb=tsdb)
        sampler.note_governor_cap(123.0)
        sampled_one_stripe(sampler)
        assert tsdb.latest("repair_cap") == 123.0

    def test_listeners_fire_once_per_tick_in_order(self):
        sampler = FlightRecorder(interval=0.5)
        seen = []
        sampler.add_listener(seen.append)
        sampled_one_stripe(sampler)
        assert seen == [sample.t for sample in sampler.samples]
