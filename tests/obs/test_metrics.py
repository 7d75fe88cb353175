"""Metrics registry unit tests."""

import json
import math

import pytest

from repro.obs import Histogram, MetricsRegistry
from repro.obs.metrics import DEFAULT_RESERVOIR_SIZE


class TestCounter:
    def test_increments(self):
        registry = MetricsRegistry()
        counter = registry.counter("flows_completed")
        counter.inc()
        counter.inc(3)
        assert counter.value == 4

    def test_same_name_returns_same_counter(self):
        registry = MetricsRegistry()
        registry.counter("x").inc()
        registry.counter("x").inc()
        assert registry.counter("x").value == 2

    def test_decrement_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("x").inc(-1)


class TestGauge:
    def test_last_write_wins(self):
        gauge = MetricsRegistry().gauge("utilization")
        gauge.set(0.4)
        gauge.set(0.9)
        assert gauge.value == 0.9


class TestHistogram:
    def test_summary_percentiles(self):
        histogram = Histogram("task_seconds")
        for value in range(1, 101):
            histogram.observe(float(value))
        summary = histogram.summary()
        assert summary["count"] == 100
        assert summary["min"] == 1.0
        assert summary["max"] == 100.0
        assert summary["mean"] == pytest.approx(50.5)
        assert summary["p50"] == 50.0
        assert summary["p90"] == 90.0
        assert summary["p99"] == 99.0

    def test_empty_summary(self):
        assert Histogram("x").summary() == {"count": 0}
        assert math.isnan(Histogram("x").percentile(50))

    def test_percentile_bounds_checked(self):
        histogram = Histogram("x")
        histogram.observe(1.0)
        with pytest.raises(ValueError):
            histogram.percentile(101)


class TestRegistry:
    def test_name_collision_across_types_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")
        with pytest.raises(ValueError):
            registry.histogram("x")

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("flows_completed").inc(2)
        registry.gauge("bottleneck_utilization").set(0.8)
        registry.histogram("task_seconds").observe(1.5)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["flows_completed"] == 2
        assert snapshot["gauges"]["bottleneck_utilization"] == 0.8
        assert snapshot["histograms"]["task_seconds"]["count"] == 1

    def test_snapshot_folds_per_node_series(self):
        registry = MetricsRegistry()
        registry.counter("bytes_up/0").inc(100)
        registry.counter("bytes_up/3").inc(50)
        registry.counter("bytes_down/3").inc(75)
        snapshot = registry.snapshot()
        assert snapshot["per_bytes_up"] == {"0": 100, "3": 50}
        assert snapshot["per_bytes_down"] == {"3": 75}

    def test_snapshot_is_json_serialisable(self):
        import json

        registry = MetricsRegistry()
        registry.counter("a/1").inc()
        registry.histogram("h").observe(2.0)
        json.dumps(registry.snapshot())


class TestHistogramReservoir:
    def test_exact_below_threshold(self):
        histogram = Histogram("h", reservoir_size=100)
        for i in range(100):
            histogram.observe(float(i))
        assert len(histogram.samples) == 100
        assert histogram.percentile(50) == 49.0

    def test_memory_bounded_past_threshold(self):
        histogram = Histogram("fg_read_latency", reservoir_size=64)
        for i in range(10_000):
            histogram.observe(float(i))
        assert len(histogram.samples) == 64
        assert histogram.count == 10_000
        # min/max/mean stay exact even once sampling kicks in.
        summary = histogram.summary()
        assert summary["min"] == 0.0
        assert summary["max"] == 9999.0
        assert summary["mean"] == pytest.approx(4999.5)

    def test_reservoir_is_name_seeded_deterministic(self):
        def fill(name):
            histogram = Histogram(name, reservoir_size=32)
            for i in range(5000):
                histogram.observe(float(i))
            return list(histogram.samples)

        assert fill("a") == fill("a")
        assert fill("a") != fill("b")

    def test_reservoir_percentiles_roughly_uniform(self):
        histogram = Histogram("h", reservoir_size=1024)
        for i in range(100_000):
            histogram.observe(i / 100_000)
        # A uniform reservoir over U[0,1): median near 0.5, p99 near 0.99.
        assert histogram.percentile(50) == pytest.approx(0.5, abs=0.05)
        assert histogram.percentile(99) == pytest.approx(0.99, abs=0.02)

    def test_reservoir_size_must_be_positive(self):
        with pytest.raises(ValueError):
            Histogram("h", reservoir_size=0)

    def test_exactly_default_reservoir_size_stays_exact(self):
        # The 8192nd observation still fits: exact mode, no RNG yet.
        histogram = Histogram("h")
        for i in range(DEFAULT_RESERVOIR_SIZE):
            histogram.observe(float(i))
        assert len(histogram.samples) == DEFAULT_RESERVOIR_SIZE
        assert histogram._rng is None
        # Nearest-rank percentiles over 0..8191 are exact.
        assert histogram.percentile(0) == 0.0
        assert histogram.percentile(50) == 4095.0
        assert histogram.percentile(100) == 8191.0
        # One more observation tips into reservoir mode: the sample list
        # stays bounded while count/min/max/mean remain exact.
        histogram.observe(float(DEFAULT_RESERVOIR_SIZE))
        assert len(histogram.samples) == DEFAULT_RESERVOIR_SIZE
        assert histogram._rng is not None
        assert histogram.count == DEFAULT_RESERVOIR_SIZE + 1
        assert histogram.summary()["max"] == float(DEFAULT_RESERVOIR_SIZE)

    def test_empty_histogram_snapshot(self):
        registry = MetricsRegistry()
        registry.histogram("planner_seconds")  # created, never observed
        snapshot = registry.snapshot()
        assert snapshot["histograms"]["planner_seconds"] == {"count": 0}
        assert math.isnan(
            registry.histogram("planner_seconds").percentile(50)
        )
        json.dumps(snapshot)  # an empty summary must stay serialisable

    def test_reservoir_reproducible_across_registries(self):
        def fill(registry):
            histogram = registry.histogram("task_seconds")
            for i in range(3 * DEFAULT_RESERVOIR_SIZE):
                histogram.observe(float(i % 977))
            return list(histogram.samples)

        first = fill(MetricsRegistry())
        second = fill(MetricsRegistry())
        # Same name => same crc32 seed => identical reservoir contents,
        # so two seeded runs snapshot identical percentiles.
        assert first == second

class TestLabeledFamilies:
    def test_unlabeled_snapshot_schema_unchanged(self):
        registry = MetricsRegistry()
        registry.counter("flows").inc()
        snapshot = registry.snapshot()
        assert "families" not in snapshot
        assert snapshot["counters"] == {"flows": 1.0}

    def test_label_sets_are_distinct_children(self):
        registry = MetricsRegistry()
        registry.counter("repair_bytes", node=7, kind="hedge").inc(10)
        registry.counter("repair_bytes", node=7, kind="primary").inc(5)
        registry.counter("repair_bytes").inc(1)
        children = registry.series("repair_bytes")
        assert [child.labels for child in children] == [
            {}, {"kind": "hedge", "node": "7"},
            {"kind": "primary", "node": "7"},
        ]
        assert registry.families()["repair_bytes"] == "counter"

    def test_label_order_does_not_matter(self):
        registry = MetricsRegistry()
        registry.counter("x", a="1", b="2").inc()
        registry.counter("x", b="2", a="1").inc()
        assert registry.counter("x", a="1", b="2").value == 2

    def test_family_type_collision_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x", node=1)

    def test_snapshot_flat_keys_and_families_section(self):
        registry = MetricsRegistry()
        registry.counter("hedge_events", kind="cancel").inc(2)
        registry.gauge("cap", node=3).set(1.5)
        registry.histogram("lat", tenant="t0").observe(0.25)
        snapshot = registry.snapshot()
        assert snapshot["counters"]['hedge_events{kind="cancel"}'] == 2.0
        assert snapshot["gauges"]['cap{node="3"}'] == 1.5
        assert snapshot["histograms"]['lat{tenant="t0"}']["count"] == 1
        families = snapshot["families"]
        assert families["hedge_events"] == [
            {"labels": {"kind": "cancel"}, "value": 2.0}
        ]
        assert families["lat"][0]["summary"]["count"] == 1

    def test_labeled_snapshot_is_json_serialisable(self):
        registry = MetricsRegistry()
        registry.counter("x", tenant="a").inc()
        json.dumps(registry.snapshot())

    def test_per_node_folding_skips_labeled_keys(self):
        registry = MetricsRegistry()
        registry.counter("bytes_up/3", kind="hedge").inc(7)
        snapshot = registry.snapshot()
        # The rendered key contains a slash but is not a name/key metric,
        # so it must not be folded into a per_* map.
        assert "per_bytes_up" not in snapshot

    def test_unlabeled_and_labeled_children_of_one_family(self):
        """The unlabeled fast path and a labeled sibling share a family:
        one type, flat keys in sorted order, ``families`` lists only the
        labeled child."""
        registry = MetricsRegistry()
        registry.counter("repair_bytes").inc(1)
        registry.counter("repair_bytes", kind="hedge").inc(10)
        registry.counter("flows").inc(2)
        registry.histogram("lat").observe(0.5)
        registry.histogram("lat", tenant="t0").observe(0.25)
        assert registry.counter("repair_bytes").labels == {}
        snapshot = registry.snapshot()
        assert list(snapshot) == [
            "counters", "gauges", "histograms", "families",
        ]
        assert json.dumps(snapshot["counters"]) == (
            '{"flows": 2.0, "repair_bytes": 1.0, '
            '"repair_bytes{kind=\\"hedge\\"}": 10.0}'
        )
        assert list(snapshot["histograms"]) == ["lat", 'lat{tenant="t0"}']
        assert snapshot["families"] == {
            "repair_bytes": [{"labels": {"kind": "hedge"}, "value": 10.0}],
            "lat": [{
                "labels": {"tenant": "t0"},
                "summary": registry.histogram("lat", tenant="t0").summary(),
            }],
        }
        for other in (registry.gauge, registry.histogram):
            with pytest.raises(ValueError):
                other("repair_bytes")
            with pytest.raises(ValueError):
                other("repair_bytes", kind="hedge")

    def test_rejected_labeled_child_leaves_no_families_section(self):
        registry = MetricsRegistry()
        registry.counter("x").inc()
        with pytest.raises(ValueError):
            registry.gauge("x", node=1)
        assert registry.snapshot() == {
            "counters": {"x": 1.0}, "gauges": {}, "histograms": {},
        }

    def test_summary_equals_percentile_by_percentile(self):
        """``summary`` sorts once; each entry is still ``percentile(q)``."""
        histogram = Histogram("x")
        for value in (5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0):
            histogram.observe(value)
        summary = histogram.summary()
        assert list(summary) == [
            "count", "min", "max", "mean", "p50", "p90", "p95", "p99",
            "p99.9",
        ]
        for q in (50, 90, 95, 99, 99.9):
            assert summary[f"p{q}"] == histogram.percentile(q)
