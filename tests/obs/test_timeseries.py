"""Tests for the ring-buffered simulated-time TSDB."""

import math

import pytest

from repro.obs import TimeSeriesDB
from repro.obs import promtext
from repro.obs.timeseries import TimeSeriesError
from tests.obs.tsdb_reader import tsdb_from_jsonl


def feed_gauge(db, name, points, **labels):
    for t, value in points:
        db.record(name, t, value, **labels)


class TestIngest:
    def test_capacity_must_be_positive(self):
        with pytest.raises(TimeSeriesError):
            TimeSeriesDB(capacity=0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(TimeSeriesError):
            TimeSeriesDB().record("x", 0.0, 1.0, "exotic")

    def test_kind_collision_rejected(self):
        db = TimeSeriesDB()
        db.record("x", 0.0, 1.0)
        with pytest.raises(TimeSeriesError):
            db.inc("x", 1.0)

    def test_label_named_kind_is_a_label(self):
        # `kind` is positional-only in record(), so the flight recorder's
        # per-class series (class_rate{kind="repair"}) are expressible.
        db = TimeSeriesDB()
        db.record("class_rate", 0.0, 5.0, kind="repair")
        [series] = db.series("class_rate")
        assert series.labels == {"kind": "repair"}
        assert series.kind == "gauge"

    def test_counter_cannot_decrease(self):
        with pytest.raises(TimeSeriesError):
            TimeSeriesDB().inc("x", 0.0, -1.0)

    def test_inc_accumulates_totals(self):
        db = TimeSeriesDB()
        db.inc("bytes", 1.0, 10.0, tenant="a")
        db.inc("bytes", 2.0, 5.0, tenant="a")
        [series] = db.series("bytes", tenant="a")
        assert list(series.points) == [(1.0, 10.0), (2.0, 15.0)]

    def test_distinct_label_sets_are_distinct_series(self):
        db = TimeSeriesDB()
        db.record("u", 0.0, 1.0, node=1)
        db.record("u", 0.0, 2.0, node=2)
        db.record("u", 0.0, 3.0)
        assert len(db) == 3
        assert len(db.series("u", node=1)) == 1
        assert len(db.series("u")) == 3  # subset match: {} matches all

    def test_ring_eviction_counts_drops(self):
        db = TimeSeriesDB(capacity=4)
        feed_gauge(db, "g", [(float(i), float(i)) for i in range(10)])
        [series] = db.series("g")
        assert len(series) == 4
        assert db.dropped == 6
        assert db.total_points == 4
        # Ring keeps the newest points.
        assert series.window(0.0, 100.0)[0][0] == 6.0


class TestQueries:
    def test_latest_picks_most_recent_across_series(self):
        db = TimeSeriesDB()
        db.record("u", 1.0, 0.2, node=1)
        db.record("u", 3.0, 0.9, node=2)
        assert db.latest("u") == 0.9
        assert db.latest("u", node=1) == 0.2
        assert db.latest("absent") is None

    def test_window_pools_and_sorts(self):
        db = TimeSeriesDB()
        db.record("u", 2.0, 1.0, node=1)
        db.record("u", 1.0, 2.0, node=2)
        db.record("u", 9.0, 3.0, node=2)
        assert db.window("u", 0.0, 5.0) == [(1.0, 2.0), (2.0, 1.0)]
        with pytest.raises(TimeSeriesError):
            db.window("u", 5.0, 0.0)

    def test_rate_over_window(self):
        db = TimeSeriesDB()
        for t in range(5):
            db.inc("bytes", float(t), 100.0, tenant="a")
        assert db.rate("bytes", 0.0, 4.0, tenant="a") == pytest.approx(100.0)

    def test_rate_needs_counter_and_two_points(self):
        db = TimeSeriesDB()
        db.record("g", 0.0, 1.0)
        with pytest.raises(TimeSeriesError):
            db.rate("g", 0.0, 1.0)
        db.inc("c", 0.0, 1.0)
        assert math.isnan(db.rate("c", 0.0, 1.0))  # one point
        assert math.isnan(db.rate("missing", 0.0, 1.0))
        with pytest.raises(TimeSeriesError):
            db.rate("c", 1.0, 1.0)

    def test_avg_max_percentile(self):
        db = TimeSeriesDB()
        feed_gauge(db, "lat", [(float(t), float(t)) for t in range(1, 11)])
        assert db.avg("lat", 1.0, 10.0) == pytest.approx(5.5)
        assert max(db._values("lat", 1.0, 10.0, {})) == 10.0
        assert db.percentile("lat", 50, 1.0, 10.0) == 5.0
        assert db.percentile("lat", 100, 1.0, 10.0) == 10.0
        assert math.isnan(db.avg("lat", 20.0, 30.0))
        with pytest.raises(TimeSeriesError):
            db.percentile("lat", 101, 0.0, 10.0)

    def test_fraction_over_is_nan_without_evidence(self):
        db = TimeSeriesDB()
        assert math.isnan(db.fraction_over("lat", 0.5, 0.0, 10.0))
        feed_gauge(db, "lat", [(1.0, 0.1), (2.0, 0.9), (3.0, 0.8)])
        assert db.fraction_over("lat", 0.5, 0.0, 10.0) == pytest.approx(2 / 3)


class TestExport:
    def build(self):
        db = TimeSeriesDB(capacity=8)
        db.record("link_utilization", 0.5, 0.8, node=3, direction="up")
        db.record("link_utilization", 1.0, 0.9, node=3, direction="up")
        db.inc("fg_bytes_total", 1.0, 4096.0, tenant="tenant-0")
        return db

    def test_jsonl_round_trip(self):
        db = self.build()
        text = db.to_jsonl()
        assert text.endswith("\n")
        back = tsdb_from_jsonl(text)
        assert back.to_jsonl() == text
        assert len(back) == len(db)
        # Counter totals survive, so rates keep working after reload.
        back.inc("fg_bytes_total", 2.0, 1024.0, tenant="tenant-0")
        [series] = back.series("fg_bytes_total")
        assert series.latest() == (2.0, 5120.0)

    def test_empty_round_trip(self):
        assert TimeSeriesDB().to_jsonl() == ""
        assert len(tsdb_from_jsonl("")) == 0

    def test_prometheus_exposition_lints(self):
        from tests.obs.promtext_lint import lint as prometheus_lint

        text = promtext.render_exposition(tsdb=self.build())
        assert "# TYPE link_utilization gauge" in text
        assert 'node="3"' in text
        assert prometheus_lint(text) == []
