"""Dashboard rendering tests for ``repro top``."""

import io

import pytest

from repro.obs import Dashboard, LiveTop, SLOMonitor, SLOSpec, TimeSeriesDB
from repro.obs import top
from repro.obs.top import _bar, _latency, _rate


def latest_frame(dashboard, **kwargs):
    """``dashboard``'s frame at the latest timestamp its database holds
    (0.0 when empty), as ``repro top`` shows it when a run ends."""
    points = [series.latest() for series in dashboard.tsdb.all_series()]
    now = max(
        (point[0] for point in points if point is not None), default=0.0
    )
    return dashboard.render(now, **kwargs)


def populated_tsdb(node_count=3):
    db = TimeSeriesDB()
    for t in (9.0, 9.5, 10.0):
        for node in range(node_count):
            db.record(
                "link_utilization", t, 0.1 * (node + 1),
                node=node, direction="up",
            )
            db.record(
                "link_utilization", t, 0.05 * (node + 1),
                node=node, direction="down",
            )
        db.record("class_rate", t, 2e6, kind="repair")
        db.record("class_rate", t, 5e5, kind="foreground")
        db.record("active_tasks", t, 4, kind="repair")
        db.record("repair_cap", t, -1.0)
        db.record("repair_progress", t, t / 20.0)
        for tenant in ("tenant-0", "tenant-1"):
            db.inc("fg_requests_total", t, 10.0, tenant=tenant)
            db.inc("fg_bytes_total", t, 1e6, tenant=tenant)
            db.record("fg_read_latency", t, 0.003, tenant=tenant)
    return db


class TestHelpers:
    def test_bar_clamps_and_sizes(self):
        assert _bar(0.5, 4) == "##.."
        assert _bar(2.0, 4) == "####"
        assert _bar(-1.0, 4) == "...."
        assert _bar(float("nan"), 4) == "    "

    def test_rate_units(self):
        assert _rate(2.5e6) == "2.5 MB/s"
        assert _rate(900.0) == "0.9 kB/s"
        assert _rate(float("nan")) == "n/a"

    def test_latency_units(self):
        assert _latency(0.003) == "3 ms"
        assert _latency(2.5) == "2.50 s"
        assert _latency(float("nan")) == "n/a"


class TestDashboard:
    def test_render_from_populated_tsdb(self):
        frame = latest_frame(Dashboard(populated_tsdb()))
        assert "repro top · t=10.00s (sim)" in frame
        assert "governor  cap uncapped" in frame
        assert "repair    [" in frame and "50.0%" in frame
        assert "active    repair=4" in frame
        assert "link utilization (up | down)" in frame
        assert "node   2" in frame
        assert "throughput by class" in frame
        assert "repair       2.0 MB/s" in frame
        assert "foreground   500.0 kB/s" in frame
        assert "tenants (last 5s)" in frame
        assert "tenant-0" in frame and "tenant-1" in frame

    def test_capped_governor_shows_rate(self):
        db = populated_tsdb()
        db.record("repair_cap", 11.0, 3e6)
        frame = latest_frame(Dashboard(db))
        assert "governor  cap 3.0 MB/s per flow" in frame

    def test_busiest_nodes_first_and_truncation(self, monkeypatch):
        monkeypatch.setattr(top, "MAX_NODES", 2)
        db = populated_tsdb(node_count=5)
        frame = latest_frame(Dashboard(db))
        lines = frame.splitlines()
        node_lines = [line for line in lines if line.startswith("  node")]
        assert len(node_lines) == 2
        # node 4 has the highest utilization, node 3 next.
        assert node_lines[0].startswith("  node   4")
        assert node_lines[1].startswith("  node   3")
        assert "… 3 quieter nodes not shown" in frame

    def test_empty_tsdb_renders_header_only(self):
        frame = latest_frame(Dashboard(TimeSeriesDB()))
        assert frame == "repro top · t=0.00s (sim)"

    def test_width_truncates_lines(self):
        frame = latest_frame(Dashboard(populated_tsdb()), width=30)
        assert all(len(line) <= 30 for line in frame.splitlines())

    def test_tenants_discovered_from_labels(self):
        dashboard = Dashboard(populated_tsdb())
        assert dashboard.tenants() == ["tenant-0", "tenant-1"]
        assert Dashboard(TimeSeriesDB()).tenants() == []


class TestDashboardSLO:
    def make(self, db):
        spec = SLOSpec(
            name="lat-tenant-0", kind="latency", tenant="tenant-0",
            threshold=0.001, budget=0.05,
            short_window=1.0, long_window=2.0,
        )
        return SLOMonitor(db, [spec])

    def test_unevaluated_spec_is_flagged(self):
        db = populated_tsdb()
        frame = latest_frame(Dashboard(db, slo=self.make(db)))
        assert "lat-tenant-0         (not evaluated yet)" in frame

    def test_firing_slo_and_alert_feed(self):
        db = populated_tsdb()
        monitor = self.make(db)
        monitor.evaluate(10.0)  # every 3ms read breaches the 1ms target
        frame = latest_frame(Dashboard(db, slo=monitor))
        assert "SLO burn (short/long windows)" in frame
        assert "FIRING" in frame
        assert "alerts" in frame
        assert "FIRE    lat-tenant-0 (tenant=tenant-0" in frame

    def test_no_data_state(self):
        db = TimeSeriesDB()
        monitor = self.make(db)
        monitor.evaluate(10.0)
        frame = latest_frame(Dashboard(db, slo=monitor))
        assert "no data" in frame
        assert "FIRING" not in frame


class TestLiveTop:
    def test_refresh_must_be_positive(self):
        with pytest.raises(ValueError):
            LiveTop(Dashboard(TimeSeriesDB()), io.StringIO(), refresh=0.0)

    def test_emits_on_refresh_grid(self):
        stream = io.StringIO()
        live = LiveTop(Dashboard(populated_tsdb()), stream, refresh=1.0)
        for t in (0.0, 0.25, 0.5, 1.0, 1.25, 2.0, 2.25):
            live.on_tick(t)
        assert live.frames == 3  # t=0.0, 1.0, 2.0

    def test_ansi_frames_are_prefixed_with_home_clear(self):
        stream = io.StringIO()
        live = LiveTop(Dashboard(populated_tsdb()), stream, refresh=1.0)
        live.emit(1.0)
        live.emit(2.0)
        output = stream.getvalue()
        assert output.count("\x1b[H\x1b[J") == 2
        assert output.endswith("\n")

    def test_plain_frames_are_blank_line_separated(self, monkeypatch):
        monkeypatch.setattr(top, "ANSI", False)
        stream = io.StringIO()
        live = LiveTop(Dashboard(populated_tsdb()), stream, refresh=1.0)
        live.emit(1.0)
        live.emit(2.0)
        output = stream.getvalue()
        assert "\x1b" not in output
        assert "\n\nrepro top" in output
