"""SLO burn-rate monitor tests: burn math, hysteresis, hooks, scenarios."""

import numpy as np
import pytest

from repro.core import PivotRepairPlanner
from repro.ec import RSCode, place_stripes
from repro.loadgen import (
    ForegroundEngine,
    LoadProfile,
    generate_requests,
    make_governor,
)
from repro.network.topology import StarNetwork
from repro.obs import (
    FlightRecorder,
    SLOMonitor,
    SLOSpec,
    TimeSeriesDB,
    Tracer,
)
from repro.obs.slo import MAX_BURN, SLOError
from repro.repair import ExecutionConfig, repair_full_node


def latency_spec(**overrides):
    spec = {
        "name": "lat", "kind": "latency", "tenant": "t0",
        "threshold": 0.1, "budget": 0.1,
        "short_window": 2.0, "long_window": 6.0,
    }
    spec.update(overrides)
    return SLOSpec(**spec)


def feed_latency(db, points, tenant="t0"):
    for t, value in points:
        db.record("fg_read_latency", t, value, tenant=tenant)


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(SLOError):
            SLOSpec(name="x", kind="availability")

    def test_bad_windows(self):
        with pytest.raises(SLOError):
            latency_spec(short_window=10.0, long_window=2.0)

    def test_default_series_per_kind(self):
        assert latency_spec().source == "fg_read_latency"
        assert (
            SLOSpec(name="d", kind="repair_deadline").source
            == "repair_progress"
        )

    def test_duplicate_names_rejected(self):
        with pytest.raises(SLOError):
            SLOMonitor(TimeSeriesDB(), [latency_spec(), latency_spec()])


class TestBurnRates:
    def test_no_data_is_not_a_breach(self):
        monitor = SLOMonitor(TimeSeriesDB(), [latency_spec()])
        [status] = monitor.evaluate(10.0)
        assert status.no_data
        assert not status.firing
        assert status.burn_short == 0.0

    def test_latency_burn_is_bad_fraction_over_budget(self):
        db = TimeSeriesDB()
        # 50% of points over the 0.1s threshold; budget 0.1 -> burn 5.
        feed_latency(db, [(9.0, 0.2), (9.2, 0.01), (9.4, 0.3), (9.6, 0.02)])
        monitor = SLOMonitor(db, [latency_spec()])
        [status] = monitor.evaluate(10.0)
        assert status.burn_short == pytest.approx(5.0)
        assert status.firing

    def test_latency_burn_is_per_tenant(self):
        db = TimeSeriesDB()
        feed_latency(db, [(9.0, 5.0)], tenant="noisy")
        feed_latency(db, [(9.0, 0.01)], tenant="t0")
        monitor = SLOMonitor(db, [latency_spec()])
        [status] = monitor.evaluate(10.0)
        assert not status.firing, "another tenant's latency must not count"

    def test_fire_needs_both_windows_resolve_needs_both(self):
        db = TimeSeriesDB()
        spec = latency_spec()
        monitor = SLOMonitor(db, [spec])
        # Good history across the long window, one bad spike inside the
        # short window: short burns, long absorbs it -> no alert.
        feed_latency(
            db,
            [(t, 0.01)
             for t in (4.5, 5.0, 5.5, 6.0, 6.5, 7.0, 7.5, 8.5, 9.0)],
        )
        feed_latency(db, [(9.5, 0.9)])
        [status] = monitor.evaluate(10.0)
        assert status.burn_short > MAX_BURN
        assert status.burn_long <= MAX_BURN
        assert not status.firing
        # Sustained badness pushes both windows over: fires.
        feed_latency(db, [(t, 0.9) for t in (10.2, 10.5, 11.0, 11.5, 12.0)])
        [status] = monitor.evaluate(12.0)
        assert status.firing
        assert monitor.firing() == ["lat"]
        # Hysteresis: recent points recover but the long window still
        # burns -> the alert stays lit.
        feed_latency(db, [(13.0, 0.01), (13.5, 0.01), (14.0, 0.01)])
        [status] = monitor.evaluate(14.0)
        assert status.burn_long > MAX_BURN
        assert status.firing
        # Far later both windows are clean: resolves.
        feed_latency(db, [(29.0, 0.01), (29.5, 0.01)])
        [status] = monitor.evaluate(30.0)
        assert not status.firing
        kinds = [alert.kind for alert in monitor.alerts]
        assert kinds == ["fire", "resolve"]

    def test_repair_deadline_burn(self):
        db = TimeSeriesDB()
        spec = SLOSpec(
            name="deadline", kind="repair_deadline", deadline=100.0,
            short_window=5.0, long_window=10.0,
        )
        monitor = SLOMonitor(db, [spec])
        # Halfway through the deadline with only 10% done: burn 5.
        db.record("repair_progress", 50.0, 0.10)
        [status] = monitor.evaluate(50.0)
        assert status.burn_short == pytest.approx(5.0)
        assert status.firing
        # A finished repair stops burning regardless of elapsed time.
        db.record("repair_progress", 55.0, 1.0)
        db.record("repair_progress", 60.0, 1.0)
        [status] = monitor.evaluate(60.0)
        assert status.burn_short == pytest.approx(0.0)


class TestMonitorPlumbing:
    def test_on_tick_respects_interval_grid(self):
        db = TimeSeriesDB()
        monitor = SLOMonitor(db, [latency_spec()], interval=1.0)
        for t in (0.0, 0.25, 0.5, 1.0, 1.25, 2.0):
            monitor.on_tick(t)
        # Evaluations at 0.0, 1.0, 2.0 -> three slo_burn points per window.
        [short] = db.series("slo_burn", window="short")
        assert [t for t, _ in short.points] == [0.0, 1.0, 2.0]

    def test_transitions_emit_tracer_events_and_hooks(self):
        db = TimeSeriesDB()
        tracer = Tracer()
        monitor = SLOMonitor(db, [latency_spec()], tracer=tracer)
        hooked = []
        monitor.subscribe(hooked.append)
        feed_latency(db, [(t, 9.9) for t in (5.0, 6.0, 7.0, 8.0, 9.0)])
        monitor.evaluate(10.0)
        [alert] = hooked
        assert alert.firing and alert.name == "lat"
        [event] = [e for e in tracer.events if e.name == "slo.alert"]
        assert event.track == "slo"
        assert event.fields["tenant"] == "t0"

    def test_governor_backs_off_on_alert(self):
        governor = make_governor("adaptive")
        db = TimeSeriesDB()
        monitor = SLOMonitor(db, [latency_spec()])
        monitor.subscribe(governor.on_slo_alert)
        feed_latency(db, [(t, 9.9) for t in (5.0, 7.0, 9.0)])
        monitor.evaluate(10.0)
        assert governor.slo_alerts == 1
        assert governor._cap is not None


class TestScenarioDeterminism:
    """An end-to-end run must breach its SLO at a reproducible time."""

    NODE_COUNT = 10
    CODE = RSCode(6, 4)

    def run_once(self):
        network = StarNetwork.constant(
            [2e8] * self.NODE_COUNT, [2e8] * self.NODE_COUNT
        )
        stripes = place_stripes(
            12, self.CODE, self.NODE_COUNT, np.random.default_rng(7)
        )
        failed = stripes[0].placement[0]
        profile = LoadProfile(
            name="slo-scenario",
            arrival_rate=80.0,
            duration=30.0,
            read_fraction=0.9,
            request_size=1024 * 1024,
            zipf_s=0.9,
            tenants=("tenant-0", "tenant-1"),
        )
        requests = generate_requests(
            profile, stripes, self.NODE_COUNT, seed=11
        )
        tsdb = TimeSeriesDB()
        sampler = FlightRecorder(interval=0.25, tsdb=tsdb)
        tracer = Tracer()
        monitor = SLOMonitor(
            tsdb,
            [
                # Threshold far below what a degraded read costs under
                # repair interference, so the breach is guaranteed.
                SLOSpec(
                    name="lat-tenant-0", kind="latency", tenant="tenant-0",
                    threshold=0.004, budget=0.05,
                    short_window=1.0, long_window=2.0,
                ),
            ],
            tracer=tracer,
            interval=0.5,
        )
        sampler.add_listener(monitor.on_tick)
        foreground = ForegroundEngine(
            stripes, requests, PivotRepairPlanner(),
            failed_nodes={failed}, tsdb=tsdb,
        )
        repair_full_node(
            PivotRepairPlanner(), network, stripes, failed,
            concurrency=4,
            config=ExecutionConfig(chunk_size=4 * 1024 * 1024),
            foreground=foreground, sampler=sampler, tracer=tracer,
        )
        foreground.drain()
        return monitor, tracer

    def test_breach_fires_at_deterministic_simulated_time(self):
        monitor, tracer = self.run_once()
        fires = [alert for alert in monitor.alerts if alert.firing]
        assert fires, "the scenario is built to breach its latency SLO"
        first = fires[0]
        assert first.name == "lat-tenant-0"
        assert first.tenant == "tenant-0"
        # The alert also went through the tracer, at the same instant.
        events = [e for e in tracer.events if e.name == "slo.alert"]
        assert events and events[0].t == first.t
        # A second identical run fires at the byte-identical time.
        monitor2, _ = self.run_once()
        fires2 = [alert for alert in monitor2.alerts if alert.firing]
        assert [(a.name, a.t) for a in fires] == [
            (a.name, a.t) for a in fires2
        ]
