"""Tests for the exponential failure/recovery schedules."""

import numpy as np
import pytest

from repro.core.seeding import spawn_rng
from repro.exceptions import LifetimeError
from repro.lifetime.failure import DAY, ExponentialFailures, Outage

HORIZON = 2000 * DAY


def interarrivals(outages):
    """Uptime stretches between consecutive outages (downtime excluded)."""
    gaps, previous_end = [], 0.0
    for outage in outages:
        gaps.append(outage.start - previous_end)
        previous_end = outage.end
    return gaps


class TestOutage:
    def test_end(self):
        assert Outage(start=10.0, duration=5.0).end == 15.0

    def test_rejects_negative_times(self):
        with pytest.raises(LifetimeError):
            Outage(start=-1.0, duration=1.0)
        with pytest.raises(LifetimeError):
            Outage(start=1.0, duration=-1.0)


class TestSeededDeterminism:
    @pytest.mark.parametrize(
        "process", [ExponentialFailures(mttf=30 * DAY, mttr=3600.0)]
    )
    def test_same_stream_same_schedule(self, process):
        a = process.schedule(spawn_rng(9, "unit", 0), HORIZON)
        b = process.schedule(spawn_rng(9, "unit", 0), HORIZON)
        assert a == b
        assert len(a) > 10

    def test_different_streams_differ(self):
        process = ExponentialFailures(mttf=30 * DAY)
        a = process.schedule(spawn_rng(9, "unit", 0), HORIZON)
        b = process.schedule(spawn_rng(9, "unit", 1), HORIZON)
        assert a != b


class TestStatisticalSanity:
    def test_exponential_interarrival_mean(self):
        mttf = 20 * DAY
        process = ExponentialFailures(mttf=mttf)
        outages = process.schedule(spawn_rng(3, "exp"), 40_000 * DAY)
        gaps = interarrivals(outages)
        assert len(gaps) > 1000
        assert np.mean(gaps) == pytest.approx(mttf, rel=0.1)

    def test_downtime_mean(self):
        process = ExponentialFailures(mttf=5 * DAY, mttr=2 * 3600.0)
        outages = process.schedule(spawn_rng(6, "mttr"), 20_000 * DAY)
        downtimes = [o.duration for o in outages]
        assert np.mean(downtimes) == pytest.approx(2 * 3600.0, rel=0.1)


class TestDrawOrder:
    """One ``exponential(mttf)`` per uptime, then one
    ``exponential(mttr)`` per downtime, and none when ``mttr`` is 0."""

    @pytest.mark.parametrize("mttr", [0.0, 3600.0])
    def test_schedule_replays_the_draws(self, mttr):
        horizon = 200 * DAY
        process = ExponentialFailures(
            mttf=10 * DAY, mttr=mttr, permanent=True
        )
        outages = process.schedule(spawn_rng(7, "order"), horizon)
        rng = spawn_rng(7, "order")
        expected, t = [], 0.0
        while True:
            t += float(rng.exponential(10 * DAY))
            if t >= horizon:
                break
            downtime = float(rng.exponential(mttr)) if mttr else 0.0
            expected.append(Outage(t, downtime, permanent=True))
            t += downtime
        assert len(expected) > 5
        assert outages == expected

    def test_rejects_bad_parameters(self):
        with pytest.raises(LifetimeError):
            ExponentialFailures(mttf=0.0)
        with pytest.raises(LifetimeError):
            ExponentialFailures(mttf=DAY, mttr=-1.0)
        with pytest.raises(LifetimeError):
            ExponentialFailures(mttf=DAY).schedule(spawn_rng(0, "h"), 0.0)
