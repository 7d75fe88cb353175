"""Tests for repair-duration models, including fluid-sim calibration."""

import numpy as np
import pytest

from repro.core.seeding import spawn_rng
from repro.exceptions import LifetimeError
from repro.lifetime import durations
from repro.lifetime.durations import (
    CalibratedDurations,
    ExponentialDurations,
    FixedDurations,
    make_scheme_planner,
)


class TestAnalyticModels:
    def test_fixed_scalar_covers_all_schemes(self):
        model = FixedDurations(120.0)
        rng = spawn_rng(0, "d")
        assert model.sample(rng, "pivot") == 120.0
        assert model.sample(rng, "conventional") == 120.0
        assert model.mean("rp") == 120.0

    def test_fixed_per_scheme_mapping(self):
        model = FixedDurations({"pivot": 10.0, "conventional": 40.0})
        rng = spawn_rng(0, "d")
        assert model.sample(rng, "conventional") == 40.0
        with pytest.raises(LifetimeError):
            model.sample(rng, "rp")

    def test_exponential_mean(self):
        model = ExponentialDurations({"pivot": 100.0})
        rng = spawn_rng(1, "d")
        draws = [model.sample(rng, "pivot") for _ in range(4000)]
        assert np.mean(draws) == pytest.approx(100.0, rel=0.1)

    def test_rejects_non_positive(self):
        with pytest.raises(LifetimeError):
            FixedDurations(0.0)


class TestCalibratedModel:
    def test_resamples_scaled_measurements(self):
        model = CalibratedDurations({"pivot": [1.0, 2.0, 3.0]}, scale=10.0)
        rng = spawn_rng(2, "d")
        draws = {model.sample(rng, "pivot") for _ in range(50)}
        assert draws <= {10.0, 20.0, 30.0}
        assert model.mean("pivot") == pytest.approx(20.0)

    def test_unknown_scheme_raises(self):
        model = CalibratedDurations({"pivot": [1.0]})
        with pytest.raises(LifetimeError):
            model.sample(spawn_rng(0, "d"), "conventional")

    def test_rejects_bad_samples(self):
        with pytest.raises(LifetimeError):
            CalibratedDurations({"pivot": []})
        with pytest.raises(LifetimeError):
            CalibratedDurations({"pivot": [1.0, -2.0]})

    @pytest.fixture(autouse=True)
    def short_trace(self, monkeypatch):
        monkeypatch.setattr(durations, "CALIBRATION_TRACE_SECONDS", 300)

    def test_calibrate_runs_real_repairs(self):
        model = CalibratedDurations.calibrate(
            workload="TPC-DS", code=(6, 4),
            schemes=("pivot", "conventional"), instants=3, scale=2.0,
        )
        assert len(model.samples["pivot"]) == 3
        assert len(model.samples["conventional"]) == 3
        # Conventional's star download of k whole chunks through one
        # downlink must be slower than PivotRepair's pipelined tree at
        # congested instants — the durability gap's root cause.
        assert model.mean("conventional") > model.mean("pivot")

    def test_calibrate_is_deterministic(self):
        kwargs = dict(
            workload="TPC-H", code=(6, 4), schemes=("pivot",), instants=2,
        )
        a = CalibratedDurations.calibrate(**kwargs)
        b = CalibratedDurations.calibrate(**kwargs)
        assert np.array_equal(a.samples["pivot"], b.samples["pivot"])

    def test_calibrate_rejects_unknown_workload(self):
        with pytest.raises(LifetimeError):
            CalibratedDurations.calibrate(workload="nope")


class TestSchemePlanners:
    def test_known_schemes(self):
        assert make_scheme_planner("pivot").name == "PivotRepair"
        assert make_scheme_planner("rp").name == "RP"
        assert make_scheme_planner("conventional").name == "Conventional"

    def test_unknown_scheme(self):
        with pytest.raises(LifetimeError):
            make_scheme_planner("ppt2")
