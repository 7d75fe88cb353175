"""Backpressure signal: saturation breadth and hysteresis."""

import pytest

from repro.controlplane import BackpressureConfig, BackpressureMonitor
from repro.exceptions import ClusterError
from repro.network.simulator import FluidSimulator
from repro.network.topology import StarNetwork


class StubSLO:
    def __init__(self, names=()):
        self.names = list(names)

    def firing(self):
        return list(self.names)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ClusterError):
            BackpressureConfig(breadth_watermark=0.0)
        with pytest.raises(ClusterError):
            BackpressureConfig(breadth_watermark=1.5)
        with pytest.raises(ClusterError):
            BackpressureConfig(resume_breadth=0.9, breadth_watermark=0.5)

    def test_hysteresis_band_is_ordered(self):
        config = BackpressureConfig()
        assert config.resume_breadth <= config.breadth_watermark


class TestSaturationBreadth:
    def network(self):
        return StarNetwork.constant([100.0] * 4, [100.0] * 4)

    def test_idle_sim_has_zero_breadth(self):
        sim = FluidSimulator(self.network())
        monitor = BackpressureMonitor()
        assert monitor.saturation_breadth(sim) == 0.0

    def test_single_flow_saturates_exactly_its_two_endpoints(self):
        sim = FluidSimulator(self.network())
        sim.submit_bulk([(0, 1, 1000.0)], label="flow")
        monitor = BackpressureMonitor()
        # Max-min gives the lone flow the full 100: node0 up and
        # node1 down run at 100% — 2 of the 8 node-link resources.
        assert monitor.saturation_breadth(sim) == pytest.approx(2 / 8)

    def test_broad_storm_raises_breadth(self):
        sim = FluidSimulator(self.network())
        for src in range(4):
            sim.submit_bulk(
                [(src, (src + 1) % 4, 1000.0)], label=f"flow{src}"
            )
        monitor = BackpressureMonitor()
        assert monitor.saturation_breadth(sim) == pytest.approx(1.0)

    def test_throttled_flow_does_not_count_as_saturated(self):
        sim = FluidSimulator(self.network())
        sim.submit_bulk([(0, 1, 1000.0)], label="slow", max_rate=10.0)
        monitor = BackpressureMonitor()
        assert monitor.saturation_breadth(sim) == 0.0


class TestOverloadPredicates:
    def sim(self):
        return FluidSimulator(StarNetwork.constant([100.0] * 4, [100.0] * 4))

    def test_slo_firing_alone_overloads(self):
        monitor = BackpressureMonitor(
            BackpressureConfig(breadth_watermark=1.0, resume_breadth=1.0),
            slo_monitor=StubSLO(["latency-tenant-0"]),
        )
        overloaded, detail = monitor.overloaded(self.sim())
        assert overloaded
        assert detail["firing"] == ["latency-tenant-0"]

    def test_breadth_alone_overloads(self):
        sim = self.sim()
        for src in range(4):
            sim.submit_bulk(
                [(src, (src + 1) % 4, 1000.0)], label=f"flow{src}"
            )
        monitor = BackpressureMonitor(
            BackpressureConfig(breadth_watermark=0.45)
        )
        overloaded, detail = monitor.overloaded(sim)
        assert overloaded
        assert detail["breadth"] == pytest.approx(1.0)

    def test_relief_requires_quiet_slo_and_low_breadth(self):
        slo = StubSLO(["latency-tenant-0"])
        monitor = BackpressureMonitor(
            BackpressureConfig(breadth_watermark=0.45, resume_breadth=0.3),
            slo_monitor=slo,
        )
        sim = self.sim()
        relieved, _ = monitor.relieved(sim)
        assert not relieved  # SLO still firing
        slo.names = []
        relieved, _ = monitor.relieved(sim)
        assert relieved  # quiet SLO, idle network

    def test_hysteresis_gap_between_shed_and_resume(self):
        """A breadth inside the band neither sheds nor resumes."""
        sim = self.sim()
        sim.submit_bulk([(0, 1, 1000.0)], label="one")  # breadth 0.25
        sim.submit_bulk([(2, 3, 1000.0)], label="two")  # breadth 0.5
        monitor = BackpressureMonitor(
            BackpressureConfig(breadth_watermark=0.6, resume_breadth=0.3)
        )
        overloaded, detail = monitor.overloaded(sim)
        relieved, _ = monitor.relieved(sim)
        assert detail["breadth"] == pytest.approx(0.5)
        assert not overloaded
        assert not relieved
