"""Tests for the star topology and the fluid simulator."""

import math

import pytest

from repro.exceptions import SimulationError
from repro.network.bandwidth import BandwidthTrace, NodeBandwidth
from repro.network.simulator import FluidSimulator
from repro.network.topology import StarNetwork
from tests.network.links import link_bandwidth


def static_network(ups, downs):
    return StarNetwork.constant(ups, downs)


class TestStarNetwork:
    def test_requires_nodes(self):
        with pytest.raises(SimulationError):
            StarNetwork([])

    def test_constant_mismatch_rejected(self):
        with pytest.raises(SimulationError):
            StarNetwork.constant([1, 2], [3])

    def test_uniform(self):
        net = StarNetwork.uniform(4, 100)
        assert len(net) == 4
        assert net.capacities_at(0)["up", 2] == 100
        assert net.capacities_at(99)["down", 3] == 100

    def test_link_bandwidth_is_min(self):
        net = static_network([30, 100], [100, 20])
        assert link_bandwidth(net, 0, 1, 0) == 20
        assert link_bandwidth(net, 1, 0, 0) == 100

    def test_self_link_rejected(self):
        net = StarNetwork.uniform(2, 1)
        with pytest.raises(SimulationError):
            link_bandwidth(net, 1, 1, 0)

    def test_bad_node_rejected(self):
        net = StarNetwork.uniform(2, 1)
        with pytest.raises(SimulationError):
            link_bandwidth(net, 5, 0, 0)

    def test_next_change_across_nodes(self):
        net = StarNetwork.from_traces(
            [BandwidthTrace([0, 7], [1, 2]), BandwidthTrace([0, 3], [1, 2])],
            [BandwidthTrace.constant(1), BandwidthTrace.constant(1)],
        )
        assert net.next_change_after(0) == 3
        assert net.next_change_after(3) == 7
        assert net.next_change_after(7) == math.inf


class TestFluidSimulator:
    def test_single_flow_duration(self):
        net = static_network([100, 100], [100, 100])
        sim = FluidSimulator(net)
        handle = sim.submit_bulk([(0, 1, 1000)])
        sim.run()
        assert handle.done
        assert handle.finish_time == pytest.approx(10.0)
        assert handle.duration == pytest.approx(10.0)

    def test_duration_before_finish_raises(self):
        net = static_network([100, 100], [100, 100])
        sim = FluidSimulator(net)
        handle = sim.submit_bulk([(0, 1, 1000)])
        with pytest.raises(SimulationError):
            _ = handle.duration

    def test_bulk_finishes_at_last_flow(self):
        # Conventional repair: two helpers into one requestor downlink.
        net = static_network([100, 100, 100], [100, 100, 100])
        sim = FluidSimulator(net)
        handle = sim.submit_bulk([(1, 0, 1000), (2, 0, 1000)])
        sim.run()
        # Down(0)=100 shared: each flow at 50 -> 20 s.
        assert handle.finish_time == pytest.approx(20.0)

    def test_pipelined_chain_rate(self):
        net = static_network([1000, 40, 1000], [1000, 1000, 1000])
        sim = FluidSimulator(net)
        handle = sim.submit_pipelined([(2, 1), (1, 0)], 400)
        sim.run()
        assert handle.finish_time == pytest.approx(10.0)

    def test_capacity_change_mid_transfer(self):
        up = BandwidthTrace([0, 5], [100, 50])
        net = StarNetwork.from_traces(
            [up, BandwidthTrace.constant(1000)],
            [BandwidthTrace.constant(1000), BandwidthTrace.constant(1000)],
        )
        sim = FluidSimulator(net)
        handle = sim.submit_bulk([(0, 1, 750)])
        sim.run()
        # 5 s at 100 = 500 bytes, then 250 bytes at 50 = 5 s more.
        assert handle.finish_time == pytest.approx(10.0)

    def test_zero_rate_recovers_at_breakpoint(self):
        up = BandwidthTrace([0, 10], [0, 100])
        net = StarNetwork.from_traces(
            [up, BandwidthTrace.constant(1000)],
            [BandwidthTrace.constant(1000), BandwidthTrace.constant(1000)],
        )
        sim = FluidSimulator(net)
        handle = sim.submit_bulk([(0, 1, 100)])
        sim.run()
        assert handle.finish_time == pytest.approx(11.0)

    def test_permanently_stuck_raises(self):
        net = static_network([0, 100], [100, 100])
        sim = FluidSimulator(net)
        sim.submit_bulk([(0, 1, 100)])
        with pytest.raises(SimulationError):
            sim.run()

    def test_stuck_error_names_starved_tasks_and_dead_links(self):
        # Node 0 cannot upload, node 2 cannot receive; nothing ever
        # changes.  The error says who starves and on which resources.
        net = static_network([0, 100, 100], [100, 100, 0])
        sim = FluidSimulator(net)
        sim.submit_bulk([(0, 1, 100)], label="from-dead-uplink")
        sim.submit_pipelined([(0, 2), (1, 2)], 100, label="both-dead")
        with pytest.raises(SimulationError) as caught:
            sim.run()
        message = str(caught.value)
        assert message.startswith("simulation is stuck: ")
        assert "'from-dead-uplink' (zero capacity on ('up', 0))" in message
        assert (
            "'both-dead' (zero capacity on ('down', 2), ('up', 0))"
            in message
        )

    def test_stuck_error_lists_at_most_five_tasks(self):
        net = static_network([0, 100], [100, 100])
        sim = FluidSimulator(net)
        for i in range(8):
            sim.submit_bulk([(0, 1, 100)], label=f"starved-{i}")
        with pytest.raises(
            SimulationError, match="simulation is stuck"
        ) as caught:
            sim.run_until_completion()
        message = str(caught.value)
        assert "'starved-4'" in message
        assert "'starved-5'" not in message
        assert "and 3 more" in message

    def test_late_submission_shares_bandwidth(self):
        net = static_network([100, 100, 100], [100, 100, 100])
        sim = FluidSimulator(net)
        first = sim.submit_bulk([(1, 0, 1000)], label="first")
        # Run until the first completes; meanwhile nothing else competes.
        sim.run()
        assert first.finish_time == pytest.approx(10.0)
        second = sim.submit_bulk([(2, 0, 500)], label="second")
        sim.run()
        assert second.submit_time == pytest.approx(10.0)
        assert second.duration == pytest.approx(5.0)

    def test_run_until_completion_returns_each_finisher(self):
        net = static_network([100] * 3, [100] * 3)
        sim = FluidSimulator(net)
        short = sim.submit_bulk([(1, 0, 100)], label="short")
        long = sim.submit_bulk([(2, 0, 900)], label="long")
        first = sim.run_until_completion()
        assert [h.label for h in first] == ["short"]
        second = sim.run_until_completion()
        assert [h.label for h in second] == ["long"]
        assert sim.run_until_completion() == []
        assert short.finish_time < long.finish_time

    def test_concurrent_pipelines_share_common_link(self):
        # Two chains sharing node 0's downlink.
        net = static_network([1000] * 4, [100, 1000, 1000, 1000])
        sim = FluidSimulator(net)
        a = sim.submit_pipelined([(1, 0)], 500)
        b = sim.submit_pipelined([(2, 0)], 500)
        sim.run()
        assert a.finish_time == pytest.approx(10.0)
        assert b.finish_time == pytest.approx(10.0)

    def test_current_rate(self):
        net = static_network([100, 100], [100, 100])
        sim = FluidSimulator(net)
        handle = sim.submit_bulk([(0, 1, 1000)])
        assert sim.current_rate(handle) == pytest.approx(100.0)

    def test_active_task_count(self):
        net = static_network([100, 100], [100, 100])
        sim = FluidSimulator(net)
        assert sim.active_task_count == 0
        sim.submit_bulk([(0, 1, 100)])
        assert sim.active_task_count == 1
        sim.run()
        assert sim.active_task_count == 0

    def test_invalid_submissions_rejected(self):
        sim = FluidSimulator(StarNetwork.uniform(2, 1))
        with pytest.raises(SimulationError):
            sim.submit_pipelined([], 10)
        with pytest.raises(SimulationError):
            sim.submit_pipelined([(0, 1)], 0)
        with pytest.raises(SimulationError):
            sim.submit_bulk([])
        with pytest.raises(SimulationError):
            sim.submit_bulk([(0, 1, -5)])

    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_nan_rate_cap_rejected_at_every_entry(self, engine):
        # ``nan <= 0`` is false, so a ``<= 0`` check lets NaN in, and the
        # engines then disagree on it; ``inf`` stays a valid cap.
        sim = FluidSimulator(StarNetwork.uniform(3, 100), engine=engine)
        nan = float("nan")
        with pytest.raises(SimulationError, match="nan"):
            sim.submit_pipelined([(1, 0)], 100, max_rate=nan)
        with pytest.raises(SimulationError, match="nan"):
            sim.submit_bulk([(1, 0, 100)], max_rate=nan)
        handle = sim.submit_bulk([(2, 0, 100)], max_rate=math.inf)
        with pytest.raises(SimulationError, match="nan"):
            sim.set_task_max_rate(handle, nan)
        sim.run()
        assert handle.finish_time == pytest.approx(1.0)

    def test_tiny_residue_near_breakpoint_terminates(self):
        # Regression: a capacity breakpoint landing just before a task's
        # finish leaves a residue that drains in less than the float
        # resolution of `now`; the simulator must still terminate.
        up = BandwidthTrace([0, 347.0000001], [1e8, 1e8])
        net = StarNetwork.from_traces(
            [up, BandwidthTrace.constant(1e9)],
            [BandwidthTrace.constant(1e9), BandwidthTrace.constant(1e9)],
        )
        sim = FluidSimulator(net, start_time=347.0)
        handle = sim.submit_bulk([(0, 1, 10.000000001)])
        sim.run()
        assert handle.done
        assert handle.finish_time == pytest.approx(347.0, abs=1e-3)

    def test_max_time_stops_early(self):
        net = static_network([10, 10], [10, 10])
        sim = FluidSimulator(net)
        handle = sim.submit_bulk([(0, 1, 1000)])
        completed = sim.run(max_time=5.0)
        assert completed == []
        assert sim.now == pytest.approx(5.0)
        assert not handle.done

    def test_bound_in_the_past_is_a_no_op(self):
        # Regression: a live task plus max_time < now used to raise
        # "time went backwards"; a bound already passed means there is
        # nothing to do.
        net = static_network([10, 10], [10, 10])
        sim = FluidSimulator(net)
        handle = sim.submit_bulk([(0, 1, 1000)])
        sim.run(max_time=5.0)
        steps = sim.stats.steps
        assert sim.run(max_time=2.0) == []
        assert sim.run_until_completion(max_time=2.0) == []
        assert sim.now == 5.0
        assert sim.stats.steps == steps
        assert not handle.done
        with pytest.raises(SimulationError, match="cannot advance to"):
            sim.advance_to(2.0)
        sim.run()
        assert handle.finish_time == pytest.approx(100.0)
