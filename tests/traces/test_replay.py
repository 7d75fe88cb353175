"""Tests for foreground-competition replay."""

import numpy as np
import pytest

from repro.exceptions import TraceError
from repro.network.simulator import FluidSimulator
from repro.network.topology import StarNetwork
from repro.traces.replay import (
    ForegroundFlow,
    ForegroundReplay,
    competition_network,
    repair_under_competition,
    synthesize_flows,
)
from repro.traces.workload import WorkloadTrace


def toy_trace(used_up, used_down, capacity=100.0, interval=1.0):
    return WorkloadTrace(
        "toy", capacity, np.asarray(used_up, float),
        np.asarray(used_down, float), interval=interval,
    )


class TestForegroundFlow:
    def test_validation(self):
        with pytest.raises(TraceError):
            ForegroundFlow(0, 0, 0, 1, 10)
        with pytest.raises(TraceError):
            ForegroundFlow(0, 1, 0, 1, 0)
        with pytest.raises(TraceError):
            ForegroundFlow(0, 1, 2, 2, 10)

    def test_size(self):
        assert ForegroundFlow(0, 2, 0, 1, 10).size == 20


class TestSynthesizeFlows:
    def test_marginals_reproduced_when_matchable(self):
        # Node 0 uploads 60, node 1 downloads 60: exactly one flow.
        trace = toy_trace([[60], [0]], [[0], [60]])
        flows = synthesize_flows(trace)
        assert len(flows) == 1
        assert flows[0].src == 0
        assert flows[0].dst == 1
        assert flows[0].rate == 60

    def test_multiple_pairings(self):
        trace = toy_trace(
            [[80], [40], [0]],
            [[0], [0], [100]],
        )
        flows = synthesize_flows(trace)
        total_into_2 = sum(f.rate for f in flows if f.dst == 2)
        assert total_into_2 == pytest.approx(100)
        by_src = {f.src: f.rate for f in flows}
        # Node 2's downlink absorbs both uploads, largest-first.
        assert by_src[0] == pytest.approx(80)
        assert by_src[1] == pytest.approx(20)

    def test_unmatched_residual_dropped(self):
        # Uploads with no downloader anywhere stay unmatched.
        trace = toy_trace([[50], [0]], [[0], [0]])
        assert synthesize_flows(trace) == []

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(0)
        used_up = rng.uniform(0, 100, size=(4, 10))
        used_down = rng.uniform(0, 100, size=(4, 10))
        trace = toy_trace(used_up, used_down)
        a = synthesize_flows(trace, seed=5)
        b = synthesize_flows(trace, seed=5)
        assert a == b

    def test_each_flow_covers_its_whole_sample(self):
        # Three 2 s samples of node 0 uploading 60 to node 1: the flows
        # tile [0, 6) and carry the 360 bytes the trace records.
        trace = toy_trace(
            [[60] * 3, [0] * 3], [[0] * 3, [60] * 3], interval=2.0
        )
        flows = synthesize_flows(trace)
        assert [(f.start, f.end) for f in flows] == [(0, 2), (2, 4), (4, 6)]
        assert sum(f.size for f in flows) == 360



class TestReplayPump:
    def test_pump_submits_due_flows_only(self):
        flows = [
            ForegroundFlow(0, 1, 0, 1, 10),
            ForegroundFlow(5, 6, 1, 0, 10),
        ]
        sim = FluidSimulator(StarNetwork.uniform(2, 100.0))
        replay = ForegroundReplay(flows)
        assert replay.pump(sim) == 1
        assert len(replay._flows) - replay._cursor == 1
        assert replay.next_start() == 5

    def test_pumped_flows_are_booked_as_foreground(self):
        sim = FluidSimulator(StarNetwork.uniform(3, 100.0))
        ForegroundReplay([ForegroundFlow(0, 2, 0, 1, 10)]).pump(sim)
        sim.submit_bulk([(2, 0, 300.0)])
        sim.run()
        assert sim.stats.bytes_by_kind == {
            "foreground": 20.0, "repair": 300.0,
        }

    def test_rate_cap_enforced(self):
        sim = FluidSimulator(StarNetwork.uniform(2, 100.0))
        handle = sim.submit_bulk([(0, 1, 100.0)], max_rate=10.0)
        sim.run()
        assert handle.duration == pytest.approx(10.0)

    def test_capped_background_leaves_room_for_repair(self):
        sim = FluidSimulator(StarNetwork.uniform(3, 100.0))
        sim.submit_bulk([(1, 0, 1e6)], max_rate=30.0)  # foreground
        repair = sim.submit_bulk([(2, 0, 700.0)])       # uncapped repair
        sim.run_until_completion()
        # Repair gets the residual 70 units of node 0's downlink.
        assert repair.duration == pytest.approx(10.0)


class TestRepairUnderCompetition:
    def test_quiet_trace_gives_full_bandwidth(self):
        trace = toy_trace(np.zeros((3, 30)), np.zeros((3, 30)))
        duration = repair_under_competition(
            trace, [(1, 0)], bytes_per_edge=1000.0, start_time=0.0,
        )
        assert duration == pytest.approx(10.0)

    def test_competition_slows_repair(self):
        # Node 0's downlink is half-busy with foreground traffic.
        used_up = np.zeros((3, 60))
        used_down = np.zeros((3, 60))
        used_up[1] = 50.0
        used_down[0] = 50.0
        busy = toy_trace(used_up, used_down)
        quiet = toy_trace(np.zeros((3, 60)), np.zeros((3, 60)))
        slow = repair_under_competition(
            busy, [(2, 0)], bytes_per_edge=1000.0, start_time=0.0
        )
        fast = repair_under_competition(
            quiet, [(2, 0)], bytes_per_edge=1000.0, start_time=0.0
        )
        assert slow > fast

    @pytest.mark.parametrize("start_time", [0.0, 2.0, 4.0])
    def test_window_starts_at_the_sample_holding_start_time(
        self, start_time
    ):
        # A 2 s trace busy only in [2, 4) and its 1 s twin (each sample
        # repeated) are the same foreground: a repair started at the
        # same time must take the same time on both.  Indexing the
        # window by seconds started the 2 s replay at sample 2 (4 s),
        # which misses the busy sample (1.5 s against 2.3 s from 2 s).
        def trace(busy, interval):
            up = np.zeros((3, len(busy)))
            up[1, busy] = 40.0
            return toy_trace(up, up[[1, 0, 2]], interval=interval)

        two = trace([False, True, False, False], 2.0)
        one = trace([False, False, True, True] + [False] * 4, 1.0)
        assert repair_under_competition(
            two, [(2, 0)], bytes_per_edge=150.0, start_time=start_time
        ) == repair_under_competition(
            one, [(2, 0)], bytes_per_edge=150.0, start_time=start_time
        )

    def test_competition_network_capacity(self):
        trace = toy_trace([[1]], [[1]], capacity=42.0)
        net = competition_network(trace)
        assert net.capacities_at(0) == {("up", 0): 42.0, ("down", 0): 42.0}
