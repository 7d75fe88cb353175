"""Tests for the foreground traffic engine."""

import math

import numpy as np
import pytest

from repro.core import PivotRepairPlanner
from repro.core.plan import pin_planning
from repro.ec import RSCode, Stripe, place_stripes
from repro.exceptions import LoadGenError
from repro.faults import FaultPlan, RetryPolicy
from repro.loadgen import (
    READ,
    WRITE,
    ClientRequest,
    ForegroundEngine,
    LoadProfile,
    generate_requests,
)
from repro.network.simulator import FluidSimulator
from repro.network.topology import StarNetwork
from repro.repair import repair_full_node
from repro.repair.pipeline import ExecutionConfig
from repro.units import gbps, mib

CODE = RSCode(4, 2)
NODE_COUNT = 8
RATE = gbps(1)


def make_stripe(stripe_id=0, placement=(0, 1, 2, 3)):
    return Stripe(stripe_id, CODE, list(placement))


def make_engine(requests, failed_nodes=(), stripes=None, **kwargs):
    stripes = [make_stripe()] if stripes is None else stripes
    network = StarNetwork.uniform(NODE_COUNT, RATE)
    engine = ForegroundEngine(
        stripes, requests, PivotRepairPlanner(),
        failed_nodes=failed_nodes, **kwargs,
    )
    sim = FluidSimulator(network)
    engine.bind(sim, network)
    return engine, sim


def pinned_planner():
    return pin_planning(PivotRepairPlanner(), 0.0)


def read_request(arrival=0.0, chunk_index=0, client=5, size=mib(1)):
    return ClientRequest(
        arrival=arrival, kind=READ, stripe_id=0,
        chunk_index=chunk_index, client=client, size=size,
    )


class TestBinding:
    def test_requires_bind_before_driving(self):
        engine = ForegroundEngine([make_stripe()], [], PivotRepairPlanner())
        with pytest.raises(LoadGenError):
            engine.drive_to(1.0)

    def test_rebind_rejected(self):
        engine, sim = make_engine([])
        with pytest.raises(LoadGenError):
            engine.bind(sim, sim.network)

    def test_unknown_stripe_rejected(self):
        stray = ClientRequest(
            arrival=0.0, kind=READ, stripe_id=99, chunk_index=0,
            client=5, size=mib(1),
        )
        with pytest.raises(LoadGenError):
            ForegroundEngine(
                [make_stripe()], [stray], PivotRepairPlanner()
            )


class TestNormalRead:
    def test_read_becomes_foreground_flow(self):
        engine, sim = make_engine([read_request()])
        engine.drain()
        assert len(engine.outcomes) == 1
        outcome = engine.outcomes[0]
        assert not outcome.degraded and not outcome.local
        # One holder -> client flow of the full read size.
        assert sim.stats.bytes_by_kind["foreground"] == pytest.approx(mib(1))
        assert outcome.latency == pytest.approx(mib(1) / RATE)

    def test_latency_includes_queueing_before_bind_time(self):
        engine, sim = make_engine([read_request(arrival=2.0)])
        engine.drain()
        [outcome] = engine.outcomes
        assert outcome.arrival == pytest.approx(2.0)
        assert outcome.finished == pytest.approx(2.0 + mib(1) / RATE)

    def test_summary_counts(self):
        engine, _ = make_engine(
            [read_request(arrival=0.0), read_request(arrival=0.1)]
        )
        engine.drain()
        summary = engine.summary()
        assert summary["requests"] == 2
        assert summary["reads"] == 2
        assert summary["read_latency"]["count"] == 2
        assert summary["degraded_reads"] == 0
        assert summary["bytes"] == pytest.approx(2 * mib(1))


class TestDegradedRead:
    def test_read_of_failed_node_takes_repair_tree(self):
        engine, sim = make_engine([read_request()], failed_nodes={0})
        engine.drain()
        [outcome] = engine.outcomes
        assert outcome.degraded
        assert engine.degraded_reads == 1
        # A pipelined tree moves size bytes on every edge (k helpers at
        # least), strictly more than the plain read's single flow.
        assert sim.stats.bytes_by_kind["foreground"] >= 2 * mib(1)
        assert engine.summary()["degraded_latency"]["count"] == 1

    def test_too_few_helpers_counts_failure(self):
        # Failing a helper too leaves k-1 < k candidates.
        engine, _ = make_engine([read_request()], failed_nodes={0, 1, 2})
        engine.drain()
        assert engine.outcomes == []
        assert engine.summary()["read_failures"] == 1

    def test_repaired_chunk_reads_normally_again(self):
        engine, sim = make_engine(
            [read_request(arrival=1.0)], failed_nodes={0}
        )
        engine.note_repaired(make_stripe(), 0, 6)
        engine.drain()
        [outcome] = engine.outcomes
        assert not outcome.degraded
        assert engine.degraded_reads == 0
        assert sim.stats.bytes_by_kind["foreground"] == pytest.approx(mib(1))

    def test_relocation_onto_client_serves_locally(self):
        engine, sim = make_engine(
            [read_request(arrival=1.0, client=6)], failed_nodes={0}
        )
        engine.note_repaired(make_stripe(), 0, 6)
        engine.drain()
        [outcome] = engine.outcomes
        assert outcome.local
        assert outcome.latency == 0.0
        assert "foreground" not in sim.stats.bytes_by_kind


class TestWrite:
    def test_write_fans_out_to_stripe_nodes(self):
        request = ClientRequest(
            arrival=0.0, kind=WRITE, stripe_id=0, chunk_index=0,
            client=5, size=mib(2),
        )
        engine, sim = make_engine([request])
        engine.drain()
        [outcome] = engine.outcomes
        # n=4 holders, none of them the client: 4 flows of size/k each.
        assert sim.stats.bytes_by_kind["foreground"] == pytest.approx(
            4 * mib(2) / CODE.k
        )
        assert engine.summary()["write_latency"]["count"] == 1

    def test_write_skips_failed_nodes(self):
        request = ClientRequest(
            arrival=0.0, kind=WRITE, stripe_id=0, chunk_index=0,
            client=5, size=mib(2),
        )
        engine, sim = make_engine([request], failed_nodes={0})
        engine.drain()
        assert sim.stats.bytes_by_kind["foreground"] == pytest.approx(
            3 * mib(2) / CODE.k
        )
        assert engine.summary()["degraded_writes"] == 1


class TestDriving:
    def test_run_until_repair_event_absorbs_foreground(self):
        engine, sim = make_engine(
            [read_request(arrival=0.0), read_request(arrival=0.05)]
        )
        repair = sim.submit_pipelined([(1, 4), (4, 5)], mib(64))
        finished = engine.run_until_repair_event()
        assert [h.task_id for h in finished] == [repair.task_id]
        # Both client reads finished earlier and were absorbed silently.
        assert len(engine.outcomes) == 2

    def test_run_until_repair_event_honours_max_time(self):
        engine, sim = make_engine([read_request()])
        sim.submit_pipelined([(1, 4), (4, 5)], mib(512))
        assert engine.run_until_repair_event(max_time=0.01) == []
        assert sim.now == pytest.approx(0.01)

    def test_drive_to_injects_arrivals_at_due_times(self):
        engine, sim = make_engine(
            [read_request(arrival=0.2), read_request(arrival=0.4)]
        )
        engine.drive_to(0.3)
        assert engine.requests_remaining == 1
        assert len(engine.outcomes) == 1
        engine.drive_to(1.0)
        assert engine.requests_remaining == 0
        assert len(engine.outcomes) == 2

    def test_goodput_counts_delivered_bytes(self):
        engine, sim = make_engine([read_request()])
        engine.drain()
        elapsed = sim.now
        assert engine.goodput() == pytest.approx(mib(1) / elapsed)


class TestCrashAfterRepair:
    """A crash scheduled after the repair finishes is ticked by no
    driver: ``drain()`` itself has to stop there and abort the flows
    crossing the dead node, or it ends in ``simulation is stuck``."""

    NODES = 12
    STRIPES = place_stripes(4, RSCode(6, 4), NODES, np.random.default_rng(0))
    FAILED = STRIPES[0].placement[0]
    #: Crashed nodes with a client flow in flight across them at t = 6.
    CROSSED = {4, 8, 9}

    @pytest.mark.parametrize("node", sorted(set(range(NODES)) - {FAILED}))
    def test_drain_outlives_a_late_crash(self, node):
        faults = FaultPlan.from_spec(f"crash:{node}@6")
        profile = LoadProfile(
            name="late-crash", arrival_rate=4.0, duration=8.0,
            read_fraction=0.9, request_size=mib(16), zipf_s=0.9,
        )
        engine = ForegroundEngine(
            self.STRIPES,
            generate_requests(profile, self.STRIPES, self.NODES, seed=3),
            pinned_planner(), failed_nodes={self.FAILED}, faults=faults,
        )
        result = repair_full_node(
            pinned_planner(), StarNetwork.uniform(self.NODES, 2e7),
            self.STRIPES, self.FAILED,
            config=ExecutionConfig(chunk_size=mib(4)),
            faults=faults, retry_policy=RetryPolicy(), foreground=engine,
        )
        assert result.total_seconds < 1.0  # long before the crash
        engine.drain()
        assert engine.pending_flows == 0
        assert engine.requests_remaining == 0
        aborted = engine.registry.snapshot()["counters"].get("fg_aborted", 0)
        assert (aborted > 0) == (node in self.CROSSED)


class TestCrashBesideRepair:
    """A node crashes 0.2 s into the repair, with the request stream
    still arriving for seconds: the engine has to know — from its own
    plan or from the one its driver binds — that the dead node neither
    serves nor issues requests, or ``drain()`` ends in ``simulation is
    stuck ... 'fg-read-s4' (zero capacity ...)``."""

    NODES = 12
    STRIPES = place_stripes(24, RSCode(6, 4), NODES, np.random.default_rng(0))
    FAILED = STRIPES[0].placement[0]
    CRASHED = STRIPES[0].placement[1]

    @pytest.mark.parametrize("own_plan", [False, True])
    def test_drain_terminates_whoever_holds_the_plan(self, own_plan):
        faults = FaultPlan.from_spec(f"crash:{self.CRASHED}@0.2")
        profile = LoadProfile(
            name="crash-beside", arrival_rate=50.0, duration=5.0,
            read_fraction=0.9, request_size=mib(1), zipf_s=0.9,
        )
        engine = ForegroundEngine(
            self.STRIPES,
            generate_requests(profile, self.STRIPES, self.NODES, seed=3),
            pinned_planner(), failed_nodes={self.FAILED},
            faults=faults if own_plan else None,
        )
        result = repair_full_node(
            pinned_planner(), StarNetwork.uniform(self.NODES, gbps(1)),
            self.STRIPES, self.FAILED,
            config=ExecutionConfig(chunk_size=mib(8)), faults=faults,
            retry_policy=RetryPolicy(), foreground=engine,
        )
        engine.drain()
        assert result.chunks_failed == 0
        assert engine.faults is faults
        assert engine.pending_flows == 0
        assert engine.requests_remaining == 0
        counters = engine.registry.snapshot()["counters"]
        assert counters["fg_requests"] == 247
        # The failed node's and the crashed node's own requests.
        assert counters["fg_client_dead"] == 42

    def test_no_plan_or_an_empty_one_drops_nobody(self):
        """Without faults the repaired node is only logically failed:
        its links are up and it goes on issuing requests."""
        request = read_request(client=0)
        for plan in (None, FaultPlan.none()):
            engine, _ = make_engine(
                [request], failed_nodes={0},
                stripes=[make_stripe(placement=(1, 2, 3, 4))], faults=plan,
            )
            engine.drain()
            assert engine.faults is None
            assert len(engine.outcomes) == 1
            counters = engine.registry.snapshot()["counters"]
            assert "fg_client_dead" not in counters


class TestRecentWindow:
    def test_recent_p99_expires_old_samples(self):
        engine, sim = make_engine([], recent_window=1.0)
        engine._recent.append((0.0, 0.5))
        engine._recent.append((2.0, 0.1))
        assert engine.recent_read_p99(2.5) == pytest.approx(0.1)
        assert math.isnan(engine.recent_read_p99(10.0))

    def test_p99_is_high_order_statistic(self):
        engine, _ = make_engine([], recent_window=100.0)
        for i in range(100):
            engine._recent.append((1.0, (i + 1) / 100.0))
        assert engine.recent_read_p99(1.0) == pytest.approx(0.99)
