"""Zero-foreground equivalence: the loadgen hooks must be exact no-ops.

The regression contract of the integration: with no foreground arrivals
(an empty engine) and no governor, full-node repair is byte- and
time-identical to the pre-loadgen code path — same simulated seconds,
same bytes on every link, same per-task results.
"""

import numpy as np
import pytest

from repro.core import PivotRepairPlanner
from repro.core.scheduler import SchedulerConfig
from repro.ec import RSCode, place_stripes
from repro.loadgen import ForegroundEngine, NoGovernor
from repro.network.topology import StarNetwork
from repro.repair.fullnode import (
    repair_full_node,
    repair_full_node_adaptive,
)
from repro.repair.pipeline import ExecutionConfig
from repro.units import gbps, mib

NODE_COUNT = 12
CODE = RSCode(6, 4)


def make_setup(seed=0):
    network = StarNetwork.uniform(NODE_COUNT, gbps(1))
    stripes = place_stripes(
        8, CODE, NODE_COUNT, np.random.default_rng(seed)
    )
    failed = stripes[0].placement[0]
    config = ExecutionConfig(chunk_size=mib(4), slice_size=mib(1))
    return network, stripes, failed, config


def empty_engine(stripes, failed):
    return ForegroundEngine(
        stripes, [], PivotRepairPlanner(), failed_nodes={failed}
    )


def assert_full_node_identical(plain, loaded):
    assert loaded.total_seconds == plain.total_seconds
    assert loaded.bytes_transferred == plain.bytes_transferred
    assert len(loaded.task_results) == len(plain.task_results)
    for a, b in zip(plain.task_results, loaded.task_results):
        assert b.transfer_seconds == a.transfer_seconds
        assert b.planning_seconds == a.planning_seconds
        assert b.bmin == a.bmin
        assert b.plan.requestor == a.plan.requestor
    assert (
        loaded.telemetry["counters"] == plain.telemetry["counters"]
    )


class TestFullNodeEquivalence:
    def test_fixed_concurrency_identical(self):
        network, stripes, failed, config = make_setup()
        plain = repair_full_node(
            PivotRepairPlanner(), network, stripes, failed, config=config
        )
        loaded = repair_full_node(
            PivotRepairPlanner(), network, stripes, failed, config=config,
            foreground=empty_engine(stripes, failed),
        )
        assert_full_node_identical(plain, loaded)

    def test_adaptive_identical(self):
        network, stripes, failed, config = make_setup()
        scheduler = SchedulerConfig(threshold=10.0)
        plain = repair_full_node_adaptive(
            PivotRepairPlanner(), network, stripes, failed,
            scheduler=scheduler, config=config,
        )
        loaded = repair_full_node_adaptive(
            PivotRepairPlanner(), network, stripes, failed,
            scheduler=scheduler, config=config,
            foreground=empty_engine(stripes, failed),
        )
        assert_full_node_identical(plain, loaded)

    def test_no_governor_policy_identical_timing(self):
        network, stripes, failed, config = make_setup()
        plain = repair_full_node(
            PivotRepairPlanner(), network, stripes, failed, config=config
        )
        governed = repair_full_node(
            PivotRepairPlanner(), network, stripes, failed, config=config,
            foreground=empty_engine(stripes, failed), governor=NoGovernor(),
        )
        assert governed.total_seconds == plain.total_seconds
        assert governed.bytes_transferred == plain.bytes_transferred


class TestForegroundActuallyCompetes:
    """Sanity inverse: real traffic must change the outcome."""

    def test_traffic_slows_repair(self):
        from repro.loadgen import ClientRequest

        network, stripes, failed, config = make_setup()
        plain = repair_full_node(
            PivotRepairPlanner(), network, stripes, failed, config=config
        )
        # A storm of large reads overlapping the whole repair window,
        # spread over every stripe, chunk and client so that no tree
        # the bandwidth-aware planner can pick avoids it (reads of one
        # chunk by one client are routed around: the next test).
        requests = [
            ClientRequest(
                arrival=0.001 * i, kind="read",
                stripe_id=stripes[i % len(stripes)].stripe_id,
                chunk_index=i % CODE.n, client=(5 * i + 1) % NODE_COUNT,
                size=mib(8),
            )
            for i in range(200)
        ]
        engine = ForegroundEngine(
            stripes, requests, PivotRepairPlanner(), failed_nodes={failed}
        )
        loaded = repair_full_node(
            PivotRepairPlanner(), network, stripes, failed, config=config,
            foreground=engine,
        )
        assert loaded.total_seconds > plain.total_seconds
        # Foreground and repair bytes are accounted separately.
        per_kind = loaded.telemetry["per_bytes_kind"]
        assert per_kind["repair"] == pytest.approx(plain.bytes_transferred, rel=0.01)
        assert per_kind["foreground"] > 0

    def test_traffic_routed_around_costs_the_repair_nothing(self):
        # 200 reads of one chunk by one client: the bandwidth-aware
        # planner routes every tree around them.  The repair shares no
        # link with them, so it takes exactly as long as unloaded,
        # however many events they add to the loop.
        from repro.loadgen import ClientRequest

        network, stripes, failed, config = make_setup()
        plain = repair_full_node(
            PivotRepairPlanner(), network, stripes, failed, config=config
        )
        requests = [
            ClientRequest(
                arrival=0.001 * i, kind="read", stripe_id=stripes[1].stripe_id,
                chunk_index=0, client=(stripes[1].placement[0] + 1) % NODE_COUNT,
                size=mib(8),
            )
            for i in range(200)
        ]
        engine = ForegroundEngine(
            stripes, requests, PivotRepairPlanner(), failed_nodes={failed}
        )
        loaded = repair_full_node(
            PivotRepairPlanner(), network, stripes, failed, config=config,
            foreground=engine,
        )
        assert loaded.total_seconds == plain.total_seconds
        per_kind = loaded.telemetry["per_bytes_kind"]
        assert per_kind["repair"] == plain.bytes_transferred
        assert per_kind["foreground"] > 0
