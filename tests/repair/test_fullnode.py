"""Tests for full-node repair orchestration."""

import numpy as np
import pytest

from repro.baselines import ConventionalPlanner, RPPlanner
from repro.core import PivotRepairPlanner
from repro.core.bandwidth_view import BandwidthSnapshot
from repro.core.scheduler import SchedulerConfig
from repro.ec import RSCode, Stripe, place_stripes
from repro.exceptions import ClusterError
from repro.network.topology import StarNetwork
from repro.repair.fullnode import repair_full_node, repair_full_node_adaptive
from repro.repair.jobmaster import choose_requestor
from repro.repair.pipeline import ExecutionConfig


NODE_COUNT = 10
CODE = RSCode(6, 4)


def uniform_network(value=1000.0):
    return StarNetwork.uniform(NODE_COUNT, value)


def make_stripes(count=6, seed=0):
    return place_stripes(count, CODE, NODE_COUNT, np.random.default_rng(seed))


def small_config():
    return ExecutionConfig(
        chunk_size=10_000, slice_size=1000, per_slice_overhead=0.0
    )


class TestChooseRequestor:
    def test_prefers_max_downlink_outside_stripe(self):
        stripe = Stripe(0, CODE, [0, 1, 2, 3, 4, 5])
        up = {i: 100.0 for i in range(8)}
        down = {i: float(i * 10) for i in range(8)}
        view = BandwidthSnapshot(up=up, down=down)
        # Failed node 0; holders 1-5; candidates 6, 7; 7 has more downlink.
        assert choose_requestor(view, stripe, 0, 8) == 7

    def test_failed_node_never_chosen(self):
        stripe = Stripe(0, CODE, [0, 1, 2, 3, 4, 5])
        up = {i: 1.0 for i in range(8)}
        down = {i: 1.0 for i in range(8)}
        view = BandwidthSnapshot(up=up, down=down)
        # With node 6 failed, the requestor must avoid both the failed node
        # and the chunk holders 0-5: only node 7 qualifies.
        assert choose_requestor(view, stripe, 6, 8) == 7

    def test_no_candidate_raises(self):
        stripe = Stripe(0, CODE, [0, 1, 2, 3, 4, 5])
        view = BandwidthSnapshot(
            up={i: 1.0 for i in range(6)}, down={i: 1.0 for i in range(6)}
        )
        with pytest.raises(ClusterError):
            choose_requestor(view, stripe, 0, 6)


class TestFixedConcurrency:
    def test_repairs_every_lost_chunk(self):
        stripes = make_stripes()
        failed = stripes[0].placement[0]
        affected = [
            s for s in stripes if s.chunk_on_node(failed) is not None
        ]
        result = repair_full_node(
            PivotRepairPlanner(), uniform_network(), stripes, failed,
            concurrency=2, config=small_config(),
        )
        assert result.chunks_repaired == len(affected)
        assert result.total_seconds > 0
        assert result.scheme == "PivotRepair"

    def test_no_lost_chunks_raises(self):
        stripes = [Stripe(0, CODE, [0, 1, 2, 3, 4, 5])]
        with pytest.raises(ClusterError):
            repair_full_node(
                PivotRepairPlanner(), uniform_network(), stripes, 9,
                config=small_config(),
            )

    def test_bad_concurrency_rejected(self):
        with pytest.raises(ClusterError):
            repair_full_node(
                PivotRepairPlanner(), uniform_network(), make_stripes(), 0,
                concurrency=0, config=small_config(),
            )

    def test_staged_plans_rejected(self):
        stripes = make_stripes()
        failed = stripes[0].placement[0]
        with pytest.raises(ClusterError):
            repair_full_node(
                ConventionalPlanner(), uniform_network(), stripes, failed,
                config=small_config(),
            )

    def test_higher_concurrency_not_slower_on_uniform_network(self):
        stripes = make_stripes(count=8, seed=1)
        failed = stripes[0].placement[0]
        serial = repair_full_node(
            RPPlanner(), uniform_network(), stripes, failed,
            concurrency=1, config=small_config(),
        )
        parallel = repair_full_node(
            RPPlanner(), uniform_network(), stripes, failed,
            concurrency=4, config=small_config(),
        )
        assert parallel.total_seconds <= serial.total_seconds + 1e-6

    def test_task_results_have_transfer_times(self):
        stripes = make_stripes(count=4, seed=2)
        failed = stripes[0].placement[0]
        result = repair_full_node(
            PivotRepairPlanner(), uniform_network(), stripes, failed,
            concurrency=2, config=small_config(),
        )
        for task in result.task_results:
            assert task.transfer_seconds > 0
            # Plans are made against the residual bandwidth (net of other
            # running repairs), so a fully contended snapshot can yield a
            # zero planned B_min even though max-min sharing still makes
            # progress.
            assert task.bmin >= 0


class TestAdaptive:
    def test_repairs_every_lost_chunk(self):
        stripes = make_stripes(count=8, seed=3)
        failed = stripes[0].placement[0]
        affected = [
            s for s in stripes if s.chunk_on_node(failed) is not None
        ]
        result = repair_full_node_adaptive(
            PivotRepairPlanner(), uniform_network(), stripes, failed,
            config=small_config(),
        )
        assert result.chunks_repaired == len(affected)
        assert result.scheme == "PivotRepair+strategy"

    def test_threshold_throttles_concurrency(self):
        stripes = make_stripes(count=8, seed=4)
        failed = stripes[0].placement[0]
        # An absurdly high threshold forces strictly serial execution
        # (the scheduler always starts one task to guarantee progress).
        result = repair_full_node_adaptive(
            PivotRepairPlanner(), uniform_network(), stripes, failed,
            scheduler=SchedulerConfig(threshold=1e9),
            config=small_config(),
        )
        affected = [
            s for s in stripes if s.chunk_on_node(failed) is not None
        ]
        assert result.chunks_repaired == len(affected)

    def test_max_concurrency_cap(self):
        stripes = make_stripes(count=8, seed=5)
        failed = stripes[0].placement[0]
        result = repair_full_node_adaptive(
            PivotRepairPlanner(), uniform_network(), stripes, failed,
            scheduler=SchedulerConfig(max_concurrency=1),
            config=small_config(),
        )
        affected = [
            s for s in stripes if s.chunk_on_node(failed) is not None
        ]
        assert result.chunks_repaired == len(affected)

    def test_adaptive_competitive_with_fixed_concurrency_when_congested(self):
        # On a congested, heterogeneous network the adaptive scheduler
        # should avoid oversubscribing shared links.  Bandwidths use
        # realistic Mb/s magnitudes because Eq. 3 compares B_min (in Mb/s)
        # against alpha/beta-scaled penalties.
        from repro.units import mbps

        rng = np.random.default_rng(9)
        ups = [float(rng.choice([mbps(50), mbps(1000)])) for _ in range(NODE_COUNT)]
        downs = [float(rng.choice([mbps(50), mbps(1000)])) for _ in range(NODE_COUNT)]
        net = StarNetwork.constant(ups, downs)
        stripes = make_stripes(count=10, seed=6)
        failed = stripes[0].placement[0]
        config = ExecutionConfig(
            chunk_size=4 * 1024 * 1024, slice_size=32 * 1024,
            per_slice_overhead=0.0,
        )
        fixed = repair_full_node(
            PivotRepairPlanner(), net, stripes, failed,
            concurrency=10, config=config,
        )
        adaptive = repair_full_node_adaptive(
            PivotRepairPlanner(), net, stripes, failed,
            scheduler=SchedulerConfig(alpha=1.0, beta=2.0, threshold=20.0),
            config=config,
        )
        assert adaptive.total_seconds <= fixed.total_seconds * 1.5
