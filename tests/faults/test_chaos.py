"""Chaos and acceptance tests for fault-injected single-chunk repairs.

The contract under test: for *any* seeded fault plan, a single-chunk
repair either completes with decode-verified correct bytes or returns a
clean :class:`RepairFailed` — it never hangs and never silently returns
short data.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.master import Cluster
from repro.core import PivotRepairPlanner
from repro.core.bandwidth_view import BandwidthSnapshot
from repro.ec import RSCode
from repro.exceptions import ClusterError
from repro.faults import FaultPlan, RetryPolicy
from repro.faults.runner import rebuilt_payload
from repro.network.topology import StarNetwork
from repro.obs import Tracer
from repro.repair import (
    RepairFailed,
    RepairResult,
    repair_full_node,
    repair_single_chunk_faulted,
)
from repro.repair.jobmaster import choose_requestor
from repro.repair.pipeline import ExecutionConfig
from repro.resilience import RepairJournal
from tests.chaos_harness import (
    expected_payload,
    random_fault_plan,
    run_chaos_single_chunk,
)
from tests.one_stripe import one_stripe

NODE_COUNT = 12
CODE = RSCode(6, 4)
#: 1 MiB chunks in 1 KiB slices on ~1.6e6 B/s links (64 MiB chunks on
#: ~1e8 B/s links, scaled by 1/64): ~0.7-2 s transfers, so faults in
#: [0, 1] land mid-repair, and the chunks the cluster stores are sliced
#: as the timing plane slices them.
CONFIG = ExecutionConfig(chunk_size=1024 * 1024, slice_size=1024)


def heterogeneous_network():
    return StarNetwork.constant(
        [(1e8 + i * 3e6) / 64 for i in range(NODE_COUNT)],
        [(1e8 + i * 5e6) / 64 for i in range(NODE_COUNT)],
    )


def seeded_cluster(seed=7, stripes=1, chunk_bytes=CONFIG.chunk_size):
    cluster = Cluster(NODE_COUNT, CODE)
    rng = np.random.default_rng(seed)
    written = cluster.write_random_stripes(stripes, chunk_bytes, rng)
    return cluster, written


def plan_without_faults(network, requestor, candidates):
    snapshot = BandwidthSnapshot.from_network(network, 0.0)
    return PivotRepairPlanner().plan(snapshot, requestor, candidates, CODE.k)


class TestAcceptance:
    """ISSUE acceptance: crash a non-leaf pivot mid-repair; the repair
    must trace a re-plan and still complete with correct bytes."""

    def setup_repair(self):
        cluster, (stripe,) = seeded_cluster()
        network = heterogeneous_network()
        failed_node = stripe.placement[0]
        snapshot = BandwidthSnapshot.from_network(network, 0.0)
        requestor = choose_requestor(
            snapshot, stripe, failed_node, NODE_COUNT
        )
        candidates = stripe.surviving_nodes(failed_node)
        plan = plan_without_faults(network, requestor, candidates)
        non_leaf = [
            h for h in plan.tree.helpers if plan.tree.children(h)
        ]
        assert non_leaf, "test network must yield a non-trivial tree"
        return cluster, network, stripe, requestor, non_leaf[0]

    def test_nonleaf_pivot_crash_replans_and_repairs_correctly(self):
        cluster, network, stripe, requestor, victim = self.setup_repair()
        faults = FaultPlan.from_spec(f"crash:{victim}@0.2")
        tracer = Tracer()
        outcome = run_chaos_single_chunk(
            cluster, network, stripe, 0, faults,
            policy=RetryPolicy(), config=CONFIG, tracer=tracer,
        )
        assert outcome.ok
        # The injected crash was detected and triggered a traced re-plan.
        names = [event.name for event in tracer.events]
        assert "fault.crash" in names
        assert "repair.detect" in names
        assert "repair.replan" in names
        assert outcome.result.attempts == 2
        assert outcome.result.replans == 1
        assert victim not in outcome.result.plan.helpers
        # The rebuilt bytes decode-verify against an independent decode.
        assert outcome.correct is True
        assert outcome.payload is not None
        # The repaired chunk really lives on the requestor now.
        idx = stripe.chunk_on_node(requestor)
        stored = cluster.nodes[requestor].read(stripe.chunk_id(idx))
        assert np.array_equal(stored, outcome.payload)

    def test_chunk_read_error_forces_replan(self):
        cluster, network, stripe, _, victim = self.setup_repair()
        faults = FaultPlan.from_spec(f"readerr:{victim}@0.2")
        tracer = Tracer()
        outcome = run_chaos_single_chunk(
            cluster, network, stripe, 0, faults,
            policy=RetryPolicy(), config=CONFIG, tracer=tracer,
        )
        assert outcome.ok and outcome.correct
        assert outcome.result.attempts == 2
        assert victim not in outcome.result.plan.helpers

    def test_helper_stall_is_detected_and_survived(self):
        cluster, network, stripe, _, victim = self.setup_repair()
        # Freeze the pivot for longer than the whole repair would take;
        # only the stall detector can save the run.
        faults = FaultPlan.from_spec(f"stall:{victim}@0.2+30")
        tracer = Tracer()
        outcome = run_chaos_single_chunk(
            cluster, network, stripe, 0, faults,
            policy=RetryPolicy(detection_timeout=0.3),
            config=CONFIG, tracer=tracer,
        )
        assert outcome.ok and outcome.correct
        assert outcome.result.attempts >= 2
        kinds = [
            event.fields.get("kind")
            for event in tracer.events
            if event.name == "repair.detect"
        ]
        assert "stall" in kinds


class TestBytesAccounting:
    """Regression: bytes of a flow killed by a crash and restarted by the
    retry must not be double-counted."""

    def _faulted_run(self):
        cluster, network, stripe, requestor, victim = (
            TestAcceptance().setup_repair()
        )
        faults = FaultPlan.from_spec(f"crash:{victim}@0.2")
        result = repair_single_chunk_faulted(
            PivotRepairPlanner(), network, requestor, stripe,
            stripe.placement[0], faults, policy=RetryPolicy(), config=CONFIG,
        )
        assert result.ok and result.attempts == 2
        return result

    def test_bytes_match_fluid_accounting_exactly(self):
        result = self._faulted_run()
        telemetry = result.telemetry
        per_node = sum(telemetry["per_bytes_up"].values())
        assert result.bytes_transferred == pytest.approx(per_node)
        assert telemetry["counters"]["bytes_transferred"] == pytest.approx(
            result.bytes_transferred
        )

    def test_killed_attempt_counts_partial_bytes_once(self):
        result = self._faulted_run()
        tree = result.plan.tree
        from repro.repair.pipeline import pipeline_bytes_per_edge

        full_attempt = pipeline_bytes_per_edge(
            CONFIG, tree.depth()
        ) * len(tree.edges())
        # More than one clean attempt's bytes (the killed attempt moved
        # real data before the crash) but far less than two full attempts
        # (the naive per-attempt accounting this test pins against).
        assert result.bytes_transferred > full_attempt
        assert result.bytes_transferred < 2 * full_attempt


class TestStitching:
    """The byte plane stitches the ranges a result hands it, and refuses
    ranges that do not tile the chunk instead of returning short or long
    data."""

    CONFIG = ExecutionConfig(chunk_size=64 * 1024, slice_size=1024)

    def stitch(self, starts):
        cluster, (stripe,) = seeded_cluster(chunk_bytes=self.CONFIG.chunk_size)
        failed = stripe.placement[0]
        network = heterogeneous_network()
        requestor = choose_requestor(
            BandwidthSnapshot.from_network(network, 0.0), stripe, failed,
            NODE_COUNT,
        )
        plan = plan_without_faults(
            network, requestor, stripe.surviving_nodes(failed)
        )
        result = RepairResult(
            scheme=plan.scheme, planning_seconds=0.0, transfer_seconds=1.0,
            bmin=plan.bmin, plan=plan,
            segments=[(plan, start) for start in starts],
        )
        expected = expected_payload(cluster, stripe, 0)
        return expected, rebuilt_payload(cluster, stripe, 0, result,
                                         self.CONFIG)

    def test_ranges_that_tile_rebuild_the_chunk(self):
        expected, payload = self.stitch([0, 20, 41])
        assert np.array_equal(payload, expected)

    @pytest.mark.parametrize("starts, covered", [
        # The first range starts at slice 5: slices 0-4 came from nowhere.
        ([5, 30], "[(5, 30), (30, 64)]"),
        # A start below the previous one: slices 20-29 twice.
        ([0, 30, 20], "[(0, 30), (30, 20), (20, 64)]"),
        ([0, 64], "[(0, 64), (64, 64)]"),
    ], ids=["gap", "overlap", "past-the-end"])
    def test_ranges_that_do_not_tile_are_refused(self, starts, covered):
        with pytest.raises(ClusterError) as refused:
            self.stitch(starts)
        assert str(refused.value) == (
            f"stripe 0: slice ranges {covered} do not tile [0, 64)"
        )


class TestFailurePaths:
    def repair(self, faults, policy=None, candidates=None):
        cluster, (stripe,) = seeded_cluster()
        network = heterogeneous_network()
        failed_node = stripe.placement[0]
        snapshot = BandwidthSnapshot.from_network(network, 0.0)
        requestor = choose_requestor(
            snapshot, stripe, failed_node, NODE_COUNT
        )
        if candidates is not None:
            stripe, failed_node = one_stripe(
                candidates, failed_node, stripe_id=stripe.stripe_id
            )
        return requestor, repair_single_chunk_faulted(
            PivotRepairPlanner(), network, requestor, stripe, failed_node,
            faults, policy=policy or RetryPolicy(), config=CONFIG,
        )

    def test_requestor_crash_fails_cleanly(self):
        cluster, (stripe,) = seeded_cluster()
        network = heterogeneous_network()
        failed_node = stripe.placement[0]
        snapshot = BandwidthSnapshot.from_network(network, 0.0)
        requestor = choose_requestor(
            snapshot, stripe, failed_node, NODE_COUNT
        )
        result = repair_single_chunk_faulted(
            PivotRepairPlanner(), network, requestor, stripe, failed_node,
            FaultPlan.from_spec(f"crash:{requestor}@0.2"),
            config=CONFIG,
        )
        assert isinstance(result, RepairFailed)
        assert not result.ok
        assert "requestor" in result.reason

    def test_a_helper_dead_in_the_cluster_is_refused(self):
        # A helper dies mid-repair through the fault plan; one the
        # cluster already lost is a caller's error, not a candidate.
        cluster, (stripe,) = seeded_cluster()
        helper = stripe.placement[2]
        cluster.fail_node(helper)
        with pytest.raises(ClusterError, match=rf"helpers \[{helper}\]"):
            run_chaos_single_chunk(
                cluster, heterogeneous_network(), stripe, 0,
                FaultPlan.none(), config=CONFIG,
            )

    def test_too_few_survivors_fails_cleanly(self):
        cluster, (stripe,) = seeded_cluster()
        failed_node = stripe.placement[0]
        survivors = stripe.surviving_nodes(failed_node)
        exact_k = survivors[: CODE.k]
        _, result = self.repair(
            FaultPlan.from_spec(f"crash:{exact_k[0]}@0.2"),
            candidates=exact_k,
        )
        assert isinstance(result, RepairFailed)
        assert "survive" in result.reason
        assert result.attempts >= 1

    def test_retry_budget_exhaustion(self):
        cluster, (stripe,) = seeded_cluster()
        failed_node = stripe.placement[0]
        survivors = stripe.surviving_nodes(failed_node)
        # Freeze everyone forever: every attempt stalls, every retry fails.
        spec = ";".join(f"stall:{n}@0+1000" for n in survivors)
        _, result = self.repair(
            FaultPlan.from_spec(spec),
            policy=RetryPolicy(detection_timeout=0.2, max_retries=2),
        )
        assert isinstance(result, RepairFailed)
        assert "retry budget" in result.reason
        assert result.attempts == 3  # 1 try + 2 retries


class TestChaosProperty:
    """For any seeded fault plan: completes-correct or fails-clean."""

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_random_fault_plans_never_corrupt(self, seed):
        cluster, (stripe,) = seeded_cluster(seed=3)
        network = heterogeneous_network()
        faults = random_fault_plan(
            seed, NODE_COUNT, horizon=2.0, crashes=2, degradations=2,
            stalls=2, read_errors=1,
        )
        outcome = run_chaos_single_chunk(
            cluster, network, stripe, 0, faults,
            policy=RetryPolicy(detection_timeout=0.3),
            config=CONFIG,
        )
        if outcome.ok:
            # Completed repairs must carry verified-correct bytes.
            assert outcome.correct is True
            assert outcome.payload is not None
            assert outcome.result.attempts >= 1
        else:
            # Failed repairs must deliver no data at all, with a reason.
            assert isinstance(outcome.result, RepairFailed)
            assert outcome.payload is None
            assert outcome.correct is None
            assert outcome.result.reason

    @pytest.mark.slow
    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_random_fault_plans_never_corrupt_a_full_node_repair(self, seed):
        """The same contract through the other driver of the machine:
        three stripes at once, each task's stitched bytes verified."""
        self.full_node_chaos(seed)

    def test_scratch_flight_that_delivers_nothing_keeps_earlier_ranges(self):
        # Seed 6062: a stripe's verified slices sit on one requestor, a
        # re-plan starts from scratch on another and delivers nothing,
        # and the next flight resumes on the first.  Its result must
        # still name the flight that delivered the first slices, or the
        # stitched chunk comes out short.
        self.full_node_chaos(6062)

    @staticmethod
    def full_node_chaos(seed):
        # 1 MiB chunks on ~1 MB/s links: faults in [0, 2] land mid-repair,
        # and the byte plane's slices are the timing plane's.
        config = ExecutionConfig(chunk_size=1024 * 1024, slice_size=16384)
        cluster, stripes = seeded_cluster(
            seed=3, stripes=8, chunk_bytes=config.chunk_size
        )
        failed = stripes[0].placement[0]
        lost = [s for s in stripes if failed in s.placement][:3]
        assert len(lost) == 3
        expected = {
            s.stripe_id: expected_payload(
                cluster, s, s.chunk_on_node(failed)
            )
            for s in lost
        }
        cluster.fail_node(failed)
        network = StarNetwork.constant(
            [1e6 + i * 3e4 for i in range(NODE_COUNT)],
            [1e6 + i * 5e4 for i in range(NODE_COUNT)],
        )
        result = repair_full_node(
            PivotRepairPlanner(), network, lost, failed, concurrency=3,
            config=config, journal=RepairJournal(),
            faults=random_fault_plan(
                seed, NODE_COUNT, horizon=2.0, crashes=2, degradations=2,
                stalls=2, read_errors=1,
            ),
            retry_policy=RetryPolicy(detection_timeout=0.3),
        )
        assert result.chunks_repaired + result.chunks_failed == 3
        for task in result.task_results:
            stripe = cluster.stripes[task.plan.notes["stripe_id"]]
            payload = rebuilt_payload(
                cluster, stripe, stripe.chunk_on_node(failed), task, config
            )
            assert np.array_equal(payload, expected[stripe.stripe_id])
            assert task.attempts >= 1
        for failure in result.failures:
            assert isinstance(failure, RepairFailed)
            assert failure.stripe_id in expected and failure.reason

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_same_seed_same_outcome(self, seed):
        faults = random_fault_plan(seed, NODE_COUNT, horizon=2.0, crashes=2)

        def run():
            cluster, (stripe,) = seeded_cluster(seed=3)
            return run_chaos_single_chunk(
                cluster, heterogeneous_network(), stripe, 0, faults,
                policy=RetryPolicy(), config=CONFIG,
            )

        first, second = run(), run()
        assert first.ok == second.ok
        assert first.result.attempts == second.result.attempts
        assert first.result.bytes_transferred == pytest.approx(
            second.result.bytes_transferred
        )
        if first.ok:
            assert np.array_equal(first.payload, second.payload)
