"""Fault injection through the full-node orchestrators.

A helper crash mid-run must cancel the doomed flights, re-plan their
stripes over the survivors (counted in the ``replans`` counter and traced
as ``repair.replan``), and still repair every chunk; stripes that become
unrepairable must come back as clean :class:`RepairFailed` entries
instead of raising or hanging.
"""

import numpy as np
import pytest

from repro.core import PivotRepairPlanner
from repro.core.scheduler import SchedulerConfig
from repro.ec import RSCode, place_stripes
from repro.faults import FaultPlan, RetryPolicy
from repro.loadgen import ForegroundEngine, LoadProfile, generate_requests
from repro.network.topology import StarNetwork
from repro.obs import Tracer
from repro.repair import repair_full_node, repair_full_node_adaptive
from repro.repair.pipeline import ExecutionConfig

NODE_COUNT = 12
CODE = RSCode(6, 4)
CONFIG = ExecutionConfig(chunk_size=64 * 1024 * 1024)


def network():
    return StarNetwork.constant(
        [1e8 + i * 3e6 for i in range(NODE_COUNT)],
        [1e8 + i * 5e6 for i in range(NODE_COUNT)],
    )


class ZeroCostPlanner(PivotRepairPlanner):
    """Planning wall-clock pinned to 0 so runs compare deterministically."""

    def plan(self, *args, **kwargs):
        plan = super().plan(*args, **kwargs)
        plan.planning_seconds = 0.0
        return plan


def setup(seed=7, count=6):
    stripes = place_stripes(
        count, CODE, NODE_COUNT, np.random.default_rng(seed)
    )
    failed = stripes[0].placement[0]
    helper = next(n for n in stripes[0].placement if n != failed)
    return stripes, failed, helper


class TestFixedConcurrency:
    def test_helper_crash_triggers_replan_and_completes(self):
        stripes, failed, helper = setup()
        tracer = Tracer()
        result = repair_full_node(
            PivotRepairPlanner(), network(), stripes, failed,
            config=CONFIG, tracer=tracer,
            faults=FaultPlan.from_spec(f"crash:{helper}@0.3"),
            retry_policy=RetryPolicy(),
        )
        counters = result.telemetry["counters"]
        assert counters["replans"] >= 1
        assert counters["fault_detections"] >= 1
        assert counters["faults_injected"] == 1
        assert result.chunks_failed == 0
        affected = sum(
            1 for s in stripes if s.chunk_on_node(failed) is not None
        )
        assert result.chunks_repaired == affected
        names = [event.name for event in tracer.events]
        assert "fault.crash" in names
        assert "repair.detect" in names
        assert "repair.replan" in names
        # No repaired tree may contain the crashed helper after the crash.
        for task in result.task_results:
            if task.plan.notes.get("stripe_id") in {
                e.fields.get("stripe")
                for e in tracer.events
                if e.name == "repair.replan"
            }:
                assert helper not in task.plan.helpers

    def test_unrepairable_stripes_fail_cleanly(self):
        stripes, failed, _ = setup()
        target = stripes[0]
        survivors = [n for n in target.placement if n != failed]
        # Kill holders until fewer than k of this stripe's chunks survive.
        doomed = survivors[: len(survivors) - CODE.k + 1]
        spec = ";".join(f"crash:{n}@0.3" for n in doomed)
        result = repair_full_node(
            PivotRepairPlanner(), network(), stripes, failed,
            config=CONFIG,
            faults=FaultPlan.from_spec(spec),
            retry_policy=RetryPolicy(),
        )
        assert result.chunks_failed >= 1
        failed_ids = {f.stripe_id for f in result.failures}
        assert target.stripe_id in failed_ids
        for failure in result.failures:
            assert not failure.ok
            assert failure.reason
        repaired_ids = {
            task.plan.notes["stripe_id"] for task in result.task_results
        }
        assert repaired_ids.isdisjoint(failed_ids)

    def test_faultless_run_is_unchanged(self):
        stripes, failed, _ = setup()
        plain = repair_full_node(
            ZeroCostPlanner(), network(), stripes, failed, config=CONFIG,
        )
        with_empty = repair_full_node(
            ZeroCostPlanner(), network(), stripes, failed, config=CONFIG,
            faults=FaultPlan.none(), retry_policy=RetryPolicy(),
        )
        assert with_empty.chunks_repaired == plain.chunks_repaired
        assert with_empty.total_seconds == pytest.approx(
            plain.total_seconds
        )
        assert with_empty.failures == []


class TestAdaptive:
    def test_helper_crash_triggers_replan_and_completes(self):
        stripes, failed, helper = setup()
        tracer = Tracer()
        result = repair_full_node_adaptive(
            PivotRepairPlanner(), network(), stripes, failed,
            scheduler=SchedulerConfig(threshold=0.0),
            config=CONFIG, tracer=tracer,
            faults=FaultPlan.from_spec(f"crash:{helper}@0.3"),
            retry_policy=RetryPolicy(),
        )
        counters = result.telemetry["counters"]
        assert counters["replans"] >= 1
        assert result.chunks_failed == 0
        affected = sum(
            1 for s in stripes if s.chunk_on_node(failed) is not None
        )
        assert result.chunks_repaired == affected
        assert "repair.replan" in [event.name for event in tracer.events]

    def test_scheduler_excludes_dead_nodes_from_new_plans(self):
        stripes, failed, helper = setup()
        result = repair_full_node_adaptive(
            PivotRepairPlanner(), network(), stripes, failed,
            scheduler=SchedulerConfig(threshold=0.0),
            config=CONFIG,
            faults=FaultPlan.from_spec(f"crash:{helper}@0.3"),
            retry_policy=RetryPolicy(),
        )
        crash_time = 0.3
        planned_after = [
            task.plan
            for task in result.task_results
            if task.plan.notes["planned_at"] >= crash_time
        ]
        assert planned_after, "some repairs must start after the crash"
        for plan in planned_after:
            assert helper not in plan.helpers
            assert helper != plan.requestor

    def test_unrepairable_stripes_fail_cleanly(self):
        stripes, failed, _ = setup()
        target = stripes[0]
        survivors = [n for n in target.placement if n != failed]
        doomed = survivors[: len(survivors) - CODE.k + 1]
        spec = ";".join(f"crash:{n}@0.3" for n in doomed)
        result = repair_full_node_adaptive(
            PivotRepairPlanner(), network(), stripes, failed,
            scheduler=SchedulerConfig(threshold=0.0),
            config=CONFIG,
            faults=FaultPlan.from_spec(spec),
            retry_policy=RetryPolicy(),
        )
        assert result.chunks_failed >= 1
        assert target.stripe_id in {f.stripe_id for f in result.failures}


DRIVERS = {
    "window": lambda *args, **kwargs: repair_full_node(
        *args, concurrency=3, **kwargs
    ),
    "adaptive": repair_full_node_adaptive,
}


class TestCrashUnderForeground:
    """A node that dies mid-run must not wedge the foreground drain.

    Client flows already crossing the node when it crashes sit at zero
    rate forever; the single-job drivers have to abort them at the next
    fault tick, as the fleet control plane does, or ``drain()`` ends in
    ``simulation is stuck``.
    """

    @pytest.mark.parametrize("driver", sorted(DRIVERS))
    def test_drain_terminates_after_mid_run_crash(self, driver):
        stripes, failed, helper = setup(count=8)
        faults = FaultPlan.from_spec(f"crash:{helper}@0.3")
        profile = LoadProfile(
            name="crash-under-load", arrival_rate=60.0, duration=4.0,
            read_fraction=0.9, request_size=4 * 1024 * 1024, zipf_s=0.9,
        )
        engine = ForegroundEngine(
            stripes, generate_requests(profile, stripes, NODE_COUNT, seed=5),
            ZeroCostPlanner(), failed_nodes={failed}, faults=faults,
        )
        tracer = Tracer()
        result = DRIVERS[driver](
            ZeroCostPlanner(), network(), stripes, failed, config=CONFIG,
            tracer=tracer, faults=faults, retry_policy=RetryPolicy(),
            foreground=engine,
        )
        engine.drain()
        assert engine.pending_flows == 0
        assert engine.requests_remaining == 0
        assert result.chunks_failed == 0
        aborts = [e for e in tracer.events if e.name == "plane.fg_abort"]
        assert [e.fields["nodes"] for e in aborts] == [[helper]]
        counters = engine.registry.snapshot()["counters"]
        assert counters["fg_aborted"] == aborts[0].fields["flows"] > 0
