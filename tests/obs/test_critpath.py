"""Exact critical-path reconstruction acceptance tests.

The central invariant: for *every* repair in a trace — plain, retried,
or one of several racing full-node stripes under foreground load — the
reconstructed critical-path segments tile the
repair's ``repair.task`` span exactly, so their durations sum to the
measured makespan within 1e-9, and the per-category seconds do too.
"""

import numpy as np
import pytest

from repro.core import PivotRepairPlanner
from repro.ec import RSCode, place_stripes
from repro.faults import FaultPlan, RetryPolicy
from repro.loadgen import ClientRequest, ForegroundEngine
from repro.network.topology import StarNetwork
from repro.obs import Tracer, critical_paths
from repro.obs.export import events_from_jsonl, to_jsonl
from repro.repair import (
    repair_full_node,
    repair_single_chunk,
    repair_single_chunk_faulted,
)
from repro.repair.pipeline import ExecutionConfig, pipeline_overhead_seconds
from repro.units import gbps, mib
from tests.one_stripe import one_stripe

MiB = 1024 * 1024
CODE = RSCode(6, 4)
NODE_COUNT = 12


def assert_exact_tiling(report):
    """Every repair's path must tile its makespan to float precision."""
    assert report.repairs, "no repair.task spans reconstructed"
    for path in report.repairs:
        covered = sum(seg.duration for seg in path.segments)
        assert covered == pytest.approx(path.makespan, abs=1e-9)
        assert abs(path.residual) <= 1e-9
        assert sum(path.categories.values()) == pytest.approx(
            path.makespan, abs=1e-9
        )
        # Segments must abut: no overlaps, no holes.
        cursor = path.start
        for seg in path.segments:
            assert seg.start == pytest.approx(cursor, abs=1e-9)
            assert seg.end >= seg.start
            cursor = seg.end
        assert cursor == pytest.approx(path.end, abs=1e-9)
    assert not [a for a in report.anomalies if "residual" in a]


class TestSingleChunk:
    def network(self, seed=7):
        rng = np.random.default_rng(seed)
        return StarNetwork.constant(
            [float(rng.uniform(200.0, 1200.0)) for _ in range(10)],
            [float(rng.uniform(200.0, 1200.0)) for _ in range(10)],
        )

    def test_plain_repair_tiles_and_matches_result(self):
        tracer = Tracer()
        result = repair_single_chunk(
            PivotRepairPlanner(), self.network(), requestor=0,
            candidates=range(1, 10), k=CODE.k,
            config=ExecutionConfig(chunk_size=10_000, slice_size=1000),
            tracer=tracer,
        )
        report = critical_paths(tracer.events)
        assert_exact_tiling(report)
        [path] = report.repairs
        assert path.makespan == pytest.approx(
            result.transfer_seconds, abs=1e-9
        )
        assert path.reported_transfer == pytest.approx(
            result.transfer_seconds
        )
        # An uncontended repair is transfer plus the pipeline-fill tail.
        assert set(path.categories) <= {"transfer", "pipeline"}

    #: The faulted driver's span ends at the last flow's finish, like a
    #: full-node task's; its result adds the per-slice tail.
    FAULTED = ExecutionConfig(chunk_size=8 * MiB, slice_size=32768)

    def faulted_makespan(self, result):
        return result.transfer_seconds - pipeline_overhead_seconds(
            self.FAULTED
        )

    def test_crash_retry_path_has_stall_and_backoff(self):
        net = StarNetwork.constant([10 * MiB] * 8, [10 * MiB] * 8)
        tracer = Tracer()
        result = repair_single_chunk_faulted(
            PivotRepairPlanner(), net, 0, *one_stripe(),
            FaultPlan.from_spec("crash:3@0.2"),
            policy=RetryPolicy(detection_timeout=0.05, backoff_base=0.1),
            config=self.FAULTED, tracer=tracer,
        )
        assert result.ok
        report = critical_paths(tracer.events)
        assert_exact_tiling(report)
        [path] = report.repairs
        assert path.makespan == pytest.approx(
            self.faulted_makespan(result), abs=1e-9
        )
        # Detection window (zero-rate) + explicit backoff span.
        assert path.categories.get("stall", 0.0) >= 0.1
        names = [seg.name for seg in path.segments]
        assert "repair.backoff" in names

class TestConcurrentFullNodeUnderLoad:
    """The acceptance scenario: several stripes racing under two
    foreground tenants — every repair's path must still tile exactly,
    with queue wait, contention, and tenant blame attributed."""

    def run(self, concurrency=2, requests=True):
        network = StarNetwork.uniform(NODE_COUNT, gbps(1))
        stripes = place_stripes(
            8, CODE, NODE_COUNT, np.random.default_rng(0)
        )
        failed = stripes[0].placement[0]
        config = ExecutionConfig(chunk_size=mib(4), slice_size=mib(1))
        rng = np.random.default_rng(1)
        reqs = []
        if requests:
            for i in range(40):
                sid = int(rng.integers(0, len(stripes)))
                reqs.append(ClientRequest(
                    arrival=float(rng.uniform(0, 0.2)), kind="read",
                    stripe_id=stripes[sid].stripe_id, chunk_index=0,
                    client=int(rng.integers(0, NODE_COUNT)),
                    size=mib(2),
                    tenant="analytics" if i % 2 else "web",
                ))
        engine = ForegroundEngine(
            stripes, reqs, PivotRepairPlanner(), failed_nodes={failed}
        )
        tracer = Tracer()
        result = repair_full_node(
            PivotRepairPlanner(), network, stripes, failed, config=config,
            foreground=engine, tracer=tracer, concurrency=concurrency,
        )
        return result, tracer

    def test_every_repair_tiles_to_its_makespan(self):
        result, tracer = self.run()
        report = critical_paths(tracer.events)
        assert_exact_tiling(report)
        assert len(report.repairs) == len(result.task_results)

    def test_queue_wait_attributed_when_serialized(self):
        _, tracer = self.run(concurrency=1)
        report = critical_paths(tracer.events)
        assert_exact_tiling(report)
        # With concurrency 1, later stripes must show scheduler queueing.
        queued = [
            p for p in report.repairs
            if p.categories.get("queue", 0.0) > 0
        ]
        assert len(queued) >= len(report.repairs) - 1

    def test_tenant_blame_covers_contention(self):
        _, tracer = self.run()
        report = critical_paths(tracer.events)
        contention = report.categories.get("contention", 0.0)
        assert contention > 0
        # Tenant blame partitions contention exactly.
        assert sum(report.tenants.values()) == pytest.approx(
            contention, rel=1e-9
        )
        named = set(report.tenants) - {"(unattributed)"}
        assert named & {"web", "analytics"} or any(
            name.startswith("repair:") for name in named
        )
        # Per-repair blame sums to that repair's contention seconds.
        for path in report.repairs:
            assert sum(path.tenants.values()) == pytest.approx(
                path.categories.get("contention", 0.0), abs=1e-12
            )

    def test_report_round_trips_through_jsonl(self):
        _, tracer = self.run()
        direct = critical_paths(tracer.events)
        replayed = critical_paths(
            events_from_jsonl(to_jsonl(tracer.events))
        )
        assert replayed.to_json() == direct.to_json()

    def test_render_and_json_shapes(self):
        _, tracer = self.run()
        report = critical_paths(tracer.events)
        text = report.render()
        assert "critical paths of" in text
        assert "waterfall" in text
        payload = report.to_dict()
        assert payload["max_residual"] <= 1e-9
        for repair in payload["repairs"]:
            assert repair["segments"]
            assert repair["makespan"] >= 0


class TestFleetJobBlame:
    """Rival repair jobs from the control plane show up in contention
    blame under their own ``repair:<job>`` labels, so a slow stripe can
    point at the exact storm neighbour that squeezed it."""

    def run_storm(self):
        from repro.controlplane import StormConfig, run_storm

        tracer = Tracer()
        report = run_storm(
            StormConfig(
                seed=7, stripes=6, chunk_mib=4.0, foreground_rate=30.0,
                foreground_duration=12.0, max_time=120.0,
                admission_control=False,
            ),
            tracer=tracer,
        )
        return report, tracer

    def test_storm_paths_tile_and_blame_names_rival_jobs(self):
        storm, tracer = self.run_storm()
        report = critical_paths(tracer.events)
        assert_exact_tiling(report)
        job_ids = set(storm.fleet.jobs)
        blamed = {
            name
            for path in report.repairs
            for name in path.tenants
            if name.startswith("repair:")
        }
        assert blamed, "no rival repair job ever blamed for contention"
        assert blamed <= {f"repair:{job_id}" for job_id in job_ids}
        # Blame still partitions each repair's contention exactly.
        for path in report.repairs:
            assert sum(path.tenants.values()) == pytest.approx(
                path.categories.get("contention", 0.0), abs=1e-12
            )
