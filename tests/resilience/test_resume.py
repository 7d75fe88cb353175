"""Checkpoint/resume acceptance: crashes must not restart the transfer.

The ISSUE's acceptance criterion: with a helper crash at ~50% progress, a
journaled repair resumed from its slice watermark re-transfers well under
60% of what a from-scratch retry re-transfers, and the recovered chunk is
decode-verified byte-identical.
"""

import numpy as np
import pytest

from repro.cluster.master import Cluster
from repro.core import PivotRepairPlanner
from repro.ec import RSCode, place_stripes
from repro.exceptions import PlanningError
from repro.faults import FaultPlan, RetryPolicy
from repro.network.topology import StarNetwork
from repro.repair import repair_full_node, repair_single_chunk_faulted
from repro.repair.jobmaster import StripeRepairMaster
from repro.repair.pipeline import (
    ExecutionConfig,
    pipeline_bytes_per_edge,
    remaining_bytes_per_edge,
)
from repro.resilience import RepairJournal
from tests.chaos_harness import run_chaos_single_chunk
from tests.one_stripe import one_stripe

MiB = 1024 * 1024
NODE_COUNT = 12
CODE = RSCode(6, 4)


def uniform_but(victim: int, base=10 * MiB, boost=12 * MiB):
    """Uniform star with one faster node, so the planner picks it."""
    return StarNetwork.constant(
        [boost if i == victim else base for i in range(NODE_COUNT)],
        [boost if i == victim else base for i in range(NODE_COUNT)],
    )


class TestRemainingBytes:
    def test_equals_full_pipeline_at_slice_zero(self):
        config = ExecutionConfig(chunk_size=8 * MiB, slice_size=32 * 1024)
        for depth in (1, 2, 4):
            assert remaining_bytes_per_edge(
                config, depth, 0
            ) == pipeline_bytes_per_edge(config, depth)

    def test_shrinks_with_watermark(self):
        config = ExecutionConfig(chunk_size=8 * MiB, slice_size=32 * 1024)
        full = remaining_bytes_per_edge(config, 3, 0)
        half = remaining_bytes_per_edge(config, 3, config.slices // 2)
        assert half == full - (config.slices // 2) * config.slice_size

    def test_validates_range(self):
        config = ExecutionConfig(chunk_size=8 * MiB, slice_size=32 * 1024)
        with pytest.raises(PlanningError):
            remaining_bytes_per_edge(config, 2, -1)
        with pytest.raises(PlanningError):
            remaining_bytes_per_edge(config, 2, config.slices)
        with pytest.raises(PlanningError):
            remaining_bytes_per_edge(config, 0, 0)


class TestSingleChunkResume:
    CONFIG = ExecutionConfig(chunk_size=8 * MiB, slice_size=32 * 1024)
    VICTIM = 3
    #: ~8 MiB at ~10 MiB/s: the crash lands near half the transfer.
    FAULTS = f"crash:{VICTIM}@0.45"
    POLICY = RetryPolicy(detection_timeout=0.05)

    def run(self, journal=None):
        return repair_single_chunk_faulted(
            PivotRepairPlanner(), uniform_but(self.VICTIM), 0,
            *one_stripe(), FaultPlan.from_spec(self.FAULTS),
            policy=self.POLICY, config=self.CONFIG, journal=journal,
        )

    def test_resume_retransfers_under_60_percent_of_restart(
        self, monkeypatch
    ):
        journal = RepairJournal()
        resumed = self.run(journal=journal)
        monkeypatch.setattr(
            StripeRepairMaster, "resume_slice", lambda self, stripe, plan: 0
        )
        restart = self.run(journal=RepairJournal())
        assert resumed.ok and restart.ok
        failed = journal.last("attempt_failed")
        assert failed is not None
        # Both runs are byte-identical up to the crash, so the journaled
        # byte count at failure is the shared prefix.
        prefix = float(failed.data["bytes_transferred"])
        resumed_again = resumed.bytes_transferred - prefix
        restart_again = restart.bytes_transferred - prefix
        assert 0 < resumed_again < 0.6 * restart_again

    def test_watermark_recorded_and_segments_cover_chunk(self):
        journal = RepairJournal()
        result = self.run(journal=journal)
        failed = journal.last("attempt_failed")
        watermark = int(failed.data["watermark"])
        assert 0 < watermark < self.CONFIG.slices
        # Two segments: [0, watermark) via the crashed tree's plan and
        # [watermark, slices) via the re-plan.
        assert [start for _, start in result.segments] == [0, watermark]
        kinds = [record.kind for record in journal.records]
        assert kinds[0] == "task_start"
        assert kinds[-1] == "task_done"
        assert "attempt_failed" in kinds

    def test_resumes_without_a_journal(self):
        # One resume rule: the journal makes the watermark durable, it
        # does not decide whether a re-plan resumes.
        journaled, plain = self.run(journal=RepairJournal()), self.run()
        assert [start for _, start in plain.segments] == [
            start for _, start in journaled.segments
        ]
        assert plain.segments[1][1] > 0
        assert plain.bytes_transferred == journaled.bytes_transferred

    def test_journal_is_deterministic_across_runs(self, tmp_path):
        blobs = []
        for name in ("a.jsonl", "b.jsonl"):
            with RepairJournal(tmp_path / name) as journal:
                self.run(journal=journal)
            blobs.append((tmp_path / name).read_bytes())
        assert blobs[0] == blobs[1]


class TestResumedBytesAreCorrect:
    """Decode-verify the stitched payload of a resumed repair."""

    def test_chaos_resume_correct(self):
        config = ExecutionConfig(chunk_size=1 * MiB, slice_size=16 * 1024)
        cluster = Cluster(NODE_COUNT, CODE)
        rng = np.random.default_rng(11)
        (stripe,) = cluster.write_random_stripes(1, config.chunk_size, rng)
        victim = stripe.placement[1]
        outcome = run_chaos_single_chunk(
            cluster, uniform_but(victim), stripe, 0,
            FaultPlan.from_spec(f"crash:{victim}@0.05"),
            policy=RetryPolicy(detection_timeout=0.02),
            config=config, journal=RepairJournal(),
        )
        assert outcome.ok
        assert outcome.correct is True
        assert len(outcome.result.segments) == 2
        assert outcome.result.segments[1][1] > 0


class TestFullNodeResume:
    CONFIG = ExecutionConfig(chunk_size=4 * MiB, slice_size=16 * 1024)

    def scenario(self):
        stripes = place_stripes(
            6, CODE, NODE_COUNT, np.random.default_rng(7)
        )
        failed = stripes[0].placement[0]
        victim = stripes[0].placement[1]
        network = StarNetwork.uniform(NODE_COUNT, 50 * MiB)
        faults = FaultPlan.from_spec(f"crash:{victim}@0.02")
        return stripes, failed, network, faults

    def test_replanned_stripes_resume_from_watermark(self):
        stripes, failed, network, faults = self.scenario()
        journal = RepairJournal()
        result = repair_full_node(
            PivotRepairPlanner(), network, stripes, failed,
            config=self.CONFIG, faults=faults, journal=journal,
        )
        assert result.chunks_failed == 0
        progress = [r for r in journal.records if r.kind == "progress"]
        assert progress, "crash must checkpoint slice progress"
        resumed = [
            record
            for record in journal.records
            if record.kind == "task_start" and record.data["start_slice"] > 0
        ]
        assert resumed, "re-planned stripes must resume, not restart"
        last = {
            r.data["stripe"]: r.data
            for r in journal.records if r.kind == "progress"
        }
        for record in resumed:
            progress = last[record.data["stripe"]]
            assert record.data["start_slice"] == progress["watermark"]
            assert record.data["requestor"] == progress.get("requestor", -1)

    def test_resume_moves_fewer_bytes_than_restart(self, monkeypatch):
        stripes, failed, network, faults = self.scenario()
        resumed = repair_full_node(
            PivotRepairPlanner(), network, stripes, failed,
            config=self.CONFIG, faults=faults, journal=RepairJournal(),
        )
        monkeypatch.setattr(
            StripeRepairMaster, "resume_slice",
            lambda self, stripe, plan: 0,
        )
        restart = repair_full_node(
            PivotRepairPlanner(), network, stripes, failed,
            config=self.CONFIG, faults=faults, journal=RepairJournal(),
        )
        assert resumed.chunks_failed == restart.chunks_failed == 0
        assert resumed.bytes_transferred < restart.bytes_transferred
