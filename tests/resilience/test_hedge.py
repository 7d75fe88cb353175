"""Gray-failure detection and hedged re-planning acceptance tests.

A helper degrades to 5% capacity but never crashes, so the hard-fault
watchdog cannot see it.  The health monitor must flag the straggler from
relative progress alone (simulated time only), race a hedged re-plan over
the survivors, adopt the winner, and charge the loser's bytes to the
``hedge`` accounting bucket that ``repro explain`` then surfaces.
"""

import numpy as np

from repro.cluster.master import Cluster
from repro.core import PivotRepairPlanner
from repro.ec import RSCode
from repro.faults import FaultPlan, RetryPolicy
from repro.network.topology import StarNetwork
from repro.obs import Tracer, diagnose
from repro.repair import repair_single_chunk_faulted
from repro.repair.pipeline import ExecutionConfig
from repro.resilience import HealthPolicy, RepairJournal
from tests.chaos_harness import run_chaos_single_chunk
from tests.one_stripe import one_stripe

MiB = 1024 * 1024
CODE = RSCode(6, 4)
VICTIM = 3


def gray_network(node_count=8, base=10 * MiB, boost=12 * MiB):
    """Victim is the fastest node, so the planner routes through it."""
    return StarNetwork.constant(
        [boost if i == VICTIM else base for i in range(node_count)],
        [boost if i == VICTIM else base for i in range(node_count)],
    )


class TestHedgedReplan:
    CONFIG = ExecutionConfig(chunk_size=8 * MiB, slice_size=32 * 1024)
    #: Victim silently drops to 5% capacity shortly after launch and
    #: never recovers within the repair — a textbook gray failure.
    FAULTS = "degrade:3@0.1-1000x0.05"

    def run(self, health):
        tracer = Tracer()
        result = repair_single_chunk_faulted(
            PivotRepairPlanner(), gray_network(), 0, *one_stripe(),
            FaultPlan.from_spec(self.FAULTS),
            policy=RetryPolicy(detection_timeout=0.05),
            config=self.CONFIG, tracer=tracer, health=health,
        )
        return result, tracer

    def test_hedge_beats_the_stall_path(self):
        hedged, _ = self.run(HealthPolicy())
        limped, _ = self.run(None)
        assert hedged.ok and limped.ok
        assert hedged.hedges == 1
        assert limped.hedges == 0
        # Without detection the repair limps at the degraded rate; the
        # hedged run must win by a wide margin, not a rounding error.
        assert hedged.transfer_seconds < 0.5 * limped.transfer_seconds

    def test_health_events_and_hedge_bucket(self):
        result, tracer = self.run(HealthPolicy())
        names = [event.name for event in tracer.events]
        assert names.count("health.straggler") == 1
        assert names.count("hedge.launch") == 1
        assert names.count("hedge.adopt") == 1
        assert "hedge.cancel" not in names  # primary lost, not the hedge
        kinds = result.telemetry["per_bytes_kind"]
        assert kinds.get("hedge", 0.0) > 0
        # Byte conservation: the kind buckets partition the stats total.
        assert sum(kinds.values()) == result.telemetry["counters"][
            "bytes_transferred"
        ]
        assert result.telemetry["counters"]["hedges_adopted"] == 1
        assert result.telemetry["counters"]["stragglers"] == 1

    def test_explain_attributes_stall_and_hedge(self):
        _, tracer = self.run(HealthPolicy())
        run = diagnose(tracer.events)
        assert not run.anomalies
        totals = {}
        for diag in run.repairs:
            for component, value in diag.components.items():
                totals[component] = totals.get(component, 0.0) + value
        # The slowdown is a straggler stall plus hedge work — the gray
        # failure must NOT be misread as bandwidth contention.
        assert totals.get("hedge", 0.0) > 0
        assert totals.get("stall", 0.0) > 0
        assert totals.get("contention", 0.0) == 0.0
        assert run.faults.get("health.straggler") == 1
        assert run.faults.get("hedge.launch") == 1
        assert run.faults.get("hedge.adopt") == 1

    def test_no_hedge_without_gray_failure(self):
        tracer = Tracer()
        result = repair_single_chunk_faulted(
            PivotRepairPlanner(), gray_network(), 0, *one_stripe(),
            FaultPlan.none(),
            policy=RetryPolicy(detection_timeout=0.05),
            config=self.CONFIG, tracer=tracer, health=HealthPolicy(),
        )
        assert result.ok
        assert result.hedges == 0
        assert all(
            not event.name.startswith(("health.", "hedge."))
            for event in tracer.events
        )


class TestHedgedBytesAreCorrect:
    """Decode-verify the stitched payload of a hedged repair."""

    def test_chaos_hedge_correct(self):
        config = ExecutionConfig(chunk_size=1 * MiB, slice_size=16 * 1024)
        cluster = Cluster(8, CODE)
        rng = np.random.default_rng(13)
        (stripe,) = cluster.write_random_stripes(1, config.chunk_size, rng)
        victim = stripe.placement[1]
        network = StarNetwork.constant(
            [12 * MiB if i == victim else 10 * MiB for i in range(8)],
            [12 * MiB if i == victim else 10 * MiB for i in range(8)],
        )
        outcome = run_chaos_single_chunk(
            cluster, network, stripe, 0,
            FaultPlan.from_spec(f"degrade:{victim}@0.01-1000x0.05"),
            policy=RetryPolicy(detection_timeout=0.02),
            config=config, journal=RepairJournal(),
            health=HealthPolicy(check_interval=0.05),
        )
        assert outcome.ok
        assert outcome.correct is True
        assert outcome.result.hedges == 1
        assert len(outcome.result.segments) == 2
