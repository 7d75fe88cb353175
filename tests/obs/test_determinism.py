"""Determinism and telemetry-consistency tests for traced repairs.

Same seed + same inputs must give a byte-identical JSONL event stream.
"""

import numpy as np

from repro.core import PivotRepairPlanner
from repro.ec import RSCode, place_stripes
from repro.network.topology import StarNetwork
from repro.obs import NULL_TRACER, FlightRecorder, Tracer, diagnose, to_jsonl
from repro.repair import (
    pipeline_bytes_per_edge,
    repair_full_node,
    repair_full_node_adaptive,
    repair_single_chunk,
)
from repro.repair.pipeline import ExecutionConfig
from tests.chaos_harness import random_fault_plan
from tests.network.trace_scan_oracle import full_rescan


NODE_COUNT = 10
CODE = RSCode(6, 4)


def seeded_network(seed=7):
    rng = np.random.default_rng(seed)
    ups = [float(rng.uniform(200.0, 1200.0)) for _ in range(NODE_COUNT)]
    downs = [float(rng.uniform(200.0, 1200.0)) for _ in range(NODE_COUNT)]
    return StarNetwork.constant(ups, downs)


def small_config():
    return ExecutionConfig(
        chunk_size=10_000, slice_size=1000, per_slice_overhead=0.0
    )


def traced_single_chunk():
    tracer = Tracer()
    result = repair_single_chunk(
        PivotRepairPlanner(), seeded_network(), requestor=0,
        candidates=range(1, NODE_COUNT), k=CODE.k,
        config=small_config(), tracer=tracer,
    )
    return result, to_jsonl(tracer.events)


def traced_full_node():
    stripes = place_stripes(6, CODE, NODE_COUNT, np.random.default_rng(3))
    failed = stripes[0].placement[0]
    tracer = Tracer()
    result = repair_full_node_adaptive(
        PivotRepairPlanner(), seeded_network(), stripes, failed,
        config=small_config(), tracer=tracer,
    )
    return result, to_jsonl(tracer.events)


class TestDeterminism:
    def test_single_chunk_jsonl_is_byte_identical(self):
        _, first = traced_single_chunk()
        _, second = traced_single_chunk()
        assert first
        assert first == second

    def test_full_node_jsonl_is_byte_identical(self):
        _, first = traced_full_node()
        _, second = traced_full_node()
        assert first
        assert first == second

    def test_tracing_does_not_change_results(self):
        traced, _ = traced_single_chunk()
        plain = repair_single_chunk(
            PivotRepairPlanner(), seeded_network(), requestor=0,
            candidates=range(1, NODE_COUNT), k=CODE.k,
            config=small_config(),
        )
        assert plain.transfer_seconds == traced.transfer_seconds
        assert plain.bmin == traced.bmin
        assert plain.bytes_transferred == traced.bytes_transferred

    def test_null_tracer_stays_empty(self):
        repair_single_chunk(
            PivotRepairPlanner(), seeded_network(), requestor=0,
            candidates=range(1, NODE_COUNT), k=CODE.k,
            config=small_config(), tracer=NULL_TRACER,
        )
        assert len(NULL_TRACER.events) == 0


class TestTelemetryConsistency:
    def test_single_chunk_counters_match_plan(self):
        result, _ = traced_single_chunk()
        telemetry = result.telemetry
        assert telemetry is not None
        counters = telemetry["counters"]
        assert counters["flows_completed"] == 1
        assert counters["flows_submitted"] == 1
        assert counters["planner_events"] >= 1
        assert counters["trace_events"] > 0

        tree = result.plan.tree
        expected = pipeline_bytes_per_edge(
            small_config(), tree.depth()
        ) * len(tree.edges())
        assert result.bytes_transferred == expected
        assert sum(telemetry["per_bytes_up"].values()) == expected

        # Every sender in the tree shows up in the per-node counters.
        senders = {str(src) for src, _ in tree.edges()}
        assert set(telemetry["per_bytes_up"]) == senders

    def test_full_node_telemetry_counts_flows_and_rounds(self):
        result, _ = traced_full_node()
        telemetry = result.telemetry
        assert telemetry is not None
        counters = telemetry["counters"]
        assert counters["flows_completed"] == result.chunks_repaired
        assert counters["scheduler_rounds"] >= result.chunks_repaired
        assert counters["scheduler_events"] > 0
        assert counters["planner_events"] > 0
        histograms = telemetry["histograms"]
        assert histograms["task_seconds"]["count"] == result.chunks_repaired
        assert (
            histograms["planner_seconds"]["count"] == result.chunks_repaired
        )
        assert result.bytes_transferred == sum(
            telemetry["per_bytes_up"].values()
        )


class TestSampledDeterminism:
    """Same seed => identical samples and byte-identical diagnosis JSON."""

    @staticmethod
    def sampled_full_node():
        stripes = place_stripes(6, CODE, NODE_COUNT, np.random.default_rng(3))
        failed = stripes[0].placement[0]
        network = seeded_network()
        tracer = Tracer()
        sampler = FlightRecorder(interval=0.001, capacity=65536)
        result = repair_full_node(
            PivotRepairPlanner(), network, stripes, failed,
            config=small_config(), tracer=tracer, sampler=sampler,
        )
        diagnosis = diagnose(
            tracer.events,
            network=network,
            telemetry=result.telemetry,
            sampler=sampler,
        )
        return result, sampler, diagnosis

    def test_sample_stream_is_byte_identical(self):
        _, first, _ = self.sampled_full_node()
        _, second, _ = self.sampled_full_node()
        assert len(first) > 0
        assert first.samples == second.samples

    def test_diagnosis_json_is_byte_identical(self):
        _, _, first = self.sampled_full_node()
        _, _, second = self.sampled_full_node()
        assert first.repairs
        assert first.to_json() == second.to_json()

    def test_sampling_does_not_change_results(self):
        sampled, _, _ = self.sampled_full_node()
        stripes = place_stripes(6, CODE, NODE_COUNT, np.random.default_rng(3))
        plain = repair_full_node(
            PivotRepairPlanner(), seeded_network(), stripes,
            stripes[0].placement[0], config=small_config(),
        )
        assert plain.total_seconds == sampled.total_seconds
        assert plain.bytes_transferred == sampled.bytes_transferred


class TestFaultedDeterminism:
    """Identical seed + fault plan => byte-identical JSONL trace."""

    @staticmethod
    def faulted_single_chunk():
        from repro.faults import RetryPolicy
        from repro.repair import repair_single_chunk_faulted
        from tests.one_stripe import one_stripe

        faults = random_fault_plan(
            21, NODE_COUNT, horizon=0.5, crashes=1, degradations=1,
            stalls=1, protect=(0,),
        )
        tracer = Tracer()
        stripe, failed = one_stripe(
            range(1, NODE_COUNT - 1), failed=NODE_COUNT - 1
        )
        result = repair_single_chunk_faulted(
            PivotRepairPlanner(), seeded_network(), requestor=0,
            stripe=stripe, failed_node=failed, faults=faults,
            policy=RetryPolicy(detection_timeout=0.05),
            config=small_config(), tracer=tracer,
        )
        return result, to_jsonl(tracer.events)

    @staticmethod
    def faulted_full_node():
        from repro.faults import FaultPlan, RetryPolicy
        from repro.repair import repair_full_node

        stripes = place_stripes(6, CODE, NODE_COUNT, np.random.default_rng(3))
        failed = stripes[0].placement[0]
        helper = next(n for n in stripes[0].placement if n != failed)
        faults = FaultPlan.from_spec(f"crash:{helper}@0.004")
        tracer = Tracer()
        result = repair_full_node(
            PivotRepairPlanner(), seeded_network(), stripes, failed,
            config=small_config(), tracer=tracer, faults=faults,
            retry_policy=RetryPolicy(detection_timeout=0.002),
        )
        return result, to_jsonl(tracer.events)

    def test_faulted_single_chunk_jsonl_is_byte_identical(self):
        first_result, first = self.faulted_single_chunk()
        _, second = self.faulted_single_chunk()
        assert first
        assert first == second
        # The plan injected real faults into the traced stream.
        assert '"fault.' in first

    def test_faulted_full_node_jsonl_is_byte_identical(self):
        first_result, first = self.faulted_full_node()
        _, second = self.faulted_full_node()
        assert first
        assert first == second
        assert '"repair.replan"' in first

    def test_faulted_results_are_reproducible(self):
        first, _ = self.faulted_single_chunk()
        second, _ = self.faulted_single_chunk()
        assert first.ok == second.ok
        assert first.attempts == second.attempts
        assert first.bytes_transferred == second.bytes_transferred


def solves(result) -> int:
    return result.telemetry["counters"]["sim_rate_recomputations"]


class TestEngineTraceEquivalence:
    """The fast and reference fluid engines must emit byte-identical
    default (no-wall) JSONL traces, including the causal parent/link
    fields the critical-path reconstruction depends on — and so must the
    reference engine with a scan that revisits every live task after
    every solve (``tests/network/trace_scan_oracle.py``)."""

    @staticmethod
    def run():
        stripes = place_stripes(6, CODE, NODE_COUNT, np.random.default_rng(3))
        failed = stripes[0].placement[0]
        tracer = Tracer()
        result = repair_full_node_adaptive(
            PivotRepairPlanner(), seeded_network(), stripes, failed,
            config=small_config(), tracer=tracer,
        )
        return result, to_jsonl(tracer.events)

    def test_fast_and_reference_traces_identical(self, reference_engine):
        fast_result, fast = self.run()
        with reference_engine():
            reference_result, reference = self.run()
        with full_rescan():
            _, oracle = self.run()
        assert fast
        assert fast == reference
        assert fast == oracle
        # The reference really ran: it solves at every event.
        assert solves(reference_result) > solves(fast_result)

    def test_trace_carries_causal_fields(self):
        _, jsonl = self.run()
        assert '"parent_id"' in jsonl
        assert '"links"' in jsonl

    def test_hedged_trace_identical_across_engines(self, reference_engine):
        from repro.faults import FaultPlan, RetryPolicy
        from repro.repair import repair_single_chunk_faulted
        from repro.resilience import HealthPolicy
        from tests.one_stripe import one_stripe

        def run():
            mib = 1024 * 1024
            victim = 3
            net = StarNetwork.constant(
                [12 * mib if i == victim else 10 * mib for i in range(8)],
                [12 * mib if i == victim else 10 * mib for i in range(8)],
            )
            tracer = Tracer()
            result = repair_single_chunk_faulted(
                PivotRepairPlanner(), net, 0, *one_stripe(),
                FaultPlan.from_spec("degrade:3@0.1-1000x0.05"),
                policy=RetryPolicy(detection_timeout=0.05),
                config=ExecutionConfig(chunk_size=8 * mib, slice_size=32768),
                tracer=tracer, health=HealthPolicy(),
            )
            return result, to_jsonl(tracer.events)

        fast_result, fast = run()
        with reference_engine():
            reference_result, reference = run()
        with full_rescan():
            _, oracle = run()
        assert '"span.link"' in fast  # hedge adoption link present
        assert fast == reference
        assert fast == oracle
        assert solves(reference_result) > solves(fast_result)
