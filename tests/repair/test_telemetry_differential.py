"""``registry.snapshot(run_counters(sim, tracer))`` == the counter-by-counter
oracle, byte for byte.

Every telemetry snapshot a driver takes is paired with the one
``tests/repair/telemetry_oracle.py`` takes of a copy of the same
registry after the same run, and the two are compared as
``json.dumps`` strings *without* ``sort_keys``, so key order counts as
much as values: single-chunk repairs of three planners, traced and not;
the faulted driver under a crash; and a full-node run whose registry
already holds master counters, a labeled family and histograms.  Below them, the merge's two
collision rules, and the exact work counts of one single-chunk repair.
"""

from __future__ import annotations

import copy
import json

import pytest

import repro.repair.executor as executor
import repro.repair.fullnode as fullnode
import repro.traces.generators as trace_generators
from repro.baselines import PPRPlanner, RPPlanner
from repro.core import PivotRepairPlanner, pin_planning
from repro.experiments.single_chunk import congested_instants, stripe_nodes_at
from repro.faults import FaultPlan, RetryPolicy
from repro.network.simulator import FluidSimulator
from repro.network.topology import StarNetwork
from repro.obs import Tracer
from repro.obs.metrics import Counter, MetricsRegistry
from repro.obs.tracer import NULL_TRACER
from repro.repair import (
    StripeRepairMaster,
    repair_full_node_adaptive,
    repair_single_chunk,
    repair_single_chunk_faulted,
)
from repro.repair.pipeline import ExecutionConfig
from repro.repair.telemetry import run_counters
from tests.one_stripe import one_stripe
from tests.repair.telemetry_oracle import registry_from_run

MiB = 1024 * 1024
MEDIUM = ExecutionConfig(chunk_size=8 * MiB, slice_size=32 * 1024)


@pytest.fixture()
def pairs(monkeypatch):
    """``(snapshot, oracle snapshot)`` of every telemetry snapshot taken
    while the test runs."""
    taken: list[tuple[dict, dict]] = []
    runs = []

    def capture(sim, tracer):
        runs.append((sim, tracer))
        return run_counters(sim, tracer)

    for module in (executor, fullnode):
        monkeypatch.setattr(module, "run_counters", capture)
    snapshot = MetricsRegistry.snapshot

    def paired(self, counters=None):
        if counters is None:
            return snapshot(self)
        sim, tracer = runs.pop()
        oracle = registry_from_run(sim, tracer, copy.deepcopy(self))
        taken.append((snapshot(self, counters), snapshot(oracle)))
        return taken[-1][0]

    monkeypatch.setattr(MetricsRegistry, "snapshot", paired)
    return taken


def assert_identical(taken, count):
    assert len(taken) == count
    for new, oracle in taken:
        assert json.dumps(new) == json.dumps(oracle)


def one_fast(victim, node_count=12, base=10 * MiB, boost=12 * MiB):
    """Every node at ``base`` but ``victim``, which the planner routes
    through."""
    rates = [boost if i == victim else base for i in range(node_count)]
    return StarNetwork.constant(rates, rates)


class TestAgainstOracle:
    @pytest.mark.parametrize(
        "traced", [False, True], ids=["untraced", "traced"]
    )
    @pytest.mark.parametrize(
        "planner_class", [PivotRepairPlanner, RPPlanner, PPRPlanner],
        ids=lambda value: value.__name__,
    )
    def test_single_chunk(self, pairs, planner_class, traced):
        trace = trace_generators.generate_trace(
            trace_generators.TPC_DS, 16, 240, seed=11
        )
        network = trace.to_network(floor=1e6)
        instants = congested_instants(trace, 4, seed=5)
        for seed, instant in enumerate(instants):
            requestor, survivors = stripe_nodes_at(trace, instant, 9, seed)
            repair_single_chunk(
                pin_planning(planner_class(), 0.0), network, requestor,
                survivors, 6, start_time=instant,
                tracer=Tracer() if traced else NULL_TRACER,
            )
        assert_identical(pairs, len(instants))

    def test_faulted_crash(self, pairs):
        result = repair_single_chunk_faulted(
            pin_planning(PivotRepairPlanner(), 0.0), one_fast(3), 0,
            *one_stripe(), FaultPlan.from_spec("crash:3@0.45"),
            policy=RetryPolicy(detection_timeout=0.05), config=MEDIUM,
            tracer=Tracer(),
        )
        assert result.ok and result.attempts == 2
        assert_identical(pairs, 1)
        assert pairs[0][0]["counters"]["retries"] == 1.0

    def test_full_node_with_a_filled_registry(self, pairs, monkeypatch):
        # No repair driver fills a labeled family, so one is put in
        # the master's registry by hand; faults and Eq. 3 rounds fill
        # the rest (retries, replans, scheduler_rounds, histograms).
        init = StripeRepairMaster.__init__

        def primed(self, *args, **kwargs):
            init(self, *args, **kwargs)
            self.registry.counter("slo_events", kind="alert").inc(2)

        monkeypatch.setattr(StripeRepairMaster, "__init__", primed)
        trace = trace_generators.generate_trace(
            trace_generators.TPC_DS, 12, 120, seed=4
        )
        stripes = [one_stripe(stripe_id=i)[0] for i in range(3)]
        result = repair_full_node_adaptive(
            pin_planning(PivotRepairPlanner(), 0.0),
            trace.to_network(floor=1e6), stripes, 6,
            config=MEDIUM, tracer=Tracer(),
            faults=FaultPlan.from_spec("crash:2@0.05"),
            retry_policy=RetryPolicy(),
        )
        assert result.task_results
        assert_identical(pairs, 1)
        telemetry = pairs[0][0]
        # The run's unlabeled ``slo_events`` sits beside the family.
        assert telemetry["counters"]["slo_events"] == 0.0
        assert telemetry["counters"]['slo_events{kind="alert"}'] == 2.0
        assert {"task_seconds", "recommendation_value"} <= set(
            telemetry["histograms"]
        )
        assert telemetry["counters"]["retries"] >= 1


class TestCollisions:
    def test_counter_plus_counter_adds(self):
        registry = MetricsRegistry()
        registry.counter("flows_completed").inc(2)
        registry.counter("bytes_up/3").inc(1.5)
        snapshot = registry.snapshot({"flows_completed": 3, "bytes_up/3": 2})
        assert snapshot["counters"] == {
            "bytes_up/3": 3.5, "flows_completed": 5.0,
        }
        assert snapshot["per_bytes_up"] == {"3": 3.5}
        # A read, not a write: the registry still holds what it held.
        assert registry.counter("flows_completed").value == 2.0

    @pytest.mark.parametrize("kind", ["gauge", "histogram"])
    def test_counter_vs_other_type_raises(self, kind):
        registry = MetricsRegistry()
        getattr(registry, kind)("sim_steps")
        with pytest.raises(ValueError, match="another type"):
            registry.snapshot({"sim_steps": 1})

    def test_labeled_counter_family_takes_the_unlabeled_name(self):
        registry = MetricsRegistry()
        registry.counter("fault_events", kind="cancel").inc()
        counters = registry.snapshot({"fault_events": 4})["counters"]
        assert list(counters) == [
            "fault_events", 'fault_events{kind="cancel"}',
        ]
        assert counters["fault_events"] == 4.0

    def test_ints_come_out_as_floats(self):
        counters = MetricsRegistry().snapshot({"sim_steps": 7})["counters"]
        assert json.dumps(counters) == '{"sim_steps": 7.0}'


class TestWorkCounts:
    """One single-chunk repair builds no ``Counter`` and copies the
    simulator's ledger once (the counter-by-counter build made 37 and
    3 per repair over a ``single_chunk_sweep`` pass)."""

    def test_zero_counters_one_ledger_copy(self, monkeypatch):
        made = {"counters": 0, "ledgers": 0}
        counter_init = Counter.__init__
        ledger_now = FluidSimulator._ledger_now

        def counted_counter(self, *args, **kwargs):
            made["counters"] += 1
            counter_init(self, *args, **kwargs)

        def counted_ledger(self):
            made["ledgers"] += 1
            return ledger_now(self)

        monkeypatch.setattr(Counter, "__init__", counted_counter)
        monkeypatch.setattr(FluidSimulator, "_ledger_now", counted_ledger)
        trace = trace_generators.generate_trace(
            trace_generators.TPC_DS, 16, 240, seed=11
        )
        network = trace.to_network(floor=1e6)
        instant = congested_instants(trace, 1, seed=5)[0]
        requestor, survivors = stripe_nodes_at(trace, instant, 9, seed=3)
        for planner_class in (PivotRepairPlanner, RPPlanner):
            for tracer in (NULL_TRACER, Tracer()):
                made.update(counters=0, ledgers=0)
                result = repair_single_chunk(
                    pin_planning(planner_class(), 0.0), network, requestor,
                    survivors, 6, start_time=instant, tracer=tracer,
                )
                assert made == {"counters": 0, "ledgers": 1}
                assert len(result.telemetry["counters"]) >= 21
