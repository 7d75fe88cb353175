"""Regression tests for the defects the two-engine design had.

Each of these failed at commit ``9e996c3`` (two attribution engines
reconciled by ``crosscheck``) and passes now that ``diagnose`` and
``critical_paths`` read one trace index and apply one flow rule:

(a) ``diagnose`` re-guessed each flow's claimed ``B_min`` by matching
    ``planner.plan`` events and paired flows with the wrong plan whenever
    a driver planned more stripes than it submitted;
(c) ``diagnose`` skipped every cancelled flow, so its totals silently
    covered less time than its header line claimed.

(b), the two engines disagreeing on a hedged run, went with hedging.
"""

import pytest

import repro.traces.generators as trace_generators
from repro.controlplane.storm import StormConfig, run_storm
from repro.core import PivotRepairPlanner, pin_planning
from repro.ec import RSCode
from repro.experiments.fullnode_experiment import (
    FIG7_SCHEDULER,
    stripes_with_failures,
)
from repro.obs import Tracer, critical_paths, diagnose
from repro.obs.critpath import build_spans
from repro.repair import repair_full_node_adaptive
from tests.obs.test_attribution_identity import SCENARIOS
from tests.obs.test_critpath import assert_exact_tiling

CODE = RSCode(6, 4)


def repair_flows(events):
    """Repair flow spans of a trace, in submit order."""
    spans = build_spans(events).spans
    return [
        span for _, span in sorted(spans.items())
        if span.name == "flow" and span.fields.get("kind") == "repair"
    ]


def adaptive_events():
    trace = trace_generators.generate_all(16, 240, seed=3000)["TPC-DS"]
    failed = 0
    tracer = Tracer()
    repair_full_node_adaptive(
        pin_planning(PivotRepairPlanner(), 0.0),
        trace.to_network(floor=1e6),
        stripes_with_failures(CODE, failed, 16, seed=11, count=10),
        failed, scheduler=FIG7_SCHEDULER, start_time=60.0, tracer=tracer,
    )
    return tracer.events


@pytest.fixture(scope="module")
def storm_events():
    tracer = Tracer()
    run_storm(StormConfig(seed=0), tracer=tracer)
    return tracer.events


@pytest.fixture(scope="module")
def crashed_events():
    """A full-node repair whose helpers crash and stall mid-run: detection
    windows, backoff and re-planned flows (more flows than repairs)."""
    events, _ = SCENARIOS["faults/crash+stall"]()
    return events


class TestClaimedBminIsTheStampedOne:
    """(a) — parent: 10 of 20 adaptive flows and 4 of 31 storm flows
    carried another plan's ``B_min``."""

    def check(self, events):
        flows = repair_flows(events)
        repairs = diagnose(events).repairs
        assert len(repairs) == len(flows) > 0
        for diag, flow in zip(repairs, flows):
            assert (diag.label, diag.submit) == (
                flow.fields["label"], flow.start
            )
            assert diag.claimed_bmin == (flow.fields["bmin"] or None)

    def test_adaptive_driver_plans_more_than_it_submits(self):
        events = adaptive_events()
        plans = sum(event.name == "planner.plan" for event in events)
        assert plans > len(repair_flows(events))
        self.check(events)

    def test_storm(self, storm_events):
        self.check(storm_events)

    def test_crashed_full_node(self, crashed_events):
        self.check(crashed_events)


class TestEveryFlowIsDecomposed:
    """(c) — parent: 10 of 31 storm flows (the cancelled ones) had empty
    components, so the totals missed their time."""

    def test_storm_components_tile_every_flow(self, storm_events):
        run = diagnose(storm_events)
        assert any(diag.cancelled for diag in run.repairs)
        for diag in run.repairs:
            assert sum(diag.components.values()) == pytest.approx(
                diag.duration, abs=1e-9
            ), diag.label
        flow_time = sum(diag.duration for diag in run.repairs)
        assert sum(run.totals.values()) == pytest.approx(flow_time, abs=1e-9)
        assert not [a for a in run.anomalies if "residual" in a]

    def test_crashed_full_node_tiles_in_both_views(self, crashed_events):
        run = diagnose(crashed_events)
        report = critical_paths(crashed_events)
        assert len(run.repairs) > len(report.repairs) > 0  # re-planned
        for diag in run.repairs:
            assert sum(diag.components.values()) == pytest.approx(
                diag.duration, abs=1e-9
            ), diag.label
        assert_exact_tiling(report)
        # The dead helper's detection window is on somebody's path.
        assert sum(
            path.categories.get("stall", 0.0) for path in report.repairs
        ) > 0

    def test_storm_views_agree_on_contention(self, storm_events):
        # The number the old crosscheck tripped on: critical-path
        # contention (8.35 s) "exceeding" diagnose's total (5.02 s).
        run = diagnose(storm_events)
        report = critical_paths(storm_events)
        assert report.categories["contention"] <= (
            run.totals["contention"] + 1e-9
        )
