"""The bounded Eq. 3 round against the exhaustive round it replaced.

``adaptive_oracle.start_recommended`` plans every pending stripe every
round.  ``fullnode._start_recommended`` plans stripes in descending
``recommendation_ceiling`` order and stops once no ceiling left can win.
Run for run, the two must start the same stripe, with the same plan and
value, in every round, and end in equal ``FullNodeResult``s.  Only the
planner and recommendation events may be fewer, with the ``*_events``
counters that count them; ``scheduler.round`` gains ``planned``.
"""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.repair.fullnode as fullnode
import repro.traces.generators as trace_generators
from repro.baselines import RPPlanner
from repro.core import PivotRepairPlanner
from repro.core.plan import pin_planning
from repro.core.scheduler import SchedulerConfig
from repro.ec import RSCode, place_stripes
from repro.ec.stripe import Stripe
from repro.experiments.fullnode_experiment import (
    FIG7_SCHEDULER,
    stripes_with_failures,
)
from repro.faults import FaultPlan, RetryPolicy
from repro.loadgen import ForegroundEngine, LoadProfile, generate_requests
from repro.network.simulator import FluidSimulator
from repro.network.topology import StarNetwork
from repro.obs import Tracer
from repro.repair import repair_full_node_adaptive
from repro.repair.jobmaster import StripeRepairMaster
from repro.repair.pipeline import ExecutionConfig
from repro.units import mbps, to_mbps
from tests.repair import adaptive_oracle

NODES = 12
CODE = RSCode(6, 4)
CONFIG = ExecutionConfig(chunk_size=64 * 1024 * 1024)
TUNED = SchedulerConfig(threshold=0.5, max_concurrency=4)
#: Few distinct bandwidths (100-800 Mb/s): ceilings of different stripes
#: tie, and a relay's halved downlink lands on another stripe's ceiling.
TIE_PRONE = (1.25e7, 2.5e7, 5e7, 1e8)
#: Events only a planned candidate emits.
PRUNABLE = ("planner.", "scheduler.recommendation")


def pinned(planner_class):
    return pin_planning(planner_class(), 0.0)


def degraded(level):
    """A master factory whose masters start at degradation ``level``."""
    def make(*args, **kwargs):
        master = StripeRepairMaster(*args, **kwargs)
        master.degrade_to(level)
        return master
    return make


def run(dispatch, network, stripes, failed, planner_class, scheduler,
        faults=None, level=0, foreground=False, **run_args):
    """One traced adaptive run with ``dispatch`` as its round.

    Returns the result, the starts (time, stripe, requestor, helpers,
    bmin) in submit order, and the trace.
    """
    starts = []
    submit = StripeRepairMaster.submit

    def recorded(master, stripe, plan, **kwargs):
        starts.append((
            master.sim.now, stripe.stripe_id, plan.requestor,
            sorted(plan.helpers), plan.bmin,
        ))
        return submit(master, stripe, plan, **kwargs)

    engine = None
    if foreground:
        profile = LoadProfile(
            name="ceiling", arrival_rate=60.0, duration=4.0,
            read_fraction=0.9, request_size=4 * 1024 * 1024, zipf_s=0.9,
        )
        engine = ForegroundEngine(
            stripes, generate_requests(profile, stripes, NODES, seed=5),
            pinned(PivotRepairPlanner), failed_nodes={failed},
        )
    tracer = Tracer()
    with mock.patch.object(fullnode, "_start_recommended", dispatch), \
            mock.patch.object(StripeRepairMaster, "submit", recorded), \
            mock.patch.object(
                fullnode, "StripeRepairMaster", degraded(level)
            ):
        result = repair_full_node_adaptive(
            pinned(planner_class), network, stripes, failed,
            scheduler=scheduler, tracer=tracer,
            faults=FaultPlan.from_spec(faults) if faults else None,
            retry_policy=RetryPolicy() if faults else None,
            foreground=engine, **run_args,
        )
    return result, starts, tracer.events


def without_event_counts(result):
    telemetry = dict(result.telemetry)
    telemetry["counters"] = {
        name: value for name, value in telemetry["counters"].items()
        if "_events" not in name
    }
    return replace(result, telemetry=telemetry)


def kept_events(events):
    """Every event the pruning must leave alone, as dicts."""
    kept = []
    for event in events:
        if event.name.startswith(PRUNABLE):
            continue
        payload = event.to_dict()
        if event.name == "scheduler.round":
            payload["fields"] = dict(payload["fields"])
            payload["fields"].pop("planned", None)
        kept.append(payload)
    return kept


def assert_same_run(*scenario, **options):
    bounded, bounded_starts, bounded_events = run(
        fullnode._start_recommended, *scenario, **options
    )
    exhaustive, exhaustive_starts, exhaustive_events = run(
        adaptive_oracle.start_recommended, *scenario, **options
    )
    values = [
        (event.t, event.fields["stripe"], event.fields["value"])
        for event in exhaustive_events if event.name == "scheduler.start"
    ]
    assert values == [
        (event.t, event.fields["stripe"], event.fields["value"])
        for event in bounded_events if event.name == "scheduler.start"
    ]
    assert bounded_starts == exhaustive_starts
    assert len(values) == len(exhaustive_starts)
    assert without_event_counts(bounded) == without_event_counts(exhaustive)
    assert kept_events(bounded_events) == kept_events(exhaustive_events)
    planned = [
        event.fields["planned"] for event in bounded_events
        if event.name == "scheduler.round"
    ]
    candidates = [
        event.fields["candidates"] for event in bounded_events
        if event.name == "scheduler.round"
    ]
    assert all(1 <= p <= c for p, c in zip(planned, candidates))
    return bounded, planned, candidates


@st.composite
def scenarios(draw):
    menu = draw(st.sampled_from(["tie", "free"]))
    if menu == "tie":
        rate = st.sampled_from(TIE_PRONE)
    else:
        rate = st.floats(min_value=1e7, max_value=2e8)
    network = StarNetwork.constant(
        [draw(rate) for _ in range(NODES)],
        [draw(rate) for _ in range(NODES)],
    )
    stripes = place_stripes(
        draw(st.integers(min_value=4, max_value=10)), CODE, NODES,
        np.random.default_rng(draw(st.integers(min_value=0, max_value=99))),
    )
    failed = stripes[0].placement[0]
    helpers = [node for node in stripes[0].placement if node != failed]
    faults = draw(st.sampled_from([
        None,
        f"crash:{helpers[0]}@0.3",
        # Two helpers of stripe 0 die together: fewer than k survive.
        f"crash:{helpers[0]}@0.2;crash:{helpers[1]}@0.2",
        f"readerr:{helpers[0]}@0.3",
    ]))
    return network, stripes, failed, faults


class TestAgainstExhaustiveRound:
    @settings(max_examples=30, deadline=None)
    @given(
        scenario=scenarios(),
        planner_class=st.sampled_from([PivotRepairPlanner, RPPlanner]),
        scheduler=st.sampled_from([FIG7_SCHEDULER, TUNED]),
        level=st.sampled_from([0, 0, 1, 2]),
        foreground=st.booleans(),
    )
    def test_every_round_starts_the_same_stripe(
        self, scenario, planner_class, scheduler, level, foreground,
    ):
        network, stripes, failed, faults = scenario
        assert_same_run(
            network, stripes, failed, planner_class, scheduler,
            faults=faults, level=level, foreground=foreground, config=CONFIG,
        )

    @pytest.mark.parametrize("scheduler", [FIG7_SCHEDULER, TUNED])
    def test_a_traced_network_plans_fewer_than_it_examines(self, scheduler):
        trace = trace_generators.generate_all(16, 240, seed=3000)["TPC-H"]
        failed = int(np.argmax(trace.used_node_bandwidth().mean(axis=1)))
        result, planned, candidates = assert_same_run(
            trace.to_network(floor=1e6),
            stripes_with_failures(CODE, failed, 16, seed=100, count=16),
            failed, PivotRepairPlanner, scheduler, config=ExecutionConfig(),
            start_time=60.0,
        )
        assert result.chunks_repaired == 16
        assert sum(planned) < sum(candidates)


class TestTightCases:
    """Rounds where a ceiling one step too tight starts the wrong stripe.

    Node 0 fails and node 7, with the largest downlink, is every
    stripe's requestor; bandwidths are in Mb/s.  Both dispatches start
    one stripe (``max_concurrency=1``) on an idle network, so each value
    is the plan's ``B_min``.
    """

    def first_start(self, dispatch, up, down, placements):
        network = StarNetwork.constant(
            [mbps(rate) for rate in up], [mbps(rate) for rate in down]
        )
        code = RSCode(len(placements[0]), 2)
        master = StripeRepairMaster(
            None, pinned(PivotRepairPlanner), network,
            [Stripe(i, code, list(p)) for i, p in enumerate(placements)],
            0, sim=FluidSimulator(network), scheme="test", config=CONFIG,
        )
        dispatch(master, SchedulerConfig(max_concurrency=1), None)
        (flight,) = master.in_flight.values()
        plan = flight.plan
        return (
            flight.stripe.stripe_id, plan.requestor, sorted(plan.helpers),
            to_mbps(plan.bmin),
        )

    def assert_both_start(self, expected, *case):
        assert self.first_start(fullnode._start_recommended, *case) == (
            expected
        )
        assert self.first_start(adaptive_oracle.start_recommended, *case) == (
            expected
        )

    def test_an_equal_ceiling_with_a_smaller_index_is_planned(self):
        # Stripe 1's ceiling is 400 but its star halves node 7's
        # downlink to 200: stripe 0's ceiling and value.  The tie goes
        # to stripe 0, planned second, so its equal ceiling must not be
        # skipped.
        self.assert_both_start(
            (0, 7, [1, 2], 200.0),
            [100, 200, 200, 100, 400, 400, 100, 100],
            [100, 100, 100, 100, 100, 100, 100, 400],
            [(0, 1, 2), (0, 4, 5)],
        )

    def test_a_slow_spare_helper_does_not_lower_the_ceiling(self):
        # Stripe 0's tree leaves its 10 Mb/s node 3 out: its ceiling is
        # the 2nd largest uplink (400), not the smallest.
        self.assert_both_start(
            (0, 7, [1, 2], 400.0),
            [100, 400, 400, 10, 200, 200, 200, 100],
            [100, 100, 100, 100, 100, 100, 100, 800],
            [(0, 1, 2, 3), (0, 4, 5, 6)],
        )
