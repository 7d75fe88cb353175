"""The event loop stops only where a capacity changes, and nothing moves.

A trace drops every sample equal to the one before it, so a run on a
trace-driven network skips the seconds in which no link changes.  The
differential replays each repair on :class:`GridStepNetwork`
(``grid_oracle.py``), which still steps every sample: transfer seconds,
``B_min``, bytes and every traced instant are bit-identical, and the
steps are never more — strictly fewer when a skipped sample falls inside
the run.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import RPPlanner
from repro.core import PivotRepairPlanner, pin_planning
from repro.ec import RSCode, place_stripes
from repro.obs import Tracer, to_jsonl
from repro.repair import ExecutionConfig, repair_full_node
from repro.repair.executor import repair_single_chunk
from repro.repair.pipeline import pipeline_overhead_seconds
from repro.traces.workload import WorkloadTrace
from tests.network.grid_oracle import GridStepNetwork

NODES = 8
CAPACITY = 100e6
FLOOR = 5e6
CONFIG = ExecutionConfig(chunk_size=32 * 2**20, slice_size=2**20)
#: Margin around a skipped sample within which a step may coincide
#: with a finish (the simulator's same-event window is 1e-9 s).
MARGIN = 1e-6


@st.composite
def laddered_traces(draw):
    """Usage on a ladder of five levels; each second either repeats the
    one before it on every link or redraws every link, so whole seconds
    change nothing and single links hold their value besides."""
    samples = draw(st.integers(min_value=2, max_value=40))
    hold = draw(st.floats(min_value=0.0, max_value=0.9))
    interval = draw(st.sampled_from([1.0, 0.5, 0.25]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    used = rng.integers(0, 5, (2, NODES, samples)) * (CAPACITY / 5)
    for column in range(1, samples):
        if rng.random() < hold:
            used[:, :, column] = used[:, :, column - 1]
    return WorkloadTrace("laddered", CAPACITY, used[0], used[1], interval)


def skipped_inside(trace, network, start, end):
    """Sample instants inside ``(start, end)`` the network does not stop
    at, away from either end by ``MARGIN``."""
    kept = set(network._breakpoints)
    return [
        t for t in (i * trace.interval for i in range(trace.sample_count))
        if start + MARGIN < t < end - MARGIN and t not in kept
    ]


def steps(result):
    return result.telemetry["counters"]["sim_steps"]


class TestSingleChunk:
    @settings(max_examples=40, deadline=None)
    @given(laddered_traces(), st.data())
    def test_bits_equal_and_steps_fewer(self, trace, data):
        start = data.draw(
            st.integers(0, trace.sample_count - 1)
        ) * trace.interval
        network = trace.to_network(floor=FLOOR)
        oracle = GridStepNetwork(trace, floor=FLOOR)
        for planner_class in (PivotRepairPlanner, RPPlanner):
            fast, slow = [
                repair_single_chunk(
                    pin_planning(planner_class(), 0.0), net, 0,
                    range(1, NODES), 4, start_time=start, config=CONFIG,
                )
                for net in (network, oracle)
            ]
            assert (
                fast.transfer_seconds, fast.bmin, fast.bytes_transferred
            ) == (slow.transfer_seconds, slow.bmin, slow.bytes_transferred)
            assert fast.plan.tree.edges() == slow.plan.tree.edges()
            assert steps(fast) <= steps(slow)
            end = start + fast.transfer_seconds - pipeline_overhead_seconds(
                CONFIG
            )
            if skipped_inside(trace, network, start, end):
                assert steps(fast) < steps(slow)


class TestFullNode:
    @settings(max_examples=25, deadline=None)
    @given(laddered_traces(), st.integers(0, 2**16))
    def test_bits_equal_and_steps_fewer(self, trace, seed):
        code = RSCode(6, 4)
        stripes = place_stripes(8, code, NODES, np.random.default_rng(seed))
        failed = stripes[0].placement[0]

        def run(net):
            tracer = Tracer()
            result = repair_full_node(
                pin_planning(PivotRepairPlanner(), 0.0), net, stripes,
                failed, concurrency=3, config=CONFIG, tracer=tracer,
            )
            return result, to_jsonl(tracer.events)

        network = trace.to_network(floor=FLOOR)
        fast, fast_events = run(network)
        slow, slow_events = run(GridStepNetwork(trace, FLOOR))
        assert fast.total_seconds == slow.total_seconds
        assert [
            (r.transfer_seconds, r.bmin, r.bytes_transferred)
            for r in fast.task_results
        ] == [
            (r.transfer_seconds, r.bmin, r.bytes_transferred)
            for r in slow.task_results
        ]
        # Every span and instant the run traced — each task's finish
        # among them — at the same simulated time.
        assert fast_events == slow_events
        assert steps(fast) <= steps(slow)
        if skipped_inside(trace, network, 0.0, fast.total_seconds):
            assert steps(fast) < steps(slow)
