"""One capacity row per network epoch: the invariant and its gate.

``StarNetwork`` / ``RackNetwork`` answer ``capacities_at`` and (through
it) ``BandwidthSnapshot.from_network`` and a link's capacity over its
``edge_usage`` from one read-only row per visited capacity epoch: the
only way the library reads a capacity.  The differential below rebuilds
every answer from scratch, one trace at a time, through
``tests.network.links.value_at`` (a trace's last sample at or before
``t``, else its first) on traces whose breakpoint grids differ, at
instants before the first sample, exactly on a breakpoint, between two
and after the last, asked in any order and more than once.
``TestRowGate`` holds the exact build counts.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.traces.generators as trace_generators
from repro.baselines import RPPlanner
from repro.core import BandwidthSnapshot, PivotRepairPlanner, pin_planning
from repro.exceptions import SimulationError
from repro.experiments.single_chunk import stripe_nodes_at
from repro.faults import FaultPlan, FaultyNetwork
from repro.network.bandwidth import BandwidthTrace, NodeBandwidth
from repro.network.hierarchical import RackNetwork
from repro.network.topology import StarNetwork
from repro.repair.executor import repair_single_chunk
from tests.network.links import link_bandwidth, value_at

NODES = 4
RACKS = [0, 0, 1, 1]
#: Active over part of the probed range, on both directions and on one.
PLAN = FaultPlan.from_spec("degrade:1@2-6x0.5;degrade:2@3-9x0.25:up;crash:3@7")

# Breakpoints on a coarse grid, so two traces often share one and often
# do not; a trace need not start at 0.
grid_times = st.lists(
    st.integers(min_value=0, max_value=24), min_size=1, max_size=5,
    unique=True,
).map(lambda ticks: [0.5 * tick for tick in sorted(ticks)])


@st.composite
def link_sets(draw, count):
    """``count`` links; about half their traces sit on one shared grid
    (one clock, as ``WorkloadTrace.to_network`` builds them), the rest
    each on their own.  Values often repeat, so a trace drops samples."""
    shared = draw(grid_times)

    def trace():
        times = shared if draw(st.booleans()) else draw(grid_times)
        values = draw(st.lists(
            st.sampled_from([0.0, 250.0])
            | st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
            min_size=len(times), max_size=len(times),
        ))
        return BandwidthTrace(times, values)

    return [NodeBandwidth(trace(), trace()) for _ in range(count)]


node_links = link_sets(NODES)
rack_links = link_sets(2)


def probes(all_links):
    """Before the first breakpoint, on each, between each two, after."""
    points = sorted({
        t for link in all_links
        for trace in (link.uplink, link.downlink)
        for t in trace._times
    })
    between = [(a + b) / 2 for a, b in zip(points, points[1:])]
    return [points[0] - 1.0, *points, *between, points[-1] + 1.0]


def oracle_row(nodes, racks, t):
    """``capacities_at`` rebuilt trace by trace through ``value_at``."""
    row = {}
    for index, link in enumerate(nodes):
        row["up", index] = value_at(link.uplink, t)
        row["down", index] = value_at(link.downlink, t)
    for index, link in enumerate(racks):
        row["rack_up", index] = value_at(link.uplink, t)
        row["rack_down", index] = value_at(link.downlink, t)
    return row


def faulted(row, t):
    return {
        (kind, index): value * PLAN.capacity_factor(index, kind, t)
        if kind in ("up", "down") else value
        for (kind, index), value in row.items()
    }


def oracle_link(row, src, dst, rack_of=None):
    value = min(row["up", src], row["down", dst])
    if rack_of is not None and rack_of[src] != rack_of[dst]:
        value = min(
            value, row["rack_up", rack_of[src]], row["rack_down", rack_of[dst]]
        )
    return value


def assert_answers(network, row, t, rack_of=None):
    """Every public capacity query of ``network`` at ``t`` equals ``row``."""
    answer = network.capacities_at(t)
    assert dict(answer) == row
    assert list(answer) == list(row)  # resource order is part of it
    snapshot = BandwidthSnapshot.from_network(network, t)
    assert snapshot.time == t
    for node in range(NODES):
        assert snapshot.up[node] == row["up", node]
        assert snapshot.down[node] == row["down", node]
        for dst in range(NODES):
            if dst != node:
                assert link_bandwidth(network, node, dst, t) == oracle_link(
                    row, node, dst, rack_of
                )


class TestRowsEqualARebuild:
    @settings(max_examples=60, deadline=None)
    @given(nodes=node_links, order=st.randoms(use_true_random=False))
    def test_star_and_faulty_star(self, nodes, order):
        network = StarNetwork(nodes)
        faulty = FaultyNetwork(network, PLAN)
        instants = probes(nodes) * 2
        order.shuffle(instants)
        for t in instants:
            row = oracle_row(nodes, [], t)
            assert_answers(network, row, t)
            assert_answers(faulty, faulted(row, t), t)

    @settings(max_examples=40, deadline=None)
    @given(
        nodes=node_links, racks=rack_links,
        order=st.randoms(use_true_random=False),
    )
    def test_rack_and_faulty_rack(self, nodes, racks, order):
        network = RackNetwork(RACKS, nodes, racks)
        faulty = FaultyNetwork(network, PLAN)
        instants = probes(nodes + racks) * 2
        order.shuffle(instants)
        for t in instants:
            row = oracle_row(nodes, racks, t)
            assert_answers(network, row, t, RACKS)
            # Rack links pass through a fault plan untouched.
            assert_answers(faulty, faulted(row, t), t, RACKS)

    def test_a_link_outside_the_network_is_a_named_error(self):
        """Per-link and per-rack reads validate the index before they
        touch the row: no ``KeyError`` from the mapping, no negative index
        wrapping."""
        for network in (star(), rack()):
            for node in (-1, NODES):
                with pytest.raises(SimulationError, match="outside network"):
                    link_bandwidth(network, node, 0, 0.0)
                with pytest.raises(SimulationError, match="outside network"):
                    link_bandwidth(network, 0, node, 0.0)
        for bad in (-1, 2):
            with pytest.raises(SimulationError, match="unknown rack"):
                rack().nodes_in_rack(bad)

    def test_next_change_after_is_the_epoch_boundary(self):
        """A row holds for ``[t, next_change_after(t))`` and no longer."""
        nodes = [
            NodeBandwidth(
                BandwidthTrace([0.0, 2.0, 5.0], [10.0, 20.0, 30.0]),
                BandwidthTrace([1.0, 5.0], [7.0, 8.0]),
            ),
            NodeBandwidth.constant(3.0, 4.0),
        ]
        network = StarNetwork(nodes)
        t = -1.0
        rows = []
        while t != math.inf:
            rows.append(network.capacities_at(t))
            until = network.next_change_after(t)
            inside = t + 0.25 if until == math.inf else (t + until) / 2
            assert network.capacities_at(inside) is rows[-1]
            t = until
        assert [row["up", 0] for row in rows] == [10.0, 10.0, 10.0, 20.0, 30.0]
        assert [row["down", 0] for row in rows] == [7.0, 7.0, 7.0, 7.0, 8.0]


def node_bandwidths():
    return [
        NodeBandwidth(
            BandwidthTrace([0.0, 4.0], [100.0, 50.0]),
            BandwidthTrace([0.0, 3.0], [80.0, 40.0]),
        )
        for _ in range(NODES)
    ]


def star():
    return StarNetwork(node_bandwidths())


def rack():
    return RackNetwork(
        RACKS, node_bandwidths(),
        [NodeBandwidth.constant(150.0, 150.0) for _ in range(2)],
    )


NETWORKS = {
    "star": star,
    "rack": rack,
    "faulty-star": lambda: FaultyNetwork(star(), PLAN),
    "faulty-rack": lambda: FaultyNetwork(rack(), PLAN),
}


class TestRowsAreReadNotWritten:
    @pytest.mark.parametrize("kind", NETWORKS)
    def test_a_write_raises_or_cannot_change_a_later_answer(self, kind):
        network = NETWORKS[kind]()
        before = dict(network.capacities_at(3.5))
        row = network.capacities_at(3.5)
        try:
            row["up", 0] = -1.0
            del row["down", 1]
        except TypeError:
            pass
        assert dict(network.capacities_at(3.5)) == before
        snapshot = BandwidthSnapshot.from_network(network, 3.5)
        assert snapshot.up[0] == before["up", 0]
        assert snapshot.down[1] == before["down", 1]

    @pytest.mark.parametrize("build", [star, rack])
    def test_a_shared_row_refuses_writes(self, build):
        row = build().capacities_at(0.0)
        with pytest.raises(TypeError):
            row["up", 0] = 1.0
        with pytest.raises(TypeError):
            del row["up", 0]
        assert not hasattr(row, "update")

    @pytest.mark.parametrize("build", [star, rack])
    def test_faulty_network_never_writes_through_to_the_base_row(self, build):
        base = build()
        faulty = FaultyNetwork(base, PLAN)
        for t in (2.5, 3.5, 8.0):  # windows open, then node 3 dead
            before = dict(base.capacities_at(t))
            answer = faulty.capacities_at(t)
            assert answer is not base.capacities_at(t)
            assert answer != before  # the plan does bite here
            answer["up", 0] = -1.0  # the caller's own copy
            assert dict(base.capacities_at(t)) == before
            assert faulty.capacities_at(t)["up", 0] == before["up", 0]


def counted(network, monkeypatch):
    """Record every instant ``network.capacities_at`` is asked about."""
    asked = []
    real = network.capacities_at

    def capacities_at(t):
        asked.append(t)
        return real(t)

    monkeypatch.setattr(network, "capacities_at", capacities_at)
    return asked


class TestRowGate:
    """Exact counts: an epoch's row is built once, whoever asks."""

    def test_eight_repairs_at_one_instant_build_each_epoch_once(
        self, monkeypatch
    ):
        trace = trace_generators.generate_trace(
            trace_generators.TPC_DS, 16, 240, seed=11
        )
        network = trace.to_network(floor=1e6)
        asked = counted(network, monkeypatch)
        instant = 168.0
        finishes = []
        for seed in range(4):
            requestor, survivors = stripe_nodes_at(trace, instant, 9, seed)
            for planner_class in (PivotRepairPlanner, RPPlanner):
                result = repair_single_chunk(
                    pin_planning(planner_class(), 0.0), network, requestor,
                    survivors, 6, start_time=instant,
                )
                finishes.append(instant + result.transfer_seconds)
        # The epoch of the instant, then one per capacity change a
        # transfer crossed: the slowest repair visits them all.  It
        # crosses 21 sample boundaries, and the capacities change at 2.
        epochs = {network.next_change_after(t) for t in asked}
        crossed = [
            t for t in network._breakpoints if instant < t < max(finishes)
        ]
        assert math.ceil(max(finishes)) - int(instant) == 22
        assert len(epochs) == 1 + len(crossed)
        assert network.rows_built == len(epochs) == 3
        assert network.row_hits == len(asked) - len(epochs) == 18
        # One snapshot read per repair, the rest are the engines'.
        assert asked.count(instant) == 2 * 8

    def test_a_network_never_asked_twice_builds_at_most_breakpoints_plus_one(
        self,
    ):
        network = StarNetwork.from_traces(
            [BandwidthTrace([0.0, 2.0, 5.0], [1.0, 2.0, 3.0]),
             BandwidthTrace([1.0, 2.0], [4.0, 5.0])],
            [BandwidthTrace.constant(9.0), BandwidthTrace([7.0], [6.0])],
        )
        breakpoints = [0.0, 1.0, 2.0, 5.0, 7.0]
        for t in (-3.0, 6.0, 1.5, 0.0, 7.0, 2.0):  # one instant per epoch
            network.capacities_at(t)
        assert network.rows_built == len(breakpoints) + 1
        assert network.row_hits == 0
        for t in (-1.0, 0.5, 1.0, 4.9, 5.0, 1e9):
            network.capacities_at(t)
            link_bandwidth(network, 1, 0, t)
        assert network.rows_built == len(breakpoints) + 1
        assert network.row_hits == 12

    def test_a_static_network_has_one_row(self):
        network = StarNetwork.uniform(8, 100.0)
        for t in (0.0, 5.0, 17.25, 1e6):
            BandwidthSnapshot.from_network(network, t)
        assert (network.rows_built, network.row_hits) == (1, 3)
