"""Tests for the rack-based two-level topology."""

import math

import pytest

from repro.exceptions import SimulationError
from repro.network.bandwidth import BandwidthTrace, NodeBandwidth
from repro.network.hierarchical import RackNetwork
from repro.network.simulator import FluidSimulator
from tests.network.links import link_bandwidth, uniform_racks


def two_racks(node_cap=100.0, rack_cap=150.0):
    """2 racks x 2 nodes; rack links oversubscribed below 2x node capacity."""
    return uniform_racks(2, 2, node_cap, rack_cap)


class TestConstruction:
    def test_length_mismatch_rejected(self):
        with pytest.raises(SimulationError):
            RackNetwork([0], [], [NodeBandwidth.constant(1, 1)])

    def test_empty_rejected(self):
        with pytest.raises(SimulationError):
            RackNetwork([], [], [])

    def test_unknown_rack_rejected(self):
        with pytest.raises(SimulationError):
            RackNetwork(
                [5],
                [NodeBandwidth.constant(1, 1)],
                [NodeBandwidth.constant(1, 1)],
            )

    def test_uniform_layout(self):
        net = uniform_racks(3, 4, 100, 200)
        assert len(net) == 12
        assert net.rack_count == 3
        assert net.rack_of(0) == 0
        assert net.rack_of(11) == 2
        assert net.nodes_in_rack(1) == [4, 5, 6, 7]


class TestLinkSemantics:
    def test_intra_rack_ignores_rack_links(self):
        net = two_racks(node_cap=100, rack_cap=10)
        assert net.same_rack(0, 1)
        assert link_bandwidth(net, 0, 1, 0.0) == 100

    def test_cross_rack_limited_by_rack_links(self):
        net = two_racks(node_cap=100, rack_cap=10)
        assert not net.same_rack(0, 2)
        assert link_bandwidth(net, 0, 2, 0.0) == 10

    def test_self_link_rejected(self):
        with pytest.raises(SimulationError):
            link_bandwidth(two_racks(), 1, 1, 0.0)

    def test_unknown_node_rejected(self):
        with pytest.raises(SimulationError):
            link_bandwidth(two_racks(), 9, 0, 0.0)
        with pytest.raises(SimulationError):
            two_racks().nodes_in_rack(7)


class TestTopologyInterface:
    def test_capacities_include_rack_resources(self):
        caps = two_racks(100, 150).capacities_at(0.0)
        assert caps[("up", 0)] == 100
        assert caps[("rack_up", 0)] == 150
        assert caps[("rack_down", 1)] == 150
        assert len(caps) == 2 * 4 + 2 * 2

    def test_edge_usage_intra_rack(self):
        usage = two_racks().edge_usage(0, 1)
        assert usage == {("up", 0): 1.0, ("down", 1): 1.0}

    def test_edge_usage_cross_rack(self):
        usage = two_racks().edge_usage(0, 2)
        assert usage == {
            ("up", 0): 1.0,
            ("down", 2): 1.0,
            ("rack_up", 0): 1.0,
            ("rack_down", 1): 1.0,
        }

    def test_next_change_merges_rack_links(self):
        nodes = [NodeBandwidth.constant(1, 1)] * 2
        racks = [
            NodeBandwidth(
                BandwidthTrace([0, 5], [1, 2]), BandwidthTrace.constant(1)
            )
        ]
        net = RackNetwork([0, 0], nodes, racks)
        assert net.next_change_after(0) == 5
        assert net.next_change_after(5) == math.inf


class TestSimulationOnRacks:
    def test_cross_rack_flow_limited_by_rack_link(self):
        net = two_racks(node_cap=100, rack_cap=20)
        sim = FluidSimulator(net)
        handle = sim.submit_bulk([(0, 2, 200)])
        sim.run()
        assert handle.duration == pytest.approx(10.0)

    def test_two_cross_rack_flows_share_rack_uplink(self):
        net = two_racks(node_cap=100, rack_cap=20)
        sim = FluidSimulator(net)
        a = sim.submit_bulk([(0, 2, 100)])
        b = sim.submit_bulk([(1, 3, 100)])
        sim.run()
        # Rack 0's 20-unit uplink splits two ways.
        assert a.duration == pytest.approx(10.0)
        assert b.duration == pytest.approx(10.0)

    def test_intra_rack_flow_unaffected_by_congested_core(self):
        net = two_racks(node_cap=100, rack_cap=1)
        sim = FluidSimulator(net)
        cross = sim.submit_bulk([(0, 2, 10)], label="cross")
        local = sim.submit_bulk([(1, 0, 1000)], label="local")
        sim.run()
        assert local.duration == pytest.approx(10.0)
        assert cross.duration == pytest.approx(10.0)

    def test_pipelined_tree_with_one_cross_rack_edge(self):
        # Rack-local aggregation: 1 -> 0 (local), then 0 -> 2 (cross).
        net = two_racks(node_cap=100, rack_cap=30)
        sim = FluidSimulator(net)
        handle = sim.submit_pipelined([(1, 0), (0, 2)], 300)
        sim.run()
        assert handle.duration == pytest.approx(10.0)
