"""FaultyNetwork: query-time capacity mutation over any topology."""

import math

from repro.faults import FaultPlan, FaultyNetwork
from repro.network.topology import StarNetwork
from tests.network.links import link_bandwidth, uniform_racks


def star():
    return StarNetwork.constant(
        [100.0, 200.0, 300.0, 400.0], [150.0, 250.0, 350.0, 450.0]
    )


class TestWrap:
    def test_empty_plan_is_identity(self):
        net = star()
        assert FaultyNetwork.wrap(net, None) is net
        assert FaultyNetwork.wrap(net, FaultPlan.none()) is net

    def test_same_plan_not_double_wrapped(self):
        plan = FaultPlan.from_spec("crash:1@5")
        wrapped = FaultyNetwork.wrap(star(), plan)
        assert FaultyNetwork.wrap(wrapped, plan) is wrapped

    def test_len_passes_through(self):
        wrapped = FaultyNetwork.wrap(star(), FaultPlan.from_spec("crash:1@5"))
        assert len(wrapped) == 4


class TestCapacities:
    def test_crash_zeroes_both_directions(self):
        net = FaultyNetwork.wrap(star(), FaultPlan.from_spec("crash:1@5"))
        assert net.capacities_at(4.9)["up", 1] == 200.0
        assert net.capacities_at(5.0)["up", 1] == 0.0
        assert net.capacities_at(5.0)["down", 1] == 0.0
        assert net.capacities_at(5.0)["up", 2] == 300.0  # others untouched

    def test_degradation_scales_one_direction(self):
        net = FaultyNetwork.wrap(
            star(), FaultPlan.from_spec("degrade:2@2-8x0.5:up")
        )
        assert net.capacities_at(4.0)["up", 2] == 150.0
        assert net.capacities_at(4.0)["down", 2] == 350.0
        assert net.capacities_at(9.0)["up", 2] == 300.0

    def test_capacities_at_scales_node_keys(self):
        net = FaultyNetwork.wrap(star(), FaultPlan.from_spec("stall:0@1+2"))
        caps = net.capacities_at(1.5)
        assert caps[("up", 0)] == 0.0
        assert caps[("down", 0)] == 0.0
        assert caps[("up", 3)] == 400.0

    def test_link_bandwidth_uses_faulted_ends(self):
        net = FaultyNetwork.wrap(
            star(), FaultPlan.from_spec("degrade:0@0-10x0.1:up")
        )
        assert link_bandwidth(net, 0, 1, 5.0) == 10.0

    def test_rack_network_keys_pass_through(self):
        base = uniform_racks(
            rack_count=2, nodes_per_rack=2, node_capacity=100.0,
            rack_capacity=150.0,
        )
        net = FaultyNetwork.wrap(base, FaultPlan.from_spec("crash:0@1"))
        caps = net.capacities_at(2.0)
        assert caps[("up", 0)] == 0.0
        rack_keys = [k for k in caps if k[0] not in ("up", "down")]
        base_caps = base.capacities_at(2.0)
        assert all(caps[k] == base_caps[k] for k in rack_keys)
        assert net.rack_of(0) == base.rack_of(0)  # extras delegate


class TestBreakpoints:
    def test_plan_breakpoints_merge_into_next_change(self):
        net = FaultyNetwork.wrap(
            star(), FaultPlan.from_spec("degrade:1@2-8x0.5")
        )
        assert net.next_change_after(0.0) == 2.0
        assert net.next_change_after(2.0) == 8.0
        assert net.next_change_after(8.0) == math.inf
