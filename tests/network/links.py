"""Test-side helpers over the network's public interface.

``link_bandwidth`` reads a directed link the way the fluid simulator
caps one edge of a flow; ``value_at`` reads one trace by its own
samples, the reference a network's capacity rows are compared with;
``trace_from_samples`` builds a trace on the evenly spaced grid a
workload trace uses; ``uniform_racks`` builds homogeneous racks.
"""

from bisect import bisect_right

from repro.network.bandwidth import BandwidthTrace, NodeBandwidth, sample_grid
from repro.network.hierarchical import RackNetwork


def link_bandwidth(network, src: int, dst: int, t: float) -> float:
    """Capacity of the directed link ``src -> dst`` at ``t``: the least
    capacity among the resources one unit of rate on that edge uses.
    ``edge_usage`` refuses a self-link or a node outside the network."""
    row = network.capacities_at(t)
    return min(row[resource] for resource in network.edge_usage(src, dst))


def value_at(trace: BandwidthTrace, t: float) -> float:
    """The trace's value at ``t``: its last sample at or before ``t``,
    else (before the first sample) the first."""
    times = trace._times
    return trace._values[max(bisect_right(times, t) - 1, 0)]


def trace_from_samples(
    values, interval: float = 1.0, start: float = 0.0
) -> BandwidthTrace:
    """A trace of evenly spaced samples (the paper's 1 s interval)."""
    return BandwidthTrace(sample_grid(len(values), interval, start), values)


def uniform_racks(
    rack_count: int,
    nodes_per_rack: int,
    node_capacity: float,
    rack_capacity: float,
) -> RackNetwork:
    """Homogeneous racks of constant links, nodes numbered rack by rack;
    ``rack_capacity < nodes_per_rack * node_capacity`` models
    oversubscription."""
    node_racks = [
        rack for rack in range(rack_count) for _ in range(nodes_per_rack)
    ]
    nodes = [
        NodeBandwidth.constant(node_capacity, node_capacity)
        for _ in node_racks
    ]
    racks = [
        NodeBandwidth.constant(rack_capacity, rack_capacity)
        for _ in range(rack_count)
    ]
    return RackNetwork(node_racks, nodes, racks)
