"""Test-side helpers over the network's public interface.

``link_bandwidth`` reads a directed link the way the fluid simulator
caps one edge of a flow; ``trace_from_samples`` builds a trace on the
evenly spaced grid a workload trace uses.
"""

from repro.network.bandwidth import BandwidthTrace, sample_grid


def link_bandwidth(network, src: int, dst: int, t: float) -> float:
    """Capacity of the directed link ``src -> dst`` at ``t``: the least
    capacity among the resources one unit of rate on that edge uses.
    ``edge_usage`` refuses a self-link or a node outside the network."""
    row = network.capacities_at(t)
    return min(row[resource] for resource in network.edge_usage(src, dst))


def trace_from_samples(
    values, interval: float = 1.0, start: float = 0.0
) -> BandwidthTrace:
    """A trace of evenly spaced samples (the paper's 1 s interval)."""
    return BandwidthTrace(sample_grid(len(values), interval, start), values)
