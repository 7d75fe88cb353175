"""Network substrate: bandwidth traces, star topology, fluid simulation."""

from repro.network.bandwidth import (
    BandwidthTrace,
    NodeBandwidth,
    merge_breakpoints,
)
from repro.network.engine import IncrementalEngine
from repro.network.fairness import (
    allocate_edge_tasks,
    max_min_allocate,
    usage_from_edges,
)
from repro.network.hierarchical import RackNetwork
from repro.network.simulator import (
    DEFAULT_ENGINE,
    FluidSimulator,
    SimulatorStats,
    TaskHandle,
)
from repro.network.topology import StarNetwork

__all__ = [
    "BandwidthTrace",
    "DEFAULT_ENGINE",
    "FluidSimulator",
    "IncrementalEngine",
    "NodeBandwidth",
    "RackNetwork",
    "SimulatorStats",
    "StarNetwork",
    "TaskHandle",
    "allocate_edge_tasks",
    "max_min_allocate",
    "merge_breakpoints",
    "usage_from_edges",
]
