"""PivotRepair reproduction: fast pipelined repair for erasure-coded hot storage.

Reproduces Yao et al., "PivotRepair: Fast Pipelined Repair for Erasure-Coded
Hot Storage" (ICDCS 2022) as a pure-Python library:

* :mod:`repro.ec` — GF(2^8) Reed-Solomon coding (chunks, slices, stripes);
* :mod:`repro.network` — star-topology fluid network simulator with
  time-varying bandwidth and max-min fair sharing;
* :mod:`repro.traces` — synthetic TPC-DS / TPC-H / SWIM congestion traces
  and the paper's measurement analysis;
* :mod:`repro.core` — the contribution: pivots, Algorithm 1 repair trees,
  and the adaptive full-node scheduling strategy;
* :mod:`repro.baselines` — RP, PPT, PPR, and conventional repair;
* :mod:`repro.repair` — executing plans, timing, full-node orchestration;
* :mod:`repro.cluster` — byte-accurate Master/DataNode repair;
* :mod:`repro.obs` — structured event tracing, metrics, trace export.
"""

import logging

from repro.baselines import (
    ConventionalPlanner,
    PPRPlanner,
    PPTPlanner,
    RPPlanner,
)
from repro.cluster import Cluster, DataNode
from repro.core import (
    BandwidthSnapshot,
    PivotRepairPlanner,
    RackAwarePivotPlanner,
    RackSnapshot,
    RepairPlan,
    RepairPlanner,
    RepairTree,
    SchedulerConfig,
    build_pivot_tree,
)
from repro.ec import RSCode, Stripe
from repro.network import BandwidthTrace, FluidSimulator, RackNetwork, StarNetwork
from repro.obs import MetricsRegistry, Tracer, write_trace
from repro.repair import (
    ExecutionConfig,
    FullNodeResult,
    RepairResult,
    repair_full_node,
    repair_full_node_adaptive,
    repair_single_chunk,
)
from repro.traces import WorkloadTrace, generate_all, generate_trace

__version__ = "0.1.0"

# Library etiquette: never emit log records unless the application opts
# in (attaching a real handler); avoids "no handlers could be found".
logging.getLogger(__name__).addHandler(logging.NullHandler())

__all__ = [
    "BandwidthSnapshot",
    "BandwidthTrace",
    "Cluster",
    "ConventionalPlanner",
    "DataNode",
    "ExecutionConfig",
    "FluidSimulator",
    "FullNodeResult",
    "MetricsRegistry",
    "PPRPlanner",
    "PPTPlanner",
    "PivotRepairPlanner",
    "RPPlanner",
    "RackAwarePivotPlanner",
    "RackNetwork",
    "RackSnapshot",
    "RSCode",
    "RepairPlan",
    "RepairPlanner",
    "RepairResult",
    "RepairTree",
    "SchedulerConfig",
    "StarNetwork",
    "Stripe",
    "Tracer",
    "WorkloadTrace",
    "build_pivot_tree",
    "generate_all",
    "generate_trace",
    "repair_full_node",
    "repair_full_node_adaptive",
    "repair_single_chunk",
    "write_trace",
]
