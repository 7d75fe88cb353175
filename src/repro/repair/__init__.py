"""Repair execution: pipelined timing, executors, full-node orchestration."""

from repro.repair.executor import (
    execute_plan,
    repair_single_chunk,
    repair_single_chunk_faulted,
)
from repro.repair.fullnode import repair_full_node, repair_full_node_adaptive
from repro.repair.jobmaster import StripeRepairMaster, choose_requestor
from repro.repair.metrics import FullNodeResult, RepairFailed, RepairResult
from repro.repair.slicesim import fluid_estimate, simulate_slices
from repro.repair.telemetry import run_counters
from repro.repair.pipeline import (
    ExecutionConfig,
    ideal_transfer_seconds,
    pipeline_bytes_per_edge,
    pipeline_overhead_seconds,
)

__all__ = [
    "ExecutionConfig",
    "FullNodeResult",
    "RepairFailed",
    "RepairResult",
    "StripeRepairMaster",
    "fluid_estimate",
    "simulate_slices",
    "choose_requestor",
    "execute_plan",
    "ideal_transfer_seconds",
    "pipeline_bytes_per_edge",
    "pipeline_overhead_seconds",
    "repair_full_node",
    "repair_full_node_adaptive",
    "repair_single_chunk",
    "repair_single_chunk_faulted",
    "run_counters",
]
