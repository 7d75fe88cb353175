"""Figure 7 full-node repair experiment (Experiment 6).

"We first write a number of stripes of chunks randomly across all 15 nodes
..., then erase 64 chunks of one node from 64 stripes to mimic a single
node failure, and then repair all the erased chunks with different
approaches."
"""

from __future__ import annotations

import numpy as np

from repro.baselines import PPTPlanner, RPPlanner
from repro.core import PivotRepairPlanner
from repro.core.scheduler import SchedulerConfig
from repro.ec import RSCode, place_stripes
from repro.experiments.config import (
    DEFAULT_SETTINGS,
    NODE_COUNT,
    ExperimentSettings,
)
from repro.obs.tracer import NULL_TRACER
from repro.repair import (
    ExecutionConfig,
    FullNodeResult,
    repair_full_node,
    repair_full_node_adaptive,
)
from repro.traces.workload import WorkloadTrace

#: Chunks erased from the failed node (the paper's Experiment 6 uses 64).
STRIPES_TO_ERASE = 64

#: Fixed in-flight window for the non-adaptive orchestrators.
CONCURRENCY = 4

#: Adaptive strategy knobs used in the Figure 7 comparison.
FIG7_SCHEDULER = SchedulerConfig(alpha=1.0, beta=2.0, threshold=10.0)

#: The schemes Figure 7 compares, in presentation order.
FIG7_SCHEMES = ("RP", "PPT", "PivotRepair", "PivotRepair+strategy")


def stripes_with_failures(
    code: RSCode,
    failed_node: int,
    node_count: int,
    seed: int,
    count: int = STRIPES_TO_ERASE,
):
    """Place stripes until ``failed_node`` holds ``count`` chunks."""
    rng = np.random.default_rng(seed)
    chosen = []
    start_id = 0
    while len(chosen) < count:
        batch = place_stripes(64, code, node_count, rng, start_id=start_id)
        start_id += 64
        chosen.extend(
            s for s in batch if s.chunk_on_node(failed_node) is not None
        )
    return chosen[:count]


def run_figure7(
    trace: WorkloadTrace,
    network,
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    config: ExecutionConfig | None = None,
    chunks: int = STRIPES_TO_ERASE,
    tracer=NULL_TRACER,
) -> dict[tuple[int, int], dict[str, FullNodeResult]]:
    """Full-node repair for every (n, k) and every Figure 7 scheme."""
    config = config or ExecutionConfig()
    failed_node = int(np.argmax(trace.used_node_bandwidth().mean(axis=1)))
    results: dict[tuple[int, int], dict[str, FullNodeResult]] = {}
    for n, k in settings.codes:
        stripes = stripes_with_failures(
            RSCode(n, k), failed_node, NODE_COUNT,
            seed=n * 7 + k, count=chunks,
        )
        row: dict[str, FullNodeResult] = {}
        row["RP"] = repair_full_node(
            RPPlanner(), network, stripes, failed_node,
            concurrency=CONCURRENCY, config=config, tracer=tracer,
        )
        row["PPT"] = repair_full_node(
            PPTPlanner(), network, stripes, failed_node,
            concurrency=CONCURRENCY, config=config, tracer=tracer,
        )
        row["PivotRepair"] = repair_full_node(
            PivotRepairPlanner(), network, stripes, failed_node,
            concurrency=CONCURRENCY, config=config, tracer=tracer,
        )
        row["PivotRepair+strategy"] = repair_full_node_adaptive(
            PivotRepairPlanner(), network, stripes, failed_node,
            scheduler=FIG7_SCHEDULER, config=config, tracer=tracer,
        )
        results[(n, k)] = row
    return results
