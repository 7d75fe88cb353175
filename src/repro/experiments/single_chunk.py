"""Single-chunk repair experiments (Figure 5, Experiments 1-3).

For each workload trace and each (n, k), a set of congested instants is
sampled; at each instant a stripe is laid over the cluster, the requestor
and the n-1 surviving helpers are chosen, and each scheme plans and
executes a 64 MiB single-chunk repair.  The three Figure 5 rows read
different columns of the same runs:

* (a-c) overall repair time = algorithm running time + transfer time,
* (d-f) algorithm running time, modelled: a per-candidate cost x the n-1
  candidates for RP and PivotRepair, a per-tree cost x the (k+1)^(k-1)
  trees for PPT (``benchmarks/bench_fig5_running_time.py`` times the
  greedy planners on the host),
* (g-i) transfer time (simulated).
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import mean

import numpy as np

from repro.baselines import PPTPlanner, RPPlanner
from repro.core import PivotRepairPlanner
from repro.exceptions import CodingError, PlanningError
from repro.experiments.config import DEFAULT_SETTINGS, ExperimentSettings
from repro.obs.tracer import NULL_TRACER
from repro.repair import ExecutionConfig, repair_single_chunk
from repro.traces import congested_seconds
from repro.traces.workload import WorkloadTrace

#: Instants sampled per (workload, code) cell; the paper averages 5 runs.
INSTANTS_PER_CELL = 5

#: The schemes Figure 5 compares.
SCHEMES = ("RP", "PPT", "PivotRepair")


def make_planner(scheme: str):
    """Planner factory for the Figure 5 scheme names."""
    if scheme == "RP":
        return RPPlanner()
    if scheme == "PPT":
        return PPTPlanner()
    if scheme == "PivotRepair":
        return PivotRepairPlanner()
    raise PlanningError(f"unknown scheme {scheme!r}")


@dataclass
class CellResult:
    """Mean timings of one (workload, (n,k), scheme) cell."""

    planning_seconds: float
    transfer_seconds: float

    @property
    def overall_seconds(self) -> float:
        return self.planning_seconds + self.transfer_seconds


def congested_instants(
    trace: WorkloadTrace, count: int, seed: int = 1
) -> list[float]:
    """Sample ``count`` congested samples of a trace ("we randomly select
    a set of bandwidths situations with congestions", Section V-B) and
    return the instants, in seconds, at which they start."""
    candidates = np.flatnonzero(congested_seconds(trace, 0.9))
    if len(candidates) == 0:
        candidates = np.arange(trace.sample_count)
    rng = np.random.default_rng(seed)
    chosen = rng.choice(
        candidates, size=min(count, len(candidates)), replace=False
    )
    return [float(index * trace.interval) for index in sorted(chosen)]


def stripe_members_at(
    trace: WorkloadTrace, instant: float, n: int, seed: int
) -> tuple[list[int], int, int]:
    """Lay an n-node stripe over the cluster for one repair experiment:
    ``(members, failed, requestor)``, members in ascending order.

    The failed node is the most congested stripe member at the instant
    (hot data is what gets read); the requestor is the node with the most
    available bandwidth outside the stripe.  Both are computed on the
    window of the one sample holding the instant (in seconds), not on
    the whole trace; an instant
    outside the trace (negative, or past its last sample) is a
    ``TraceError``, and a stripe that leaves no node outside it for the
    requestor is a ``CodingError``.
    """
    if n >= trace.node_count:
        raise CodingError(
            f"cannot place an (n={n}) stripe and a requestor outside it "
            f"on {trace.node_count} nodes"
        )
    rng = np.random.default_rng(seed)
    members = sorted(
        rng.choice(trace.node_count, size=n, replace=False).tolist()
    )
    second = trace.window(int(instant // trace.interval), 1)
    usage = second.used_node_bandwidth()[:, 0]
    failed = max(members, key=lambda node: usage[node])
    outside = [
        node for node in range(trace.node_count) if node not in members
    ]
    available = second.available_node_bandwidth()[:, 0]
    requestor = max(outside, key=lambda node: available[node])
    return members, failed, requestor


def stripe_nodes_at(trace: WorkloadTrace, instant: float, n: int, seed: int):
    """:func:`stripe_members_at`'s ``(requestor, surviving helpers)``."""
    members, failed, requestor = stripe_members_at(trace, instant, n, seed)
    return requestor, [node for node in members if node != failed]


def run_cell(
    trace: WorkloadTrace,
    network,
    n: int,
    k: int,
    scheme: str,
    tracer=NULL_TRACER,
) -> CellResult:
    """Run one (workload, code, scheme) cell over
    :data:`INSTANTS_PER_CELL` instants and average its timings."""
    config = ExecutionConfig()
    planner = make_planner(scheme)
    planning, transfer = [], []
    for index, instant in enumerate(
        congested_instants(trace, INSTANTS_PER_CELL, seed=n * 100 + k)
    ):
        requestor, survivors = stripe_nodes_at(
            trace, instant, n, seed=1000 * index + n * 10 + k
        )
        result = repair_single_chunk(
            planner, network, requestor, survivors, k,
            start_time=instant, config=config, tracer=tracer,
        )
        planning.append(result.planning_seconds)
        transfer.append(result.transfer_seconds)
    return CellResult(
        planning_seconds=mean(planning), transfer_seconds=mean(transfer)
    )


def run_figure5(
    workload_traces: dict[str, WorkloadTrace],
    workload_networks: dict,
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    tracer=NULL_TRACER,
) -> dict:
    """All Figure 5 cells: results[workload][(n, k)][scheme] -> CellResult."""
    results: dict = {}
    for name, trace in workload_traces.items():
        network = workload_networks[name]
        results[name] = {}
        for n, k in settings.codes:
            results[name][(n, k)] = {
                scheme: run_cell(
                    trace, network, n, k, scheme, tracer=tracer
                )
                for scheme in SCHEMES
            }
    return results
