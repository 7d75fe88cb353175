"""Measurement analysis of workload traces (Section III-A).

Reproduces the paper's two observations:

* **Figure 2** — used node bandwidth distribution over nodes and time;
* **Table I** — among congested seconds (some node's usage rate at or above
  a threshold), the fraction whose cross-node coefficient of variation
  C_v exceeds 0.5 (bandwidth heterogeneity under congestion).

It also quantifies the pivot existence claim of Observation 2: even in
congested seconds, nodes with ample up *and* down bandwidth remain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import TraceError
from repro.traces.workload import WorkloadTrace

#: Usage-rate thresholds of Table I.
TABLE1_THRESHOLDS = (0.90, 0.95, 1.00)

#: The C_v cut-off used throughout Section III-A.
CV_THRESHOLD = 0.5

#: Observation 2: a second is congested when some node's usage rate
#: reaches this, and a node is a pivot when both its available uplink
#: and downlink exceed the fraction of capacity after it.
PIVOT_USAGE_THRESHOLD = 0.9
PIVOT_AVAILABLE_FRACTION = 0.5


def usage_rates(trace: WorkloadTrace) -> np.ndarray:
    """Per-node per-second usage rate: used node bandwidth / capacity."""
    return trace.used_node_bandwidth() / trace.capacity


def cv_per_second(trace: WorkloadTrace) -> np.ndarray:
    """Coefficient of variation of used node bandwidth across nodes.

    Seconds where every node is idle have undefined C_v; they are reported
    as 0 (all nodes identical), matching "C_v = 0 means all the nodes use
    identical bandwidth".
    """
    used = trace.used_node_bandwidth()
    mean = used.mean(axis=0)
    std = used.std(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        cv = np.where(mean > 0, std / mean, 0.0)
    return cv


def congested_seconds(trace: WorkloadTrace, threshold: float) -> np.ndarray:
    """Boolean mask: does any node's usage rate reach ``threshold``?"""
    if not 0 < threshold <= 1:
        raise TraceError(f"threshold must be in (0, 1], got {threshold}")
    return (usage_rates(trace) >= threshold - 1e-12).any(axis=0)


def heterogeneous_congestion_fraction(
    trace: WorkloadTrace, threshold: float
) -> float:
    """Table I cell: P(C_v > CV_THRESHOLD | congestion at threshold)."""
    congested = congested_seconds(trace, threshold)
    if not congested.any():
        return 0.0
    cv = cv_per_second(trace)
    return float((cv[congested] > CV_THRESHOLD).mean())


@dataclass(frozen=True)
class Table1Row:
    """One workload's column of Table I."""

    workload: str
    by_threshold: dict[float, float]

    def percent(self, threshold: float) -> float:
        return 100.0 * self.by_threshold[threshold]


def table1(traces: dict[str, WorkloadTrace]) -> list[Table1Row]:
    """Compute Table I for a set of workload traces."""
    rows = []
    for name, trace in traces.items():
        rows.append(
            Table1Row(
                workload=name,
                by_threshold={
                    threshold: heterogeneous_congestion_fraction(
                        trace, threshold
                    )
                    for threshold in TABLE1_THRESHOLDS
                },
            )
        )
    return rows


def fig2_series(trace: WorkloadTrace) -> np.ndarray:
    """Figure 2 series: used node bandwidth, shape (nodes, seconds)."""
    return trace.used_node_bandwidth()


def congestion_episode_stats(
    trace: WorkloadTrace, threshold: float = 0.9
) -> dict[str, float]:
    """How frequent and how short-lived congestion is (Observation 1)."""
    mask = congested_seconds(trace, threshold)
    if not mask.any():
        return {
            "congested_fraction": 0.0,
            "episodes": 0.0,
            "mean_episode_seconds": 0.0,
            "congested_set_change_rate": 0.0,
        }
    # Episode segmentation on the boolean mask.
    transitions = np.flatnonzero(np.diff(mask.astype(int)))
    starts = mask[0] + (np.diff(mask.astype(int)) == 1).sum()
    episodes = int(starts)
    mean_episode = float(mask.sum() / max(episodes, 1)) * trace.interval
    # How often the *set* of congested nodes changes between seconds.
    per_node = usage_rates(trace) >= threshold - 1e-12
    changes = (per_node[:, 1:] != per_node[:, :-1]).any(axis=0)
    change_rate = float(changes.mean())
    del transitions
    return {
        "congested_fraction": float(mask.mean()),
        "episodes": float(episodes),
        "mean_episode_seconds": mean_episode,
        "congested_set_change_rate": change_rate,
    }


def pivot_availability(trace: WorkloadTrace) -> float:
    """Observation 2: mean number of pivots during congested seconds.

    A node counts as a pivot when *both* its available uplink and downlink
    exceed :data:`PIVOT_AVAILABLE_FRACTION` of capacity.
    """
    congested = congested_seconds(trace, PIVOT_USAGE_THRESHOLD)
    if not congested.any():
        return float(trace.node_count)
    available = trace.available_node_bandwidth() / trace.capacity
    pivots = (available > PIVOT_AVAILABLE_FRACTION).sum(axis=0)
    return float(pivots[congested].mean())
