"""Synthetic hot-storage workload generators.

The paper measures used bandwidth from real TPC-DS, TPC-H, and SWIM runs on
a 16-node, 1 Gb/s Hadoop cluster.  Those measurements are unavailable
offline, so these generators synthesise traces with the same *statistical*
congestion behaviour the paper reports:

* congestion is frequent and the congested set changes rapidly
  (Observation 1 / Figure 2);
* used bandwidths are heterogeneous across nodes when congestion happens,
  with the conditional heterogeneity P(C_v > 0.5 | congestion) ordered
  TPC-H > TPC-DS > SWIM, inside Table I's bands (~58-67 %, ~37-40 %,
  ~24-30 %) and increasing with the usage-rate threshold;
* uncongested nodes (pivots) persist even while others saturate
  (Observation 2).

The model superposes two event types:

* **waves** — cluster-wide phases (shuffles, bulk scans) that load *every*
  node by a similar fraction; they congest the cluster homogeneously
  (low C_v) and rarely drive links to exactly 100 %;
* **hotspots** — jobs touching only a few nodes at high intensity; they
  saturate those links outright (usage 100 %) while the rest stay quiet,
  which is exactly the high-C_v congestion PivotRepair exploits.

Query workloads (TPC-H) are hotspot-heavy; MapReduce (SWIM) is wave-heavy;
TPC-DS mixes both.  The conditional C_v statistics rise with the usage
threshold because only hotspots reach 100 %.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import TraceError
from repro.traces.workload import DEFAULT_CAPACITY, WorkloadTrace

#: Always-on background load on every node, fraction of capacity.
BACKGROUND = 0.02


@dataclass(frozen=True)
class WorkloadProfile:
    """Parameters of the wave + hotspot superposition model."""

    name: str
    #: Cluster-wide wave arrivals per second and mean duration (seconds).
    wave_rate: float
    wave_duration: float
    #: Wave load per node, uniform bounds as a fraction of capacity.
    wave_low: float
    wave_high: float
    #: Per-node jitter applied to the wave load (std dev, fraction).
    wave_jitter: float
    #: Hard cap on any node's wave load (fraction); waves never saturate.
    wave_cap: float
    #: Hotspot job arrivals per second and mean duration (seconds).
    hotspot_rate: float
    hotspot_duration: float
    #: Nodes touched by one hotspot (inclusive bounds).
    hotspot_nodes_min: int
    hotspot_nodes_max: int
    #: Hotspot load per touched node, uniform bounds (fraction of capacity).
    hotspot_low: float
    hotspot_high: float

    def __post_init__(self) -> None:
        if self.wave_rate < 0 or self.hotspot_rate < 0:
            raise TraceError("event rates cannot be negative")
        if self.wave_duration <= 0 or self.hotspot_duration <= 0:
            raise TraceError("event durations must be positive")
        if not 0 <= self.wave_low <= self.wave_high:
            raise TraceError("bad wave load bounds")
        if not self.wave_high <= self.wave_cap <= 1.0:
            raise TraceError("wave_cap must be in [wave_high, 1]")
        if not 0 <= self.hotspot_low <= self.hotspot_high:
            raise TraceError("bad hotspot load bounds")
        if not 1 <= self.hotspot_nodes_min <= self.hotspot_nodes_max:
            raise TraceError("bad hotspot node bounds")


#: Decision-support benchmark: mixes cluster scans with skewed joins.
TPC_DS = WorkloadProfile(
    name="TPC-DS",
    wave_rate=0.037,
    wave_duration=25.0,
    wave_low=0.55,
    wave_high=0.85,
    wave_jitter=0.04,
    wave_cap=0.87,
    hotspot_rate=0.050,
    hotspot_duration=12.0,
    hotspot_nodes_min=1,
    hotspot_nodes_max=3,
    hotspot_low=0.95,
    hotspot_high=1.0,
)

#: Classical business queries: strongly hotspot-dominated.
TPC_H = WorkloadProfile(
    name="TPC-H",
    wave_rate=0.019,
    wave_duration=22.0,
    wave_low=0.55,
    wave_high=0.85,
    wave_jitter=0.04,
    wave_cap=0.87,
    hotspot_rate=0.090,
    hotspot_duration=14.0,
    hotspot_nodes_min=1,
    hotspot_nodes_max=3,
    hotspot_low=0.95,
    hotspot_high=1.0,
)

#: Facebook MapReduce trace: wave-dominated shuffle phases.
SWIM = WorkloadProfile(
    name="SWIM",
    wave_rate=0.050,
    wave_duration=28.0,
    wave_low=0.55,
    wave_high=0.85,
    wave_jitter=0.04,
    wave_cap=0.87,
    hotspot_rate=0.014,
    hotspot_duration=10.0,
    hotspot_nodes_min=1,
    hotspot_nodes_max=3,
    hotspot_low=0.95,
    hotspot_high=1.0,
)

PROFILES = {p.name: p for p in (TPC_DS, TPC_H, SWIM)}


def _poisson_events(
    rng: np.random.Generator, rate: float, duration: int, mean_length: float
) -> list[tuple[int, int]]:
    """(start, end) sample ranges of a Poisson event process."""
    events = []
    if rate <= 0:
        return events
    t = 0.0
    while True:
        t += rng.exponential(1.0 / rate)
        if t >= duration:
            return events
        length = max(1, int(round(rng.exponential(mean_length))))
        start = int(t)
        events.append((start, min(start + length, duration)))


def generate_trace(
    profile: WorkloadProfile,
    node_count: int = 16,
    duration: int = 6000,
    capacity: float = DEFAULT_CAPACITY,
    seed: int = 0,
) -> WorkloadTrace:
    """Generate a synthetic used-bandwidth trace for one workload.

    Deterministic for a given seed.  Matches the paper's measurement setup
    by default: 16 nodes, 6000 one-second samples, 1 Gb/s edges.
    """
    if node_count < profile.hotspot_nodes_min:
        raise TraceError(
            f"{profile.name} hotspots touch at least "
            f"{profile.hotspot_nodes_min} nodes; cluster has {node_count}"
        )
    if duration <= 0:
        raise TraceError("duration must be positive")
    rng = np.random.default_rng(seed)
    used_up = np.full(
        (node_count, duration), BACKGROUND * capacity, dtype=float
    )
    used_down = used_up.copy()

    # Concurrent waves do not stack: a cluster-wide phase saturates shared
    # resources, so overlapping waves contribute their element-wise maximum
    # (otherwise two waves would saturate every link at once, erasing the
    # heterogeneity Table I reports).
    wave_up = np.zeros_like(used_up)
    wave_down = np.zeros_like(used_down)
    for start, end in _poisson_events(
        rng, profile.wave_rate, duration, profile.wave_duration
    ):
        base = rng.uniform(profile.wave_low, profile.wave_high)
        jitter_up = rng.normal(0.0, profile.wave_jitter, size=node_count)
        jitter_down = rng.normal(0.0, profile.wave_jitter, size=node_count)
        load_up = np.clip(base + jitter_up, 0.0, profile.wave_cap)
        load_down = np.clip(base + jitter_down, 0.0, profile.wave_cap)
        np.maximum(
            wave_up[:, start:end], load_up[:, None] * capacity,
            out=wave_up[:, start:end],
        )
        np.maximum(
            wave_down[:, start:end], load_down[:, None] * capacity,
            out=wave_down[:, start:end],
        )
    used_up += wave_up
    used_down += wave_down

    for start, end in _poisson_events(
        rng, profile.hotspot_rate, duration, profile.hotspot_duration
    ):
        touched = rng.choice(
            node_count,
            size=int(
                rng.integers(
                    profile.hotspot_nodes_min, profile.hotspot_nodes_max + 1
                )
            ),
            replace=False,
        )
        for node in touched:
            # Hotspot traffic is directional: a node bulk-receiving data
            # saturates its downlink while its uplink stays free, and vice
            # versa (cf. Figure 3, where N2 has up 750 / down 100 Mb/s).
            # The *used node bandwidth* max(up, down) — what Table I and
            # Figure 2 measure — saturates either way.
            direction = rng.choice(("down", "up", "both"), p=(0.4, 0.4, 0.2))
            load = (
                rng.uniform(profile.hotspot_low, profile.hotspot_high)
                * capacity
            )
            if direction in ("up", "both"):
                used_up[node, start:end] += load
            if direction in ("down", "both"):
                used_down[node, start:end] += load

    np.clip(used_up, 0.0, capacity, out=used_up)
    np.clip(used_down, 0.0, capacity, out=used_down)
    return WorkloadTrace(
        name=profile.name,
        capacity=capacity,
        used_up=used_up,
        used_down=used_down,
    )


def generate_all(
    node_count: int = 16, duration: int = 6000, seed: int = 0
) -> dict[str, WorkloadTrace]:
    """Generate the paper's three workload traces with one call."""
    return {
        name: generate_trace(
            profile, node_count, duration, DEFAULT_CAPACITY, seed=seed + index
        )
        for index, (name, profile) in enumerate(PROFILES.items())
    }
