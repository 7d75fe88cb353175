"""The repair-storm scenario: rack outage → fleet repair under load.

One seeded, bit-deterministic scenario shared by the ``repro storm``
CLI command, the ``fleet_storm`` benchmark workload and the determinism
tests:

1. a two-level rack topology (oversubscribed rack links) carries Zipf
   foreground traffic from several tenants;
2. at ``outage_at`` a whole rack loses power (correlated
   :meth:`~repro.faults.plan.FaultPlan.rack_outage`), followed by a gray
   wave degrading one survivor per remaining rack;
3. every crashed node that held chunks becomes a repair job on the
   :class:`~repro.controlplane.plane.ControlPlane`, with QoS classes
   rotating gold/silver/bronze;
4. the plane admits, sheds, degrades and drains the storm; the SLO
   burn-rate monitor on the foreground tenants supplies the
   backpressure signal.

Planning charges are pinned (:data:`PLANNING_SECONDS`) rather than
modelled: the storm's recorded traces, journals and admission decision
logs were fixed with that charge, and the benchmark's storm workloads pin
the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.controlplane.admission import AdmissionConfig
from repro.controlplane.backpressure import BackpressureConfig
from repro.controlplane.plane import ControlPlane, FleetResult
from repro.core import PivotRepairPlanner, pin_planning
from repro.core.scheduler import SchedulerConfig
from repro.core.seeding import spawn_rng
from repro.ec import RSCode, place_stripes
from repro.exceptions import ClusterError
from repro.faults.network import FaultyNetwork
from repro.faults.plan import FaultPlan
from repro.faults.policy import RetryPolicy
from repro.loadgen import ForegroundEngine, LoadProfile, generate_requests
from repro.network.bandwidth import NodeBandwidth
from repro.network.hierarchical import RackNetwork
from repro.network.simulator import FluidSimulator
from repro.obs import (
    NULL_TRACER,
    FlightRecorder,
    SLOMonitor,
    SLOSpec,
    TimeSeriesDB,
)
from repro.repair.pipeline import ExecutionConfig
from repro.units import mib

__all__ = [
    "StormConfig",
    "StormReport",
    "pin_planning",
    "run_storm",
    "storm_fault_plan",
    "storm_network",
]

_QOS_ROTATION = ("gold", "silver", "bronze")

# The parts of the scenario no caller varies.
#: Rack whose power fails at ``outage_at``.
OUTAGE_RACK = 0
#: Heterogeneity step between consecutive nodes (fraction of base).
NODE_SPREAD = 0.04
#: Rack uplink as a fraction of the rack's summed node capacity
#: (< 1 = oversubscribed, the usual datacenter shape).
RACK_OVERSUBSCRIPTION = 0.6
#: Foreground request size, KiB.
REQUEST_KIB = 256
#: Latency SLO: allowed fraction of requests above ``slo_seconds``.
SLO_BUDGET = 0.05
#: Burn-rate windows; storm-scale (short) so alerts fire and resolve
#: within one scenario rather than on SRE dashboards' timescales.
SLO_SHORT_WINDOW = 3.0
SLO_LONG_WINDOW = 8.0
#: The gray wave: survivors' uplinks keep this fraction of capacity for
#: this many seconds.
GRAY_FACTOR = 0.35
GRAY_DURATION = 6.0
#: Pinned planning charge per plan, seconds.
PLANNING_SECONDS = 0.002
#: Flight-recorder window, seconds.
SAMPLE_INTERVAL = 0.25
#: Admission priority points per second waited.
AGING_RATE = 5.0
#: Backpressure watermarks under admission control.
BREADTH_WATERMARK = 0.45
RESUME_BREADTH = 0.30
RETRY_SPEC = "timeout=0.25,retries=4,backoff=0.1x2,jitter=0.5,maxbackoff=2"
#: Eq. 3 recommendation bar under admission control.
SCHEDULER_THRESHOLD = 0.0


@dataclass(frozen=True)
class StormConfig:
    """Everything that parameterizes one storm run (all seeded)."""

    seed: int = 42
    racks: int = 3
    nodes_per_rack: int = 4
    outage_at: float = 0.05
    #: Degrade one survivor per remaining rack (the gray wave)?
    gray_wave: bool = True
    stripes: int = 20
    n: int = 6
    k: int = 4
    chunk_mib: float = 24.0
    node_mbs: float = 25.0
    #: Foreground arrivals per second (0 disables foreground + SLOs).
    foreground_rate: float = 80.0
    foreground_duration: float = 50.0
    tenants: int = 2
    slo_seconds: float = 0.06
    #: Fleet admission gate; ``admission_control=False`` runs the
    #: uncontrolled baseline (everything admitted, never shed).
    admission_control: bool = True
    max_streams: int = 4
    max_jobs: int = 3
    max_time: float = 600.0


@dataclass
class StormReport:
    """What one storm run produced, ready for checks and JSON."""

    config: StormConfig
    fleet: FleetResult
    total_seconds: float
    #: (name, kind, t) per SLO transition, in emission order.
    alerts: list = field(default_factory=list)
    #: Summed seconds any latency SLO alert spent firing.
    breach_seconds: float = 0.0
    sim_stats: dict = field(default_factory=dict)
    foreground_summary: dict | None = None

    def as_dict(self) -> dict:
        return {
            "seed": self.config.seed,
            "admission_control": self.config.admission_control,
            "total_seconds": self.total_seconds,
            "chunks_repaired": self.fleet.chunks_repaired,
            "chunks_failed": self.fleet.chunks_failed,
            "jobs": {
                job_id: {
                    "qos": self.fleet.qos.get(job_id, ""),
                    "repaired": outcome.chunks_repaired,
                    "failed": outcome.chunks_failed,
                    "completed": self.fleet.completed[job_id],
                }
                for job_id, outcome in self.fleet.jobs.items()
            },
            "decisions": self.fleet.decision_counts(),
            "alerts": [list(alert) for alert in self.alerts],
            "breach_seconds": self.breach_seconds,
            "sim": self.sim_stats,
        }


def storm_network(config: StormConfig) -> RackNetwork:
    """Heterogeneous racked topology; deterministic, no RNG needed."""
    base = config.node_mbs * 1e6
    node_count = config.racks * config.nodes_per_rack
    node_racks = [node // config.nodes_per_rack for node in range(node_count)]
    nodes = [
        NodeBandwidth.constant(
            base * (1.0 + NODE_SPREAD * node),
            base * (1.0 + NODE_SPREAD * ((node * 7) % node_count)),
        )
        for node in range(node_count)
    ]
    racks = []
    for rack in range(config.racks):
        members = [n for n, r in enumerate(node_racks) if r == rack]
        pooled = sum(
            base * (1.0 + NODE_SPREAD * node) for node in members
        )
        cap = pooled * RACK_OVERSUBSCRIPTION
        racks.append(NodeBandwidth.constant(cap, cap))
    return RackNetwork(node_racks, nodes, racks)


def storm_fault_plan(config: StormConfig, network: RackNetwork) -> FaultPlan:
    """Correlated rack loss plus the gray wave on surviving racks."""
    lost = network.nodes_in_rack(OUTAGE_RACK)
    gray: list[int] = []
    if config.gray_wave:
        for rack in range(network.rack_count):
            if rack == OUTAGE_RACK:
                continue
            # The first node of each surviving rack browns out: its
            # uplink serves repair reads, so this is a gray failure the
            # degradation policy must absorb, not a crash.
            gray.append(network.nodes_in_rack(rack)[0])
    return FaultPlan.rack_outage(
        lost, config.outage_at,
        gray_nodes=gray,
        gray_start=config.outage_at + 1.0,
        gray_duration=GRAY_DURATION,
        gray_factor=GRAY_FACTOR,
        gray_direction="up",
    )


def _breach_seconds(alerts, end: float) -> float:
    """Total seconds latency alerts spent firing (overlaps summed)."""
    open_at: dict[str, float] = {}
    total = 0.0
    for alert in alerts:
        if not alert.name.startswith("latency-"):
            continue
        if alert.kind == "fire":
            open_at.setdefault(alert.name, alert.t)
        elif alert.kind == "resolve" and alert.name in open_at:
            total += alert.t - open_at.pop(alert.name)
    for t0 in open_at.values():
        total += end - t0
    return total


def run_storm(
    config: StormConfig | None = None,
    tracer=NULL_TRACER,
    journal=None,
) -> StormReport:
    """Run one seeded storm scenario end to end; see module docstring."""
    config = config or StormConfig()
    code = RSCode(config.n, config.k)
    network = storm_network(config)
    node_count = len(network)
    stripes = place_stripes(
        config.stripes, code, node_count,
        spawn_rng(config.seed, "storm", "placement"),
    )
    faults = storm_fault_plan(config, network)
    failed_nodes = [
        node
        for node in network.nodes_in_rack(OUTAGE_RACK)
        if any(s.chunk_on_node(node) is not None for s in stripes)
    ]
    if not failed_nodes:
        raise ClusterError(
            "storm outage rack holds no chunks; widen placement"
        )
    wrapped = FaultyNetwork.wrap(network, faults)
    exec_config = ExecutionConfig(chunk_size=int(mib(config.chunk_mib)))
    retry_policy = RetryPolicy.from_spec(RETRY_SPEC)

    tsdb = TimeSeriesDB()
    sampler = FlightRecorder(interval=SAMPLE_INTERVAL, tsdb=tsdb)
    tenant_names = tuple(f"tenant-{i}" for i in range(max(config.tenants, 1)))
    foreground = None
    specs = []
    if config.foreground_rate > 0:
        profile = LoadProfile(
            name="storm",
            arrival_rate=config.foreground_rate,
            duration=config.foreground_duration,
            read_fraction=0.9,
            request_size=REQUEST_KIB * 1024,
            zipf_s=0.9,
            tenants=tenant_names,
        )
        requests = generate_requests(
            profile, stripes, node_count,
            seed=spawn_rng(config.seed, "storm", "foreground"),
        )
        foreground = ForegroundEngine(
            stripes, requests,
            pin_planning(PivotRepairPlanner(), PLANNING_SECONDS),
            failed_nodes=set(failed_nodes), faults=faults, tsdb=tsdb,
        )
        specs = [
            SLOSpec(
                name=f"latency-{tenant}", kind="latency", tenant=tenant,
                threshold=config.slo_seconds, budget=SLO_BUDGET,
                short_window=SLO_SHORT_WINDOW,
                long_window=SLO_LONG_WINDOW,
            )
            for tenant in tenant_names
        ]
    monitor = SLOMonitor(tsdb, specs, tracer=tracer)
    sampler.add_listener(monitor.on_tick)

    sim = FluidSimulator(
        wrapped, start_time=0.0, tracer=tracer, sampler=sampler
    )
    if config.admission_control:
        admission = AdmissionConfig(
            max_streams=config.max_streams,
            max_jobs=config.max_jobs,
            aging_rate=AGING_RATE,
        )
        backpressure = BackpressureConfig(
            breadth_watermark=BREADTH_WATERMARK,
            resume_breadth=RESUME_BREADTH,
        )
        slo_for_plane = monitor if specs else None
        threshold = SCHEDULER_THRESHOLD
    else:
        # Uncontrolled baseline: everything admits at once, nothing is
        # ever shed, and dispatch ignores Eq. 3 pacing (a deeply
        # negative threshold starts every plannable stripe immediately)
        # — what a fleet without a control plane does.
        admission = AdmissionConfig(
            max_streams=10**6, max_jobs=10**6, aging_rate=AGING_RATE,
        )
        backpressure = BackpressureConfig(
            breadth_watermark=1.0, resume_breadth=1.0,
        )
        slo_for_plane = None
        threshold = -1e30
    plane = ControlPlane(
        sim, wrapped,
        scheduler=SchedulerConfig(threshold=threshold),
        admission=admission,
        backpressure=backpressure,
        faults=faults,
        tracer=tracer,
        foreground=foreground,
        slo_monitor=slo_for_plane,
        journal=journal,
    )
    planner = pin_planning(PivotRepairPlanner(), PLANNING_SECONDS)
    for position, node in enumerate(failed_nodes):
        plane.add_job(
            f"node{node}", planner, stripes, node,
            qos=_QOS_ROTATION[position % len(_QOS_ROTATION)],
            config=exec_config, retry_policy=retry_policy,
        )
    fleet = plane.run(max_time=config.max_time)
    if foreground is not None:
        foreground.drain()
    end = sim.now
    if sampler.samples:
        end = max(end, sampler.samples[-1].t)
    monitor.evaluate(end)
    return StormReport(
        config=config,
        fleet=fleet,
        total_seconds=sim.now,
        alerts=[(a.name, a.kind, a.t) for a in monitor.alerts],
        breach_seconds=_breach_seconds(monitor.alerts, end),
        sim_stats=sim.stats.as_dict(),
        foreground_summary=(
            foreground.summary() if foreground is not None else None
        ),
    )
