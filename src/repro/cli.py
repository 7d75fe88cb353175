"""Command-line interface.

One entry point (``repro``) with subcommands mirroring the library's
workflow:

* ``repro trace generate``  — synthesise a workload trace to an .npz file;
* ``repro trace analyze``   — Table I / Observation statistics of a trace;
* ``repro plan``            — plan one single-chunk repair from a JSON
  bandwidth snapshot and print the tree;
* ``repro repair``          — simulate a single-chunk repair on a trace
  with every scheme and compare timings;
* ``repro fullnode``        — simulate a full-node repair on a trace
  (``--journal PATH`` makes the PivotRepair run checkpoint/resumable);
* ``repro resume``          — finish an interrupted journaled full-node
  repair: replay the journal, skip completed stripes, repair the rest;
* ``repro load``            — full-node repair under foreground client
  load (trace-shaped arrivals, degraded reads, repair QoS governor);
* ``repro experiment``      — regenerate a paper table or figure
  (``table1``, ``fig5``, ``fig6a``, ``fig6b``, ``fig7``);
* ``repro explain``         — run (or re-read) a full-node repair and
  diagnose where its time went: bottleneck link, achieved vs. oracle
  ``B_min``, governor throttling, fault stalls;
* ``repro report``          — the same diagnosis as a self-contained
  single-file HTML dashboard (``--html out.html``);
* ``repro critpath``        — reconstruct the causal span DAG of a run
  and print each repair's exact critical path (ASCII waterfall +
  per-category / per-tenant seconds, tiling-checked against the
  measured makespan).

Every command supports ``--json`` for machine-readable output.
Observability switches work on every simulation command: ``--trace
out.jsonl`` (``--trace-format chrome`` for ``chrome://tracing`` /
Perfetto), ``--metrics`` to include the telemetry snapshot, ``--timeline``
for an ASCII timeline, and ``-v``/``-vv`` for stdlib logging.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import repro
from repro.baselines import PPTPlanner, RPPlanner
from repro.controlplane import StormConfig, run_storm
from repro.core import BandwidthSnapshot, PivotRepairPlanner, pin_planning
from repro.core.scheduler import SchedulerConfig
from repro.ec import RSCode, place_stripes
from repro.exceptions import ReproError
from repro.faults import FaultPlan, RetryPolicy
from repro.lifetime import (
    ExponentialDurations,
    FixedDurations,
    LifetimeConfig,
    run_lifetime,
)
from repro.loadgen import (
    ForegroundEngine,
    LoadProfile,
    generate_requests,
    make_governor,
    rate_profile_from_trace,
)
from repro.network.topology import StarNetwork
from repro.obs import (
    NULL_TRACER,
    Dashboard,
    FlightRecorder,
    LiveTop,
    MetricsRegistry,
    SLOMonitor,
    SLOSpec,
    TimeSeriesDB,
    Tracer,
    critical_paths,
    diagnose,
    events_from_jsonl,
    render_exposition,
    render_html_report,
    samples_from_jsonl,
    write_trace,
)
from repro.repair import (
    ExecutionConfig,
    repair_full_node,
    repair_full_node_adaptive,
    repair_single_chunk,
    repair_single_chunk_faulted,
)
from repro.resilience import RepairJournal
from repro.reporting import (
    format_mbps,
    format_seconds,
    format_table,
    render_timeline,
)
from repro.traces import (
    PROFILES,
    WorkloadTrace,
    congestion_episode_stats,
    generate_trace,
    heterogeneous_congestion_fraction,
    pivot_availability,
)
from repro.units import format_latency, kib, mbps, mib, to_mbps

SCHEME_FACTORIES = {
    "pivot": PivotRepairPlanner,
    "rp": RPPlanner,
    "ppt": lambda: PPTPlanner(tree_budget=20_000),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PivotRepair reproduction toolkit",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit JSON instead of tables"
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {repro.__version__}"
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="log to stderr (-v info, -vv debug)",
    )
    parser.add_argument(
        "--trace", type=Path, default=None, metavar="PATH",
        help="write the structured event trace of the run to PATH",
    )
    parser.add_argument(
        "--trace-format", choices=("jsonl", "chrome"), default="jsonl",
        help="trace file format: JSONL events or Chrome trace_event JSON",
    )
    parser.add_argument(
        "--metrics", action="store_true",
        help="include the telemetry snapshot (counters/gauges/histograms)",
    )
    parser.add_argument(
        "--timeline", action="store_true",
        help="print an ASCII timeline of the traced run",
    )
    parser.add_argument(
        "--engine", choices=("reference", "fast"), default=None,
        help="fluid-simulator allocation engine (default: fast); the two "
        "are bit-identical, 'reference' is the differential oracle",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    trace = commands.add_parser("trace", help="workload traces")
    trace_commands = trace.add_subparsers(dest="trace_command", required=True)

    generate = trace_commands.add_parser("generate")
    generate.add_argument(
        "--workload", choices=sorted(PROFILES), required=True
    )
    generate.add_argument("--nodes", type=int, default=16)
    generate.add_argument("--duration", type=int, default=6000)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--out", type=Path, required=True)

    analyze = trace_commands.add_parser("analyze")
    analyze.add_argument("trace_file", metavar="trace", type=Path)

    plan = commands.add_parser("plan", help="plan one single-chunk repair")
    plan.add_argument(
        "--bandwidths",
        type=Path,
        required=True,
        help='JSON: {"up": {"0": mbps, ...}, "down": {...}}',
    )
    plan.add_argument("--requestor", type=int, required=True)
    plan.add_argument("--k", type=int, required=True)
    plan.add_argument(
        "--scheme", choices=sorted(SCHEME_FACTORIES), default="pivot"
    )

    repair = commands.add_parser(
        "repair", help="simulate a single-chunk repair on a trace"
    )
    repair.add_argument("trace_file", metavar="trace", type=Path)
    repair.add_argument("--n", type=int, default=9)
    repair.add_argument("--k", type=int, default=6)
    repair.add_argument("--instant", type=float, default=None)
    repair.add_argument("--chunk-mib", type=float, default=64)
    repair.add_argument("--slice-kib", type=float, default=32)
    repair.add_argument("--seed", type=int, default=0)
    _add_fault_args(repair)

    fullnode = commands.add_parser(
        "fullnode", help="simulate a full-node repair on a trace"
    )
    fullnode.add_argument("trace_file", metavar="trace", type=Path)
    fullnode.add_argument("--n", type=int, default=6)
    fullnode.add_argument("--k", type=int, default=4)
    fullnode.add_argument("--stripes", type=int, default=16)
    fullnode.add_argument("--chunk-mib", type=float, default=64)
    fullnode.add_argument("--concurrency", type=int, default=4)
    fullnode.add_argument("--seed", type=int, default=0)
    fullnode.add_argument(
        "--adaptive", action="store_true",
        help="also run PivotRepair with the adaptive strategy",
    )
    fullnode.add_argument(
        "--journal", type=Path, default=None, metavar="PATH",
        help="append-only repair journal for the PivotRepair run; an "
        "interrupted run can be finished with 'repro resume PATH'",
    )
    _add_fault_args(fullnode)

    resume = commands.add_parser(
        "resume",
        help="finish an interrupted journaled full-node repair",
        description="Rebuild the scenario recorded in the journal's "
        "run_config record (trace, code, placement seed), skip every "
        "stripe the journal marks done, and repair the remainder — "
        "resumed stripes restart from their last verified slice.",
    )
    resume.add_argument("journal_file", metavar="journal", type=Path)
    _add_fault_args(resume)

    load = commands.add_parser(
        "load", help="full-node repair under foreground client load"
    )
    load.add_argument("trace_file", metavar="trace", type=Path)
    load.add_argument("--n", type=int, default=6)
    load.add_argument("--k", type=int, default=4)
    load.add_argument("--stripes", type=int, default=16)
    load.add_argument("--chunk-mib", type=float, default=64)
    load.add_argument("--concurrency", type=int, default=4)
    load.add_argument("--seed", type=int, default=0)
    load.add_argument(
        "--scheme", choices=sorted(SCHEME_FACTORIES), default="pivot"
    )
    load.add_argument(
        "--governor", choices=("none", "static", "adaptive"),
        default="adaptive", help="repair QoS policy",
    )
    load.add_argument(
        "--arrival-rate", type=float, default=50.0,
        help="mean client requests per second (trace-shape modulated)",
    )
    load.add_argument(
        "--load-duration", type=float, default=None, metavar="SECONDS",
        help="request stream length (default: the trace length)",
    )
    load.add_argument("--request-mib", type=float, default=1.0)
    load.add_argument("--read-fraction", type=float, default=0.9)
    load.add_argument(
        "--zipf", type=float, default=0.9,
        help="Zipf exponent of object popularity",
    )
    load.add_argument(
        "--slo-ms", type=float, default=500.0,
        help="adaptive governor: foreground p99 objective",
    )
    load.add_argument(
        "--static-cap-mbps", type=float, default=250.0,
        help="static governor: per-repair-flow ceiling",
    )
    load.add_argument(
        "--no-baseline", action="store_true",
        help="skip the repair-only baseline run (no slowdown column)",
    )
    _add_fault_args(load)

    experiment = commands.add_parser(
        "experiment", help="regenerate a paper table or figure"
    )
    experiment.add_argument(
        "name", choices=["table1", "fig5", "fig6a", "fig6b", "fig7"]
    )
    experiment.add_argument(
        "--duration", type=int, default=6000,
        help="trace length in seconds (smaller = faster, noisier)",
    )
    experiment.add_argument("--seed", type=int, default=0)
    experiment.add_argument(
        "--chunks", type=int, default=16,
        help="fig7: chunks erased from the failed node",
    )

    explain = commands.add_parser(
        "explain",
        help="diagnose where a full-node repair's time went",
        description="Scenario mode (.npz workload trace): run a seeded "
        "full-node repair with the flight recorder on and attribute its "
        "time. Saved-run mode (.jsonl event trace): diagnose an existing "
        "trace, optionally with its --samples stream (no oracle B_min "
        "without the network).",
    )
    _add_explain_args(explain)
    explain.add_argument(
        "--diagnosis-out", type=Path, default=None, metavar="PATH",
        help="also write the structured diagnosis JSON to PATH",
    )

    critpath = commands.add_parser(
        "critpath",
        help="exact critical-path attribution of each repair",
        description="Reconstruct the causal span DAG (parent_id/links) "
        "of a run and compute the exact critical path of every repair: "
        "the chain of intervals whose durations sum to its measured "
        "makespan (checked to 1e-9), attributed per category (transfer, "
        "contention, governor, stall, queue, planning, pipeline, hedge) "
        "and per foreground tenant.  Scenario mode (.npz workload "
        "trace) runs a seeded full-node repair; saved-run mode (.jsonl "
        "event trace) analyses an existing trace.  The result is "
        "cross-checked against the `repro explain` flow decomposition.",
    )
    _add_explain_args(critpath)
    critpath.add_argument(
        "--critpath-out", type=Path, default=None, metavar="PATH",
        help="also write the structured critical-path JSON to PATH",
    )

    report = commands.add_parser(
        "report",
        help="render the diagnosis as a single-file HTML dashboard",
    )
    _add_explain_args(report)
    report.add_argument(
        "--html", type=Path, required=True, metavar="PATH",
        help="output HTML file (self-contained, inline SVG, no assets)",
    )

    top = commands.add_parser(
        "top",
        help="live telemetry dashboard of a full-node repair run",
        description="Run a seeded full-node repair with the telemetry "
        "plane on (flight recorder feeding the simulated-time TSDB, "
        "per-tenant SLO burn monitoring) and show a refreshing "
        "terminal dashboard: per-node link utilization, per-class "
        "throughput, tenant latency and SLO burn, governor cap, "
        "firing alerts.  --once renders a single frame at the end of "
        "the run instead (CI snapshot mode).",
    )
    _add_explain_args(top)
    top.add_argument(
        "--once", action="store_true",
        help="no live view: run to completion, print one final frame",
    )
    top.add_argument(
        "--refresh", type=float, default=1.0, metavar="SECONDS",
        help="live frame period, simulated seconds",
    )
    top.add_argument(
        "--tenants", type=int, default=2,
        help="foreground tenants (tenant-0..N-1); needs --foreground-rate",
    )
    top.add_argument(
        "--slo-budget", type=float, default=0.05,
        help="latency SLO: allowed fraction of requests above --slo-ms",
    )
    top.add_argument(
        "--repair-deadline", type=float, default=0.0, metavar="SECONDS",
        help="also watch a repair-deadline SLO (0 = off)",
    )
    top.add_argument(
        "--prom-out", type=Path, default=None, metavar="PATH",
        help="write the final telemetry as Prometheus text exposition",
    )
    top.add_argument(
        "--tsdb-out", type=Path, default=None, metavar="PATH",
        help="write the final TSDB contents as JSONL",
    )

    storm = commands.add_parser(
        "storm",
        help="fleet repair storm under control-plane admission",
        description="Simulate a correlated failure storm: a whole rack "
        "loses power under Zipf foreground load, a gray wave degrades "
        "survivors, and one full-node repair job per crashed node runs "
        "over the fleet control plane — global Eq. 3 arbitration, "
        "QoS-aged admission tokens, SLO/saturation backpressure with "
        "journaled pause/resume, and graceful helper/slice "
        "degradation.  --no-admission-control runs the uncontrolled "
        "baseline (everything starts at once, nothing sheds) for "
        "comparison.  Bit-deterministic for a fixed seed.",
    )
    storm.add_argument("--seed", type=int, default=42)
    storm.add_argument("--racks", type=int, default=3)
    storm.add_argument("--nodes-per-rack", type=int, default=4)
    storm.add_argument("--stripes", type=int, default=20)
    storm.add_argument("--n", type=int, default=6)
    storm.add_argument("--k", type=int, default=4)
    storm.add_argument("--chunk-mib", type=float, default=24.0)
    storm.add_argument(
        "--node-mbs", type=float, default=25.0,
        help="base per-node link capacity, MB/s",
    )
    storm.add_argument(
        "--outage-at", type=float, default=0.05, metavar="SECONDS",
        help="rack power loss instant",
    )
    storm.add_argument(
        "--no-gray-wave", action="store_true",
        help="skip the post-outage gray degradation on surviving racks",
    )
    storm.add_argument("--foreground-rate", type=float, default=80.0)
    storm.add_argument("--foreground-duration", type=float, default=50.0)
    storm.add_argument("--tenants", type=int, default=2)
    storm.add_argument(
        "--slo-ms", type=float, default=60.0,
        help="foreground latency SLO threshold",
    )
    storm.add_argument(
        "--max-streams", type=int, default=4,
        help="admission: concurrent repair stream tokens",
    )
    storm.add_argument(
        "--max-jobs", type=int, default=3,
        help="admission: concurrently admitted repair jobs",
    )
    storm.add_argument(
        "--no-admission-control", action="store_true",
        help="uncontrolled baseline: admit everything, never shed",
    )
    storm.add_argument("--max-time", type=float, default=600.0)
    storm.add_argument(
        "--journal", type=Path, default=None, metavar="PATH",
        help="append-only fleet journal (pause/resume checkpoints)",
    )

    lifetime = commands.add_parser(
        "lifetime",
        help="Monte-Carlo cluster-lifetime durability study",
        description="Simulate months-to-years of cluster life under "
        "disk/machine/rack failures and compare repair schemes on "
        "durability: data-loss events, MTTDL, and nines.  Repair "
        "durations are calibrated against the congestion-aware fluid "
        "simulator by default, so faster repair shows up as fewer "
        "losses.  Bit-deterministic for a fixed seed.",
    )
    lifetime.add_argument("--years", type=float, default=10.0)
    lifetime.add_argument("--runs", type=int, default=100)
    lifetime.add_argument("--seed", type=int, default=42)
    lifetime.add_argument(
        "--schemes", default="pivot,conventional",
        help="comma-separated subset of pivot,rp,conventional",
    )
    lifetime.add_argument("--machines", type=int, default=16)
    lifetime.add_argument("--racks", type=int, default=4)
    lifetime.add_argument("--disks-per-machine", type=int, default=2)
    lifetime.add_argument("--stripes", type=int, default=64)
    lifetime.add_argument("--n", type=int, default=6)
    lifetime.add_argument("--k", type=int, default=4)
    lifetime.add_argument(
        "--disk-mttf-days", type=float, default=120.0,
        help="accelerated disk MTTF (permanent failures; 0 disables)",
    )
    lifetime.add_argument("--disk-replace-hours", type=float, default=0.0)
    lifetime.add_argument(
        "--machine-mttf-days", type=float, default=60.0,
        help="transient machine outage MTTF (0 disables)",
    )
    lifetime.add_argument("--machine-mttr-hours", type=float, default=1.0)
    lifetime.add_argument(
        "--rack-mttf-days", type=float, default=180.0,
        help="correlated rack outage MTTF (0 disables)",
    )
    lifetime.add_argument("--rack-mttr-hours", type=float, default=4.0)
    lifetime.add_argument("--repair-streams", type=int, default=2)
    lifetime.add_argument(
        "--policy", choices=("eager", "lazy"), default="eager",
        help="repair dispatch: eager repairs at once, lazy batches "
        "until --lazy-threshold chunks of a stripe are lost",
    )
    lifetime.add_argument("--lazy-threshold", type=int, default=2)
    lifetime.add_argument(
        "--data-per-chunk-gib", type=float, default=64.0,
        help="real data one simulated chunk stands for (scales repair "
        "durations)",
    )
    lifetime.add_argument(
        "--workload", choices=sorted(PROFILES), default="TPC-DS",
        help="trace profile the duration model is calibrated against",
    )
    lifetime.add_argument("--calibration-instants", type=int, default=8)
    lifetime.add_argument(
        "--durations", choices=("calibrated", "exponential", "fixed"),
        default="calibrated",
        help="repair-duration model; analytic models use "
        "--mean-repair-hours for every scheme",
    )
    lifetime.add_argument("--mean-repair-hours", type=float, default=1.0)
    lifetime.add_argument(
        "--out", type=Path, default=None, metavar="PATH",
        help="write per-run results as JSONL",
    )
    lifetime.add_argument(
        "--tsdb-out", type=Path, default=None, metavar="PATH",
        help="write loss-event time series as JSONL",
    )
    return parser


def _add_explain_args(subparser) -> None:
    """Shared scenario/saved-run options of ``explain`` and ``report``."""
    subparser.add_argument(
        "target", type=Path,
        help=".npz workload trace (run a scenario) or .jsonl event trace "
        "(diagnose a saved run)",
    )
    subparser.add_argument(
        "--samples", type=Path, default=None, metavar="PATH",
        help="flight-recorder JSONL matching a saved .jsonl event trace",
    )
    subparser.add_argument("--n", type=int, default=6)
    subparser.add_argument("--k", type=int, default=4)
    subparser.add_argument("--stripes", type=int, default=16)
    subparser.add_argument("--chunk-mib", type=float, default=64)
    subparser.add_argument("--concurrency", type=int, default=4)
    subparser.add_argument("--seed", type=int, default=0)
    subparser.add_argument(
        "--scheme", choices=sorted(SCHEME_FACTORIES), default="pivot"
    )
    subparser.add_argument(
        "--governor", choices=("none", "static", "adaptive"),
        default="none", help="repair QoS policy for the scenario run",
    )
    subparser.add_argument(
        "--static-cap-mbps", type=float, default=250.0,
        help="static governor: per-repair-flow ceiling",
    )
    subparser.add_argument(
        "--slo-ms", type=float, default=500.0,
        help="adaptive governor: foreground p99 objective",
    )
    subparser.add_argument(
        "--foreground-rate", type=float, default=0.0, metavar="RPS",
        help="mean client requests/second (0 = no foreground load; "
        "positive runs the repair under trace-modulated client traffic)",
    )
    subparser.add_argument(
        "--sample-interval", type=float, default=0.25, metavar="SECONDS",
        help="flight-recorder sampling period, simulated seconds",
    )
    subparser.add_argument(
        "--sample-capacity", type=int, default=65536,
        help="flight-recorder ring size (samples kept)",
    )
    subparser.add_argument(
        "--planning-seconds", type=float, default=0.0,
        help="fixed planning charge per stripe; pinned (instead of "
        "wall-clock measured) so output is bit-reproducible per seed",
    )
    _add_fault_args(subparser)


def _add_fault_args(subparser) -> None:
    subparser.add_argument(
        "--faults", metavar="SPEC|FILE", default=None,
        help="inject faults: a spec string like 'crash:3@5;stall:4@3+2' "
        "(times in seconds from the start of the repair) or a JSON "
        "fault-plan file (see docs/fault_injection.md)",
    )
    subparser.add_argument(
        "--retry-policy", metavar="SPEC", default=None,
        help="failure handling, e.g. 'timeout=0.5,retries=3,backoff=0.25x2'",
    )


def _parse_faults(args) -> tuple[FaultPlan | None, RetryPolicy | None]:
    faults = None
    if args.faults is not None:
        path = Path(args.faults)
        if path.exists():
            faults = FaultPlan.from_file(path)
        else:
            faults = FaultPlan.from_spec(args.faults)
    policy = None
    if args.retry_policy is not None:
        policy = RetryPolicy.from_spec(args.retry_policy)
    return faults, policy


def _foreground_engine(
    trace, stripes, failed, make_planner, faults, *, rate, duration,
    read_fraction, request_mib, zipf_s, seed, tenants=(), tsdb=None,
) -> ForegroundEngine:
    """Client load beside a full-node repair of ``failed``: arrivals at
    mean ``rate`` req/s shaped by the measured ``trace``."""
    profile = LoadProfile(
        name=trace.name,
        arrival_rate=rate,
        duration=duration,
        read_fraction=read_fraction,
        request_size=int(mib(request_mib)),
        zipf_s=zipf_s,
        modulation="trace",
        tenants=tenants,
    )
    requests = generate_requests(
        profile, stripes, trace.node_count, seed=seed,
        rate_profile=rate_profile_from_trace(trace),
    )
    return ForegroundEngine(
        stripes, requests, make_planner(), failed_nodes={failed},
        faults=faults, tsdb=tsdb,
        # A crashed client issues nothing; its requests would sit at
        # zero rate and wedge the final drain.
        drop_dead_clients=bool(faults),
    )


def _governor(args):
    """The ``--governor`` policy with its ``--static-cap-mbps`` /
    ``--slo-ms`` setting."""
    kwargs = {
        "none": {},
        "static": {"cap": mbps(args.static_cap_mbps)},
        "adaptive": {"slo_p99": args.slo_ms / 1000.0},
    }[args.governor]
    return make_governor(args.governor, **kwargs)


# ----------------------------------------------------------------------
# Command implementations
# ----------------------------------------------------------------------
def _cmd_trace_generate(args) -> dict:
    trace = generate_trace(
        PROFILES[args.workload],
        node_count=args.nodes,
        duration=args.duration,
        seed=args.seed,
    )
    trace.save(args.out)
    return {
        "workload": args.workload,
        "nodes": trace.node_count,
        "duration": trace.sample_count,
        "out": str(args.out),
    }


def _cmd_trace_analyze(args) -> dict:
    trace = WorkloadTrace.load(args.trace_file)
    stats = congestion_episode_stats(trace, 0.9)
    return {
        "name": trace.name,
        "nodes": trace.node_count,
        "duration_seconds": trace.sample_count,
        "congested_fraction": round(stats["congested_fraction"], 4),
        "congested_set_change_rate": round(
            stats["congested_set_change_rate"], 4
        ),
        "mean_pivots_under_congestion": round(pivot_availability(trace), 2),
        "cv_gt_0.5_given_congestion": {
            f"{threshold:.0%}": round(
                100
                * heterogeneous_congestion_fraction(trace, threshold),
                1,
            )
            for threshold in (0.90, 0.95, 1.00)
        },
    }


def _cmd_plan(args, tracer=NULL_TRACER) -> dict:
    payload = json.loads(args.bandwidths.read_text())
    try:
        up = {int(node): float(v) for node, v in payload["up"].items()}
        down = {int(node): float(v) for node, v in payload["down"].items()}
    except (KeyError, TypeError, ValueError) as error:
        raise ReproError(f"malformed bandwidth file: {error}") from error
    snapshot = BandwidthSnapshot(up=up, down=down)
    candidates = [n for n in sorted(up) if n != args.requestor]
    planner = SCHEME_FACTORIES[args.scheme]()
    with planner.traced(tracer):
        plan = planner.plan(snapshot, args.requestor, candidates, args.k)
    return {
        "scheme": plan.scheme,
        "requestor": plan.requestor,
        "helpers": plan.helpers,
        "edges": plan.tree.edges() if plan.tree else None,
        "tree": plan.tree.render() if plan.tree else None,
        "bmin_mbps": round(to_mbps(plan.bmin), 1),
        "planning_seconds": plan.effective_planning_seconds,
    }


def _cmd_repair(args, tracer=NULL_TRACER) -> dict:
    from repro.experiments.single_chunk import stripe_nodes_at

    trace = WorkloadTrace.load(args.trace_file)
    network = trace.to_network(floor=1e6)
    if args.instant is None:
        rates = trace.used_node_bandwidth() / trace.capacity
        instant = float(np.argmax((rates >= 0.9).sum(axis=0)))
    else:
        instant = args.instant
    requestor, survivors = stripe_nodes_at(
        trace, instant, args.n, args.seed
    )
    config = ExecutionConfig(
        chunk_size=mib(args.chunk_mib), slice_size=kib(args.slice_kib),
        engine=args.engine,
    )
    faults, policy = _parse_faults(args)
    results = {}
    for name, factory in SCHEME_FACTORIES.items():
        if faults is not None:
            # Spec times are relative to the start of the repair; the
            # simulator clock starts at the congestion instant.
            result = repair_single_chunk_faulted(
                factory(), network, requestor, survivors, args.k,
                faults.shifted(instant), policy=policy,
                start_time=instant, config=config, tracer=tracer,
            )
            if not result.ok:
                results[name] = {
                    "status": "failed",
                    "reason": result.reason,
                    "attempts": result.attempts,
                    "elapsed_seconds": round(result.elapsed_seconds, 3),
                    "bytes_transferred": result.bytes_transferred,
                }
                if args.metrics:
                    results[name]["telemetry"] = result.telemetry
                continue
        else:
            result = repair_single_chunk(
                factory(), network, requestor, survivors, args.k,
                start_time=instant, config=config, tracer=tracer,
            )
        results[name] = {
            "planning_seconds": result.planning_seconds,
            "transfer_seconds": round(result.transfer_seconds, 3),
            "total_seconds": round(result.total_seconds, 3),
            "bmin_mbps": round(to_mbps(result.bmin), 1),
            "bytes_transferred": result.bytes_transferred,
        }
        if faults is not None:
            results[name]["status"] = "ok"
            results[name]["attempts"] = result.attempts
            results[name]["replans"] = result.replans
        if args.metrics:
            results[name]["telemetry"] = result.telemetry
    return {
        "trace": trace.name,
        "instant": instant,
        "requestor": requestor,
        "n": args.n,
        "k": args.k,
        "schemes": results,
    }


def _cmd_fullnode(args, tracer=NULL_TRACER) -> dict:
    trace = WorkloadTrace.load(args.trace_file)
    network = trace.to_network(floor=1e6)
    code = RSCode(args.n, args.k)
    rng = np.random.default_rng(args.seed)
    stripes = place_stripes(
        args.stripes, code, trace.node_count, rng
    )
    failed = stripes[0].placement[0]
    config = ExecutionConfig(
        chunk_size=mib(args.chunk_mib), engine=args.engine
    )
    faults, policy = _parse_faults(args)
    journal = None
    if args.journal is not None:
        journal = RepairJournal(args.journal, tracer=tracer)
        journal.append(
            "run_config",
            trace=str(args.trace_file), n=args.n, k=args.k,
            stripes=args.stripes, chunk_mib=args.chunk_mib,
            concurrency=args.concurrency, seed=args.seed,
            failed_node=failed, scheme="pivot",
        )
    try:
        runs = {
            "rp": repair_full_node(
                RPPlanner(), network, stripes, failed,
                concurrency=args.concurrency, config=config, tracer=tracer,
                faults=faults, retry_policy=policy,
            ),
            "pivot": repair_full_node(
                PivotRepairPlanner(), network, stripes, failed,
                concurrency=args.concurrency, config=config, tracer=tracer,
                faults=faults, retry_policy=policy, journal=journal,
            ),
        }
    finally:
        if journal is not None:
            journal.close()
    if args.adaptive:
        runs["pivot+strategy"] = repair_full_node_adaptive(
            PivotRepairPlanner(), network, stripes, failed,
            scheduler=SchedulerConfig(threshold=10.0), config=config,
            tracer=tracer, faults=faults, retry_policy=policy,
        )
    schemes = {}
    for name, result in runs.items():
        schemes[name] = {
            "total_seconds": round(result.total_seconds, 2),
            "mean_task_seconds": round(result.mean_task_seconds, 2),
            "bytes_transferred": result.bytes_transferred,
        }
        if faults is not None:
            counters = (result.telemetry or {}).get("counters", {})
            schemes[name]["chunks_repaired"] = result.chunks_repaired
            schemes[name]["chunks_failed"] = result.chunks_failed
            schemes[name]["replans"] = int(counters.get("replans", 0))
        if args.metrics:
            schemes[name]["telemetry"] = result.telemetry
    payload = {
        "trace": trace.name,
        "failed_node": failed,
        "chunks": runs["rp"].chunks_repaired,
        "schemes": schemes,
    }
    if args.journal is not None:
        payload["journal"] = str(args.journal)
    return payload


def _cmd_resume(args, tracer=NULL_TRACER) -> dict:
    """Finish a journaled full-node repair after an interruption.

    The journal's ``run_config`` record pins everything needed to rebuild
    the scenario bit-identically (trace file, code, placement seed);
    ``task_done`` records say which stripes already finished.  The repair
    then runs over the remainder only, appending to the same journal, so
    resuming a resume also works.
    """
    journal = RepairJournal.load(args.journal_file, tracer=tracer)
    run = journal.run_config()
    if run is None:
        raise ReproError(
            f"{args.journal_file}: no run_config record — only journals "
            "written by 'repro fullnode --journal' can be resumed"
        )
    trace = WorkloadTrace.load(Path(run["trace"]))
    network = trace.to_network(floor=1e6)
    code = RSCode(int(run["n"]), int(run["k"]))
    rng = np.random.default_rng(int(run["seed"]))
    stripes = place_stripes(int(run["stripes"]), code, trace.node_count, rng)
    failed = int(run["failed_node"])
    done = journal.done_stripes()
    remaining = [
        stripe
        for stripe in stripes
        if stripe.chunk_on_node(failed) is not None
        and stripe.stripe_id not in done
    ]
    payload = {
        "journal": str(args.journal_file),
        "trace": trace.name,
        "failed_node": failed,
        "stripes_total": sum(
            1 for s in stripes if s.chunk_on_node(failed) is not None
        ),
        "stripes_done": len(done),
        "stripes_remaining": len(remaining),
    }
    if not remaining:
        payload["status"] = "nothing to resume"
        journal.close()
        return payload
    config = ExecutionConfig(
        chunk_size=mib(float(run["chunk_mib"])), engine=args.engine
    )
    faults, policy = _parse_faults(args)
    try:
        result = repair_full_node(
            PivotRepairPlanner(), network, remaining, failed,
            concurrency=int(run["concurrency"]), config=config,
            tracer=tracer, faults=faults, retry_policy=policy,
            journal=journal,
        )
    finally:
        journal.close()
    payload.update(
        {
            "status": "resumed",
            "chunks_repaired": result.chunks_repaired,
            "chunks_failed": result.chunks_failed,
            "total_seconds": round(result.total_seconds, 2),
            "bytes_transferred": result.bytes_transferred,
        }
    )
    if args.metrics:
        payload["telemetry"] = result.telemetry
    return payload


def _cmd_load(args, tracer=NULL_TRACER) -> dict:
    trace = WorkloadTrace.load(args.trace_file)
    # Foreground traffic is explicit here: the network runs at full
    # capacity and the measured trace shapes the *arrival rate* instead
    # of pre-subtracting link bandwidth.
    network = StarNetwork.uniform(trace.node_count, trace.capacity)
    code = RSCode(args.n, args.k)
    rng = np.random.default_rng(args.seed)
    stripes = place_stripes(args.stripes, code, trace.node_count, rng)
    failed = stripes[0].placement[0]
    config = ExecutionConfig(
        chunk_size=mib(args.chunk_mib), engine=args.engine
    )
    faults, policy = _parse_faults(args)
    make_planner = SCHEME_FACTORIES[args.scheme]
    baseline_seconds = None
    if not args.no_baseline:
        baseline_seconds = repair_full_node(
            make_planner(), network, stripes, failed,
            concurrency=args.concurrency, config=config,
            faults=faults, retry_policy=policy,
        ).total_seconds
    governor = _governor(args)
    engine = _foreground_engine(
        trace, stripes, failed, make_planner, faults,
        rate=args.arrival_rate,
        duration=(
            float(trace.sample_count)
            if args.load_duration is None
            else args.load_duration
        ),
        read_fraction=args.read_fraction, request_mib=args.request_mib,
        zipf_s=args.zipf, seed=args.seed,
    )
    result = repair_full_node(
        make_planner(), network, stripes, failed,
        concurrency=args.concurrency, config=config, tracer=tracer,
        faults=faults, retry_policy=policy,
        foreground=engine, governor=governor,
    )
    engine.drain()
    summary = engine.summary()
    hist = engine.read_latency()

    def pct(q: float) -> float | None:
        value = hist.percentile(q)
        return None if value != value else value

    payload = {
        "trace": trace.name,
        "scheme": args.scheme,
        "governor": governor.name,
        "failed_node": failed,
        "stripes": len(stripes),
        "seed": args.seed,
        "repair_seconds": round(result.total_seconds, 3),
        "repair_baseline_seconds": (
            None if baseline_seconds is None else round(baseline_seconds, 3)
        ),
        "repair_slowdown": (
            None
            if baseline_seconds is None or baseline_seconds <= 0
            else round(result.total_seconds / baseline_seconds, 3)
        ),
        "requests": summary["requests"],
        "reads": summary["reads"],
        "writes": summary["writes"],
        "degraded_reads": summary["degraded_reads"],
        "read_failures": summary["read_failures"],
        "goodput_mbps": round(
            to_mbps(summary.get("goodput_bytes_per_second", 0.0)), 1
        ),
        "read_latency_seconds": {
            "p50": pct(50), "p95": pct(95), "p99": pct(99),
            "p99.9": pct(99.9),
        },
        "bytes_by_kind": (result.telemetry or {}).get("per_bytes_kind", {}),
    }
    if args.metrics:
        payload["telemetry"] = result.telemetry
        payload["foreground"] = summary
    return payload


def _cmd_experiment(args, tracer=NULL_TRACER) -> dict:
    from repro.experiments import run_figure5
    from repro.experiments.fullnode_experiment import run_figure7
    from repro.experiments.sweeps import (
        run_chunk_size_sweep,
        run_slice_size_sweep,
    )
    from repro.traces import generate_all, table1

    if args.name in ("fig6a", "fig6b"):
        sweep = (
            run_slice_size_sweep() if args.name == "fig6a"
            else run_chunk_size_sweep()
        )
        unit = "KiB" if args.name == "fig6a" else "MiB"
        return {
            "experiment": args.name,
            "unit": unit,
            "rows": {
                str(size): {k: round(v, 3) for k, v in row.items()}
                for size, row in sweep.items()
            },
        }
    traces = generate_all(duration=args.duration, seed=args.seed)
    if args.name == "table1":
        rows = table1(traces)
        return {
            "experiment": "table1",
            "rows": {
                row.workload: {
                    f"{t:.0%}": round(row.percent(t), 1)
                    for t in row.by_threshold
                }
                for row in rows
            },
        }
    networks = {
        name: trace.to_network(floor=1e6) for name, trace in traces.items()
    }
    if args.name == "fig5":
        results = run_figure5(traces, networks, tracer=tracer)
        return {
            "experiment": "fig5",
            "rows": {
                name: {
                    str(code): {
                        scheme: {
                            "planning_s": cell.planning_seconds,
                            "transfer_s": round(cell.transfer_seconds, 3),
                            "overall_s": round(cell.overall_seconds, 3),
                        }
                        for scheme, cell in by_scheme.items()
                    }
                    for code, by_scheme in by_code.items()
                }
                for name, by_code in results.items()
            },
        }
    results = run_figure7(
        traces["TPC-DS"], networks["TPC-DS"], chunks=args.chunks,
        tracer=tracer,
    )
    return {
        "experiment": "fig7",
        "chunks": args.chunks,
        "rows": {
            str(code): {
                scheme: round(result.total_seconds, 1)
                for scheme, result in row.items()
            }
            for code, row in results.items()
        },
    }


# ----------------------------------------------------------------------
# Diagnosis (explain / report)
# ----------------------------------------------------------------------
@dataclass
class _ObservedScenario:
    """The seeded full-node scenario ``explain``/``report``/``critpath``
    and ``top`` all observe: one failed node of a placed stripe set on a
    workload trace, optionally under foreground load and a QoS governor,
    with a flight recorder attached."""

    trace: WorkloadTrace
    network: StarNetwork
    failed: int
    sampler: FlightRecorder
    foreground: ForegroundEngine | None
    governor: object | None
    run: Callable  # (tracer) -> FullNodeResult, foreground drained


def _observed_scenario(args, tsdb=None, tenants=()) -> _ObservedScenario:
    """Build the scenario from the shared ``explain``-family options.

    ``tsdb`` streams the sampler and the foreground engine into the live
    telemetry plane; ``tenants`` labels foreground requests (``top``).
    """
    trace = WorkloadTrace.load(args.target)
    code = RSCode(args.n, args.k)
    rng = np.random.default_rng(args.seed)
    stripes = place_stripes(args.stripes, code, trace.node_count, rng)
    failed = stripes[0].placement[0]
    config = ExecutionConfig(
        chunk_size=mib(args.chunk_mib), engine=args.engine
    )
    faults, policy = _parse_faults(args)
    sampler = FlightRecorder(
        interval=args.sample_interval, capacity=args.sample_capacity,
        tsdb=tsdb,
    )

    def planner():
        return pin_planning(
            SCHEME_FACTORIES[args.scheme](), args.planning_seconds
        )

    foreground = None
    if args.foreground_rate > 0:
        # Mirrors `repro load`: full-capacity links, the measured trace
        # shapes the client arrival rate.
        network = StarNetwork.uniform(trace.node_count, trace.capacity)
        foreground = _foreground_engine(
            trace, stripes, failed, planner, faults,
            rate=args.foreground_rate, duration=float(trace.sample_count),
            read_fraction=0.9, request_mib=1.0, zipf_s=0.9, seed=args.seed,
            tenants=tenants, tsdb=tsdb,
        )
    else:
        network = trace.to_network(floor=1e6)
    governor = None if args.governor == "none" else _governor(args)

    def run(tracer):
        result = repair_full_node(
            planner(), network, stripes, failed,
            concurrency=args.concurrency, config=config, tracer=tracer,
            faults=faults, retry_policy=policy,
            foreground=foreground, governor=governor, sampler=sampler,
        )
        if foreground is not None:
            foreground.drain()
        return result

    return _ObservedScenario(
        trace=trace, network=network, failed=failed,
        sampler=sampler, foreground=foreground, governor=governor, run=run,
    )


def _run_observed(args, tracer) -> tuple:
    """Run the observed scenario: (scenario, FullNodeResult, meta)."""
    scenario = _observed_scenario(args)
    result = scenario.run(tracer)
    meta = {
        "mode": "scenario",
        "trace": scenario.trace.name,
        "failed_node": scenario.failed,
        "seed": args.seed,
        "scheme": args.scheme,
        "governor": args.governor,
        "foreground_rate": args.foreground_rate,
        "repair_seconds": round(result.total_seconds, 3),
        "samples": len(scenario.sampler.samples),
    }
    return scenario, result, meta


def _explain_run(args, tracer) -> tuple:
    """(diagnosis, samples, meta) for ``explain``/``report``, either mode."""
    if args.target.suffix == ".jsonl":
        events = events_from_jsonl(args.target.read_text())
        samples = (
            samples_from_jsonl(args.samples.read_text())
            if args.samples is not None
            else []
        )
        diagnosis = diagnose(events, samples=samples)
        meta = {
            "mode": "saved",
            "events": len(events),
            "samples": len(samples),
        }
        return diagnosis, samples, meta
    scenario, result, meta = _run_observed(args, tracer)
    diagnosis = diagnose(
        tracer.events, network=scenario.network,
        telemetry=result.telemetry, sampler=scenario.sampler,
    )
    return diagnosis, list(scenario.sampler.samples), meta


def _cmd_explain(args, tracer=NULL_TRACER) -> dict:
    diagnosis, samples, meta = _explain_run(args, tracer)
    # Stash for --trace chrome export (utilization counter tracks).
    args.recorded_samples = samples
    if args.diagnosis_out is not None:
        args.diagnosis_out.write_text(diagnosis.to_json() + "\n")
    header = (
        f"scenario: {meta['trace']} seed {meta['seed']}, scheme "
        f"{meta['scheme']}, governor {meta['governor']}, failed node "
        f"{meta['failed_node']}"
        if meta["mode"] == "scenario"
        else f"saved run: {meta['events']} events, "
        f"{meta['samples']} samples"
    )
    return {
        "scenario": meta,
        "diagnosis": diagnosis.to_dict(),
        "rendered": header + "\n" + diagnosis.render(),
    }


def _cmd_critpath(args, tracer=NULL_TRACER) -> dict:
    """Exact critical-path attribution (``repro critpath``)."""
    if args.target.suffix == ".jsonl":
        events = events_from_jsonl(args.target.read_text())
        meta = {"mode": "saved", "events": len(events)}
        header = f"saved run: {meta['events']} events"
    else:
        scenario, _, meta = _run_observed(args, tracer)
        args.recorded_samples = list(scenario.sampler.samples)
        events = list(tracer.events)
        header = (
            f"scenario: {meta['trace']} seed {meta['seed']}, scheme "
            f"{meta['scheme']}, governor {meta['governor']}, failed "
            f"node {meta['failed_node']}"
        )
    report = critical_paths(events)
    if tracer.enabled:
        # Stamp the analysis into the trace itself, so an exported
        # artifact records that (and how) it was critical-path checked.
        tracer.instant(
            "critpath.report",
            t=max((event.t for event in events), default=0.0),
            track="critpath",
            repairs=len(report.repairs),
            max_residual=report.max_residual,
        )
    if args.critpath_out is not None:
        args.critpath_out.write_text(report.to_json() + "\n")
    return {
        "scenario": meta,
        "critpath": report.to_dict(),
        "rendered": header + "\n" + report.render(),
    }


def _cmd_report(args, tracer=NULL_TRACER) -> dict:
    diagnosis, samples, meta = _explain_run(args, tracer)
    args.recorded_samples = samples
    title = f"repro run report: {meta.get('trace', args.target.name)}"
    args.html.write_text(
        render_html_report(diagnosis, samples=samples, title=title)
    )
    top = diagnosis.top_bottleneck
    summary = (
        f"report: {args.html} ({len(diagnosis.repairs)} repairs, "
        f"{len(samples)} samples"
    )
    if top is not None:
        summary += f"; bottleneck {top.describe()}"
    if diagnosis.anomalies:
        summary += f"; {len(diagnosis.anomalies)} ANOMALIES"
    summary += ")"
    return {
        "scenario": meta,
        "html": str(args.html),
        "repairs": len(diagnosis.repairs),
        "anomalies": diagnosis.anomalies,
        "bottleneck": None if top is None else top.describe(),
        "rendered": summary,
    }


def _cmd_top(args, tracer=NULL_TRACER) -> dict:
    """Full-node repair with the live telemetry plane and dashboard."""
    if args.target.suffix == ".jsonl":
        raise ReproError(
            "repro top runs a scenario: pass an .npz workload trace "
            "(see `repro trace generate`)"
        )
    tsdb = TimeSeriesDB(capacity=args.sample_capacity)
    tenants = tuple(f"tenant-{i}" for i in range(max(args.tenants, 1)))
    scenario = _observed_scenario(args, tsdb=tsdb, tenants=tenants)
    trace, failed = scenario.trace, scenario.failed
    sampler, foreground = scenario.sampler, scenario.foreground
    governor = scenario.governor
    specs = []
    if foreground is not None:
        specs.extend(
            SLOSpec(
                name=f"latency-{tenant}", kind="latency", tenant=tenant,
                threshold=args.slo_ms / 1000.0, budget=args.slo_budget,
            )
            for tenant in tenants
        )
    if args.repair_deadline > 0:
        specs.append(
            SLOSpec(
                name="repair-deadline", kind="repair_deadline",
                deadline=args.repair_deadline,
            )
        )
    monitor = SLOMonitor(tsdb, specs, tracer=tracer)
    sampler.add_listener(monitor.on_tick)
    if governor is not None and hasattr(governor, "on_slo_alert"):
        monitor.subscribe(governor.on_slo_alert)
    dashboard = Dashboard(tsdb, slo=monitor)
    live = None
    if not args.once:
        live = LiveTop(dashboard, sys.stdout, refresh=args.refresh)
        sampler.add_listener(live.on_tick)
    result = scenario.run(tracer)
    # ``drain`` advances simulated time past the repair's end, so the
    # closing evaluation happens at the last sampled instant — never
    # rewinding the monitor into an earlier (possibly empty) window.
    end = result.total_seconds
    if sampler.samples:
        end = max(end, sampler.samples[-1].t)
    monitor.evaluate(end)
    args.recorded_samples = list(sampler.samples)
    args.recorded_registry = (
        foreground.registry if foreground is not None else None
    )
    if args.prom_out is not None:
        args.prom_out.write_text(
            render_exposition(registry=args.recorded_registry, tsdb=tsdb)
        )
    if args.tsdb_out is not None:
        args.tsdb_out.write_text(tsdb.to_jsonl())
    final_frame = dashboard.render(end)
    if live is not None:
        rendered = (
            f"run complete: {end:.2f}s simulated, "
            f"{live.frames} frames, {len(monitor.alerts)} SLO "
            f"transitions ({len(monitor.firing())} firing)"
        )
    else:
        rendered = final_frame
    return {
        "scenario": {
            "trace": trace.name,
            "failed_node": failed,
            "seed": args.seed,
            "scheme": args.scheme,
            "governor": args.governor,
            "foreground_rate": args.foreground_rate,
            "tenants": list(tenants) if foreground is not None else [],
            "repair_seconds": round(result.total_seconds, 3),
            "samples": len(sampler.samples),
        },
        "tsdb": {
            "series": len(tsdb),
            "points": tsdb.total_points,
            "dropped": tsdb.dropped,
        },
        "slo": {
            "specs": [spec.to_dict() for spec in specs],
            "firing": monitor.firing(),
            "alerts": [
                {
                    "name": alert.name,
                    "tenant": alert.tenant,
                    "kind": alert.kind,
                    "t": round(alert.t, 4),
                    "burn_short": round(alert.burn_short, 4),
                    "burn_long": round(alert.burn_long, 4),
                }
                for alert in monitor.alerts
            ],
        },
        "rendered": rendered,
    }


def _cmd_lifetime(args, tracer=NULL_TRACER) -> dict:
    schemes = tuple(
        scheme.strip() for scheme in args.schemes.split(",") if scheme.strip()
    )
    config = LifetimeConfig(
        years=args.years, runs=args.runs, seed=args.seed, schemes=schemes,
        machines=args.machines, racks=args.racks,
        disks_per_machine=args.disks_per_machine, stripes=args.stripes,
        n=args.n, k=args.k,
        disk_mttf_days=args.disk_mttf_days,
        disk_replace_hours=args.disk_replace_hours,
        machine_mttf_days=args.machine_mttf_days,
        machine_mttr_hours=args.machine_mttr_hours,
        rack_mttf_days=args.rack_mttf_days,
        rack_mttr_hours=args.rack_mttr_hours,
        repair_streams=args.repair_streams, policy=args.policy,
        lazy_threshold=args.lazy_threshold,
        data_per_chunk_gib=args.data_per_chunk_gib,
        workload=args.workload,
        calibration_instants=args.calibration_instants,
    )
    durations = None  # calibrated lazily by run_lifetime
    if args.durations == "exponential":
        durations = ExponentialDurations(
            args.mean_repair_hours * 3600.0, schemes=schemes
        )
    elif args.durations == "fixed":
        durations = FixedDurations(
            args.mean_repair_hours * 3600.0, schemes=schemes
        )
    registry = MetricsRegistry() if args.metrics else None
    tsdb = TimeSeriesDB() if args.tsdb_out is not None else None
    report = run_lifetime(
        config, durations=durations, registry=registry, tsdb=tsdb,
        tracer=tracer,
    )
    if args.out is not None:
        report.write_jsonl(args.out)
    if args.tsdb_out is not None:
        args.tsdb_out.write_text(tsdb.to_jsonl())
    payload = report.summary()
    if {"pivot", "conventional"} <= set(schemes):
        pivot = report.schemes["pivot"]
        conventional = report.schemes["conventional"]
        payload["comparison"] = {
            "pivot_losses": pivot.total_losses,
            "conventional_losses": conventional.total_losses,
            "pivot_strictly_fewer": (
                pivot.total_losses < conventional.total_losses
            ),
            "pivot_nines_advantage": (
                pivot.durability_nines(config.years, config.stripes)
                >= conventional.durability_nines(config.years, config.stripes)
            ),
        }
    if args.metrics:
        payload["telemetry"] = registry.snapshot()
    return payload


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def _metrics_block(args, payload: dict) -> str:
    """Telemetry appendix for text output when ``--metrics`` is on."""
    if not args.metrics:
        return ""
    telemetry = {
        name: values.get("telemetry")
        for name, values in payload["schemes"].items()
        if values.get("telemetry") is not None
    }
    if not telemetry:
        return ""
    return "\ntelemetry:\n" + json.dumps(telemetry, indent=2)


def _cmd_storm(args, tracer) -> dict:
    config = StormConfig(
        seed=args.seed,
        racks=args.racks,
        nodes_per_rack=args.nodes_per_rack,
        outage_at=args.outage_at,
        gray_wave=not args.no_gray_wave,
        stripes=args.stripes,
        n=args.n,
        k=args.k,
        chunk_mib=args.chunk_mib,
        node_mbs=args.node_mbs,
        foreground_rate=args.foreground_rate,
        foreground_duration=args.foreground_duration,
        tenants=args.tenants,
        slo_seconds=args.slo_ms / 1000.0,
        engine=args.engine,
        admission_control=not args.no_admission_control,
        max_streams=args.max_streams,
        max_jobs=args.max_jobs,
        max_time=args.max_time,
    )
    journal = (
        RepairJournal(args.journal, tracer=tracer)
        if args.journal is not None
        else None
    )
    try:
        report = run_storm(config, tracer=tracer, journal=journal)
    finally:
        if journal is not None:
            journal.close()  # the tail records' fsync, also on an error
    payload = report.as_dict()
    payload["rendered"] = _render_storm(payload)
    return payload


def _render_storm(payload: dict) -> str:
    jobs = payload["jobs"]
    mode = (
        "admission control"
        if payload["admission_control"]
        else "UNCONTROLLED baseline"
    )
    decision_line = ", ".join(
        f"{action} {count}"
        for action, count in payload["decisions"].items()
    )
    lines = [
        f"repair storm (seed {payload['seed']}, {mode}): "
        f"{len(jobs)} node repairs, "
        f"{payload['chunks_repaired']} chunks repaired, "
        f"{payload['chunks_failed']} failed cleanly, "
        f"{payload['total_seconds']:.2f}s simulated",
        format_table(
            ["job", "qos", "repaired", "failed", "drained"],
            [
                (
                    job_id, entry["qos"], str(entry["repaired"]),
                    str(entry["failed"]),
                    "yes" if entry["completed"] else "NO",
                )
                for job_id, entry in jobs.items()
            ],
        ),
        "decisions: " + (decision_line or "none"),
        f"SLO: {len(payload['alerts'])} alert transitions, "
        f"{payload['breach_seconds']:.2f}s in breach",
    ]
    return "\n".join(lines)


def _render(args, payload: dict) -> str:
    if args.json:
        payload = {k: v for k, v in payload.items() if k != "rendered"}
        return json.dumps(payload, indent=2)
    if args.command in ("explain", "report", "top", "critpath", "storm"):
        return payload["rendered"]
    if args.command == "plan":
        lines = [
            f"scheme: {payload['scheme']}",
            f"B_min: {payload['bmin_mbps']} Mb/s",
            f"planning: {format_seconds(payload['planning_seconds'])}",
        ]
        if payload["tree"]:
            lines.append(payload["tree"])
        return "\n".join(lines)
    if args.command == "repair":
        rows = []
        for name, values in payload["schemes"].items():
            if values.get("status") == "failed":
                rows.append(
                    (name, "-", "-", "-", f"FAILED: {values['reason']}")
                )
                continue
            total = format_seconds(values["total_seconds"])
            if values.get("replans"):
                total += f" ({values['replans']} replans)"
            rows.append(
                (
                    name,
                    format_mbps(values["bmin_mbps"] * 125_000),
                    format_seconds(values["planning_seconds"]),
                    format_seconds(values["transfer_seconds"]),
                    total,
                )
            )
        header = (
            f"single-chunk repair on {payload['trace']} at "
            f"t={payload['instant']:.0f}s, (n,k)=({payload['n']},"
            f"{payload['k']}), requestor N{payload['requestor']}"
        )
        table = format_table(
            ["scheme", "B_min", "plan", "transfer", "total"], rows
        )
        return header + "\n" + table + _metrics_block(args, payload)
    if args.command == "fullnode":
        rows = []
        for name, v in payload["schemes"].items():
            row = (
                name, f"{v['total_seconds']} s", f"{v['mean_task_seconds']} s"
            )
            if "replans" in v:
                row += (
                    f"{v['replans']} replans, {v['chunks_failed']} failed",
                )
            rows.append(row)
        header = (
            f"full-node repair on {payload['trace']}: node "
            f"{payload['failed_node']}, {payload['chunks']} chunks"
        )
        columns = ["scheme", "total", "mean/task"]
        if rows and len(rows[0]) == 4:
            columns.append("faults")
        table = format_table(columns, rows)
        return header + "\n" + table + _metrics_block(args, payload)
    if args.command == "load":
        latency = payload["read_latency_seconds"]

        def lat(key: str) -> str:
            value = latency[key]
            return "n/a" if value is None else format_latency(value)

        slowdown = payload["repair_slowdown"]
        repair_line = f"repair: {format_latency(payload['repair_seconds'])}"
        if slowdown is not None:
            repair_line += (
                f" ({slowdown:.2f}x of the "
                f"{format_latency(payload['repair_baseline_seconds'])} "
                "repair-only baseline)"
            )
        kinds = payload["bytes_by_kind"]
        lines = [
            f"foreground load on {payload['trace']}: scheme "
            f"{payload['scheme']}, governor {payload['governor']}, "
            f"failed node {payload['failed_node']}",
            repair_line,
            f"requests: {payload['requests']} "
            f"({payload['reads']} reads / {payload['writes']} writes), "
            f"{payload['degraded_reads']} degraded reads, "
            f"{payload['read_failures']} failures",
            f"goodput: {payload['goodput_mbps']} Mb/s",
            "read latency: "
            + "  ".join(f"{k} {lat(k)}" for k in ("p50", "p95", "p99", "p99.9")),
        ]
        if kinds:
            lines.append(
                "bytes by class: "
                + "  ".join(f"{k} {v:.3g}" for k, v in sorted(kinds.items()))
            )
        if args.metrics and "telemetry" in payload:
            lines.append(
                "telemetry:\n" + json.dumps(payload["telemetry"], indent=2)
            )
        return "\n".join(lines)
    if args.command == "lifetime":
        config = payload["config"]
        rows = []
        for name, values in payload["schemes"].items():
            mttdl = values["mttdl_years"]
            nines = values["durability_nines"]
            low, high = values["loss_ci95"]
            rows.append(
                (
                    name,
                    str(values["total_data_loss_events"]),
                    f"{values['mean_losses_per_run']:.3f} "
                    f"[{low:.3f}, {high:.3f}]",
                    "inf" if mttdl is None else f"{mttdl:.1f}",
                    "inf" if nines is None else f"{nines:.2f}",
                    f"{values['mean_repair_hours']:.2f} h",
                    f"{values['unavailable_hours']:.0f} h",
                )
            )
        header = (
            f"cluster lifetime: {config['runs']} runs x "
            f"{config['years']:g} simulated years, "
            f"(n,k)=({config['n']},{config['k']}), "
            f"{config['stripes']} stripes over {config['machines']} "
            f"machines / {config['racks']} racks, seed {config['seed']}"
        )
        table = format_table(
            [
                "scheme", "losses", "losses/run [95% CI]", "MTTDL (y)",
                "nines", "mean repair", "unavailable",
            ],
            rows,
        )
        lines = [header, table, f"digest: {payload['digest']}"]
        comparison = payload.get("comparison")
        if comparison is not None:
            verdict = (
                "strictly fewer data-loss events than conventional"
                if comparison["pivot_strictly_fewer"]
                else "NOT fewer data-loss events than conventional"
            )
            lines.append(
                f"PivotRepair: {comparison['pivot_losses']} vs "
                f"{comparison['conventional_losses']} losses - {verdict}"
            )
        if args.metrics and "telemetry" in payload:
            lines.append(
                "telemetry:\n" + json.dumps(payload["telemetry"], indent=2)
            )
        return "\n".join(lines)
    if args.command == "experiment":
        return json.dumps(payload, indent=2)
    # trace generate/analyze: key-value listing.
    return "\n".join(f"{key}: {value}" for key, value in payload.items())


def _configure_logging(verbosity: int) -> None:
    if verbosity <= 0:
        return
    level = logging.INFO if verbosity == 1 else logging.DEBUG
    logger = logging.getLogger("repro")
    logger.setLevel(level)
    # Idempotent across repeated main() calls (e.g. from tests): reuse the
    # CLI's handler instead of stacking duplicates.
    for handler in logger.handlers:
        if getattr(handler, "_repro_cli", False):
            handler.setLevel(level)
            return
    handler = logging.StreamHandler(sys.stderr)
    handler._repro_cli = True
    handler.setFormatter(
        logging.Formatter("%(levelname)s %(name)s: %(message)s")
    )
    logger.addHandler(handler)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    _configure_logging(args.verbose)
    tracing = (
        args.trace is not None
        or args.timeline
        or args.metrics
        or args.command in ("explain", "report", "top", "critpath")
    )
    tracer = Tracer() if tracing else NULL_TRACER
    try:
        if args.command == "trace":
            if args.trace_command == "generate":
                payload = _cmd_trace_generate(args)
            else:
                payload = _cmd_trace_analyze(args)
        elif args.command == "plan":
            payload = _cmd_plan(args, tracer)
        elif args.command == "repair":
            payload = _cmd_repair(args, tracer)
        elif args.command == "load":
            payload = _cmd_load(args, tracer)
        elif args.command == "experiment":
            payload = _cmd_experiment(args, tracer)
        elif args.command == "explain":
            payload = _cmd_explain(args, tracer)
        elif args.command == "critpath":
            payload = _cmd_critpath(args, tracer)
        elif args.command == "report":
            payload = _cmd_report(args, tracer)
        elif args.command == "top":
            payload = _cmd_top(args, tracer)
        elif args.command == "storm":
            payload = _cmd_storm(args, tracer)
        elif args.command == "lifetime":
            payload = _cmd_lifetime(args, tracer)
        elif args.command == "resume":
            payload = _cmd_resume(args, tracer)
        else:
            payload = _cmd_fullnode(args, tracer)
    except (ReproError, FileNotFoundError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(_render(args, payload))
    if args.timeline and tracer.events:
        print(render_timeline(tracer.events))
    if args.trace is not None:
        try:
            write_trace(
                tracer.events,
                args.trace,
                fmt=args.trace_format,
                samples=getattr(args, "recorded_samples", ()),
                registry=getattr(args, "recorded_registry", None),
            )
        except OSError as error:
            print(f"error: cannot write trace: {error}", file=sys.stderr)
            return 1
        print(
            f"trace: {len(tracer.events)} events -> {args.trace} "
            f"({args.trace_format})",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; exit quietly like
        # other unix filters instead of dumping a traceback.
        sys.stderr.close()
        sys.exit(0)
