"""Command-line interface.

One entry point (``repro``); ``repro --help`` lists the subcommands and
``repro <command> --help`` each one's flags.  The parser is a table:
every subparser carries its handler (``(args, tracer) -> _Output``) and
its text renderer as defaults, so ``main()`` dispatches without knowing
a command's name.  The commands that repair a whole node all run the
one seeded scenario of :mod:`repro.scenario`.

Every command supports ``--json`` for machine-readable output.
Observability switches work on every simulation command: ``--trace
out.jsonl`` (``--trace-format chrome`` for ``chrome://tracing`` /
Perfetto), ``--metrics`` to include the telemetry snapshot, ``--timeline``
for an ASCII timeline, and ``-v``/``-vv`` for stdlib logging.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import logging
import sys
from collections.abc import Sequence
from pathlib import Path

import numpy as np

import repro
from repro.controlplane import StormConfig, run_storm
from repro.core import BandwidthSnapshot
from repro.exceptions import ReproError
from repro.lifetime import (
    ExponentialDurations,
    FixedDurations,
    LifetimeConfig,
    run_lifetime,
)
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
    write_trace,
)
from repro.repair import (
    ExecutionConfig,
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
from repro.scenario import (
    SCHEMES,
    FullNodeScenario,
    LiveScenario,
    parse_fault_specs,
    resume,
)
from repro.traces import (
    PROFILES,
    WorkloadTrace,
    congestion_episode_stats,
    generate_trace,
    heterogeneous_congestion_fraction,
    pivot_availability,
)
from repro.units import format_latency, kib, mib, to_mbps


@dataclasses.dataclass
class _Output:
    """What a handler hands back: the payload to print, and what the
    ``--trace`` writer adds to a Chrome export of the run."""

    payload: dict
    #: Flight-recorder samples (utilization counter tracks).
    samples: Sequence = ()
    #: The foreground engine's registry (``top``).
    registry: MetricsRegistry | None = None


#: The QoS governor's two settings, declared once for ``load`` and the
#: explain family (whose help lists them in a different order).
_SLO_MS = dict(
    type=float, default=500.0,
    help="adaptive governor: foreground p99 objective",
)
_STATIC_CAP_MBPS = dict(
    type=float, default=250.0,
    help="static governor: per-repair-flow ceiling",
)


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
    # Each subparser below sets ``handler`` and ``render``; ``observed``
    # marks the commands that analyse their own trace, so always get one.
    parser.set_defaults(observed=False)
    commands = parser.add_subparsers(dest="command", required=True)

    # Flag groups more than one command takes (``parents=``).
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("trace_file", metavar="trace", type=Path)
    _add_placement_args(seeded)
    observed = argparse.ArgumentParser(add_help=False)
    observed.set_defaults(observed=True, render=_render_rendered)
    _add_observed_args(observed)

    trace = commands.add_parser("trace", help="workload traces")
    trace_commands = trace.add_subparsers(dest="trace_command", required=True)

    generate = trace_commands.add_parser("generate")
    generate.set_defaults(handler=_cmd_trace_generate, render=_render_listing)
    generate.add_argument(
        "--workload", choices=sorted(PROFILES), required=True
    )
    generate.add_argument("--nodes", type=int, default=16)
    generate.add_argument("--duration", type=int, default=6000)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--out", type=Path, required=True)

    analyze = trace_commands.add_parser("analyze")
    analyze.set_defaults(handler=_cmd_trace_analyze, render=_render_listing)
    analyze.add_argument("trace_file", metavar="trace", type=Path)

    plan = commands.add_parser("plan", help="plan one single-chunk repair")
    plan.set_defaults(handler=_cmd_plan, render=_render_plan)
    plan.add_argument(
        "--bandwidths",
        type=Path,
        required=True,
        help='JSON: {"up": {"0": mbps, ...}, "down": {...}}',
    )
    plan.add_argument("--requestor", type=int, required=True)
    plan.add_argument("--k", type=int, required=True)
    _add_scheme_arg(plan)

    repair = commands.add_parser(
        "repair", help="simulate a single-chunk repair on a trace"
    )
    repair.set_defaults(handler=_cmd_repair, render=_render_repair)
    repair.add_argument("trace_file", metavar="trace", type=Path)
    repair.add_argument("--n", type=int, default=9)
    repair.add_argument("--k", type=int, default=6)
    repair.add_argument("--instant", type=float, default=None)
    repair.add_argument("--chunk-mib", type=float, default=64)
    repair.add_argument("--slice-kib", type=float, default=32)
    repair.add_argument("--seed", type=int, default=0)
    _add_fault_args(repair)

    fullnode = commands.add_parser(
        "fullnode", parents=[seeded],
        help="simulate a full-node repair on a trace",
    )
    fullnode.set_defaults(handler=_cmd_fullnode, render=_render_fullnode)
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

    resume_cmd = commands.add_parser(
        "resume",
        help="finish an interrupted journaled full-node repair",
        description="Rebuild the scenario recorded in the journal's "
        "run_config record (trace, code, placement seed), skip every "
        "stripe the journal marks done, and repair the remainder — "
        "resumed stripes restart from their last verified slice.",
    )
    resume_cmd.set_defaults(handler=_cmd_resume, render=_render_listing)
    resume_cmd.add_argument("journal_file", metavar="journal", type=Path)
    _add_fault_args(resume_cmd)

    load = commands.add_parser(
        "load", parents=[seeded],
        help="full-node repair under foreground client load",
    )
    load.set_defaults(handler=_cmd_load, render=_render_load)
    _add_scheme_arg(load)
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
    load.add_argument("--slo-ms", **_SLO_MS)
    load.add_argument("--static-cap-mbps", **_STATIC_CAP_MBPS)
    load.add_argument(
        "--no-baseline", action="store_true",
        help="skip the repair-only baseline run (no slowdown column)",
    )
    _add_fault_args(load)

    experiment = commands.add_parser(
        "experiment", help="regenerate a paper table or figure"
    )
    experiment.set_defaults(handler=_cmd_experiment, render=_render_json)
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
        "explain", parents=[observed],
        help="diagnose where a full-node repair's time went",
        description="Scenario mode (.npz workload trace): run a seeded "
        "full-node repair with the flight recorder on and attribute its "
        "time. Saved-run mode (.jsonl event trace): diagnose an existing "
        "trace (without the network or samples: no oracle B_min and no "
        "bottleneck link).",
    )
    explain.set_defaults(handler=_cmd_explain)
    explain.add_argument(
        "--diagnosis-out", type=Path, default=None, metavar="PATH",
        help="also write the structured diagnosis JSON to PATH",
    )

    critpath = commands.add_parser(
        "critpath", parents=[observed],
        help="exact critical-path attribution of each repair",
        description="Reconstruct the causal span DAG (parent_id/links) "
        "of a run and compute the exact critical path of every repair: "
        "the chain of intervals whose durations sum to its measured "
        "makespan (checked to 1e-9), attributed per category (transfer, "
        "contention, governor, stall, queue, planning, pipeline, hedge) "
        "and per foreground tenant.  Scenario mode (.npz workload "
        "trace) runs a seeded full-node repair; saved-run mode (.jsonl "
        "event trace) analyses an existing trace.",
    )
    critpath.set_defaults(handler=_cmd_critpath)
    critpath.add_argument(
        "--critpath-out", type=Path, default=None, metavar="PATH",
        help="also write the structured critical-path JSON to PATH",
    )

    report = commands.add_parser(
        "report", parents=[observed],
        help="render the diagnosis as a single-file HTML dashboard",
    )
    report.set_defaults(handler=_cmd_report)
    report.add_argument(
        "--html", type=Path, required=True, metavar="PATH",
        help="output HTML file (self-contained, inline SVG, no assets)",
    )

    top = commands.add_parser(
        "top", parents=[observed],
        help="live telemetry dashboard of a full-node repair run",
        description="Run a seeded full-node repair with the telemetry "
        "plane on (flight recorder feeding the simulated-time TSDB, "
        "per-tenant SLO burn monitoring) and show a refreshing "
        "terminal dashboard: per-node link utilization, per-class "
        "throughput, tenant latency and SLO burn, governor cap, "
        "firing alerts.  --once renders a single frame at the end of "
        "the run instead (CI snapshot mode).",
    )
    top.set_defaults(handler=_cmd_top)
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
    storm.set_defaults(handler=_cmd_storm, render=_render_rendered)
    _add_config_args(
        storm, StormConfig,
        "seed", "racks", "nodes_per_rack", "stripes", "n", "k", "chunk_mib",
        "node_mbs", "outage_at",
        node_mbs=dict(help="base per-node link capacity, MB/s"),
        outage_at=dict(metavar="SECONDS", help="rack power loss instant"),
    )
    storm.add_argument(
        "--no-gray-wave", action="store_true",
        help="skip the post-outage gray degradation on surviving racks",
    )
    _add_config_args(
        storm, StormConfig,
        "foreground_rate", "foreground_duration", "tenants",
    )
    storm.add_argument(
        "--slo-ms", type=float, default=StormConfig.slo_seconds * 1000.0,
        help="foreground latency SLO threshold",
    )
    _add_config_args(
        storm, StormConfig, "max_streams", "max_jobs",
        max_streams=dict(help="admission: concurrent repair stream tokens"),
        max_jobs=dict(help="admission: concurrently admitted repair jobs"),
    )
    storm.add_argument(
        "--no-admission-control", action="store_true",
        help="uncontrolled baseline: admit everything, never shed",
    )
    _add_config_args(storm, StormConfig, "max_time")
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
    lifetime.set_defaults(handler=_cmd_lifetime, render=_render_lifetime)
    _add_config_args(lifetime, LifetimeConfig, "years", "runs", "seed")
    lifetime.add_argument(
        "--schemes", default=",".join(LifetimeConfig.schemes),
        help="comma-separated subset of pivot,rp,conventional",
    )
    _add_config_args(
        lifetime, LifetimeConfig,
        "machines", "racks", "disks_per_machine", "stripes", "n", "k",
        "disk_mttf_days", "disk_replace_hours", "machine_mttf_days",
        "machine_mttr_hours", "rack_mttf_days", "rack_mttr_hours",
        "repair_streams", "policy", "lazy_threshold", "data_per_chunk_gib",
        "workload", "calibration_instants",
        disk_mttf_days=dict(
            help="accelerated disk MTTF (permanent failures; 0 disables)"
        ),
        machine_mttf_days=dict(
            help="transient machine outage MTTF (0 disables)"
        ),
        rack_mttf_days=dict(help="correlated rack outage MTTF (0 disables)"),
        policy=dict(
            choices=("eager", "lazy"),
            help="repair dispatch: eager repairs at once, lazy batches "
            "until --lazy-threshold chunks of a stripe are lost",
        ),
        data_per_chunk_gib=dict(
            help="real data one simulated chunk stands for (scales repair "
            "durations)"
        ),
        workload=dict(
            choices=sorted(PROFILES),
            help="trace profile the duration model is calibrated against",
        ),
    )
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


def _add_config_args(subparser, config, *names, **keywords) -> None:
    """One ``--flag`` per named field of the ``config`` dataclass, its
    type and default read from the field, so the flag cannot restate
    (and drift from) the library's default.  ``keywords`` maps a name to
    what else its ``add_argument`` takes (help, choices)."""
    declared = subparser.get_default("config_fields") or ()
    subparser.set_defaults(config_fields=declared + names)
    for name in names:
        default = getattr(config, name)
        subparser.add_argument(
            "--" + name.replace("_", "-"), default=default,
            type=None if isinstance(default, str) else type(default),
            **keywords.get(name, {}),
        )


def _config_from_args(config, args, **fields):
    """``config`` built from the flags :func:`_add_config_args` declared
    on the command's subparser; ``fields`` are the rest."""
    declared = {name: getattr(args, name) for name in args.config_fields}
    return config(**declared, **fields)


def _add_placement_args(subparser) -> None:
    """The code, placement and dispatch window of the seeded scenario."""
    subparser.add_argument("--n", type=int, default=6)
    subparser.add_argument("--k", type=int, default=4)
    subparser.add_argument("--stripes", type=int, default=16)
    subparser.add_argument("--chunk-mib", type=float, default=64)
    subparser.add_argument("--concurrency", type=int, default=4)
    subparser.add_argument("--seed", type=int, default=0)


def _add_scheme_arg(subparser) -> None:
    subparser.add_argument(
        "--scheme", choices=sorted(SCHEMES), default="pivot"
    )


def _add_observed_args(subparser) -> None:
    """Scenario / saved-run options shared by the commands that analyse
    a run's own trace: ``explain``, ``critpath``, ``report``, ``top``."""
    subparser.add_argument(
        "target", type=Path,
        help=".npz workload trace (run a scenario) or .jsonl event trace "
        "(diagnose a saved run)",
    )
    _add_placement_args(subparser)
    _add_scheme_arg(subparser)
    subparser.add_argument(
        "--governor", choices=("none", "static", "adaptive"),
        default="none", help="repair QoS policy for the scenario run",
    )
    subparser.add_argument("--static-cap-mbps", **_STATIC_CAP_MBPS)
    subparser.add_argument("--slo-ms", **_SLO_MS)
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


def _scenario(args, trace: Path, **fields) -> FullNodeScenario:
    """The seeded scenario the placement and fault flags describe, on
    ``trace``; ``fields`` are what else the command's flags set."""
    return FullNodeScenario(
        trace=str(trace), n=args.n, k=args.k, stripes=args.stripes,
        chunk_mib=args.chunk_mib, concurrency=args.concurrency,
        seed=args.seed, faults=args.faults,
        retry_policy=args.retry_policy, **fields,
    )


def _journal(path: Path | None, tracer):
    """``with`` target for ``--journal``: a new journal file, closed on
    the way out (the tail records' fsync, also on an error), or None
    without the flag."""
    if path is None:
        return contextlib.nullcontext()
    return RepairJournal(path, tracer=tracer)


# ----------------------------------------------------------------------
# Command implementations
# ----------------------------------------------------------------------
def _cmd_trace_generate(args, tracer) -> _Output:
    trace = generate_trace(
        PROFILES[args.workload],
        node_count=args.nodes,
        duration=args.duration,
        seed=args.seed,
    )
    trace.save(args.out)
    return _Output({
        "workload": args.workload,
        "nodes": trace.node_count,
        "duration": trace.sample_count,
        "out": str(args.out),
    })


def _cmd_trace_analyze(args, tracer) -> _Output:
    trace = WorkloadTrace.load(args.trace_file)
    stats = congestion_episode_stats(trace, 0.9)
    return _Output({
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
    })


def _cmd_plan(args, tracer) -> _Output:
    text = args.bandwidths.read_text()
    try:
        payload = json.loads(text)
        up = {int(node): float(v) for node, v in payload["up"].items()}
        down = {int(node): float(v) for node, v in payload["down"].items()}
    except (AttributeError, KeyError, TypeError, ValueError) as error:
        raise ReproError(f"malformed bandwidth file: {error}") from error
    snapshot = BandwidthSnapshot(up=up, down=down)
    candidates = [n for n in sorted(up) if n != args.requestor]
    planner = SCHEMES[args.scheme]()
    with planner.traced(tracer):
        plan = planner.plan(snapshot, args.requestor, candidates, args.k)
    return _Output({
        "scheme": plan.scheme,
        "requestor": plan.requestor,
        "helpers": plan.helpers,
        "edges": plan.tree.edges() if plan.tree else None,
        "tree": plan.tree.render() if plan.tree else None,
        "bmin_mbps": round(to_mbps(plan.bmin), 1),
        "planning_seconds": plan.planning_seconds,
    })


def _cmd_repair(args, tracer) -> _Output:
    from repro.ec import RSCode, Stripe
    from repro.experiments.single_chunk import stripe_members_at

    trace = WorkloadTrace.load(args.trace_file)
    network = trace.to_network(floor=1e6)
    if args.instant is None:
        rates = trace.used_node_bandwidth() / trace.capacity
        busiest = int(np.argmax((rates >= 0.9).sum(axis=0)))
        instant = busiest * trace.interval
    else:
        instant = args.instant
    members, failed, requestor = stripe_members_at(
        trace, instant, args.n, args.seed
    )
    survivors = [node for node in members if node != failed]
    config = ExecutionConfig(
        chunk_size=mib(args.chunk_mib), slice_size=kib(args.slice_kib)
    )
    faults, policy = parse_fault_specs(args.faults, args.retry_policy)
    results = {}
    for name, factory in SCHEMES.items():
        if faults is not None:
            # Spec times are relative to the start of the repair; the
            # simulator clock starts at the congestion instant.
            result = repair_single_chunk_faulted(
                factory(), network, requestor,
                Stripe(0, RSCode(args.n, args.k), members), failed,
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
    return _Output({
        "trace": trace.name,
        "instant": instant,
        "requestor": requestor,
        "n": args.n,
        "k": args.k,
        "schemes": results,
    })


def _cmd_fullnode(args, tracer) -> _Output:
    live = _scenario(args, args.trace_file).build()
    # The journal is opened first, so a path that already holds one is
    # refused before any repair runs; it records the pivot run only.
    with _journal(args.journal, tracer) as journal:
        results = {
            "rp": live.run("rp", tracer=tracer)[0],
            "pivot": live.run("pivot", tracer=tracer, journal=journal)[0],
        }
    if args.adaptive:
        results["pivot+strategy"], _ = live.run(
            "pivot", tracer=tracer, adaptive=True
        )
    schemes = {}
    for name, result in results.items():
        schemes[name] = {
            "total_seconds": round(result.total_seconds, 2),
            "mean_task_seconds": round(result.mean_task_seconds, 2),
            "bytes_transferred": result.bytes_transferred,
        }
        if live.faults is not None:
            counters = (result.telemetry or {}).get("counters", {})
            schemes[name]["chunks_repaired"] = result.chunks_repaired
            schemes[name]["chunks_failed"] = result.chunks_failed
            schemes[name]["replans"] = int(counters.get("replans", 0))
        if args.metrics:
            schemes[name]["telemetry"] = result.telemetry
    payload = {
        "trace": live.trace.name,
        "failed_node": live.failed_node,
        "chunks": results["rp"].chunks_repaired,
        "schemes": schemes,
    }
    if args.journal is not None:
        payload["journal"] = str(args.journal)
    return _Output(payload)


def _cmd_resume(args, tracer) -> _Output:
    """Finish a journaled full-node repair (:func:`repro.scenario.resume`)."""
    with RepairJournal.load(args.journal_file, tracer=tracer) as journal:
        live, done, result = resume(
            journal, tracer=tracer, faults=args.faults,
            retry_policy=args.retry_policy,
        )
    lost = {stripe.stripe_id for stripe in live.lost_stripes()}
    payload = {
        "journal": str(args.journal_file),
        "trace": live.trace.name,
        "failed_node": live.failed_node,
        "stripes_total": len(lost),
        "stripes_done": len(done),
        "stripes_remaining": len(lost - done),
    }
    if result is None:
        payload["status"] = "nothing to resume"
        return _Output(payload)
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
    return _Output(payload)


def _cmd_load(args, tracer) -> _Output:
    live = _scenario(
        args, args.trace_file, scheme=args.scheme,
        foreground_rate=args.arrival_rate,
        foreground_duration=args.load_duration,
        read_fraction=args.read_fraction, request_mib=args.request_mib,
        zipf=args.zipf, governor=args.governor,
        static_cap_mbps=args.static_cap_mbps, slo_ms=args.slo_ms,
    ).build()
    baseline_seconds = None
    if not args.no_baseline:
        baseline_seconds = live.run(foreground=False)[0].total_seconds
    result, foreground = live.run(tracer=tracer)
    summary = foreground.summary()
    hist = foreground.read_latency()

    def pct(q: float) -> float | None:
        value = hist.percentile(q)
        return None if value != value else value

    payload = {
        "trace": live.trace.name,
        "scheme": args.scheme,
        "governor": live.governor.name,
        "failed_node": live.failed_node,
        "stripes": len(live.stripes),
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
    return _Output(payload)


def _cmd_experiment(args, tracer) -> _Output:
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
        return _Output({
            "experiment": args.name,
            "unit": unit,
            "rows": {
                str(size): {k: round(v, 3) for k, v in row.items()}
                for size, row in sweep.items()
            },
        })
    traces = generate_all(duration=args.duration, seed=args.seed)
    if args.name == "table1":
        rows = table1(traces)
        return _Output({
            "experiment": "table1",
            "rows": {
                row.workload: {
                    f"{t:.0%}": round(row.percent(t), 1)
                    for t in row.by_threshold
                }
                for row in rows
            },
        })
    networks = {
        name: trace.to_network(floor=1e6) for name, trace in traces.items()
    }
    if args.name == "fig5":
        results = run_figure5(traces, networks, tracer=tracer)
        return _Output({
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
        })
    results = run_figure7(
        traces["TPC-DS"], networks["TPC-DS"], chunks=args.chunks,
        tracer=tracer,
    )
    return _Output({
        "experiment": "fig7",
        "chunks": args.chunks,
        "rows": {
            str(code): {
                scheme: round(result.total_seconds, 1)
                for scheme, result in row.items()
            }
            for code, row in results.items()
        },
    })


# ----------------------------------------------------------------------
# Diagnosis (explain / critpath / report / top)
# ----------------------------------------------------------------------
def _observed(
    args, tenants=(), tsdb=None
) -> tuple[LiveScenario, FlightRecorder]:
    """The scenario of the shared ``explain``-family flags, built, and
    the flight recorder that will observe it.

    ``tsdb`` streams the sampler and the foreground engine into the live
    telemetry plane; ``tenants`` labels foreground requests (``top``).
    """
    live = _scenario(
        args, args.target, scheme=args.scheme,
        # These flags spell "off" as 0 and "none".
        foreground_rate=(
            args.foreground_rate if args.foreground_rate > 0 else None
        ),
        governor=None if args.governor == "none" else args.governor,
        static_cap_mbps=args.static_cap_mbps, slo_ms=args.slo_ms,
        tenants=tenants,
    ).build()
    sampler = FlightRecorder(
        interval=args.sample_interval, capacity=args.sample_capacity,
        tsdb=tsdb,
    )
    return live, sampler


def _run_observed(args, tracer) -> tuple:
    """Run the observed scenario: (live, sampler, FullNodeResult, meta)."""
    live, sampler = _observed(args)
    result, _ = live.run(tracer=tracer, sampler=sampler)
    meta = {
        "mode": "scenario",
        "trace": live.trace.name,
        "failed_node": live.failed_node,
        "seed": args.seed,
        "scheme": args.scheme,
        "governor": args.governor,
        "foreground_rate": args.foreground_rate,
        "repair_seconds": round(result.total_seconds, 3),
        "samples": len(sampler.samples),
    }
    return live, sampler, result, meta


def _scenario_header(meta: dict) -> str:
    return (
        f"scenario: {meta['trace']} seed {meta['seed']}, scheme "
        f"{meta['scheme']}, governor {meta['governor']}, failed node "
        f"{meta['failed_node']}"
    )


def _explain_run(args, tracer) -> tuple:
    """(diagnosis, samples, meta) for ``explain``/``report``, either mode."""
    if args.target.suffix == ".jsonl":
        events = events_from_jsonl(args.target.read_text())
        return diagnose(events), [], {"mode": "saved", "events": len(events)}
    live, sampler, result, meta = _run_observed(args, tracer)
    diagnosis = diagnose(
        tracer.events, network=live.network,
        telemetry=result.telemetry, sampler=sampler,
    )
    return diagnosis, list(sampler.samples), meta


def _cmd_explain(args, tracer) -> _Output:
    diagnosis, samples, meta = _explain_run(args, tracer)
    if args.diagnosis_out is not None:
        args.diagnosis_out.write_text(diagnosis.to_json() + "\n")
    header = (
        _scenario_header(meta)
        if meta["mode"] == "scenario"
        else f"saved run: {meta['events']} events"
    )
    payload = {
        "scenario": meta,
        "diagnosis": diagnosis.to_dict(),
        "rendered": header + "\n" + diagnosis.render(),
    }
    return _Output(payload, samples)


def _cmd_critpath(args, tracer) -> _Output:
    """Exact critical-path attribution (``repro critpath``)."""
    samples = []
    if args.target.suffix == ".jsonl":
        events = events_from_jsonl(args.target.read_text())
        meta = {"mode": "saved", "events": len(events)}
        header = f"saved run: {meta['events']} events"
    else:
        _, sampler, _, meta = _run_observed(args, tracer)
        samples = list(sampler.samples)
        events = list(tracer.events)
        header = _scenario_header(meta)
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
    payload = {
        "scenario": meta,
        "critpath": report.to_dict(),
        "rendered": header + "\n" + report.render(),
    }
    return _Output(payload, samples)


def _cmd_report(args, tracer) -> _Output:
    diagnosis, samples, meta = _explain_run(args, tracer)
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
    payload = {
        "scenario": meta,
        "html": str(args.html),
        "repairs": len(diagnosis.repairs),
        "anomalies": diagnosis.anomalies,
        "bottleneck": None if top is None else top.describe(),
        "rendered": summary,
    }
    return _Output(payload, samples)


def _cmd_top(args, tracer) -> _Output:
    """Full-node repair with the live telemetry plane and dashboard."""
    if args.target.suffix == ".jsonl":
        raise ReproError(
            "repro top runs a scenario: pass an .npz workload trace "
            "(see `repro trace generate`)"
        )
    tsdb = TimeSeriesDB(capacity=args.sample_capacity)
    tenants = tuple(f"tenant-{i}" for i in range(max(args.tenants, 1)))
    live, sampler = _observed(args, tenants=tenants, tsdb=tsdb)
    governor = live.governor
    specs = []
    if live.spec.foreground_rate is not None:
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
    view = None
    if not args.once:
        view = LiveTop(dashboard, sys.stdout, refresh=args.refresh)
        sampler.add_listener(view.on_tick)
    result, foreground = live.run(tracer=tracer, sampler=sampler)
    # ``drain`` advances simulated time past the repair's end, so the
    # closing evaluation happens at the last sampled instant — never
    # rewinding the monitor into an earlier (possibly empty) window.
    end = result.total_seconds
    if sampler.samples:
        end = max(end, sampler.samples[-1].t)
    monitor.evaluate(end)
    registry = foreground.registry if foreground is not None else None
    if args.prom_out is not None:
        args.prom_out.write_text(
            render_exposition(registry=registry, tsdb=tsdb)
        )
    if args.tsdb_out is not None:
        args.tsdb_out.write_text(tsdb.to_jsonl())
    final_frame = dashboard.render(end)
    if view is not None:
        rendered = (
            f"run complete: {end:.2f}s simulated, "
            f"{view.frames} frames, {len(monitor.alerts)} SLO "
            f"transitions ({len(monitor.firing())} firing)"
        )
    else:
        rendered = final_frame
    payload = {
        "scenario": {
            "trace": live.trace.name,
            "failed_node": live.failed_node,
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
    return _Output(payload, list(sampler.samples), registry)


def _cmd_lifetime(args, tracer) -> _Output:
    schemes = tuple(
        scheme.strip() for scheme in args.schemes.split(",") if scheme.strip()
    )
    config = _config_from_args(LifetimeConfig, args, schemes=schemes)
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
    return _Output(payload)


def _cmd_storm(args, tracer) -> _Output:
    config = _config_from_args(
        StormConfig, args, gray_wave=not args.no_gray_wave,
        slo_seconds=args.slo_ms / 1000.0,
        admission_control=not args.no_admission_control,
    )
    with _journal(args.journal, tracer) as journal:
        report = run_storm(config, tracer=tracer, journal=journal)
    payload = report.as_dict()
    payload["rendered"] = _render_storm(payload)
    return _Output(payload)


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


def _render_rendered(args, payload: dict) -> str:
    """The handler rendered its own report."""
    return payload["rendered"]


def _render_json(args, payload: dict) -> str:
    return json.dumps(payload, indent=2)


def _render_listing(args, payload: dict) -> str:
    return "\n".join(f"{key}: {value}" for key, value in payload.items())


def _render_plan(args, payload: dict) -> str:
    lines = [
        f"scheme: {payload['scheme']}",
        f"B_min: {payload['bmin_mbps']} Mb/s",
        f"planning: {format_seconds(payload['planning_seconds'])}",
    ]
    if payload["tree"]:
        lines.append(payload["tree"])
    return "\n".join(lines)


def _render_repair(args, payload: dict) -> str:
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


def _render_fullnode(args, payload: dict) -> str:
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


def _render_load(args, payload: dict) -> str:
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


def _render_lifetime(args, payload: dict) -> str:
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
        args.trace is not None or args.timeline or args.metrics
        or args.observed
    )
    tracer = Tracer() if tracing else NULL_TRACER
    try:
        output = args.handler(args, tracer)
    except (ReproError, FileNotFoundError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if args.json:
        payload = {
            k: v for k, v in output.payload.items() if k != "rendered"
        }
        print(json.dumps(payload, indent=2))
    else:
        print(args.render(args, output.payload))
    if args.timeline and tracer.events:
        print(render_timeline(tracer.events))
    if args.trace is not None:
        try:
            write_trace(
                tracer.events,
                args.trace,
                fmt=args.trace_format,
                samples=output.samples,
                registry=output.registry,
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
