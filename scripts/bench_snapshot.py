"""Perf-regression snapshot: pinned repair suites with wall-clock costs.

Runs three deterministic suites —

* ``single_chunk``: one repair per scheme on a fixed heterogeneous
  network;
* ``full_node``: a seeded multi-stripe full-node repair;
* ``foreground_interference``: the same repair competing with a seeded
  client workload through the adaptive QoS governor —

and writes a snapshot JSON (``BENCH_pr4.json``) holding, per suite, the
**simulated** results (repair seconds, sim steps, rate recomputations —
bit-stable for a seed, so any drift is a behaviour change) and the
**wall-clock** cost of running the suite (min over ``--repeats``).  It
also measures observation costs: the suite runs again with a
flight-recorder sampler attached (bare, and feeding the simulated-time
TSDB), with the causal tracer recording the full span/flow event
stream, and with a durable repair journal writing to a real file.
Overheads are measured with a warm-up run followed by interleaved
plain/instrumented repeats compared by median — not separate timing
blocks, which let machine drift masquerade as (even negative)
overhead — and each relative cost is gated at 5% when comparing.

Three floor-gated sections ride along: ``engine_scale`` (the 1024-node
repair storm under both allocation engines, ≥10x speedup enforced),
``lifetime`` (a pinned Monte-Carlo durability study, simulated-years
per wall-second floor plus a pivot-loses-strictly-less acceptance
check), and ``storm`` (the fleet control plane draining four
simultaneous full-node repairs, chunks-per-wall-second floor plus a
controlled-breach-beats-the-flood acceptance check).  Their simulated
metrics are drift-gated on compare.

With ``--compare previous.json`` the run gates like CI does:

* simulated metrics must match the previous snapshot (tiny relative
  tolerance) — a mismatch means the simulation changed, not the machine;
* wall-clock metrics may not regress more than ``--tolerance`` (default
  20%) after cross-machine calibration: each snapshot stores the timing
  of a fixed pure-Python loop, and previous wall times are scaled by the
  calibration ratio before comparing;
* a missing or incompatible previous snapshot skips the gate (first run).

Usage::

    PYTHONPATH=src python scripts/bench_snapshot.py --out BENCH_pr4.json \
        [--compare BENCH_pr4.json] [--tolerance 0.2] [--repeats 3]
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.baselines import PPTPlanner, RPPlanner
from repro.core import PivotRepairPlanner, pin_planning
from repro.ec import RSCode, place_stripes
from repro.loadgen import (
    ForegroundEngine,
    LoadProfile,
    generate_requests,
    make_governor,
)
from repro.network.topology import StarNetwork
from repro.obs import (
    NULL_TRACER,
    FlightRecorder,
    TimeSeriesDB,
    Tracer,
    critical_paths,
)
from repro.repair import (
    ExecutionConfig,
    repair_full_node,
    repair_single_chunk,
)
from repro.resilience import RepairJournal

SNAPSHOT_VERSION = 1

#: Relative tolerance for "deterministic" simulated metrics.
SIM_RTOL = 1e-6

NODE_COUNT = 16
CODE = RSCode(6, 4)
STRIPES = 96
CHUNK = 64 * 1024 * 1024


def _network() -> StarNetwork:
    """Fixed mildly heterogeneous star (same spirit as chaos_smoke)."""
    return StarNetwork.constant(
        [1e8 + i * 3e6 for i in range(NODE_COUNT)],
        [1e8 + i * 5e6 for i in range(NODE_COUNT)],
    )


def _sim_counters(telemetry: dict | None) -> dict:
    counters = (telemetry or {}).get("counters", {})
    return {
        "sim_steps": int(counters.get("sim_steps", 0)),
        "rate_recomputations": int(
            counters.get("sim_rate_recomputations", 0)
        ),
    }


# ----------------------------------------------------------------------
# Suites (each returns {"sim": {...}, and is timed by the caller)
# ----------------------------------------------------------------------
def suite_single_chunk(sampler=None) -> dict:
    """One repair per scheme per requestor; totals aggregated per scheme.

    Iterating requestors keeps a single pass long enough to time while
    still exercising every planner on the same fixed network.
    """
    network = _network()
    config = ExecutionConfig(chunk_size=CHUNK)
    schemes = {
        "pivot": PivotRepairPlanner,
        "rp": RPPlanner,
        "ppt": lambda: PPTPlanner(tree_budget=200_000),
    }
    sim: dict = {}
    for name, factory in sorted(schemes.items()):
        transfer = 0.0
        steps = 0
        recomputations = 0
        for requestor in range(8):
            candidates = [
                node for node in range(NODE_COUNT) if node != requestor
            ]
            result = repair_single_chunk(
                pin_planning(factory(), 0.0), network, requestor=requestor,
                candidates=candidates, k=CODE.k, config=config,
                sampler=sampler,
            )
            transfer += result.transfer_seconds
            counters = _sim_counters(result.telemetry)
            steps += counters["sim_steps"]
            recomputations += counters["rate_recomputations"]
        sim[name] = {
            "transfer_seconds": round(transfer, 9),
            "sim_steps": steps,
            "rate_recomputations": recomputations,
        }
    return {"sim": sim}


def _full_node_once(
    sampler=None, with_foreground: bool = False, journal=None,
    tracer=NULL_TRACER,
) -> dict:
    network = _network()
    stripes = place_stripes(
        STRIPES, CODE, NODE_COUNT, np.random.default_rng(5)
    )
    failed = stripes[0].placement[0]
    config = ExecutionConfig(chunk_size=CHUNK)
    foreground = None
    governor = None
    if with_foreground:
        profile = LoadProfile(
            name="bench",
            arrival_rate=120.0,
            duration=60.0,
            read_fraction=0.9,
            request_size=1024 * 1024,
            zipf_s=0.9,
        )
        requests = generate_requests(
            profile, stripes, NODE_COUNT, seed=5
        )
        foreground = ForegroundEngine(
            stripes, requests, pin_planning(PivotRepairPlanner(), 0.0),
            failed_nodes={failed},
        )
        governor = make_governor("adaptive")
    result = repair_full_node(
        pin_planning(PivotRepairPlanner(), 0.0), network, stripes, failed,
        concurrency=4, config=config,
        foreground=foreground, governor=governor, sampler=sampler,
        journal=journal, tracer=tracer,
    )
    if foreground is not None:
        foreground.drain()
    sim = {
        "repair_seconds": round(result.total_seconds, 9),
        "chunks_repaired": result.chunks_repaired,
        **_sim_counters(result.telemetry),
    }
    if foreground is not None:
        summary = foreground.summary()
        sim["fg_requests"] = int(summary["requests"])
        sim["fg_degraded_reads"] = int(summary["degraded_reads"])
    return {"sim": sim}


def suite_full_node(sampler=None) -> dict:
    return _full_node_once(sampler=sampler)


def suite_foreground_interference(sampler=None, tracer=NULL_TRACER) -> dict:
    return _full_node_once(
        sampler=sampler, with_foreground=True, tracer=tracer
    )


SUITES = {
    "single_chunk": suite_single_chunk,
    "full_node": suite_full_node,
    "foreground_interference": suite_foreground_interference,
}

#: Hard floor for the fast engine's advantage on the 1024-node storm.
ENGINE_SPEEDUP_FLOOR = 10.0

#: Hard floor for the lifetime event loop: simulated years per wall
#: second (local machines run ~25/s; the floor absorbs slow CI runners).
LIFETIME_YEARS_PER_SECOND_FLOOR = 4.0


def lifetime_section(repeats: int) -> dict:
    """Time the Monte-Carlo cluster-lifetime loop on a pinned study.

    Fixed analytic repair durations keep the section independent of the
    fluid simulator (the repair suites above already cover it) so the
    wall clock measures the event loop itself: outage scheduling, heap
    churn, and incremental intact/live bookkeeping.  Simulated metrics
    (digest, per-scheme loss counts) are bit-stable for the seed and
    drift-gated on compare; the run fails outright if PivotRepair does
    not lose strictly less than conventional, or if throughput drops
    below :data:`LIFETIME_YEARS_PER_SECOND_FLOOR` — the durability
    acceptance gate, not a soft metric.
    """
    from repro.lifetime import FixedDurations, LifetimeConfig, run_lifetime

    config = LifetimeConfig(
        years=4, runs=8, seed=42, schemes=("pivot", "conventional"),
        stripes=64, disk_mttf_days=30.0, repair_streams=1,
    )
    durations = FixedDurations(
        {"pivot": 3600.0, "conventional": 4 * 3600.0}
    )
    report, wall = _timed(
        lambda: run_lifetime(config, durations=durations), repeats
    )
    pivot = report.schemes["pivot"].total_losses
    conventional = report.schemes["conventional"].total_losses
    if not 0 < pivot < conventional:
        raise SystemExit(
            f"lifetime suite: pivot {pivot} losses vs conventional "
            f"{conventional} — faster repairs must lose strictly less"
        )
    simulated_years = config.runs * config.years * len(config.schemes)
    throughput = simulated_years / wall
    if throughput < LIFETIME_YEARS_PER_SECOND_FLOOR:
        raise SystemExit(
            f"lifetime suite: {throughput:.1f} simulated years/s below "
            f"the {LIFETIME_YEARS_PER_SECOND_FLOOR:.0f}/s floor "
            f"({simulated_years} years in {wall:.3f}s)"
        )
    return {
        "runs": config.runs,
        "years": config.years,
        "stripes": config.stripes,
        "sim": {
            "digest": report.digest,
            "pivot_losses": pivot,
            "conventional_losses": conventional,
            "pivot_repairs": sum(
                r["repairs_completed"] for r in report.schemes["pivot"].runs
            ),
        },
        "simulated_years": simulated_years,
        "wall_seconds": round(wall, 6),
        "years_per_second": round(throughput, 2),
        "years_per_second_floor": LIFETIME_YEARS_PER_SECOND_FLOOR,
    }


#: Hard floor for the control-plane storm: repair chunks drained (to a
#: terminal state) per wall second (local machines run ~40/s; the floor
#: absorbs slow CI runners).
STORM_CHUNKS_PER_SECOND_FLOOR = 5.0


def storm_section(repeats: int) -> dict:
    """Time the fleet control plane on the pinned repair-storm scenario.

    The tuned default :class:`repro.controlplane.StormConfig`: a 3-rack
    fleet loses a whole rack, four simultaneous full-node repairs run
    under QoS admission control, backpressure, and graceful degradation
    while two foreground tenants hold a p99 SLO.  Simulated metrics
    (breach seconds, chunk/decision counts, goodput) are bit-stable for
    the seed and drift-gated on compare; the run fails outright if any
    job fails to drain, if admission control does not strictly beat the
    uncontrolled flood baseline on SLO breach-seconds, or if drained
    chunks per wall second drop below
    :data:`STORM_CHUNKS_PER_SECOND_FLOOR` — the control-plane
    acceptance gate, not a soft metric.
    """
    from repro.controlplane import StormConfig, run_storm

    controlled, wall = _timed(lambda: run_storm(StormConfig()), repeats)
    flood = run_storm(StormConfig(admission_control=False, max_time=3000.0))
    if not all(controlled.fleet.completed.values()) or not all(
        flood.fleet.completed.values()
    ):
        raise SystemExit(
            "storm suite: a repair job failed to drain — every job must "
            "end repaired or as a clean RepairFailed"
        )
    if controlled.breach_seconds >= flood.breach_seconds:
        raise SystemExit(
            f"storm suite: controlled breach "
            f"{controlled.breach_seconds:.1f}s not below the flood's "
            f"{flood.breach_seconds:.1f}s — admission control must pay off"
        )
    chunks = controlled.fleet.chunks_repaired + controlled.fleet.chunks_failed
    throughput = chunks / wall
    if throughput < STORM_CHUNKS_PER_SECOND_FLOOR:
        raise SystemExit(
            f"storm suite: {throughput:.1f} drained chunks/s below the "
            f"{STORM_CHUNKS_PER_SECOND_FLOOR:.0f}/s floor "
            f"({chunks} chunks in {wall:.3f}s)"
        )
    counts = controlled.fleet.decision_counts()
    return {
        "jobs": len(controlled.fleet.jobs),
        "sim": {
            "chunks_repaired": controlled.fleet.chunks_repaired,
            "chunks_failed": controlled.fleet.chunks_failed,
            "breach_seconds": round(controlled.breach_seconds, 9),
            "flood_breach_seconds": round(flood.breach_seconds, 9),
            "sheds": counts.get("shed", 0),
            "resumes": counts.get("resume", 0)
            + counts.get("resume_forced", 0),
            "decisions": sum(counts.values()),
            "goodput_bytes_per_second": round(
                controlled.foreground_summary["goodput_bytes_per_second"],
                6,
            ),
        },
        "chunks": chunks,
        "wall_seconds": round(wall, 6),
        "chunks_per_second": round(throughput, 2),
        "chunks_per_second_floor": STORM_CHUNKS_PER_SECOND_FLOOR,
    }


def engine_scale_section(repeats: int) -> dict:
    """Time the 1024-node repair storm under both allocation engines.

    The scenario is the recompute-bound shape from
    :func:`repro.network.scenario.storm_scenario`: 200 staggered repair
    trees and 600 foreground flows over static capacities, so the wall
    clock measures rate recomputation, not breakpoint churn.  The run
    fails outright if the engines' digests differ or the speedup drops
    below :data:`ENGINE_SPEEDUP_FLOOR` — this is the scale acceptance
    gate, not a soft metric.
    """
    from repro.network.scenario import replay, storm_scenario

    scenario = storm_scenario(1)
    fast_digest, fast_wall = _timed(
        lambda: replay(scenario, "fast"), max(repeats, 3)
    )
    reference_digest, reference_wall = _timed(
        lambda: replay(scenario, "reference"), repeats
    )
    if fast_digest != reference_digest:
        raise SystemExit(
            "engine scale suite: fast and reference digests differ — "
            "the engines must be bit-identical"
        )
    speedup = reference_wall / fast_wall
    if speedup < ENGINE_SPEEDUP_FLOOR:
        raise SystemExit(
            f"engine scale suite: speedup {speedup:.1f}x below the "
            f"{ENGINE_SPEEDUP_FLOOR:.0f}x floor (fast {fast_wall:.3f}s, "
            f"reference {reference_wall:.3f}s)"
        )
    return {
        "node_count": scenario.node_count,
        "repairs": 200,
        "foreground_flows": 600,
        "sim": {
            "steps": fast_digest["steps"],
            "tasks_completed": fast_digest["tasks_completed"],
            "bytes_transferred": round(
                fast_digest["bytes_transferred"], 6
            ),
            "end_time": round(fast_digest["end_time"], 9),
        },
        "fast_wall_seconds": round(fast_wall, 6),
        "reference_wall_seconds": round(reference_wall, 6),
        "speedup": round(speedup, 2),
        "speedup_floor": ENGINE_SPEEDUP_FLOOR,
    }


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
def _calibrate() -> float:
    """Fixed pure-Python workload timing, for cross-machine scaling."""
    best = math.inf
    for _ in range(3):
        started = time.perf_counter()
        total = 0.0
        for i in range(300_000):
            total += (i % 97) * 1e-9
        best = min(best, time.perf_counter() - started)
    assert total >= 0
    return best


def _timed(fn, repeats: int):
    """(result, min wall seconds) over ``repeats`` runs."""
    best = math.inf
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return result, best


def _overhead(plain_fn, instrumented_fn, repeats: int):
    """Measure instrumentation overhead by interleaving the variants.

    One untimed warm-up of each variant first (imports, allocator and
    cache state settle), then alternating plain/instrumented timings
    compared by the **minimum of per-pair deltas**.  Timing the two
    variants in separate blocks lets slow machine drift (thermal, page
    cache) land entirely on one side — that is how a previous snapshot
    recorded a negative "overhead".  Deltas use ``time.process_time``
    (CPU seconds): instrumentation cost is extra work the process does,
    and CPU time is immune to the scheduler noise that dominates wall
    clock on shared machines.  Even CPU-time noise on a shared box is
    almost entirely *positive* (a neighbour trashing the cache inflates
    cycles-per-instruction), so sampled pair deltas here span 2-5x for
    identical code.  The minimum is the noise-immune estimator for a
    *regression gate*: a genuine cost increase raises every pair
    uniformly, while a spike only contaminates the pair it lands on.
    The fraction is clamped at zero: instrumentation cannot speed the
    run up, so a negative difference is noise by construction.

    The heap accumulated by *earlier* bench sections is ``gc.freeze()``d
    for the duration of the timings: the instrumented variant allocates
    tens of thousands of event objects, and without the freeze every
    collection those allocations trigger also scans the unrelated prior
    sections' object graph — billing GC of someone else's heap to the
    instrumentation under test.  (The instrumentation's *own* GC cost
    is still measured: new allocations stay tracked.)

    Returns ``(plain_result, instrumented_result, stats_dict)``.
    """
    plain_result = plain_fn()
    instrumented_result = instrumented_fn()
    gc.collect()
    gc.freeze()
    plain_times: list[float] = []
    instrumented_times: list[float] = []

    def run(fn, times):
        started = time.process_time()
        result = fn()
        times.append(time.process_time() - started)
        return result

    for i in range(max(repeats, 5)):
        # Alternate which variant runs first within the pair so that
        # cache warming and monotonic drift cancel across pairs.
        if i % 2 == 0:
            plain_result = run(plain_fn, plain_times)
            instrumented_result = run(instrumented_fn, instrumented_times)
        else:
            instrumented_result = run(instrumented_fn, instrumented_times)
            plain_result = run(plain_fn, plain_times)
    gc.unfreeze()
    # Per-pair deltas are adjacent in time, so they are far less
    # drift-sensitive than comparing aggregate medians; the minimum
    # then discards every pair a noise spike landed on.
    delta = min(i - p for p, i in zip(plain_times, instrumented_times))
    plain_cpu = statistics.median(plain_times)
    instrumented_cpu = statistics.median(instrumented_times)
    overhead = max(delta / plain_cpu, 0.0) if plain_cpu > 0 else 0.0
    stats = {
        "cpu_plain_seconds": round(plain_cpu, 6),
        "cpu_instrumented_seconds": round(instrumented_cpu, 6),
        "cpu_delta_seconds": round(max(delta, 0.0), 6),
        "overhead_fraction": round(overhead, 4),
    }
    return plain_result, instrumented_result, stats


def collect(repeats: int) -> dict:
    snapshot: dict = {
        "version": SNAPSHOT_VERSION,
        "calibration_seconds": round(_calibrate(), 6),
        "repeats": repeats,
        "suites": {},
    }
    for name, fn in SUITES.items():
        result, wall = _timed(fn, repeats)
        snapshot["suites"][name] = {
            "sim": result["sim"],
            "wall_seconds": round(wall, 6),
        }
        print(f"{name}: wall {wall:.3f}s")
    # Allocation-engine scale gate: the 1024-node storm, both engines.
    snapshot["engine_scale"] = engine_scale_section(repeats)
    # Lifetime event-loop gate: a pinned Monte-Carlo durability study.
    snapshot["lifetime"] = lifetime_section(repeats)
    # Control-plane gate: the pinned repair storm, controlled vs flood.
    snapshot["storm"] = storm_section(repeats)
    print(
        "storm: "
        f"{snapshot['storm']['chunks']} chunks drained in "
        f"{snapshot['storm']['wall_seconds']:.3f}s = "
        f"{snapshot['storm']['chunks_per_second']:.1f}/s (floor "
        f"{STORM_CHUNKS_PER_SECOND_FLOOR:.0f}/s), breach "
        f"{snapshot['storm']['sim']['breach_seconds']:.1f}s controlled "
        f"vs {snapshot['storm']['sim']['flood_breach_seconds']:.1f}s "
        "flood"
    )
    print(
        "lifetime: "
        f"{snapshot['lifetime']['simulated_years']} simulated years in "
        f"{snapshot['lifetime']['wall_seconds']:.3f}s = "
        f"{snapshot['lifetime']['years_per_second']:.1f}/s (floor "
        f"{LIFETIME_YEARS_PER_SECOND_FLOOR:.0f}/s), pivot "
        f"{snapshot['lifetime']['sim']['pivot_losses']} vs conventional "
        f"{snapshot['lifetime']['sim']['conventional_losses']} losses"
    )
    print(
        "engine_scale: fast "
        f"{snapshot['engine_scale']['fast_wall_seconds']:.3f}s vs "
        f"reference "
        f"{snapshot['engine_scale']['reference_wall_seconds']:.3f}s "
        f"= {snapshot['engine_scale']['speedup']:.1f}x (floor "
        f"{ENGINE_SPEEDUP_FLOOR:.0f}x), digests identical"
    )
    # Observation overheads, each measured as interleaved plain vs
    # instrumented runs of the same suite (see ``_overhead``).
    reference = snapshot["suites"]["foreground_interference"]["sim"]

    def plain():
        return suite_foreground_interference()

    def sampled():
        return suite_foreground_interference(
            sampler=FlightRecorder(interval=0.25, capacity=65536)
        )

    def sampled_tsdb():
        # The full telemetry plane: flight recorder mirroring every
        # sample into the simulated-time TSDB.
        return suite_foreground_interference(
            sampler=FlightRecorder(
                interval=0.25, capacity=65536,
                tsdb=TimeSeriesDB(capacity=65536),
            )
        )

    _, sampled_result, stats = _overhead(plain, sampled, repeats)
    if sampled_result["sim"] != reference:
        raise SystemExit(
            "flight recorder changed simulated results — it must be "
            "observation-only"
        )
    snapshot["sampler"] = stats
    print(
        f"sampler overhead: {stats['overhead_fraction']:+.1%} "
        f"({stats['cpu_plain_seconds']:.3f}s -> "
        f"{stats['cpu_instrumented_seconds']:.3f}s)"
    )
    _, tsdb_result, stats = _overhead(plain, sampled_tsdb, repeats)
    if tsdb_result["sim"] != reference:
        raise SystemExit(
            "TSDB-fed flight recorder changed simulated results — the "
            "telemetry plane must be observation-only"
        )
    snapshot["sampler_tsdb"] = stats
    print(
        f"sampler+tsdb overhead: {stats['overhead_fraction']:+.1%} "
        f"({stats['cpu_plain_seconds']:.3f}s -> "
        f"{stats['cpu_instrumented_seconds']:.3f}s)"
    )
    # Causal-tracing overhead: the same governed suite with a full
    # Tracer attached — repair.task spans, per-flow events, parent and
    # follows-from links — versus the shared NULL_TRACER default.
    # Tracing must be observation-only (identical simulated results),
    # and the critical paths reconstructed from the captured events
    # must tile every repair's makespan exactly (the analysis runs
    # outside the timed region, so only event *emission* is charged).
    traced_events: list = []

    def traced():
        tracer = Tracer()
        result = suite_foreground_interference(tracer=tracer)
        traced_events[:] = tracer.events
        return result

    _, traced_result, stats = _overhead(plain, traced, repeats)
    if traced_result["sim"] != reference:
        raise SystemExit(
            "causal tracer changed simulated results — tracing must be "
            "observation-only"
        )
    report = critical_paths(traced_events)
    if not report.repairs or report.max_residual > 1e-9:
        raise SystemExit(
            "causal tracer: reconstructed critical paths do not tile "
            f"the traced repairs (max residual {report.max_residual!r})"
        )
    snapshot["tracer"] = stats
    print(
        f"tracer overhead: {stats['overhead_fraction']:+.1%} "
        f"({stats['cpu_plain_seconds']:.3f}s -> "
        f"{stats['cpu_instrumented_seconds']:.3f}s), "
        f"{len(report.repairs)} critical paths tiled exactly"
    )
    # Journal overhead: the full-node suite again with a durable repair
    # journal (real file, real fsyncs).  The journal must be write-only
    # in the fault-free path — identical simulated results — and cheap.
    def plain_full_node():
        return _full_node_once()

    def journaled():
        with tempfile.TemporaryDirectory() as tmp:
            with RepairJournal(Path(tmp) / "bench.jsonl") as journal:
                return _full_node_once(journal=journal)

    reference = snapshot["suites"]["full_node"]["sim"]
    _, journaled_result, stats = _overhead(
        plain_full_node, journaled, repeats
    )
    if journaled_result["sim"] != reference:
        raise SystemExit(
            "repair journal changed simulated results — the fault-free "
            "path must be byte-identical with journaling on"
        )
    snapshot["journal"] = stats
    print(
        f"journal overhead: {stats['overhead_fraction']:+.1%} "
        f"({stats['cpu_plain_seconds']:.3f}s -> "
        f"{stats['cpu_instrumented_seconds']:.3f}s)"
    )
    return snapshot


# ----------------------------------------------------------------------
# Comparison gate
# ----------------------------------------------------------------------
def _flatten_sim(sim, prefix: str = "") -> dict:
    flat = {}
    for key, value in sim.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten_sim(value, path + "."))
        else:
            flat[path] = value
    return flat


def compare(current: dict, previous: dict, tolerance: float) -> list[str]:
    """Regression gate; returns the failures (empty = pass)."""
    if previous.get("version") != current["version"]:
        print(
            "previous snapshot has a different version — skipping the gate"
        )
        return []
    failures = []
    scale = current["calibration_seconds"] / max(
        previous.get("calibration_seconds", 0.0), 1e-9
    )
    print(f"calibration scale vs previous snapshot: {scale:.2f}x")
    for name, suite in current["suites"].items():
        before = previous.get("suites", {}).get(name)
        if before is None:
            print(f"{name}: not in previous snapshot, skipping")
            continue
        old_flat = _flatten_sim(before.get("sim", {}))
        for key, value in _flatten_sim(suite["sim"]).items():
            old = old_flat.get(key)
            if old is None:
                continue
            if isinstance(value, float) or isinstance(old, float):
                drifted = abs(value - old) > SIM_RTOL * max(
                    abs(value), abs(old), 1e-12
                )
            else:
                drifted = value != old
            if drifted:
                failures.append(
                    f"{name}: simulated metric {key} changed "
                    f"{old!r} -> {value!r} (behaviour drift, not noise)"
                )
        # Absolute slack floors the budget so millisecond suites are not
        # gated on scheduler noise; the heavy suites dominate their slack.
        budget = before["wall_seconds"] * scale * (1.0 + tolerance) + 0.05
        if suite["wall_seconds"] > budget:
            failures.append(
                f"{name}: wall {suite['wall_seconds']:.3f}s exceeds "
                f"{budget:.3f}s (previous {before['wall_seconds']:.3f}s "
                f"x {scale:.2f} calibration x {1 + tolerance:.2f} "
                "tolerance)"
            )
        else:
            print(
                f"{name}: wall {suite['wall_seconds']:.3f}s within "
                f"budget {budget:.3f}s"
            )
    # Floor-gated sections: simulated metrics are bit-stable for a
    # seed, so any drift is a behaviour change.  Wall times (and the
    # engine speedup / lifetime throughput) are machine-dependent; their
    # hard floors are enforced at collect time on every run, so they are
    # recorded here but not re-gated.
    for section in ("engine_scale", "lifetime", "storm"):
        before_section = previous.get(section)
        now_section = current.get(section)
        if before_section is None or now_section is None:
            continue
        old_flat = _flatten_sim(before_section.get("sim", {}))
        for key, value in _flatten_sim(now_section["sim"]).items():
            old = old_flat.get(key)
            if old is None:
                continue
            if isinstance(value, float) or isinstance(old, float):
                drifted = abs(value - old) > SIM_RTOL * max(
                    abs(value), abs(old), 1e-12
                )
            else:
                drifted = value != old
            if drifted:
                failures.append(
                    f"{section}: simulated metric {key} changed "
                    f"{old!r} -> {value!r} (behaviour drift, not noise)"
                )
    # Overhead gates: 5% relative plus a 100ms absolute slack.  The
    # relative term is the real gate; the absolute term is the noise
    # floor of the measurement itself — paired CPU-time deltas for
    # *identical* code span roughly +-100ms on a busy shared machine
    # (see ``_overhead``), and fixed per-run costs (a journal fsync) on
    # a millisecond-scale suite must not read as huge relative
    # overheads.  A genuine regression (the tracing plane cost +78% of
    # the suite before the restricted rate scans landed) clears both
    # terms by an order of magnitude.  Older snapshots predate some
    # sections; gate what the current run measured.
    labels = {
        "sampler": "flight recorder",
        "sampler_tsdb": "TSDB-fed flight recorder",
        "tracer": "causal tracer",
        "journal": "repair journal",
    }
    for section, label in labels.items():
        stats = current.get(section)
        if stats is None or "cpu_delta_seconds" not in stats:
            continue
        budget = stats["cpu_plain_seconds"] * 0.05 + 0.1
        if stats["cpu_delta_seconds"] > budget:
            failures.append(
                f"{label} overhead {stats['overhead_fraction']:.1%} "
                f"(+{stats['cpu_delta_seconds']:.3f}s on "
                f"{stats['cpu_plain_seconds']:.3f}s) exceeds the "
                f"5%+100ms budget ({budget:.3f}s)"
            )
        else:
            print(
                f"{label}: overhead {stats['overhead_fraction']:+.1%} "
                f"within budget"
            )
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", type=Path, default=Path("BENCH_pr4.json"),
        help="snapshot file to write",
    )
    parser.add_argument(
        "--compare", type=Path, default=None, metavar="PATH",
        help="previous snapshot to gate against (skipped when absent)",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.20,
        help="allowed relative wall-clock regression (default 20%%)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="runs per suite; the minimum wall time is kept",
    )
    args = parser.parse_args()
    previous = None
    if args.compare is not None and args.compare.exists():
        previous = json.loads(args.compare.read_text())
    elif args.compare is not None:
        print(f"no previous snapshot at {args.compare} — first run, no gate")
    snapshot = collect(args.repeats)
    args.out.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
    print(f"snapshot -> {args.out}")
    if previous is not None:
        failures = compare(snapshot, previous, args.tolerance)
        if failures:
            for failure in failures:
                print(f"REGRESSION: {failure}", file=sys.stderr)
            return 1
        print("regression gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
