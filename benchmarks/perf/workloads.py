"""The seven workloads: seeded set-up, one closed-loop pass, checks.

Each workload builds its inputs from the seed in :meth:`setup` (the
program under test only ever sees generated inputs), then
:meth:`run_pass` runs one pass on one thread and returns a stats dict:

``digest``   SHA-256 of every simulated outcome of the pass; all passes
             of a workload must agree (bit-determinism check)
``sim``      simulated end-to-end metrics (exact for a seed)
``work``     what the pass completed (repairs, chunks, tasks, ...)
``phases``   host seconds of named parts of the pass
``layer``    ledger entries read from public result objects
``samples``  optional per-call host seconds

Planning wall-clock is pinned out of simulated time with
``pin_planning(planner, 0.0)`` so ``sim_*`` never depends on the host.
Functions of ``repro`` are called through their module so the traced
run's wrappers (``spans.Recorder``) are seen.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

import repro.cluster.master as cluster_master
import repro.controlplane.storm as storm
import repro.lifetime.montecarlo as montecarlo
import repro.loadgen.generator as loadgen_generator
import repro.network.scenario as scenario
import repro.obs.critpath as critpath
import repro.obs.export as export
import repro.repair.executor as executor
import repro.repair.fullnode as fullnode
import repro.traces.generators as trace_generators
from repro.baselines import RPPlanner
from repro.core import BandwidthSnapshot, PivotRepairPlanner
from repro.core.seeding import spawn_rng
from repro.ec import RSCode, place_stripes
from repro.experiments.fullnode_experiment import (
    FIG7_SCHEDULER,
    stripes_with_failures,
)
from repro.experiments.single_chunk import congested_instants, stripe_nodes_at
from repro.lifetime import FixedDurations, LifetimeConfig
from repro.loadgen import ForegroundEngine, LoadProfile, make_governor
from repro.network.simulator import FluidSimulator
from repro.network.topology import StarNetwork
from repro.obs import Tracer
from repro.repair import ExecutionConfig
from repro.repair.pipeline import pipeline_bytes_per_edge
from repro.repair.slicesim import fluid_estimate, simulate_slices
from repro.resilience import RepairJournal

from manifest import WORKLOADS

#: Bandwidth kept for repair traffic on traced networks (8 Mb/s), as in
#: the paper-artefact benchmarks.
REPAIR_FLOOR = 1e6

#: Scratch space for the journal file; inside the checkout by contract.
RESULTS_DIR = Path(__file__).resolve().parent / "results"

pin_planning = storm.pin_planning


def digest_of(payload) -> str:
    """SHA-256 over canonical JSON (float repr round-trips exactly)."""
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-6)


def conserved(counters: dict) -> bool:
    """Bytes sent == bytes received == bytes moved == sum over kinds."""
    total = counters.get("bytes_transferred", 0.0)
    sums = {"bytes_up/": 0.0, "bytes_down/": 0.0, "bytes_kind/": 0.0}
    for key, value in counters.items():
        prefix = key[: key.find("/") + 1]
        if prefix in sums:
            sums[prefix] += value
    return all(close(value, total) for value in sums.values())


class Workload:
    """Base: sizes from the manifest, seeded inputs, one pass at a time."""

    name = ""
    #: Run the pure-planner microbenchmark in this workload's traced run?
    plan_probe = False
    #: Which speed probe calibrates this workload's host seconds.
    probe_kind = "python"

    def __init__(self, seed: int, quick: bool = False):
        spec = WORKLOADS[self.name]
        self.seed = seed
        self.sizes = dict(spec["sizes"])
        if quick:
            self.sizes.update(spec["quick"])

    def setup(self, ops) -> None:
        raise NotImplementedError

    def run_pass(self, ops) -> dict:
        raise NotImplementedError

    def end_to_end(self, stats: dict, wall: float) -> dict[str, float]:
        """Workload-specific end-to-end values of one pass."""
        raise NotImplementedError

    def layer_rates(
        self, phases: dict[str, float], wall: float, stats: dict
    ) -> dict:
        """Ledger entries derived from untraced median host times.

        ``stats`` is one pass's stats dict (its counts are the same on
        every pass).
        """
        return {}

    def layer_traced(self, recorder, totals) -> dict:
        """Ledger entries that need the traced spans.

        ``totals`` is the mean traced pass in calibrated seconds.
        """
        return {}


# ----------------------------------------------------------------------
class SingleChunkSweep(Workload):
    name = "single_chunk_sweep"
    plan_probe = True

    def setup(self, ops) -> None:
        sizes = self.sizes
        traces = trace_generators.generate_all(
            sizes["nodes"], sizes["trace_seconds"], seed=self.seed * 1000
        )
        self.networks = {
            name: trace.to_network(floor=REPAIR_FLOOR)
            for name, trace in traces.items()
        }
        base = self.seed * 100_003
        self.cases = []
        for name, trace in traces.items():
            for n, k in sizes["codes"]:
                instants = congested_instants(
                    trace, sizes["instants_per_cell"],
                    seed=base + n * 100 + k,
                )
                for index, instant in enumerate(instants):
                    requestor, survivors = stripe_nodes_at(
                        trace, instant, n,
                        seed=base + 1000 * index + n * 10 + k,
                    )
                    self.cases.append(
                        (name, instant, requestor, survivors, k)
                    )
        self.planners = [
            pin_planning(PivotRepairPlanner(), 0.0),
            pin_planning(RPPlanner(), 0.0),
        ]
        self.config = ExecutionConfig()
        self.fluid_err = self._fluid_check(ops)

    def _fluid_check(self, ops) -> float:
        """Worst |slice-level / fluid - 1| on pinned (9,6) snapshots.

        Seed-independent on purpose: it states the fluid model's error
        against the slice-level ground truth (Repair Pipelining) beside
        every simulated figure, so it must be the same figure every run.
        """
        trace = trace_generators.generate_trace(
            trace_generators.TPC_DS, 16, 6000, seed=0
        )
        up, down = trace.available_up(), trace.available_down()
        planner = PivotRepairPlanner()
        worst = 0.0
        count = self.sizes["fluid_check_snapshots"]
        for index, instant in enumerate(congested_instants(trace, count, 3)):
            column = int(instant)
            snapshot = BandwidthSnapshot(
                up={
                    n: max(float(up[n, column]), REPAIR_FLOOR)
                    for n in range(16)
                },
                down={
                    n: max(float(down[n, column]), REPAIR_FLOOR)
                    for n in range(16)
                },
            )
            requestor, survivors = stripe_nodes_at(
                trace, instant, 9, seed=index
            )
            plan = planner.plan(snapshot, requestor, survivors, 6)
            discrete = simulate_slices(plan.tree, snapshot, self.config)
            fluid = fluid_estimate(plan.tree, snapshot, self.config)
            worst = max(worst, abs(discrete / fluid - 1.0))
        # Same acceptance band as benchmarks/bench_validation_slicesim.py.
        ops.check(worst <= 0.15, f"fluid model off by {worst:.3f}")
        return worst

    def run_pass(self, ops) -> dict:
        clock = time.perf_counter
        config = self.config
        pivot = self.planners[0]
        samples: list[float] = []
        outcomes: list[float] = []
        sim_repair = 0.0
        steps = 0
        for name, instant, requestor, survivors, k in self.cases:
            network = self.networks[name]
            for planner in self.planners:
                started = clock()
                try:
                    result = executor.repair_single_chunk(
                        planner, network, requestor, survivors, k,
                        start_time=instant, config=config,
                    )
                except Exception as exc:  # an operation that raises fails
                    ops.fail(f"repair at {name}@{instant}: {exc!r}")
                    continue
                samples.append(clock() - started)
                tree = result.plan.tree
                ops.check(
                    close(
                        result.bytes_transferred,
                        pipeline_bytes_per_edge(config, tree.depth())
                        * len(tree.edges()),
                    ),
                    f"bytes not conserved at {name}@{instant}",
                )
                outcomes.append(result.transfer_seconds)
                outcomes.append(result.bmin)
                steps += result.telemetry["counters"]["sim_steps"]
                if planner is pivot:
                    sim_repair += result.transfer_seconds
        return {
            "digest": digest_of(outcomes),
            "sim": {
                "sim_repair_s": sim_repair,
                "sim_fluid_err_frac": self.fluid_err,
            },
            "work": {"repairs": len(samples)},
            "phases": {},
            "layer": {"network.simulator.steps": steps},
            "samples": samples,
        }

    def end_to_end(self, stats, wall):
        return {
            "repairs_per_s": stats["work"]["repairs"] / wall,
            "repair_p50_ms": 1e3 * statistics.median(stats["samples"]),
        }

    def layer_rates(self, phases, wall, stats):
        ranked = sorted(stats["samples"])
        return {
            "repair.single.p99_ms": 1e3 * ranked[int(0.99 * len(ranked))]
        }


# ----------------------------------------------------------------------
class FullnodeTraced(Workload):
    name = "fullnode_traced"
    plan_probe = True

    def setup(self, ops) -> None:
        sizes = self.sizes
        traces = trace_generators.generate_all(
            sizes["nodes"], sizes["trace_seconds"], seed=self.seed * 1000
        )
        code = RSCode(*sizes["code"])
        self.runs = []
        for index, (name, trace) in enumerate(traces.items()):
            failed = int(np.argmax(trace.used_node_bandwidth().mean(axis=1)))
            base = self.seed * 1009 + index * 10
            self.runs.append((
                name,
                trace.to_network(floor=REPAIR_FLOOR),
                failed,
                stripes_with_failures(
                    code, failed, sizes["nodes"], seed=base + 1,
                    count=sizes["adaptive_chunks"],
                ),
                stripes_with_failures(
                    code, failed, sizes["nodes"], seed=base + 2,
                    count=sizes["fixed_chunks"],
                ),
            ))
        self.config = ExecutionConfig()

    def _checked(self, ops, label, result, expected):
        counters = result.telemetry["counters"]
        ops.check(
            result.chunks_repaired == expected and not result.failures,
            f"{label}: {result.chunks_repaired}/{expected} chunks repaired",
        )
        ops.check(
            conserved(counters)
            and close(
                counters.get("bytes_kind/repair", 0.0),
                result.bytes_transferred,
            ),
            f"{label}: bytes not conserved",
        )
        return counters

    def run_pass(self, ops) -> dict:
        clock = time.perf_counter
        sizes = self.sizes
        outcomes = []
        phases = {"adaptive": 0.0, "fixed": 0.0}
        sim_repair = 0.0
        steps = rounds = 0
        for name, network, failed, adaptive_stripes, fixed_stripes in self.runs:
            started = clock()
            adaptive = fullnode.repair_full_node_adaptive(
                pin_planning(PivotRepairPlanner(), 0.0), network,
                adaptive_stripes, failed, scheduler=FIG7_SCHEDULER,
                config=self.config,
            )
            middle = clock()
            fixed = fullnode.repair_full_node(
                pin_planning(PivotRepairPlanner(), 0.0), network,
                fixed_stripes, failed, concurrency=sizes["window"],
                config=self.config,
            )
            phases["adaptive"] += middle - started
            phases["fixed"] += clock() - middle
            counters = self._checked(
                ops, f"{name} adaptive", adaptive, sizes["adaptive_chunks"]
            )
            steps += counters["sim_steps"]
            rounds += counters.get("scheduler_rounds", 0)
            counters = self._checked(
                ops, f"{name} fixed", fixed, sizes["fixed_chunks"]
            )
            steps += counters["sim_steps"]
            for result in (adaptive, fixed):
                sim_repair += result.total_seconds
                outcomes.append(result.total_seconds)
                outcomes.extend(
                    task.transfer_seconds for task in result.task_results
                )
        return {
            "digest": digest_of(outcomes),
            "sim": {"sim_repair_s": sim_repair},
            "work": {
                "chunks": len(self.runs)
                * (sizes["adaptive_chunks"] + sizes["fixed_chunks"]),
            },
            "phases": phases,
            "layer": {
                "network.simulator.steps": steps,
                "core.scheduler.rounds": rounds,
            },
        }

    def end_to_end(self, stats, wall):
        return {"chunks_per_s": stats["work"]["chunks"] / wall}

    def layer_rates(self, phases, wall, stats):
        runs = len(self.runs)
        return {
            "repair.fullnode_adaptive.chunks_per_s":
                runs * self.sizes["adaptive_chunks"] / phases["adaptive"],
            "repair.fullnode_fixed.chunks_per_s":
                runs * self.sizes["fixed_chunks"] / phases["fixed"],
        }

    def layer_traced(self, recorder, totals):
        # Planner calls per chunk dispatched by the adaptive scheduler:
        # everything above 1 is a re-plan whose result was thrown away.
        adaptive = recorder.totals("repair.fullnode_adaptive")
        dispatched = (
            adaptive.calls("repair.fullnode_adaptive")
            * self.sizes["adaptive_chunks"]
        )
        return {
            "core.scheduler.plans_per_dispatch":
                adaptive.calls("core.plan") / dispatched if dispatched else 0.0
        }


# ----------------------------------------------------------------------
class HotForeground(Workload):
    name = "hot_foreground"

    def setup(self, ops) -> None:
        sizes = self.sizes
        nodes = sizes["nodes"]
        self.network = StarNetwork.constant(
            [1e8 + i * 3e6 for i in range(nodes)],
            [1e8 + i * 5e6 for i in range(nodes)],
        )
        code = RSCode(*sizes["code"])
        self.stripes = place_stripes(
            sizes["stripes"], code, nodes,
            spawn_rng(self.seed, "perf", "hot", "placement"),
        )
        # Fail the node whose chunk count is nearest the mean, so the
        # amount of repair work barely moves with the seed.
        held = [0] * nodes
        for stripe in self.stripes:
            for node in stripe.placement:
                held[node] += 1
        mean = sizes["stripes"] * code.n / nodes
        self.failed = min(range(nodes), key=lambda n: (abs(held[n] - mean), n))
        self.lost = held[self.failed]
        profile = LoadProfile(
            name="perf-hot",
            arrival_rate=sizes["arrival_rate"],
            duration=sizes["duration_s"],
            read_fraction=sizes["read_fraction"],
            request_size=sizes["request_mib"] * 1024 * 1024,
            zipf_s=sizes["zipf_s"],
        )
        self.requests = loadgen_generator.generate_requests(
            profile, self.stripes, nodes,
            seed=spawn_rng(self.seed, "perf", "hot", "requests"),
        )
        self.config = ExecutionConfig(
            chunk_size=sizes["chunk_mib"] * 1024 * 1024
        )

    def run_pass(self, ops) -> dict:
        sizes = self.sizes
        foreground = ForegroundEngine(
            self.stripes, self.requests,
            pin_planning(PivotRepairPlanner(), 0.0),
            failed_nodes={self.failed},
        )
        result = fullnode.repair_full_node(
            pin_planning(PivotRepairPlanner(), 0.0), self.network,
            self.stripes, self.failed, concurrency=sizes["window"],
            config=self.config, foreground=foreground,
            governor=make_governor(sizes["governor"]),
        )
        foreground.drain()
        counters = result.telemetry["counters"]
        summary = foreground.summary()
        sim_stats = foreground.sim.stats
        ops.check(
            result.chunks_repaired == self.lost and not result.failures,
            f"{result.chunks_repaired}/{self.lost} chunks repaired",
        )
        ops.check(
            foreground.pending_flows == 0
            and foreground.requests_remaining == 0
            and summary["requests"] == len(self.requests),
            "foreground did not drain",
        )
        ops.check(
            conserved(counters)
            and close(
                sum(sim_stats.bytes_by_kind.values()),
                sim_stats.bytes_transferred,
            ),
            "bytes not conserved",
        )
        read_p99 = summary["read_latency"].get("p99", 0.0)
        return {
            "digest": digest_of({
                "repair_s": result.total_seconds,
                "tasks": [t.transfer_seconds for t in result.task_results],
                "summary": summary,
                "end": foreground.sim.now,
            }),
            "sim": {
                "sim_repair_s": result.total_seconds,
                "sim_fg_read_p99_ms": 1e3 * read_p99,
            },
            "work": {
                "chunks": result.chunks_repaired,
                "tasks": sim_stats.tasks_completed,
                "requests": summary["requests"],
            },
            "phases": {},
            "layer": {
                "network.simulator.steps": sim_stats.steps,
                "network.engine.recomputations":
                    sim_stats.rate_recomputations,
                "loadgen.generate.requests": len(self.requests),
                "loadgen.degraded_reads": summary["degraded_reads"],
            },
        }

    def end_to_end(self, stats, wall):
        return {
            "chunks_per_s": stats["work"]["chunks"] / wall,
            "tasks_per_s": stats["work"]["tasks"] / wall,
        }


# ----------------------------------------------------------------------
class EngineStorm(Workload):
    name = "engine_storm"
    regimes = ("sparse", "dense", "burst")

    def setup(self, ops) -> None:
        sizes = self.sizes
        # regime -> [(script, network)]; a regime whose cost swings with
        # the drawn coupling structure (dense) runs several independent
        # instances so the pass cost barely moves with the seed.
        self.scenarios = {}
        for regime in self.regimes:
            shape = sizes[regime]
            self.scenarios[regime] = []
            for instance in range(shape.get("instances", 1)):
                script = scenario.storm_scenario(
                    self.seed * 1000 + instance, node_count=sizes["nodes"],
                    repairs=shape["repairs"],
                    foreground_flows=shape["flows"],
                    horizon=shape["horizon"], burst=regime == "burst",
                )
                self.scenarios[regime].append(
                    (script, script.build_network())
                )
        # The fast engine must be observationally identical to the
        # reference allocator; checked once, on a small pinned storm.
        small = sizes["equivalence_check"]
        pinned = scenario.storm_scenario(
            1, node_count=small["nodes"], repairs=small["repairs"],
            foreground_flows=small["flows"],
        )
        fast = scenario.replay(pinned, "fast")
        ops.check(
            fast == scenario.replay(pinned, "reference"),
            "fast and reference engine digests differ",
        )
        # ...and this file's op loop must not drift from the library's.
        ops.check(
            self._replay(pinned, pinned.build_network())[1] == fast,
            "the benchmark's replay loop differs from scenario.replay",
        )

    @staticmethod
    def _replay(script, network):
        """``scenario.replay`` for storm scripts, keeping the simulator.

        Storm scripts hold only submissions; driving the public
        simulator API here (instead of calling ``replay``) leaves
        ``sim.stats`` readable for the per-layer counters.
        """
        sim = FluidSimulator(network, engine="fast")
        handles = []
        for op in script.ops:
            sim.advance_to(op.time)
            if op.action == "pipelined":
                handles.append(sim.submit_pipelined(
                    op.edges, op.bytes_per_edge,
                    max_rate=op.max_rate, kind=op.kind,
                ))
            else:
                handles.append(sim.submit_bulk(
                    [
                        (src, dst, size)
                        for (src, dst), size in zip(op.edges, op.sizes)
                    ],
                    max_rate=op.max_rate, kind=op.kind,
                ))
        sim.run(max_time=script.ops[-1].time + script.drain)
        return sim, scenario.digest(sim, handles)

    def run_pass(self, ops) -> dict:
        clock = time.perf_counter
        phases = {}
        layer = {
            "network.simulator.steps": 0,
            "network.engine.recomputations": 0,
        }
        digests = {}
        steps = {}
        tasks = 0
        for regime, instances in self.scenarios.items():
            phases[regime] = 0.0
            steps[regime] = 0
            for index, (script, network) in enumerate(instances):
                started = clock()
                sim, outcome = self._replay(script, network)
                phases[regime] += clock() - started
                stats = sim.stats
                label = f"{regime}[{index}]"
                ops.check(
                    stats.tasks_completed == stats.tasks_submitted
                    == len(script.ops),
                    f"{label}: {stats.tasks_completed}/{len(script.ops)} "
                    "tasks drained",
                )
                ops.check(
                    close(sum(stats.bytes_by_kind.values()),
                          stats.bytes_transferred)
                    and close(sum(sim.bytes_up.values()),
                              stats.bytes_transferred)
                    and close(sum(sim.bytes_down.values()),
                              stats.bytes_transferred),
                    f"{label}: bytes not conserved",
                )
                tasks += stats.tasks_completed
                steps[regime] += stats.steps
                layer["network.simulator.steps"] += stats.steps
                layer["network.engine.recomputations"] += (
                    stats.rate_recomputations
                )
                digests[label] = digest_of(outcome)
        return {
            "digest": digest_of(digests),
            "sim": {},
            "work": {"tasks": tasks, "steps": steps},
            "phases": phases,
            "layer": layer,
        }

    def end_to_end(self, stats, wall):
        return {"tasks_per_s": stats["work"]["tasks"] / wall}

    def layer_rates(self, phases, wall, stats):
        return {
            f"network.engine.{regime}.us_per_step":
                1e6 * phases[regime] / stats["work"]["steps"][regime]
            for regime in self.regimes
        }


# ----------------------------------------------------------------------
class FleetStorm(Workload):
    name = "fleet_storm"

    def setup(self, ops) -> None:
        sizes = self.sizes
        self.configs = [
            storm.StormConfig(
                seed=self.seed * 1000 + index,
                foreground_duration=sizes["foreground_duration_s"],
            )
            for index in range(sizes["plain_seeds"])
        ]
        RESULTS_DIR.mkdir(exist_ok=True)

    def _terminal(self, ops, label, report) -> int:
        fleet = report.fleet
        ops.check(
            all(fleet.completed.values()), f"{label}: a job did not drain"
        )
        stats = report.sim_stats
        ops.check(
            close(sum(stats["bytes_by_kind"].values()),
                  stats["bytes_transferred"]),
            f"{label}: bytes not conserved",
        )
        return fleet.chunks_repaired + fleet.chunks_failed

    def run_pass(self, ops) -> dict:
        clock = time.perf_counter
        reports = []
        plain_s = []
        for config in self.configs:
            started = clock()
            reports.append(storm.run_storm(config))
            plain_s.append(clock() - started)
        chunks = sum(
            self._terminal(ops, f"storm {r.config.seed}", r) for r in reports
        )

        # The first seed again, observed: live tracer + durable journal
        # on a real file, then critical paths and the Chrome export.
        observed_config = self.configs[0]
        tracer = Tracer()
        started = clock()
        with tempfile.TemporaryDirectory(dir=RESULTS_DIR) as tmp:
            path = os.path.join(tmp, "storm.jsonl")
            with RepairJournal(path) as journal:
                observed = storm.run_storm(
                    observed_config, tracer=tracer, journal=journal
                )
                records = len(journal)
            journal_bytes = os.path.getsize(path)
        observed_s = clock() - started
        paths = critpath.critical_paths(tracer.events)
        chrome = export.to_chrome_trace(tracer.events)
        chunks += self._terminal(ops, "observed storm", observed)
        ops.check(
            observed.as_dict() == reports[0].as_dict(),
            "observation changed the simulated outcome",
        )
        ops.check(
            bool(paths.repairs) and paths.max_residual <= 1e-9,
            f"critical paths do not tile (residual {paths.max_residual!r})",
        )
        ops.check(records > 0 and journal_bytes > 0, "journal is empty")
        ops.check(bool(chrome), "chrome export is empty")

        first = reports[0]
        decisions = observed.fleet.decision_counts()
        summary = first.foreground_summary
        return {
            "digest": digest_of({
                "reports": [r.as_dict() for r in reports],
                "events": len(tracer.events),
                "journal_bytes": journal_bytes,
            }),
            "sim": {
                "sim_repair_s": sum(
                    r.fleet.total_seconds for r in reports + [observed]
                ),
                "sim_fg_read_p99_ms":
                    1e3 * summary["read_latency"].get("p99", 0.0),
                "sim_slo_breach_s": sum(
                    r.breach_seconds for r in reports + [observed]
                ),
            },
            "work": {"chunks": chunks},
            "phases": {"plain_first": plain_s[0], "observed": observed_s},
            "layer": {
                "network.simulator.steps": sum(
                    r.sim_stats["steps"] for r in reports + [observed]
                ),
                "network.engine.recomputations": sum(
                    r.sim_stats["rate_recomputations"]
                    for r in reports + [observed]
                ),
                "controlplane.decisions": sum(decisions.values()),
                "controlplane.sheds": decisions.get("shed", 0),
                "faults.injector.events": tracer.counts_by_prefix().get(
                    "fault", 0
                ),
                "obs.tracer.events": len(tracer.events),
                "obs.critpath.paths": len(paths.repairs),
                "obs.critpath.tiling_err_max": paths.max_residual,
                "resilience.journal.bytes": journal_bytes,
                "loadgen.generate.requests": summary["requests"],
                "loadgen.degraded_reads": summary["degraded_reads"],
            },
        }

    def end_to_end(self, stats, wall):
        return {"chunks_per_s": stats["work"]["chunks"] / wall}

    def layer_rates(self, phases, wall, stats):
        # The same seed observed vs plain.
        return {
            "obs.tracer.overhead_frac":
                phases["observed"] / phases["plain_first"] - 1.0
        }


# ----------------------------------------------------------------------
class LifetimeMC(Workload):
    name = "lifetime_mc"

    def setup(self, ops) -> None:
        sizes = self.sizes
        self.config = LifetimeConfig(
            years=sizes["years"], runs=sizes["runs"], seed=self.seed,
            schemes=("pivot", "conventional"), stripes=sizes["stripes"],
            disk_mttf_days=sizes["disk_mttf_days"],
            repair_streams=sizes["repair_streams"],
        )
        self.durations = FixedDurations(dict(sizes["durations_s"]))

    def run_pass(self, ops) -> dict:
        report = montecarlo.run_lifetime(
            self.config, durations=self.durations
        )
        pivot = report.schemes["pivot"]
        conventional = report.schemes["conventional"]
        ops.check(
            pivot.total_losses < conventional.total_losses,
            f"pivot lost {pivot.total_losses}, conventional "
            f"{conventional.total_losses}: faster repair must lose less",
        )
        repairs = sum(
            run["repairs_completed"]
            for summary in (pivot, conventional)
            for run in summary.runs
        )
        years = (
            self.config.runs * self.config.years * len(self.config.schemes)
        )
        return {
            "digest": report.digest,
            "sim": {"sim_pivot_losses": pivot.total_losses},
            "work": {"sim_years": years, "repairs": repairs},
            "phases": {},
            "layer": {"lifetime.repairs": repairs},
        }

    def end_to_end(self, stats, wall):
        return {"sim_years_per_s": stats["work"]["sim_years"] / wall}

    def layer_rates(self, phases, wall, stats):
        return {
            "lifetime.us_per_repair": 1e6 * wall / stats["work"]["repairs"]
        }


# ----------------------------------------------------------------------
class ByteRepair(Workload):
    name = "byte_repair"
    probe_kind = "numpy"

    def setup(self, ops) -> None:
        sizes = self.sizes
        nodes = sizes["nodes"]
        self.code = RSCode(*sizes["code"])
        self.chunk = sizes["chunk_mib"] * 1024 * 1024
        rng = spawn_rng(self.seed, "perf", "bytes", "data")
        self.data = [
            [
                rng.integers(0, 256, size=self.chunk, dtype=np.uint8)
                for _ in range(self.code.k)
            ]
            for _ in range(sizes["stripes"])
        ]
        bandwidth = spawn_rng(self.seed, "perf", "bytes", "bandwidth")
        self.snapshot = BandwidthSnapshot(
            up={n: float(bandwidth.uniform(2e7, 1.2e8)) for n in range(nodes)},
            down={
                n: float(bandwidth.uniform(2e7, 1.2e8)) for n in range(nodes)
            },
        )
        self.victims = [
            int(node)
            for node in spawn_rng(
                self.seed, "perf", "bytes", "victims"
            ).permutation(nodes)
        ]

    def run_pass(self, ops) -> dict:
        clock = time.perf_counter
        sizes = self.sizes
        cluster = cluster_master.Cluster(sizes["nodes"], self.code)
        placement = spawn_rng(self.seed, "perf", "bytes", "placement")
        started = clock()
        for chunks in self.data:
            cluster.write_stripe(chunks, placement)
        write_s = clock() - started

        planner = PivotRepairPlanner()
        snapshot = self.snapshot
        rebuilt = 0
        placements = []
        started = clock()
        # Fail nodes one at a time, repairing every lost chunk before the
        # next failure, until the fixed number of chunks is rebuilt.
        for victim in self.victims:
            if rebuilt >= sizes["rebuilt_chunks"]:
                break
            lost = cluster.lost_chunks(victim)
            originals = [
                cluster.nodes[victim].read(stripe.chunk_id(index)).copy()
                for stripe, index in lost
            ]
            cluster.fail_node(victim)
            for (stripe, index), original in zip(lost, originals):
                if rebuilt >= sizes["rebuilt_chunks"]:
                    break
                spare = [
                    node for node in cluster.alive_nodes()
                    if node not in stripe.placement
                ]
                requestor = max(spare, key=snapshot.theo)
                try:
                    _, payload = cluster.repair_chunk(
                        planner, snapshot, stripe, index, requestor
                    )
                except Exception as exc:  # an operation that raises fails
                    ops.fail(f"repair of {stripe.stripe_id}/{index}: {exc!r}")
                    continue
                ops.check(
                    np.array_equal(payload, original),
                    f"rebuilt chunk {stripe.stripe_id}/{index} differs",
                )
                rebuilt += 1
                placements.append((stripe.stripe_id, index, requestor))
        repair_s = clock() - started
        ops.check(
            rebuilt == sizes["rebuilt_chunks"],
            f"rebuilt {rebuilt}/{sizes['rebuilt_chunks']} chunks",
        )
        return {
            "digest": digest_of(placements),
            "sim": {},
            "work": {
                "encoded_mb": len(self.data) * self.code.k * self.chunk / 1e6,
                "rebuilt_mb": rebuilt * self.chunk / 1e6,
            },
            "phases": {"write": write_s, "repair": repair_s},
            "layer": {},
        }

    def end_to_end(self, stats, wall):
        return {
            "encoded_mb_per_s":
                stats["work"]["encoded_mb"] / stats["phases"]["write"],
            "rebuilt_mb_per_s":
                stats["work"]["rebuilt_mb"] / stats["phases"]["repair"],
        }

    def layer_traced(self, recorder, totals):
        encoded_mb = len(self.data) * self.code.k * self.chunk / 1e6
        return {"ec.encode.mb_per_s": encoded_mb / totals.total_s("ec.encode")}


REGISTRY = {
    cls.name: cls
    for cls in (
        SingleChunkSweep, FullnodeTraced, HotForeground, EngineStorm,
        FleetStorm, LifetimeMC, ByteRepair,
    )
}
