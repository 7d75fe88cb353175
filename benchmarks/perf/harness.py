"""Run one workload: set-up, warm-up, timed passes, optional traced run.

Load shape: one process, one thread, closed loop — the next pass starts
when the previous one returns.  Host metrics are **medians over
passes**: on a shared 2-core box seven back-to-back passes of one 1 s
scenario ranged 0.84-1.56 s while the medians of two such sets were
1.00 and 0.97 s, so one long pass does not repeat within a tenth and a
median of short passes does.

Host seconds are **calibrated**: reported at reference speed.  The
box's speed drifts in episodes that outlast a run (a fixed pure-Python
loop on the idle box read 1.3x to 1.7x its best time in four-second
windows), so back-to-back runs of identical work disagree: in
``results/steadiness.json`` (ten seeds per workload, twice) raw median
pass times spread by up to 0.37 and drift by up to 18 % between the
sets, past the driver's widest bound.  A ~50 ms speed probe
(:func:`probe`) runs between passes, and every host duration of a pass
is divided by the pass's speed factor (mean of the probes around it over
:data:`PROBE_QUIET_S`); the same runs calibrated spread by at most 0.12
and drift by at most 5.4 %.  The probe is a pure-Python loop for the
interpreter-bound workloads and a table-look-up/XOR loop over a buffer
for the numpy-bound data plane, which the same noise slows much less.
Raw readings and factors are kept in the records and printed.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import layers
from manifest import END_TO_END, PER_LAYER
from spans import Recorder, Totals
from workloads import REGISTRY, RESULTS_DIR

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"

#: Fewest timed passes of a full run, whatever ``--seconds`` says.
MIN_PASSES = 5
#: A pass slower than this failed its time budget; the run stops.
PASS_BUDGET_S = 30.0
#: Fresh-process set-ups measured besides the run's own (median of 3).
SETUP_CHILDREN = 2
#: Traced passes after the traced warm-up.
TRACED_PASSES = 2
#: Share of ``--seconds`` a traced run spends on untraced passes (they
#: give every end-to-end value, the denominators of every rate and of
#: the tracing overhead; never fewer than :data:`MIN_PASSES`).
TRACE_UNTRACED_SHARE = 0.4


class Ops:
    """Operations attempted and failed; a broken check is a failed op."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(message, attempted=False)

    def fail(self, message: str, attempted: bool = True) -> None:
        if attempted:
            self.attempted += 1
        self.failed += 1
        if len(self.messages) < 8:
            self.messages.append(message)


#: Speed probes: fixed work, and what each reads on the 2-core box the
#: workload sizes were tuned on when it is at its best.  The constants
#: only fix the unit (seconds at the speed at which a probe takes that
#: long); they cancel in every comparison, on any machine.
PYTHON_PROBE_ITERATIONS = 1_200_000
NUMPY_PROBE_ROUNDS = 24
PROBE_QUIET_S = {"python": 0.050, "numpy": 0.051}

_PROBE_RNG = np.random.default_rng(0)
_PROBE_DATA = _PROBE_RNG.integers(0, 256, size=512 * 1024, dtype=np.uint8)
_PROBE_LOG = _PROBE_RNG.integers(0, 255, size=256).astype(np.int64)
_PROBE_EXP = _PROBE_RNG.integers(0, 256, size=512).astype(np.uint8)


def _python_probe(iterations: int = PYTHON_PROBE_ITERATIONS) -> float:
    started = time.perf_counter()
    total = 0.0
    for i in range(iterations):
        total += (i % 97) * 1e-9
    return time.perf_counter() - started


def calibrate() -> float:
    """The fixed loop of scripts/bench_snapshot.py (best of 3), so that
    results from different machines can be read against each other."""
    return min(_python_probe(300_000) for _ in range(3))


def _numpy_probe() -> float:
    """Table look-ups and XORs over a 512 KiB buffer — the shape of the
    GF(2^8) kernels, which co-tenant noise slows far less than it slows
    the interpreter (log-log slope ~0.6 against the Python probe)."""
    started = time.perf_counter()
    acc = np.zeros_like(_PROBE_DATA)
    for c in range(NUMPY_PROBE_ROUNDS):
        out = _PROBE_EXP[_PROBE_LOG[_PROBE_DATA] + c]
        out[_PROBE_DATA == 0] = 0
        acc ^= out
    return time.perf_counter() - started


_PROBES = {"python": _python_probe, "numpy": _numpy_probe}


def probe(kind: str = "python") -> float:
    """Time a fixed piece of work: the machine's speed right now."""
    return _PROBES[kind]()


def speed_factor(before: float, after: float, kind: str = "python") -> float:
    """How much slower than quiet the machine ran between two probes."""
    return (before + after) / (2.0 * PROBE_QUIET_S[kind])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def setup_in_child(name: str, seed: int, quick: bool) -> float:
    """Import + build inputs in a fresh interpreter; its own reading."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", name,
        "--seed", str(seed), "--setup-only",
    ]
    if quick:
        command.append("--quick")
    done = subprocess.run(
        command, capture_output=True, text=True, check=True, timeout=120,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def timed_setup(workload, ops, import_s: float) -> float:
    """Calibrated seconds of import + ``workload.setup``."""
    before = probe()
    started = time.perf_counter()
    workload.setup(ops)
    elapsed = import_s + time.perf_counter() - started
    return elapsed / speed_factor(before, probe())


def setup_only(name: str, seed: int, quick: bool, import_s: float) -> float:
    return timed_setup(REGISTRY[name](seed, quick), Ops(), import_s)


def plan_probe(quick: bool) -> dict[str, float]:
    """Pure ``PivotRepairPlanner.plan`` on synthetic snapshots (the
    paper's Experiment 2 shape: running time against cluster size)."""
    from repro.core import BandwidthSnapshot, PivotRepairPlanner

    out = {}
    planner = PivotRepairPlanner()
    for nodes in (16, 64, 256):
        rng = np.random.default_rng(nodes)
        snapshot = BandwidthSnapshot(
            up={n: float(rng.uniform(1e7, 1.2e8)) for n in range(nodes)},
            down={n: float(rng.uniform(1e7, 1.2e8)) for n in range(nodes)},
        )
        candidates = list(range(1, nodes))
        k = 2 * nodes // 3
        rounds = 3 if quick else 7
        calls = max(2, 2048 // nodes // (4 if quick else 1))
        best = []
        for _ in range(rounds):
            started = time.perf_counter()
            for _ in range(calls):
                planner.plan(snapshot, 0, candidates, k)
            best.append((time.perf_counter() - started) / calls)
        out[f"core.plan.us_n{nodes}"] = 1e6 * statistics.median(best)
    return out


def cli_probe(quick: bool) -> dict[str, float]:
    """Cold start of the CLI, and of importing it, in fresh processes."""
    samples = 1 if quick else 2
    version = [sys.executable, "-m", "repro.cli", "--version"]
    importing = [
        sys.executable, "-c",
        "import time; t = time.perf_counter(); import repro.cli; "
        "print(time.perf_counter() - t)",
    ]
    cold, imported = [], []
    for _ in range(samples):
        started = time.perf_counter()
        subprocess.run(
            version, env=_child_env(), capture_output=True, check=True,
            timeout=60,
        )
        cold.append(time.perf_counter() - started)
        done = subprocess.run(
            importing, env=_child_env(), capture_output=True, text=True,
            check=True, timeout=60,
        )
        imported.append(float(done.stdout.strip()))
    return {
        "cli.cold_start_s": statistics.median(cold),
        "cli.import_s": statistics.median(imported),
    }


def _calibrated(stats: dict, factor: float) -> dict:
    """Divide every host duration a pass reported by its speed factor."""
    stats["phases"] = {
        phase: seconds / factor for phase, seconds in stats["phases"].items()
    }
    if "samples" in stats:
        stats["samples"] = [seconds / factor for seconds in stats["samples"]]
    stats["speed_factor"] = factor
    return stats


def _probed(measure, *args) -> dict[str, float]:
    """Run a ``{name: host seconds}`` probe; calibrate what it read."""
    before = probe()
    values = measure(*args)
    factor = speed_factor(before, probe())
    return {name: value / factor for name, value in values.items()}


def _timed_passes(workload, ops, reference, seconds, min_passes):
    """Closed loop of passes; returns [(wall, stats)] of those that ran.

    ``wall`` is in calibrated seconds, ``stats["raw_wall_s"]`` as read.
    Every pass must reproduce ``reference`` (the warm-up's digest, or
    the first pass's when there was no warm-up).
    """
    records = []
    gc.collect()
    gc.freeze()
    try:
        kind = workload.probe_kind
        began = time.perf_counter()
        before = probe(kind)
        while (
            len(records) < min_passes
            or time.perf_counter() - began < seconds
        ):
            started = time.perf_counter()
            try:
                stats = workload.run_pass(ops)
            except Exception as exc:  # the pass is one failed operation
                ops.fail(f"pass {len(records) + 1} raised {exc!r}")
                break
            wall = time.perf_counter() - started
            after = probe(kind)
            factor = speed_factor(before, after, kind)
            before = after
            if reference is None:
                reference = stats["digest"]
            ops.check(
                stats["digest"] == reference,
                f"pass {len(records) + 1} digest differs from pass 1",
            )
            stats["raw_wall_s"] = wall
            records.append((wall / factor, _calibrated(stats, factor)))
            # Cyclic garbage of a pass (a whole byte-level cluster, say)
            # is dropped between passes, so peak memory is one pass's
            # footprint and not a matter of when the collector last ran.
            gc.collect()
            if wall > PASS_BUDGET_S:
                ops.fail(f"pass took {wall:.1f}s > {PASS_BUDGET_S:.0f}s")
                break
    finally:
        gc.unfreeze()
    return records


def _end_to_end(workload, records, setup_samples, ops) -> dict:
    """Every end-to-end metric of this workload, with its spread."""
    per_pass: dict[str, list[float]] = {"pass_wall_s": []}
    for wall, stats in records:
        per_pass["pass_wall_s"].append(wall)
        for name, value in workload.end_to_end(stats, wall).items():
            per_pass.setdefault(name, []).append(value)
    per_pass["setup_s"] = list(setup_samples)
    per_pass["peak_rss_mb"] = [peak_rss_mb()]
    per_pass["failed_share"] = [ops.failed / max(ops.attempted, 1)]
    for name, value in records[-1][1]["sim"].items():
        per_pass[name] = [value]
    out = {}
    for name, values in per_pass.items():
        spec = END_TO_END[name]
        q1, median, q3 = quartiles(values)
        out[name] = {
            "value": median, "unit": spec["unit"], "kind": spec["kind"],
            "q1": q1, "q3": q3, "n": len(values), "samples": values,
        }
    return out


def _traced(name, seed, quick, ops, reference, untraced, calibration_s):
    """The traced run: per-layer ledger from spans recorded outside-in."""
    wall_median = statistics.median(wall for wall, _ in untraced)
    last_stats = untraced[-1][1]
    phase_medians = {
        phase: statistics.median(s["phases"][phase] for _, s in untraced)
        for phase in last_stats["phases"]
    }
    recorder = Recorder()
    roots: dict[int, int] = {}
    factors: dict[int, float] = {}
    with recorder:
        layers.install(recorder)
        workload = REGISTRY[name](seed, quick)
        before = probe()
        with recorder.root("setup") as setup_root:
            workload.setup(ops)
        setup_factor = speed_factor(before, probe())
        if not quick:
            keep = len(recorder.spans)
            with recorder.root("warmup"):
                workload.run_pass(Ops())
            recorder.truncate(keep)
        kind = workload.probe_kind
        before = probe(kind)
        for index in range(1 if quick else TRACED_PASSES):
            with recorder.root("pass") as root:
                stats = workload.run_pass(ops)
            after = probe(kind)
            roots[root] = index
            factors[root] = speed_factor(before, after, kind)
            before = after
            ops.check(
                stats["digest"] == reference,
                "tracing changed the simulated outcome",
            )
    # Mean over the traced passes, each in its own calibrated seconds.
    passes = len(roots)
    totals = Totals()
    for root, factor in factors.items():
        of_pass = recorder.totals(root)
        raw_wall = of_pass.total_s("pass")
        ops.check(
            abs(sum(row[2] for row in of_pass.values()) - raw_wall)
            <= 1e-9 * max(raw_wall, 1.0),
            "span self-times do not sum to the traced pass time",
        )
        for span, (calls, total, own) in of_pass.items():
            totals.add(
                span, calls / passes, total / factor / passes,
                own / factor / passes,
            )
    traced_wall = totals.total_s("pass")

    layer = layers.ledger(totals)
    setup_totals = recorder.totals(setup_root)
    for entry, span in (
        ("traces.generate.self_s", "traces.generate"),
        ("traces.to_network.self_s", "traces.to_network"),
        ("loadgen.generate.self_s", "loadgen.generate"),
    ):
        layer[entry] += setup_totals.self_s(span) / setup_factor
    layer.update(last_stats["layer"])
    layer.update(workload.layer_rates(phase_medians, wall_median, last_stats))
    layer.update(workload.layer_traced(recorder, totals))
    steps = layer.get("network.simulator.steps")
    if steps:
        layer["network.simulator.us_per_step"] = (
            1e6 * layer["network.simulator.advance.self_s"] / steps
        )
        layer["network.simulator.steps_per_s"] = steps / wall_median
    layer["bench.trace_overhead_frac"] = traced_wall / wall_median - 1.0
    layer["bench.unattributed_frac"] = totals.self_s("pass") / traced_wall
    layer["bench.calibration_s"] = calibration_s
    layer["bench.speed_factor"] = statistics.median(
        stats["speed_factor"] for _, stats in untraced
    )
    layer.update(_probed(cli_probe, quick))
    if workload.plan_probe:
        layer.update(_probed(plan_probe, quick))

    RESULTS_DIR.mkdir(exist_ok=True)
    document = recorder.to_json(name, roots)
    document["speed_factors"] = {
        "setup": setup_factor,
        "passes": [factors[root] for root in roots],
    }
    trace_path = RESULTS_DIR / f"trace-{name}.json"
    trace_path.write_text(json.dumps(document) + "\n")
    return layer


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    quick: bool,
    import_s: float,
) -> dict:
    """Run one workload in this process; returns its full record."""
    workload = REGISTRY[name](seed, quick)
    ops = Ops()
    setup_samples = []
    if not (quick or trace):
        setup_samples = [
            setup_in_child(name, seed, quick) for _ in range(SETUP_CHILDREN)
        ]
    setup_samples.append(timed_setup(workload, ops, import_s))

    # Untimed warm-up pass; its digest is what every later pass must
    # reproduce (quick mode has no warm-up, its single pass is pass 1).
    reference = None
    if not quick:
        try:
            reference = workload.run_pass(Ops())["digest"]
        except Exception as exc:
            ops.fail(f"warm-up pass raised {exc!r}")
    if quick:
        budget, min_passes = 0.0, 1
    elif trace:
        budget, min_passes = seconds * TRACE_UNTRACED_SHARE, MIN_PASSES
    else:
        budget, min_passes = seconds, MIN_PASSES
    records = []
    if reference is not None or quick:
        records = _timed_passes(workload, ops, reference, budget, min_passes)

    record = {
        "workload": name,
        "seed": seed,
        "quick": quick,
        "sizes": workload.sizes,
        "passes": len(records),
        "digest": records[-1][1]["digest"] if records else None,
        "raw_pass_wall_s": [stats["raw_wall_s"] for _, stats in records],
        "speed_factors": [stats["speed_factor"] for _, stats in records],
    }
    if records:
        record["end_to_end"] = _end_to_end(
            workload, records, setup_samples, ops
        )
        if trace:
            # A raise anywhere in the traced run is one failed operation;
            # the record still carries the untraced end-to-end values.
            layer = dict.fromkeys(PER_LAYER, 0.0)
            try:
                layer.update(_traced(
                    name, seed, quick, ops, records[0][1]["digest"], records,
                    calibrate(),
                ))
            except Exception as exc:
                ops.fail(f"traced run raised {exc!r}")
            record["per_layer"] = {
                metric: {"value": value, "unit": PER_LAYER[metric]["unit"]}
                for metric, value in layer.items()
            }
    record["attempted"] = max(ops.attempted, 1)
    record["failed"] = ops.failed
    record["correct"] = bool(records) and ops.failed == 0
    record["failures"] = ops.messages
    return record
