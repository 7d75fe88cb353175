"""cProfile one pass, or the set-up, of a ``benchmarks/perf`` workload.

    python scripts/profile_pass.py --workload W [--seed N] [--top N]
                                   [--phase {setup,pass}]

Sets the workload up exactly as the benchmark does (its modules are
imported, not edited), runs one warm-up pass, profiles the next and
prints the hottest functions by cumulative and by self time, then self
time summed per module (``repro.obs.metrics``, ``<built-in>``, ...)
with its share of the profiled total; with
``--phase setup`` it profiles the set-up instead (what ``setup_s``
times, less the imports) and runs no pass.  Hot paths
are chosen from this, not from intuition (ROADMAP north star); the
numbers are host seconds under the profiler, good for ranking and call
counts, not for claims — those come from ``benchmarks/perf/run.py``.

The warm-up pass, unprofiled, also takes the fluid engine's component
census: the count of its small solves (``IncrementalEngine._solve`` on
two or more entities) and, per solve, the mean entities, columns and
private columns (one registered user).  The script tallies them by
wrapping ``_solve`` for that pass alone; nothing under ``src/`` counts.
The same pass also counts the labeled look-ups (a
``MetricsRegistry.counter`` / ``gauge`` / ``histogram`` call with a
label, a ``TimeSeriesDB`` series look-up with one) and the label-set
canonicalisations (``render_labels`` and ``label_items`` calls in
``repro.obs.metrics`` and ``repro.obs.timeseries``), wrapped the same
way: a look-up the registry or the TSDB has seen before renders nothing.

On Linux it also prints the profiled phase's own memory: the resident
set when it started and its peak while it ran (``VmHWM``, reset through
``/proc/self/clear_refs`` just before the call, so an earlier phase's
peak does not hide it).  Where ``/proc`` is absent it prints nothing.
"""

import argparse
import cProfile
import gc
import pstats
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "perf")]

from harness import Ops  # noqa: E402
from workloads import REGISTRY  # noqa: E402

import repro.obs.metrics as obs_metrics  # noqa: E402
import repro.obs.timeseries as timeseries  # noqa: E402
from repro.network.engine import IncrementalEngine  # noqa: E402


def _memory_mib() -> dict[str, float]:
    """``VmRSS`` / ``VmHWM`` of this process in MiB; empty without /proc."""
    try:
        status = Path("/proc/self/status").read_text()
    except OSError:
        return {}
    fields = (line.partition(":") for line in status.splitlines())
    return {
        key: int(value.split()[0]) / 1024
        for key, _, value in fields
        if key in ("VmRSS", "VmHWM")
    }


def _reset_peak() -> bool:
    """Make ``VmHWM`` the current RSS; False where the kernel can't."""
    try:
        Path("/proc/self/clear_refs").write_text("5")
    except OSError:
        return False
    return True


def census(call, *args) -> dict[str, int]:
    """Run ``call(*args)`` and tally the engine's small solves in it.

    Totals over every ``IncrementalEngine._solve`` of two or more
    entities: ``solves``, and the ``entities``, ``columns`` (distinct
    columns the entities use) and ``private`` columns (one registered
    user) of each, read before the solve runs.
    """
    tally = dict.fromkeys(("solves", "entities", "columns", "private"), 0)
    solve = IncrementalEngine._solve

    def counted(engine, entity_ids):
        if len(entity_ids) > 1:
            columns = {
                col for entity in entity_ids for col in engine._usage[entity]
            }
            tally["solves"] += 1
            tally["entities"] += len(entity_ids)
            tally["columns"] += len(columns)
            tally["private"] += sum(
                len(engine._users[col]) == 1 for col in columns
            )
        return solve(engine, entity_ids)

    IncrementalEngine._solve = counted
    try:
        call(*args)
    finally:
        IncrementalEngine._solve = solve
    return tally


def print_census(tally: dict[str, int]) -> None:
    """One line: the small solves, then their means per solve."""
    count = tally["solves"]
    line = f"census of the warm-up pass: {count} small solves"
    if count:
        line += ", mean per solve: " + ", ".join(
            f"{tally[key] / count:.1f} {key}"
            for key in ("entities", "columns", "private")
        )
    print(line)


def label_census(call, *args) -> dict[str, int]:
    """Run ``call(*args)`` and tally its labeled look-ups and the
    canonicalisations of label sets in it.

    ``lookups`` counts ``MetricsRegistry.counter`` / ``gauge`` /
    ``histogram`` calls with a label and ``TimeSeriesDB._get`` calls
    with one; ``render_labels`` and ``label_items`` count the calls of
    those functions from ``repro.obs.metrics`` (``render_labels`` calls
    ``label_items`` too) and from ``repro.obs.timeseries``.
    """
    tally = dict.fromkeys(("lookups", "render_labels", "label_items"), 0)

    def counting(fn, key, labeled):
        def counted(*args, **kwargs):
            if labeled(args, kwargs):
                tally[key] += 1
            return fn(*args, **kwargs)
        return counted

    def every(args, kwargs):
        return True

    registry, tsdb = obs_metrics.MetricsRegistry, timeseries.TimeSeriesDB
    counted = [
        (obs_metrics, "render_labels", "render_labels", every),
        (obs_metrics, "label_items", "label_items", every),
        (timeseries, "label_items", "label_items", every),
        *(
            (registry, access, "lookups", lambda args, kwargs: bool(kwargs))
            for access in ("counter", "gauge", "histogram")
        ),
        # ``_get(self, name, labels, kind)``
        (tsdb, "_get", "lookups", lambda args, kwargs: bool(args[2])),
    ]
    originals = [
        (owner, name, getattr(owner, name)) for owner, name, _, _ in counted
    ]
    for (owner, name, key, labeled), (_, _, fn) in zip(counted, originals):
        setattr(owner, name, counting(fn, key, labeled))
    try:
        call(*args)
    finally:
        for owner, name, original in originals:
            setattr(owner, name, original)
    return tally


def print_label_census(tally: dict[str, int]) -> None:
    """One line: the labeled look-ups and what rendering they took."""
    print(
        f"labels of the warm-up pass: {tally['lookups']} labeled look-ups, "
        f"{tally['render_labels']} render_labels + "
        f"{tally['label_items']} label_items calls"
    )


def module_of(filename: str) -> str:
    """Dotted module of a profiled function's file: ``repro.obs.metrics``
    under ``src/``, ``harness`` under ``benchmarks/perf/``,
    ``<built-in>`` for C functions, ``<heapq>`` for anything else."""
    if filename == "~":
        return "<built-in>"
    path = Path(filename)
    for root in (ROOT / "src", ROOT / "benchmarks" / "perf"):
        if path.is_relative_to(root):
            return ".".join(path.relative_to(root).with_suffix("").parts)
    return f"<{path.stem}>"


def print_self_by_module(stats: pstats.Stats, top: int) -> None:
    """Self time per module, largest first, with share and call count."""
    totals: dict[str, list[float]] = {}
    for (filename, _, _), (_, calls, self_s, _, _) in stats.stats.items():
        entry = totals.setdefault(module_of(filename), [0.0, 0])
        entry[0] += self_s
        entry[1] += calls
    whole = sum(self_s for self_s, _ in totals.values()) or 1.0
    print(f"self time by module (of {whole:.3f} s):")
    print(f"{'self s':>9} {'share':>6} {'calls':>9}  module")
    ranked = sorted(totals.items(), key=lambda item: -item[1][0])
    for module, (self_s, calls) in ranked[:top]:
        print(f"{self_s:9.4f} {self_s / whole:6.1%} {calls:9d}  {module}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, metavar="W", choices=sorted(REGISTRY)
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--top", type=int, default=40)
    parser.add_argument("--phase", choices=("setup", "pass"), default="pass")
    args = parser.parse_args(argv)

    ops = Ops()
    workload = REGISTRY[args.workload](args.seed)
    profiler = cProfile.Profile()
    if args.phase == "setup":
        call = workload.setup
    else:
        workload.setup(ops)
        labels: dict[str, int] = {}
        tally = census(
            lambda: labels.update(label_census(workload.run_pass, ops))
        )
        call = workload.run_pass
    # The benchmark collects a pass's cyclic garbage (a whole byte-level
    # cluster, say) before the next; so does this, before measuring.
    gc.collect()
    start = _memory_mib() if _reset_peak() else {}
    profiler.runcall(call, ops)
    end = _memory_mib()
    for message in ops.messages:
        print(f"FAILED: {message}", file=sys.stderr)
    stats = pstats.Stats(profiler)
    for order in ("cumulative", "tottime"):
        stats.sort_stats(order).print_stats(args.top)
    print_self_by_module(stats, args.top)
    if args.phase == "pass":
        print_census(tally)
        print_label_census(labels)
    if start and end:
        print(
            f"memory of the profiled {args.phase}: "
            f"{start['VmRSS']:.1f} MiB resident at its start, "
            f"peak {end['VmHWM']:.1f} MiB "
            f"(+{end['VmHWM'] - start['VmRSS']:.1f} MiB), "
            f"{end['VmRSS']:.1f} MiB at its end"
        )
    return 1 if ops.failed else 0


if __name__ == "__main__":
    sys.exit(main())
