"""cProfile one pass, or the set-up, of a ``benchmarks/perf`` workload.

    python scripts/profile_pass.py <workload> [--seed N] [--top N]
                                   [--phase {setup,pass}]

Sets the workload up exactly as the benchmark does (its modules are
imported, not edited), runs one warm-up pass, profiles the next and
prints the hottest functions by cumulative and by self time; with
``--phase setup`` it profiles the set-up instead (what ``setup_s``
times, less the imports) and runs no pass.  Hot paths
are chosen from this, not from intuition (ROADMAP north star); the
numbers are host seconds under the profiler, good for ranking and call
counts, not for claims — those come from ``benchmarks/perf/run.py``.
"""

import argparse
import cProfile
import pstats
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "perf")]

from harness import Ops  # noqa: E402
from workloads import REGISTRY  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(REGISTRY))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--top", type=int, default=40)
    parser.add_argument("--phase", choices=("setup", "pass"), default="pass")
    args = parser.parse_args(argv)

    ops = Ops()
    workload = REGISTRY[args.workload](args.seed)
    profiler = cProfile.Profile()
    if args.phase == "setup":
        profiler.runcall(workload.setup, ops)
    else:
        workload.setup(ops)
        workload.run_pass(ops)
        profiler.runcall(workload.run_pass, ops)
    for message in ops.messages:
        print(f"FAILED: {message}", file=sys.stderr)
    stats = pstats.Stats(profiler)
    for order in ("cumulative", "tottime"):
        stats.sort_stats(order).print_stats(args.top)
    return 1 if ops.failed else 0


if __name__ == "__main__":
    sys.exit(main())
