"""cProfile one pass of a ``benchmarks/perf`` workload.

    python scripts/profile_pass.py <workload> [--seed N] [--top N]

Sets the workload up exactly as the benchmark does (its modules are
imported, not edited), runs one warm-up pass, profiles the next and
prints the hottest functions by cumulative and by self time.  Hot paths
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
    args = parser.parse_args(argv)

    ops = Ops()
    workload = REGISTRY[args.workload](args.seed)
    workload.setup(ops)
    workload.run_pass(ops)
    profiler = cProfile.Profile()
    profiler.enable()
    workload.run_pass(ops)
    profiler.disable()
    for message in ops.messages:
        print(f"FAILED: {message}", file=sys.stderr)
    stats = pstats.Stats(profiler)
    for order in ("cumulative", "tottime"):
        stats.sort_stats(order).print_stats(args.top)
    return 1 if ops.failed else 0


if __name__ == "__main__":
    sys.exit(main())
