"""How steady is the benchmark?  Ten seeds per workload, twice (A/A).

    python3 benchmarks/perf/steadiness.py [--workload NAME] [--out FILE]

This is the acceptance procedure of the driver's contract, run by hand:
every workload is run with ``BENCHMARK.json``'s command on seeds 0-9,
then on the same seeds again.  For each gated end-to-end metric it
prints the **spread** of each set (inter-quartile range over the median
of the ten values, ``statistics.quantiles(values, n=4)``) and how far
the second set's median is from the first's; a spread must stay within
the metric's bound (``setup_s`` excepted) and the medians must agree
within it.  ``pass_wall_s`` is shown beside its uncalibrated readings
(``raw_pass_wall_s``), which is the evidence for calibrating host
seconds: see the README.  Takes ~40 min for all seven workloads.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from manifest import END_TO_END, GATED, SCHEMA_VERSION, WORKLOADS

HERE = Path(__file__).resolve().parent
SEEDS = tuple(range(10))
SETS = 2


def spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def measure(name: str, seconds: int, scratch: Path) -> list[dict]:
    """``SETS`` sets of ``{metric: [one value per seed]}``."""
    sets = []
    for _ in range(SETS):
        values: dict[str, list[float]] = {}
        for seed in SEEDS:
            record_path = scratch / "record.json"
            subprocess.run(
                [
                    sys.executable, str(HERE / "run.py"), "--workload", name,
                    "--seed", str(seed), "--seconds", str(seconds),
                    "--trace", "0", "--record", str(record_path),
                ],
                check=True, capture_output=True, timeout=180,
            )
            record = json.loads(record_path.read_text())
            if not record["correct"]:
                raise SystemExit(f"{name} seed {seed}: {record['failures']}")
            for metric in GATED:
                values.setdefault(metric, []).append(
                    record["end_to_end"][metric]["value"]
                )
            values.setdefault("raw_pass_wall_s", []).append(
                statistics.median(record["raw_pass_wall_s"])
            )
        sets.append(values)
    return sets


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=tuple(WORKLOADS), default=None)
    parser.add_argument(
        "--out", type=Path, default=HERE / "results" / "latest-steadiness.json"
    )
    args = parser.parse_args(argv)
    contract = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    seconds = contract["run_seconds"]
    names = [args.workload] if args.workload else list(WORKLOADS)
    result = {
        "version": SCHEMA_VERSION, "seeds": list(SEEDS),
        "run_seconds": seconds, "workloads": {},
    }
    unsteady = 0
    print(f"{'workload':<20}{'metric':<18}{'spread A':>9}{'spread B':>9}"
          f"{'median B/A':>24}{'bound':>7}")
    with tempfile.TemporaryDirectory(dir=HERE / "results") as scratch:
        for name in names:
            sets = measure(name, seconds, Path(scratch))
            result["workloads"][name] = sets
            for metric in sets[0]:
                first, second = (statistics.median(s[metric]) for s in sets)
                spreads = [spread(s[metric]) for s in sets]
                bound = END_TO_END.get(metric, {}).get("bound")
                if bound is not None and (
                    abs(second / first - 1.0) > bound
                    or (metric != "setup_s" and max(spreads) > bound)
                ):
                    unsteady += 1
                print(
                    f"{name:<20}{metric:<18}{spreads[0]:>9.3f}"
                    f"{spreads[1]:>9.3f}"
                    f"{f'{second / first:.3f} of {first:.4g}':>24}"
                    f"{'' if bound is None else f'{bound:.0%}':>7}"
                )
    args.out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(f"\nresults -> {args.out}")
    return 1 if unsteady else 0


if __name__ == "__main__":
    sys.exit(main())
