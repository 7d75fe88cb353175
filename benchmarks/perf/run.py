"""The repo's benchmark: seven workloads, checked outputs, named metrics.

Two ways in, one measuring path:

* **One workload, one line** (what ``BENCHMARK.json``'s command runs)::

      python3 benchmarks/perf/run.py --workload NAME --seed N \
          --seconds S --trace 0|1

  runs the workload in this process and prints, as the last line of
  standard output, ``{"correct", "attempted", "failed", "metrics"}`` —
  the gated end-to-end metrics with ``--trace 0``, the per-layer ledger
  with ``--trace 1``.

* **The whole benchmark** (no ``--seconds``)::

      python benchmarks/perf/run.py [--seed N] [--workload NAME]
                                    [--trace] [--quick] [--out FILE]

  runs every workload (or the one named) in its own fresh subprocess,
  one after the other, prints every metric by name with its unit, and
  writes the result file ``compare.py`` reads.

``src/`` is put on ``sys.path`` here, so ``PYTHONPATH`` is optional.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", default=None, metavar="NAME")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="measure one workload for this long and print one JSON line",
    )
    parser.add_argument(
        "--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
        help="also (whole benchmark) or instead (one line) run traced",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="smoke mode: reduced sizes, 1 pass, not comparable",
    )
    parser.add_argument(
        "--out", type=Path, default=None,
        help="result file of the whole benchmark "
        "(default results/latest-seed<N>.json)",
    )
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--record", type=Path, default=None,
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _default_seconds() -> float:
    try:
        return float(json.loads(BENCHMARK_JSON.read_text())["run_seconds"])
    except (OSError, KeyError, ValueError):
        return 8.0


def _load_harness():
    """Import the benchmark (and with it numpy and repro); timed."""
    sys.path.insert(0, str(SRC))
    import harness

    return harness, time.perf_counter() - _STARTED


# ----------------------------------------------------------------------
# One workload in this process
# ----------------------------------------------------------------------
def _row(entry: dict) -> dict:
    return {"value": entry["value"], "unit": entry["unit"]}


def run_one(args) -> int:
    harness, import_s = _load_harness()
    from manifest import END_TO_END, GATED

    if args.setup_only:
        seconds = harness.setup_only(
            args.workload, args.seed, args.quick, import_s
        )
        print(json.dumps({"setup_s": seconds}))
        return 0
    record = harness.run_workload(
        args.workload, args.seed,
        args.seconds if args.seconds is not None else _default_seconds(),
        bool(args.trace), args.quick, import_s,
    )
    if args.record is not None:
        args.record.write_text(json.dumps(record) + "\n")
    for message in record["failures"]:
        print(f"FAILED: {message}", file=sys.stderr)
    if "end_to_end" not in record:
        return 1
    measured = record["end_to_end"]
    if args.trace:
        # The contract's per_layer list: the ledger, plus the end-to-end
        # metrics it cannot gate (0 where one does not apply).
        metrics = {
            name: _row(measured[name]) if name in measured
            else {"value": 0.0, "unit": END_TO_END[name]["unit"]}
            for name in END_TO_END if name not in GATED
        }
        metrics.update(record["per_layer"])
    else:
        metrics = {name: _row(measured[name]) for name in GATED}
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


# ----------------------------------------------------------------------
# The whole benchmark: one fresh subprocess per workload
# ----------------------------------------------------------------------
def _child(name: str, args, trace: int, scratch: Path) -> dict:
    record_path = scratch / f"record-{name}-{trace}.json"
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", name,
        "--seed", str(args.seed), "--seconds", str(_default_seconds()),
        "--trace", str(trace), "--record", str(record_path),
    ]
    if args.quick:
        command.append("--quick")
    done = subprocess.run(command, capture_output=True, text=True)
    sys.stderr.write(done.stderr)
    try:
        return json.loads(record_path.read_text())
    except OSError:
        raise SystemExit(
            f"{name}: run exited {done.returncode} without a record"
        ) from None
    finally:
        record_path.unlink(missing_ok=True)


def _environment(calibration_s: float) -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "bench.calibration_s": calibration_s,
    }


def _print_workload(name: str, entry: dict) -> None:
    status = "ok" if entry["correct"] else "FAILED"
    print(
        f"\n== {name}  [{status}: {entry['failed']} failed of "
        f"{entry['attempted']} operations, {entry['passes']} passes]"
    )
    for metric, row in entry["end_to_end"].items():
        spread = ""
        if row["n"] > 1:
            spread = (
                f"   q1 {row['q1']:.6g}  q3 {row['q3']:.6g}  n={row['n']}"
            )
        print(
            f"  {metric:<22} {row['value']:>14.6g} {row['unit']:<6}"
            f" [{row['kind']}]{spread}"
        )
    # Host seconds above are at reference speed; this is what was read.
    print(
        f"  raw pass_wall_s median "
        f"{statistics.median(entry['raw_pass_wall_s']):.6g} s at speed "
        f"factor {statistics.median(entry['speed_factors']):.3f}"
    )
    bypassed = []
    for metric, row in entry.get("per_layer", {}).items():
        if row["value"]:
            print(f"    {metric:<40} {row['value']:>14.6g} {row['unit']}")
        else:
            bypassed.append(metric)
    if bypassed:
        print(f"    0 (layer bypassed or not applicable): {' '.join(bypassed)}")


def run_all(args) -> int:
    harness, _ = _load_harness()
    from manifest import SCHEMA_VERSION, WORKLOADS

    names = [args.workload] if args.workload else list(WORKLOADS)
    scratch = HERE / "results"
    scratch.mkdir(exist_ok=True)
    result = {
        "version": SCHEMA_VERSION,
        "comparable": not args.quick,
        "seed": args.seed,
        "quick": args.quick,
        "run_seconds": _default_seconds(),
        "environment": _environment(harness.calibrate()),
        "workloads": {},
    }
    for name in names:
        # Quick mode gets both halves from one traced child; a full run
        # takes end-to-end numbers from an untraced child of its own.
        entry = None
        if not (args.quick and args.trace):
            entry = _child(name, args, 0, scratch)
        if args.trace:
            traced = _child(name, args, 1, scratch)
            if entry is None:
                entry = traced
            else:
                entry["per_layer"] = traced.get("per_layer", {})
                entry["attempted"] += traced["attempted"]
                entry["failed"] += traced["failed"]
                entry["correct"] = entry["correct"] and traced["correct"]
                entry["failures"] += traced["failures"]
        if "end_to_end" not in entry:
            print(f"{name}: no pass completed: {entry['failures']}",
                  file=sys.stderr)
            return 1
        result["workloads"][name] = entry
        _print_workload(name, entry)
    out = args.out or scratch / f"latest-seed{args.seed}.json"
    out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(f"\nresults -> {out}")
    if not result["comparable"]:
        print("quick mode: numbers are a smoke test, not comparable")
    failed = sum(e["failed"] for e in result["workloads"].values())
    return 1 if failed else 0


def main(argv=None) -> int:
    from manifest import WORKLOADS

    args = parse_args(argv)
    if args.workload is not None and args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if args.seconds is not None or args.setup_only or args.record:
        if args.workload is None:
            print("--seconds needs --workload", file=sys.stderr)
            return 2
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
