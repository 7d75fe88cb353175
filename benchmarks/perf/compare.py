"""Compare two result files of ``run.py``: one row per (workload, metric).

    python benchmarks/perf/compare.py A.json B.json

A is the base (the parent commit), B the change.  Every row shows both
medians with their quartiles, the ratio B/A **with its base**, the
metric's bound and a verdict:

``same``         medians within the bound
``better``       B better than A by more than the bound
``worse``        B worse than A by more than the bound
``unresolved``   the pass-to-pass spread (inter-quartile range over the
                 median, either side) is wider than the bound, so the
                 medians settle nothing — unless every sample of one
                 side beats every sample of the other
``sim-changed``  a simulated metric or the outcome digest moved at all
                 (> 1e-9 relative): a behaviour change, not noise

Host times of a workload are also ``unresolved``, whatever the samples
say, when its two runs met different machine conditions: median speed
factors more than :data:`SPEED_GAP` apart.  Calibration removes most of
such a gap but not all of it.  In the committed A/A pairs
(``results/baseline-seed*.json`` against ``repeat-seed*.json``) the
calibrated medians of identical code agree within about 6 % when the
factors are within 1.2x of each other and only within 15 % when they
are not (raw medians: up to 54 % apart), and noise that outlasts a run
shifts every pass alike, so its pass-to-pass spread does not show it.

When both files come from ``--trace`` runs, each workload's end-to-end
rows are followed by its per-layer entries that are non-zero on a side
(B/A with its base, no verdict: the ledger shows where a change landed,
it gates nothing).

Exit status is 1 on any ``worse`` or a higher ``failed_share``, 2 when
the files cannot be compared, else 0.  ``sim-changed`` is reported, not
failed: a change that means to alter simulated behaviour says so in its
issue.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import statistics

from manifest import END_TO_END, SCHEMA_VERSION, SIM_RTOL

#: Largest ratio between two runs' median speed factors at which their
#: calibrated host times are still compared against a 10 % bound.
SPEED_GAP = 1.2


def _spread(entry: dict) -> float:
    """Inter-quartile range as a share of the median (0 for one sample)."""
    if entry["n"] < 2 or not entry["value"]:
        return 0.0
    return (entry["q3"] - entry["q1"]) / abs(entry["value"])


def _dominates(winners: list[float], losers: list[float], lower: bool) -> bool:
    """Every winner sample beats every loser sample."""
    if lower:
        return max(winners) < min(losers)
    return min(winners) > max(losers)


def verdict(
    metric: str, base: dict, change: dict, conditions_differ: bool = False
) -> str:
    """Classify one metric of one workload; see the module docstring."""
    spec = END_TO_END[metric]
    a, b = base["value"], change["value"]
    if spec["kind"] == "sim":
        scale = max(abs(a), abs(b), 1e-300)
        return "same" if abs(b - a) <= SIM_RTOL * scale else "sim-changed"
    if spec["kind"] == "check":
        return "worse" if b > a else "same"
    if conditions_differ and metric != "peak_rss_mb":
        return "unresolved"
    lower = spec["better"] == "lower"
    worsening = (b - a) / a if lower else (a - b) / a
    bound = spec["bound"]
    noisy = max(_spread(base), _spread(change)) > bound
    if worsening > bound:
        settled = not noisy or _dominates(
            base["samples"], change["samples"], lower
        )
        return "worse" if settled else "unresolved"
    if worsening < -bound:
        settled = not noisy or _dominates(
            change["samples"], base["samples"], lower
        )
        return "better" if settled else "unresolved"
    return "unresolved" if noisy else "same"


def _cell(entry: dict) -> str:
    text = f"{entry['value']:.6g}"
    if entry["n"] > 1:
        text += f" [{entry['q1']:.4g}, {entry['q3']:.4g}]"
    return text


def compare(base: dict, change: dict) -> int:
    """Print the table; returns the exit status."""
    status = 0
    header = (
        f"{'workload':<20}{'metric':<20}{'A (base)':<34}{'B':<34}"
        f"{'B/A':<26}{'bound':<9}verdict"
    )
    print(header)
    print("-" * len(header))
    for name, a_run in base["workloads"].items():
        b_run = change["workloads"].get(name)
        if b_run is None:
            print(f"{name:<20}missing from B")
            status = max(status, 2)
            continue
        if a_run["digest"] != b_run["digest"]:
            print(f"{name:<20}{'digest':<20}{a_run['digest'][:12]:<34}"
                  f"{b_run['digest'][:12]:<34}{'':<26}{'exact':<9}sim-changed")
        a_speed, b_speed = (
            statistics.median(run["speed_factors"]) for run in (a_run, b_run)
        )
        conditions_differ = not (
            1.0 / SPEED_GAP <= b_speed / a_speed <= SPEED_GAP
        )
        if conditions_differ:
            print(f"{name:<20}speed factor B/A = {b_speed / a_speed:.3f} of "
                  f"{a_speed:.3f}: conditions differ, host times unresolved")
        for metric, a_entry in a_run["end_to_end"].items():
            b_entry = b_run["end_to_end"].get(metric)
            if b_entry is None:
                continue
            outcome = verdict(metric, a_entry, b_entry, conditions_differ)
            if outcome == "worse":
                status = max(status, 1)
            a, b = a_entry["value"], b_entry["value"]
            ratio = (
                f"{b / a:.4f} of {a:.5g} {a_entry['unit']}" if a
                else f"{b:.5g} vs 0"
            )
            spec = END_TO_END[metric]
            bound = "exact" if spec["kind"] == "sim" else f"{spec['bound']:.0%}"
            print(
                f"{name:<20}{metric:<20}{_cell(a_entry):<34}"
                f"{_cell(b_entry):<34}{ratio:<26}{bound:<9}{outcome}"
            )
        b_layers = b_run.get("per_layer", {})
        for metric, a_entry in a_run.get("per_layer", {}).items():
            b_entry = b_layers.get(metric)
            if b_entry is None:
                continue
            a, b = a_entry["value"], b_entry["value"]
            if not (a or b):
                continue
            ratio = f"{b / a:.4f} of {a:.5g}" if a else "new"
            print(
                f"{'':<20}  {metric:<40}{a:<16.6g}{b:<16.6g}"
                f"{ratio} {a_entry['unit']}"
            )
    return status


def _load(path: Path) -> dict:
    document = json.loads(path.read_text())
    if document.get("version") != SCHEMA_VERSION:
        raise SystemExit(
            f"{path}: schema version {document.get('version')!r}, "
            f"this compare.py reads {SCHEMA_VERSION}"
        )
    return document


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="A: the parent's results")
    parser.add_argument("change", type=Path, help="B: the change's results")
    args = parser.parse_args(argv)
    base, change = _load(args.base), _load(args.change)
    status = 0
    for label, document in (("A", base), ("B", change)):
        if not document.get("comparable", False):
            print(f"{label} is a --quick smoke run: not comparable",
                  file=sys.stderr)
            status = 2
    if base["seed"] != change["seed"]:
        print(
            f"seeds differ (A {base['seed']}, B {change['seed']}): simulated "
            "metrics are expected to differ", file=sys.stderr,
        )
    a_cal = base["environment"]["bench.calibration_s"]
    b_cal = change["environment"]["bench.calibration_s"]
    print(
        f"calibration loop: B/A = {b_cal / a_cal:.3f} of {a_cal:.5g} s "
        "(host seconds are already speed-calibrated per pass)"
    )
    return max(status, compare(base, change))


if __name__ == "__main__":
    sys.exit(main())
