"""Decision: does gray-failure hedging stay? (ROADMAP item 22)

The rule, fixed before any result: hedging stays if, under either
placement, the median per-seed change of fleet makespan (the largest job
``total_seconds``) or the change of summed ``breach_seconds`` is -5 % or
better, with no seed's makespan more than 5 % worse.  Otherwise it goes.

Arms: ``run_storm`` on seeds 0-5 with the default ``StormConfig``, once
as it is and once with every ``StripeRepairMaster`` the control plane
builds given ``HealthPolicy()`` (the bench patches the class the plane
imports; ``src/`` has no switch for it).  The storm's gray wave degrades
one survivor per rack, the fault hedging exists for.

Placements: ``place_stripes`` as the storm calls it, and a rack-capped
rejection sampler (at most n - k chunks of a stripe per rack, ROADMAP
item 18(a)'s prototype) that redraws ``place_stripes``' draw until it
fits.

Storms pin their planning charge, so every number is a function of the
seed and a re-run rewrites ``benchmarks/results/decision_hedging.txt``
byte for byte.
"""

from unittest import mock

import pytest

import repro.controlplane.plane as plane
import repro.controlplane.storm as storm
from conftest import record
from decisions import paired, rack_capped
from repro.controlplane.storm import StormConfig, run_storm
from repro.resilience import HealthPolicy

SEEDS = range(6)
#: The rule: a change at or below GAIN keeps hedging, unless a seed's
#: makespan changes by more than WORST.
GAIN = -0.05
WORST = 0.05


def storm_run(seed: int, hedged: bool, capped: bool) -> dict:
    """One storm's fleet makespan, breach seconds, hedges and repairs."""
    masters = []

    class Master(plane.StripeRepairMaster):
        def __init__(self, *args, **kwargs):
            if hedged:
                kwargs["health"] = HealthPolicy()
            super().__init__(*args, **kwargs)
            masters.append(self)

    placement = rack_capped if capped else storm.place_stripes
    with mock.patch.object(plane, "StripeRepairMaster", Master), \
            mock.patch.object(storm, "place_stripes", placement):
        report = run_storm(StormConfig(seed=seed))
    return {
        "makespan": max(
            job.total_seconds for job in report.fleet.jobs.values()
        ),
        "breach": report.breach_seconds,
        "hedges": sum(
            master.registry.counter("hedges_launched").value
            for master in masters
        ),
        "repaired": report.fleet.chunks_repaired,
        "lost": report.fleet.chunks_repaired + report.fleet.chunks_failed,
    }


def decide(rows: dict) -> tuple[dict, bool]:
    """Per placement, the changes the rule reads; and whether it keeps
    hedging under any placement."""
    summary = {}
    for name, by_seed in rows.items():
        makespan = paired(
            [by_seed[seed][False]["makespan"] for seed in SEEDS],
            [by_seed[seed][True]["makespan"] for seed in SEEDS],
        )
        breach = [
            sum(by_seed[seed][arm]["breach"] for seed in SEEDS)
            for arm in (False, True)
        ]
        summary[name] = {
            "makespan": makespan,
            "breach": breach,
            "breach_change": breach[1] / breach[0] - 1.0,
        }
    stays = any(
        (s["makespan"].median <= GAIN or s["breach_change"] <= GAIN)
        and s["makespan"].worst <= WORST
        for s in summary.values()
    )
    return summary, stays


def report_lines(rows: dict, summary: dict, stays: bool) -> list[str]:
    lines = [
        "Decision: gray-failure hedging (ROADMAP item 22)",
        f"rule: stays if median fleet makespan or summed breach_seconds "
        f"changes by <= {GAIN:+.0%} under either placement, with no seed's "
        f"makespan worse by > {WORST:.0%}",
        "arms: run_storm, default StormConfig, without / with "
        "HealthPolicy() on every master",
        "",
    ]
    for name, by_seed in rows.items():
        lines.append(f"placement: {name}")
        lines.append(
            "seed  makespan off -> on (s)  change   breach off -> on (s)"
            "  hedges  repaired"
        )
        s = summary[name]
        makespan = s["makespan"]
        for seed in SEEDS:
            off, on = by_seed[seed][False], by_seed[seed][True]
            change = makespan.changes[seed]
            lines.append(
                f"{seed:>4}  {off['makespan']:>8.2f} -> {on['makespan']:<8.2f}"
                f"     {change:+6.1%}   {off['breach']:>7.2f} -> "
                f"{on['breach']:<7.2f}    {on['hedges']:>4.0f}  "
                f"{on['repaired']:>3}/{on['lost']}"
            )
        idle = [
            abs(makespan.changes[seed]) for seed in SEEDS
            if by_seed[seed][True]["hedges"] == 0
        ]
        lines.append(
            f"median makespan change {makespan.median:+.1%}; summed breach "
            f"{s['breach'][0]:.2f} -> {s['breach'][1]:.2f} s "
            f"({s['breach_change']:+.1%}); worst seed "
            f"{makespan.worst:+.1%}"
        )
        if idle:
            lines.append(
                f"seeds with no hedge launched: {len(idle)}, makespan "
                f"still moves by up to {max(idle):.1%} (the monitor's "
                "check wake-ups alone move the plane's rounds)"
            )
        lines.append("")
    lines.append(f"verdict: hedging {'stays' if stays else 'goes'}")
    return lines


@pytest.mark.benchmark(group="decision")
def test_decision_hedging(benchmark):
    def run():
        return {
            name: {
                seed: {
                    hedged: storm_run(seed, hedged, capped)
                    for hedged in (False, True)
                }
                for seed in SEEDS
            }
            for name, capped in (("today", False), ("rack-capped", True))
        }

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    summary, stays = decide(rows)
    record("decision_hedging", report_lines(rows, summary, stays))
    # The unhedged arm is today's storm: hedging is off by default.
    for seed in SEEDS:
        assert rows["today"][seed][False]["hedges"] == 0
