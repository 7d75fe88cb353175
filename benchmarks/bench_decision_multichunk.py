"""Decision: does §IV-F's multi-chunk fallback stay? (ROADMAP item 12)

The rule, fixed before any result: the fallback stays if, under either
placement, the median per-seed change of the doubly-hit stripes' summed
repair seconds (fallback against two trees) is -5 % or better, with no
seed worse than +5 %.  Otherwise it goes.  Bytes (k + 1 = 5 against
2k = 8 chunk transfers at RS(6,4)) are reported, not ruled on:
PivotRepair optimises repair time (Algorithm 1's ``B_min``, Eq. 3).

Stripes: every stripe of storm seeds 0-5 (default ``StormConfig``) with
exactly two chunks on the outage rack, each repaired alone on
``FaultyNetwork.wrap(storm_network(cfg), storm_fault_plan(cfg, net))``
from ``outage_at``.  Both replacements are picked once, by
``choose_requestor`` on the traffic-free snapshot (the second excludes
the first), and both arms rebuild at them from the stripe's surviving
chunks:

* **trees**: what the storm does, one ``PivotRepairPlanner`` tree per
  lost chunk, submitted together; the second is planned on the residual
  bandwidth left by the first.  A stripe's seconds are its later tree's
  finish plus the pipeline overhead.
* **fallback**: conventional repair at the first replacement, which
  downloads the chunks of the k best uplinks, decodes
  (``rebuilt * chunk / 1e9`` seconds) and uploads the other rebuilt
  chunk.  Until the verdict deleted ``repro.repair.multichunk``, this
  arm's seconds equalled its ``execute_multi_chunk``'s on every stripe.

Placements: ``place_stripes`` as the storm calls it, and the rack-capped
sampler of ``decisions.py``.  Nothing here charges planning time, so
every number is a function of the seed and a re-run rewrites
``benchmarks/results/decision_multichunk.txt`` byte for byte.
"""

from statistics import median

import pytest

from conftest import record
from decisions import paired, rack_capped
from repro.controlplane.storm import (
    OUTAGE_RACK,
    StormConfig,
    storm_fault_plan,
    storm_network,
)
from repro.core import BandwidthSnapshot, PivotRepairPlanner, best_uplinks
from repro.core.seeding import spawn_rng
from repro.ec import RSCode, place_stripes
from repro.faults.network import FaultyNetwork
from repro.network.simulator import FluidSimulator
from repro.repair.jobmaster import ResidualView, choose_requestor
from repro.repair.pipeline import (
    ExecutionConfig,
    pipeline_bytes_per_edge,
    pipeline_overhead_seconds,
)
from repro.units import mib

SEEDS = range(6)
#: The rule: a change at or below GAIN keeps the fallback, unless a
#: seed's summed repair seconds change by more than WORST.
GAIN = -0.05
WORST = 0.05
#: The requestor's decode throughput, bytes/second.
DECODE_RATE = 1e9


def trees(network, start, requestors, survivors, k, config):
    """Two pipelined trees submitted together: (seconds, bytes)."""
    sim = FluidSimulator(network, start_time=start)
    view = ResidualView(network, sim)
    planner = PivotRepairPlanner()
    handles = []
    for requestor in requestors:
        plan = planner.plan(view.snapshot(), requestor, survivors, k)
        handles.append(sim.submit_pipelined(
            plan.tree.edges(),
            pipeline_bytes_per_edge(config, plan.tree.depth()),
        ))
    sim.run()
    assert all(handle.done for handle in handles)
    seconds = (
        max(handle.finish_time for handle in handles) - start
        + pipeline_overhead_seconds(config)
    )
    return seconds, sim.total_bytes_transferred


def fallback(network, start, requestors, helpers, config):
    """Download, decode, upload at ``requestors[0]``: (seconds, bytes)."""
    requestor = requestors[0]
    chunk = float(config.chunk_size)
    sim = FluidSimulator(network, start_time=start)
    download = sim.submit_bulk([(node, requestor, chunk) for node in helpers])
    sim.run()
    decode = len(requestors) * config.chunk_size / DECODE_RATE
    sim.advance_to(sim.now + decode)
    upload = sim.submit_bulk(
        [(requestor, node, chunk) for node in requestors[1:]]
    )
    sim.run()
    assert download.done and upload.done
    return sim.now - start, sim.total_bytes_transferred


def seed_rows(seed: int, capped: bool) -> list[dict]:
    """Both arms on every doubly-hit stripe of one storm seed."""
    cfg = StormConfig(seed=seed)
    code = RSCode(cfg.n, cfg.k)
    base = storm_network(cfg)
    faults = storm_fault_plan(cfg, base)
    network = FaultyNetwork.wrap(base, faults)
    placement = rack_capped if capped else place_stripes
    stripes = placement(
        cfg.stripes, code, len(network),
        spawn_rng(cfg.seed, "storm", "placement"),
    )
    outage = set(base.nodes_in_rack(OUTAGE_RACK))
    start = cfg.outage_at
    dead = faults.dead_nodes(start)
    snapshot = BandwidthSnapshot.from_network(network, start)
    config = ExecutionConfig(chunk_size=int(mib(cfg.chunk_mib)))
    rows = []
    for stripe in stripes:
        lost = [node for node in stripe.placement if node in outage]
        if len(lost) != 2:
            continue
        survivors = [node for node in stripe.placement if node not in lost]
        requestors = []
        for node in lost:
            requestors.append(choose_requestor(
                snapshot, stripe, node, len(network),
                exclude=dead | set(requestors),
            ))
        helpers = best_uplinks(snapshot, survivors, code.k)
        tree_s, tree_b = trees(
            network, start, requestors, survivors, code.k, config
        )
        fall_s, fall_b = fallback(
            network, start, requestors, helpers, config
        )
        rows.append({
            "trees": tree_s, "fallback": fall_s,
            "trees_bytes": tree_b, "fallback_bytes": fall_b,
        })
    return rows


def decide(rows: dict) -> tuple[dict, bool]:
    """Per placement, the paired change of summed repair seconds; and
    whether the fallback stays under any placement."""
    summary = {
        name: paired(
            [sum(r["trees"] for r in by_seed[seed]) for seed in SEEDS],
            [sum(r["fallback"] for r in by_seed[seed]) for seed in SEEDS],
        )
        for name, by_seed in rows.items()
    }
    stays = any(s.holds(GAIN, WORST) for s in summary.values())
    return summary, stays


def report_lines(rows: dict, summary: dict, stays: bool) -> list[str]:
    lines = [
        "Decision: the multi-chunk fallback of Section IV-F "
        "(ROADMAP item 12)",
        f"rule: stays if the median per-seed change of the doubly-hit "
        f"stripes' summed repair seconds (fallback / trees - 1) is "
        f"<= {GAIN:+.0%} under either placement, with no seed worse by "
        f"> {WORST:.0%}; bytes are reported, not ruled on",
        "arms: two PivotRepair trees submitted together (2k = 8 chunk "
        "transfers) / download k, decode, upload 1 (k + 1 = 5)",
        "",
    ]
    for name, by_seed in rows.items():
        change = summary[name]
        lines.append(f"placement: {name}")
        lines.append(
            "seed  stripes  trees (s)  fallback (s)  change   "
            "trees (MiB)  fallback (MiB)"
        )
        for seed in SEEDS:
            total = {
                key: sum(r[key] for r in by_seed[seed])
                for key in ("trees", "fallback", "trees_bytes",
                            "fallback_bytes")
            }
            lines.append(
                f"{seed:>4}  {len(by_seed[seed]):>7}  "
                f"{total['trees']:>9.2f}  {total['fallback']:>12.2f}  "
                f"{change.changes[seed]:+6.1%}   "
                f"{total['trees_bytes'] / 2**20:>11.0f}  "
                f"{total['fallback_bytes'] / 2**20:>14.0f}"
            )
        ratios = [
            r["fallback"] / r["trees"]
            for seed in SEEDS for r in by_seed[seed]
        ]
        slower = sum(ratio > 1.0 for ratio in ratios)
        lines.append(
            f"median change {change.median:+.1%}; worst seed "
            f"{change.worst:+.1%}; fallback slower on {slower} of "
            f"{len(ratios)} stripes, fallback / trees per stripe "
            f"{min(ratios):.2f}-{max(ratios):.2f}x, median "
            f"{median(ratios):.2f}x"
        )
        lines.append("")
    lines.append(f"verdict: the fallback {'stays' if stays else 'goes'}")
    return lines


@pytest.mark.benchmark(group="decision")
def test_decision_multichunk(benchmark):
    def run():
        return {
            name: {seed: seed_rows(seed, capped) for seed in SEEDS}
            for name, capped in (("today", False), ("rack-capped", True))
        }

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    summary, stays = decide(rows)
    record("decision_multichunk", report_lines(rows, summary, stays))
    # Under the rack-capped placement every stripe has exactly two
    # chunks on each rack.
    for seed in SEEDS:
        assert len(rows["rack-capped"][seed]) == StormConfig.stripes
