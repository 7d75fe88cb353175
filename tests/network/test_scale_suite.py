"""Scale regression suite: the 1024-node repair storm.

Two layers, both timing-free and deterministic:

* a **smoke** variant (256 nodes) that checks the properties that make
  the scale claim true — bit-identity against the reference oracle, and
  the *counter* evidence of incrementality (the fast engine's average
  re-solved component is a handful of tasks while the reference re-rates
  every live task on every event);
* the full 1024-node storm: equal digests under both engines, the
  storm's recorded simulated values, and the work counted exactly:
  each engine's recomputations and the event loop's settlements.

No wall-clock assertion lives here.  Host time is the benchmark's
(``benchmarks/perf``, workload ``engine_storm``); what the engines were
measured at is in ``docs/fluid_engine.md``, "Scale numbers".
"""

from pathlib import Path

import repro.network.fairness as fairness
from repro.network.engine import IncrementalEngine
from repro.network.scenario import replay, storm_scenario
from repro.network.simulator import FluidSimulator
from tests.recorded import Recorded, load

#: The 1024-node storm's recorded simulated values.
FIXTURE = Path(__file__).with_name("scale_storm.json")


def storm_outcome(digest: dict) -> dict:
    """What the fixture records of a storm digest: its floats (the
    counts are literals in the test below)."""
    return {
        "bytes_transferred": round(digest["bytes_transferred"], 6),
        "end_time": round(digest["end_time"], 9),
    }


def _record_storm() -> Recorded:
    digest = replay(storm_scenario(1), "fast")
    return Recorded(entry=storm_outcome(digest), values=digest)


RECORDERS = {"storm-1024": _record_storm}


def _engine_counters(scenario):
    """Replay ``scenario`` on the fast engine and return its counters."""
    network = scenario.build_network()
    sim = FluidSimulator(network, engine="fast")
    for op in scenario.ops:
        sim.advance_to(op.time)
        if op.action == "pipelined":
            sim.submit_pipelined(
                op.edges, op.bytes_per_edge,
                max_rate=op.max_rate, kind=op.kind,
            )
        elif op.action == "bulk":
            sim.submit_bulk(
                [
                    (src, dst, size)
                    for (src, dst), size in zip(op.edges, op.sizes)
                ],
                max_rate=op.max_rate, kind=op.kind,
            )
    last = scenario.ops[-1].time if scenario.ops else 0.0
    sim.run(max_time=last + scenario.drain)
    return sim, sim._engine


def test_storm_smoke_bit_identical_and_incremental():
    # Shrunk storm: same shape (staggered repair trees over sustained
    # foreground load, static capacities), sized for the CI budget.
    scenario = storm_scenario(
        11, node_count=256, repairs=48, foreground_flows=120,
        horizon=120.0,
    )
    assert replay(scenario, "reference") == replay(scenario, "fast")

    sim, engine = _engine_counters(scenario)
    assert sim.stats.tasks_completed == 48 + 120
    assert engine.solves > 0
    # Incrementality, counted rather than timed: each solve touched only
    # the perturbed component.  The reference re-rates every live task
    # on every recompute; if invalidation leaked (e.g. pure time
    # advances dirtied everything) this average would approach the live
    # task count instead of a handful.
    average_component = engine.solved_entities / engine.solves
    assert average_component < 8.0
    # And far fewer entity re-ratings than events x live tasks: the
    # whole point of component-local recompute.
    assert engine.solved_entities < 4 * sim.stats.tasks_submitted


def test_storm_pure_advance_recomputes_nothing():
    # Between events, rates are piecewise-constant: advancing time inside
    # an epoch must not trigger solves.
    scenario = storm_scenario(
        11, node_count=128, repairs=12, foreground_flows=24, horizon=60.0
    )
    network = scenario.build_network()
    sim = FluidSimulator(network, engine="fast")
    sim.submit_pipelined(((0, 1), (1, 2)), 1000.0)
    sim.advance_to(0.5)
    solves = sim._engine.solves
    for step in range(1, 10):
        sim.advance_to(0.5 + step * 0.05)
    assert sim._engine.solves == solves


def test_scale_storm_recomputes_components_not_the_cluster(monkeypatch):
    """The acceptance gate: 1024 nodes, 200 staggered repair trees, 600
    foreground flows — bit-identical under both engines, and the work
    each does to get there counted, not timed.

    The reference re-rates every live entity on every step; the fast
    engine re-rates the component an event perturbs.  Both counts are
    deterministic, so they are recorded exactly.  What the two engines
    take in wall clock is measured, not gated: the runs are in
    ``docs/fluid_engine.md``, "Scale numbers".
    """
    scenario = storm_scenario(1)
    assert scenario.node_count == 1024

    rerated = []
    allocate = fairness.max_min_allocate

    def counting(usages, capacities, **kwargs):
        rerated.append(len(usages))
        return allocate(usages, capacities, **kwargs)

    monkeypatch.setattr(fairness, "max_min_allocate", counting)
    digest = replay(scenario, "fast")
    assert not rerated  # the reference allocator is not on the fast path
    assert replay(scenario, "reference") == digest
    assert storm_outcome(digest) == load(FIXTURE)["storm-1024"]
    assert digest["steps"] == 1594
    assert digest["tasks_completed"] == 800
    # Reference: one global solve per step, 12 950 entity re-ratings.
    assert (len(rerated), sum(rerated)) == (1594, 12950)

    moved = []
    ensure = IncrementalEngine.ensure

    def counting_moves(self, now):
        solved = ensure(self, now)
        if solved:
            moved.append(len(self.last_changed))
        return solved

    monkeypatch.setattr(IncrementalEngine, "ensure", counting_moves)
    sim, engine = _engine_counters(scenario)
    assert sim.stats.steps == 1594
    # Fast: 817 component solves re-rating 915 entities, 14.2x fewer;
    # 37 arrivals were rated alone and 33 departures moved nobody, by
    # certificate, with no solve.
    assert (engine.solves, engine.solved_entities) == (817, 915)
    assert engine.solves_by_tier == {"single": 749, "small": 68}
    assert engine.certified == {"arrival": 37, "departure": 33}
    # The event loop: of those 952 ratings 923 moved a rate, and an
    # entity's residue is brought up to date only then or when it
    # leaves — 1723 settlements where a walk per step made 12 950.
    # Every move pushed one finish time; 123 of the 923 went stale.
    assert (len(moved), sum(moved)) == (817 + 37, 923)
    assert sim.settlements == 923 + 800
    assert sim.settlements <= sum(moved) + sim.stats.tasks_completed
    assert (sim.heap_pushes, sim.stale_pops) == (923, 123)
    assert not sim._finish_heap
