"""Differential oracle harness: fast engine vs reference, bit for bit.

The ``engine="fast"`` allocator (component-local incremental recompute)
must be **observationally identical** to the
``engine="reference"`` oracle — not within a tolerance, identical.  Every
assertion here is ``==`` on nested dicts of floats: task finish times,
per-class and per-node byte accounting, event-loop step counts, and the
flight recorder's sampled link rates.  ``rate_recomputations`` is the one
counter allowed to differ (the incremental engine solves less often by
design) and is excluded from the digests by construction
(:func:`repro.network.scenario.digest`).

Coverage: ≥50 randomized seeded churn scenarios (arrivals, finishes,
cancels, re-caps across repair/foreground/hedge classes, same-instant
bursts, capacity breakpoints), rack topologies, a repair-storm scenario
staggered and in one burst, and the pinned repair suites of
``tests/network/pinned_suites.py``.
"""

import pytest

import repro.network.simulator as simulator_module
from repro.network import FluidSimulator, StarNetwork
from repro.network.scenario import (
    digest,
    random_scenario,
    replay,
    storm_scenario,
)
from repro.obs import critical_paths
from repro.resilience import RepairJournal
from tests.network import pinned_suites
from tests.recorded import load

SEEDS = list(range(50))
RACKED_SEEDS = [100, 101, 102, 103, 104, 105]


@pytest.mark.parametrize("seed", SEEDS)
def test_randomized_scenarios_bit_identical(seed):
    scenario = random_scenario(seed, node_count=12, steps=50)
    reference = replay(scenario, "reference", sample_interval=0.5)
    fast = replay(scenario, "fast", sample_interval=0.5)
    assert reference == fast


@pytest.mark.parametrize("seed", RACKED_SEEDS)
def test_racked_scenarios_bit_identical(seed):
    # Rack up/down resources exercise usage maps beyond per-node links.
    scenario = random_scenario(seed, node_count=16, steps=50, racked=True)
    reference = replay(scenario, "reference", sample_interval=0.5)
    fast = replay(scenario, "fast", sample_interval=0.5)
    assert reference == fast


def _small_storm_bit_identical(burst):
    scenario = storm_scenario(
        3, node_count=96, repairs=24, foreground_flows=48, burst=burst
    )
    reference = replay(scenario, "reference")
    fast = replay(scenario, "fast")
    assert reference == fast
    assert reference["tasks_completed"] == 24 + 48


def test_storm_scenario_bit_identical():
    # The recompute-bound shape the fast engine exists for, shrunk to a
    # size the reference oracle can chew through in CI.
    _small_storm_bit_identical(burst=False)


def test_burst_storm_scenario_bit_identical():
    # Every repair at t = 0: one densely coupled component, re-solved at
    # every finish through many water-level rounds (the level heap).
    _small_storm_bit_identical(burst=True)


@pytest.mark.slow
def test_documented_burst_storm_bit_identical():
    # The 1024-node, 200 / 600 burst of docs/fluid_engine.md.
    scenario = storm_scenario(1, burst=True)
    assert replay(scenario, "reference") == replay(scenario, "fast")


def test_unknown_engine_rejected():
    from repro.exceptions import SimulationError

    with pytest.raises(SimulationError):
        FluidSimulator(StarNetwork.uniform(4, 100.0), engine="warp")


class _NegativeEdge(StarNetwork):
    """A topology whose edge 2 -> 3 reports a negative coefficient."""

    def edge_usage(self, src, dst):
        usage = super().edge_usage(src, dst)
        if (src, dst) == (2, 3):
            usage[("down", 3)] = -1.0
        return usage


@pytest.mark.parametrize("engine", ["reference", "fast"])
def test_rejected_submit_leaves_no_trace(engine):
    # A submission the topology makes invalid, or one with a bad size,
    # is refused before it holds a task id or an entity: the next valid
    # task runs exactly as on a simulator that never saw it.
    from repro.exceptions import SimulationError

    def run(reject_first):
        sim = FluidSimulator(
            _NegativeEdge.uniform(4, 100.0), engine=engine
        )
        if reject_first:
            with pytest.raises(SimulationError, match="negative usage"):
                sim.submit_bulk([(2, 3, 100.0)])
            with pytest.raises(SimulationError, match="negative usage"):
                sim.submit_pipelined([(0, 1), (2, 3)], 100.0)
            with pytest.raises(SimulationError, match="size"):
                sim.submit_bulk([(0, 1, 100.0), (1, 2, 0.0)])
        handle = sim.submit_bulk([(2, 0, 100.0)])
        sim.run()
        return digest(sim, [handle])

    clean = run(reject_first=False)
    assert run(reject_first=True) == clean
    assert clean["tasks"][0]["finish_time"] == 1.0


class TestCommittedBenchSuites:
    """The pinned suites of ``tests/network/pinned_suites.py`` produce
    their recorded simulated values — under both engines, and with any
    observer attached.

    The values are in ``pinned_suites.json``; one that moves is a
    behaviour change, not noise.
    ``rate_recomputations`` is compared on the fast engine only (the
    engines legitimately disagree on how often they solve).
    """

    PINNED = load(pinned_suites.FIXTURE)

    @staticmethod
    def _strip(sim):
        def scrub(value):
            if isinstance(value, dict):
                return {
                    key: scrub(inner)
                    for key, inner in value.items()
                    if key != "rate_recomputations"
                }
            return value

        return scrub(sim)

    @pytest.mark.parametrize(
        "suite", ["single_chunk", "full_node", "foreground_interference"]
    )
    def test_suite_bit_identical(self, suite, monkeypatch):
        fn = getattr(pinned_suites, suite)
        monkeypatch.setattr(simulator_module, "DEFAULT_ENGINE", "reference")
        reference = fn()
        monkeypatch.setattr(simulator_module, "DEFAULT_ENGINE", "fast")
        assert fn() == self.PINNED[suite]
        assert self._strip(reference) == self._strip(self.PINNED[suite])

    @pytest.mark.parametrize("observer", sorted(pinned_suites.OBSERVERS))
    def test_observers_change_nothing(self, observer, tmp_path):
        sim, attached = pinned_suites.observed(observer, tmp_path)
        assert sim == self.PINNED["foreground_interference"]
        if observer == "tracer":
            report = critical_paths(attached["tracer"].events)
            assert len(report.repairs) == 33
            assert report.max_residual <= 1e-9
        if observer == "journal":
            written = RepairJournal.load(attached["journal"].path)
            assert len(written.done_stripes()) == 33


class TestByteConservation:
    """Regression for the cancel/re-cap invalidation hazard.

    Interleaves ``cancel_task`` / ``set_task_max_rate`` with
    ``advance_to`` and checks that the global byte ledger balances: the
    bytes the simulator says crossed the links equal the sum over every
    task (finished, cancelled, and still live) of the bytes it carried.
    A stale cached rate after a cancel or re-cap breaks this immediately
    — the perturbed component would keep transferring at pre-perturbation
    rates.
    """

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_interleaved_cancel_and_recap_conserves_bytes(self, engine):
        sim = FluidSimulator(StarNetwork.uniform(8, 100.0), engine=engine)
        a = sim.submit_pipelined([(0, 1), (1, 2)], 500.0, kind="repair")
        b = sim.submit_pipelined([(3, 4), (4, 5)], 500.0, kind="repair")
        c = sim.submit_bulk(
            [(6, 7, 400.0), (5, 6, 300.0)], kind="foreground"
        )
        sim.advance_to(1.0)
        sim.set_task_max_rate(a, 20.0)
        sim.advance_to(2.0)
        cancelled_remaining = sim.cancel_task(b)
        assert cancelled_remaining > 0
        sim.advance_to(2.5)
        sim.set_task_max_rate(a, None)
        d = sim.submit_pipelined([(3, 4), (4, 5)], 200.0, kind="hedge")
        sim.advance_to(3.0)
        sim.cancel_task(c)
        sim.run(max_time=500.0)

        handles = [a, b, c, d]
        assert a.done and d.done
        assert b.cancelled and c.cancelled
        total = sum(sim.task_bytes_carried(h) for h in handles)
        assert sim.stats.bytes_transferred == pytest.approx(
            total, rel=1e-12, abs=1e-9
        )
        by_kind = sum(sim.stats.bytes_by_kind.values())
        assert sim.stats.bytes_transferred == pytest.approx(
            by_kind, rel=1e-12, abs=1e-9
        )
        # Cancelled tasks carried exactly their frozen progress.
        assert sim.task_bytes_carried(b) == pytest.approx(
            b.progress * 2 * 500.0, rel=1e-9
        )

    def test_interleaved_churn_identical_across_engines(self):
        def run(engine):
            sim = FluidSimulator(
                StarNetwork.uniform(8, 100.0), engine=engine
            )
            a = sim.submit_pipelined([(0, 1), (1, 2)], 500.0)
            b = sim.submit_pipelined([(3, 4), (4, 5)], 500.0)
            sim.advance_to(1.0)
            sim.set_task_max_rate(a, 20.0)
            sim.advance_to(2.0)
            sim.cancel_task(b)
            c = sim.submit_bulk([(3, 4, 100.0)])
            sim.run(max_time=500.0)
            return (
                a.finish_time, b.progress, c.finish_time,
                sim.stats.bytes_transferred, dict(sim.bytes_up),
                dict(sim.bytes_down), sim.stats.steps,
            )

        assert run("reference") == run("fast")

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_recap_applies_immediately(self, engine):
        # A re-capped component must re-solve at the next observation;
        # with a stale cache the old rate would leak into current_rate.
        sim = FluidSimulator(StarNetwork.uniform(4, 100.0), engine=engine)
        task = sim.submit_pipelined([(0, 1)], 1000.0)
        assert sim.current_rate(task) == 100.0
        sim.set_task_max_rate(task, 10.0)
        assert sim.current_rate(task) == 10.0
        sim.advance_to(1.0)
        sim.set_task_max_rate(task, None)
        assert sim.current_rate(task) == 100.0

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_cancel_frees_bandwidth_for_component(self, engine):
        # Two tasks share node 1's downlink; cancelling one must double
        # the survivor's rate at the very next observation.
        sim = FluidSimulator(StarNetwork.uniform(4, 100.0), engine=engine)
        first = sim.submit_pipelined([(0, 1)], 1000.0)
        second = sim.submit_pipelined([(2, 1)], 1000.0)
        assert sim.current_rate(first) == 50.0
        sim.advance_to(1.0)
        sim.cancel_task(second)
        assert sim.current_rate(first) == 100.0
