"""The event loop costs what changed, and looking at it costs nothing.

``FluidSimulator`` keeps each entity's residue as of the instant its
rate last moved and finds the next finish on a heap, so a step touches
only the entities that finish at it.  These tests hold that loop where
it can break:

* one ledger answers "how far is this task" for every reader, and a
  task that left keeps its answer on its handle, not in the simulator;
* observation is free — any interleaving of the pure readers (and of
  extra clock advances) leaves every float of a run where it was, on
  both engines;
* the rate readers force a solve, so they are inputs: free around a
  step of a seeded script, float noise in a finish time when read
  inside a same-instant round trip of a rate;
* conservation is exact, not approximate;
* near-simultaneous finishers complete in one step, in submission order;
* the heap stays bounded by the live entities;
* a zero-rate entity is never scheduled, wakes at the breakpoint that
  frees it, and is named by the stuck error when none does;
* each settlement site — rate moved, finish, cancel, a re-cap that moves
  a rate — is counted, and the steps that change nothing settle nothing;
* a bulk task whose sibling finished is traced at that instant, whether
  or not the engine solved anything there.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.network.scenario as scenario_module
from repro.exceptions import SimulationError
from repro.network.bandwidth import BandwidthTrace, NodeBandwidth
from repro.network.scenario import digest, random_scenario, replay
from repro.network.simulator import FluidSimulator
from repro.network.topology import StarNetwork
from repro.obs import NULL_TRACER, Tracer

ENGINES = ["reference", "fast"]


def uniform(nodes=6, rate=100.0):
    return StarNetwork.uniform(nodes, rate)


def stepped(node_count, node, times, values, rate=100.0):
    """A star at ``rate`` whose ``node`` uplink follows a trace."""
    flat = BandwidthTrace([0.0], [rate])
    return StarNetwork([
        NodeBandwidth(BandwidthTrace(times, values) if n == node else flat,
                      flat)
        for n in range(node_count)
    ])


# ----------------------------------------------------------------------
# One ledger
# ----------------------------------------------------------------------
class TestOneLedger:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_progress_and_bytes_carried_are_one_quantity(self, engine):
        rng = random.Random(5)
        sim = FluidSimulator(
            random_scenario(5, node_count=8).build_network(), engine=engine
        )
        totals = []  # (handle, bytes submitted over its edges)

        def agree():
            for handle, total in totals:
                carried = sim.task_bytes_carried(handle)
                progress = sim.task_progress(handle)
                assert abs(carried - progress * total) <= 2 * math.ulp(total)
                if handle.done:
                    assert carried == total and progress == 1.0

        for _ in range(120):
            roll = rng.random()
            live = [h for h, _ in totals if not h.done and not h.cancelled]
            if roll < 0.3:
                nodes = rng.sample(range(8), rng.randint(2, 5))
                edges = list(zip(nodes, nodes[1:]))
                size = rng.uniform(50.0, 400.0)
                handle = sim.submit_pipelined(edges, size)
                totals.append((handle, sum(size for _ in edges)))
            elif roll < 0.5:
                transfers = [
                    (*rng.sample(range(8), 2), rng.uniform(20.0, 300.0))
                    for _ in range(rng.randint(1, 4))
                ]
                handle = sim.submit_bulk(transfers)
                totals.append(
                    (handle, sum(size for _, _, size in transfers))
                )
            elif roll < 0.6 and live:
                victim = rng.choice(live)
                before = sim.task_bytes_carried(victim)
                sim.cancel_task(victim)
                # Frozen where the one ledger stood, to the bit.
                assert sim.task_bytes_carried(victim) == before
                assert victim.progress == sim.task_progress(victim)
            elif roll < 0.7 and live:
                sim.set_task_max_rate(
                    rng.choice(live), rng.choice([None, 7.0, 31.0])
                )
            else:
                sim.advance_to(sim.now + rng.uniform(0.0, 1.2))
            agree()
        sim.run()
        agree()
        assert any(h.cancelled for h, _ in totals)
        assert sum(h.done for h, _ in totals) > 20

    def test_cancel_returns_the_residue_of_that_ledger(self):
        sim = FluidSimulator(uniform())
        handle = sim.submit_pipelined([(0, 1), (1, 2)], 1000.0)
        sim.advance_to(2.5)
        assert sim.cancel_task(handle) == 750.0
        assert sim.task_bytes_carried(handle) == 500.0
        assert handle.progress == 0.25

    @pytest.mark.parametrize("traced", [False, True])
    def test_a_drained_simulator_holds_no_per_task_entry(self, traced):
        sim = FluidSimulator(
            uniform(), tracer=Tracer() if traced else NULL_TRACER
        )
        rng = random.Random(5)
        handles = []
        for step in range(40):
            if step % 3:
                handles.append(sim.submit_bulk(
                    [(rng.randrange(5), 5, rng.uniform(50.0, 150.0))]
                ))
            else:
                handles.append(sim.submit_pipelined(
                    [(0, 1), (1, 2)], rng.uniform(50.0, 150.0)
                ))
            if step % 7 == 6:
                sim.cancel_task(handles[-2])
            sim.advance_to(sim.now + 0.3)
        sim.run()
        per_task = {
            name: len(value) for name, value in vars(sim).items()
            if name.startswith(("_task", "_handles"))
            and isinstance(value, dict)
        }
        assert per_task and not any(per_task.values()), per_task
        # What a finished or cancelled task carried is still readable.
        for handle in handles:
            carried = sim.task_bytes_carried(handle)
            assert carried == handle.departed_bytes
            if handle.done:
                assert carried == handle.submitted_bytes
            else:
                assert handle.cancelled and carried < handle.submitted_bytes


# ----------------------------------------------------------------------
# Observation is free
# ----------------------------------------------------------------------
def looking_simulator(look_seed, rates=False, extra_advances=False):
    """A ``FluidSimulator`` that reads itself, at random, around every
    event-loop step — and optionally splits every ``advance_to``."""
    rng = random.Random(look_seed)

    class Looking(FluidSimulator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.seen = []
            self.looks = 0

        def submit_pipelined(self, *args, **kwargs):
            self.seen.append(super().submit_pipelined(*args, **kwargs))
            return self.seen[-1]

        def submit_bulk(self, *args, **kwargs):
            self.seen.append(super().submit_bulk(*args, **kwargs))
            return self.seen[-1]

        def look(self):
            readers = [
                lambda: [self.task_progress(h) for h in self.seen],
                lambda: [self.task_bytes_carried(h) for h in self.seen],
                lambda: self.bytes_up,
                lambda: self.bytes_down,
                lambda: self.total_bytes_transferred,
                lambda: self.stats.bytes_by_kind,
                lambda: self.stats.as_dict(),
                lambda: digest(self, self.seen),
            ]
            if rates:
                readers += [
                    lambda: [self.current_rate(h) for h in self.seen],
                    lambda: self.current_usage(),
                ]
            for reader in rng.sample(readers, rng.randint(0, len(readers))):
                reader()
                self.looks += 1

        def _advance(self, max_time):
            self.look()
            completed = super()._advance(max_time)
            self.look()
            return completed

        def advance_to(self, t):
            completed = []
            if extra_advances and t > self.now:
                for _ in range(rng.randint(0, 3)):
                    completed += super().advance_to(rng.uniform(self.now, t))
            return completed + super().advance_to(t)

    return Looking


class TestObservationIsFree:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        look_seed=st.integers(min_value=0, max_value=2**31),
        sampled=st.booleans(),
        rates=st.booleans(),
    )
    def test_readers_change_no_float(self, seed, look_seed, sampled, rates):
        script = random_scenario(seed, node_count=10, steps=40)
        interval = 0.5 if sampled else None
        with pytest.MonkeyPatch.context() as patch:
            for engine in ENGINES:
                patch.setattr(scenario_module, "FluidSimulator", FluidSimulator)
                plain = replay(script, engine, sample_interval=interval)
                patch.setattr(
                    scenario_module, "FluidSimulator",
                    looking_simulator(look_seed, rates=rates),
                )
                assert replay(script, engine, sample_interval=interval) == plain

    def test_the_readers_did_look(self, monkeypatch):
        looking = looking_simulator(3, rates=True)
        made = []

        def build(*args, **kwargs):
            made.append(looking(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(scenario_module, "FluidSimulator", build)
        replay(random_scenario(3, node_count=10, steps=40), "fast")
        assert made[0].looks > 200

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        look_seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_extra_clock_advances_change_no_float(self, seed, look_seed):
        # A step that is a pure clock advance touches no entity: only
        # the step count can tell it happened.
        script = random_scenario(seed, node_count=10, steps=40)
        with pytest.MonkeyPatch.context() as patch:
            for engine in ENGINES:
                patch.setattr(scenario_module, "FluidSimulator", FluidSimulator)
                plain = replay(script, engine)
                patch.setattr(
                    scenario_module, "FluidSimulator",
                    looking_simulator(look_seed, extra_advances=True),
                )
                split = replay(script, engine)
                assert split.pop("steps") >= plain.pop("steps")
                assert split == plain


class TestRateReadersAreInputs:
    """``current_rate`` / ``current_usage`` force a solve, and a solve
    settles what it moves: read between two mutations of one instant
    that move a rate and move it back, they do work no unread run does.
    What that may cost is stated here."""

    READERS = {
        "current_rate": lambda sim, handle: sim.current_rate(handle),
        "current_usage": lambda sim, handle: sim.current_usage(),
    }

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_a_read_inside_a_round_trip_moves_float_noise_only(
        self, engine, reader
    ):
        def run(read):
            sim = FluidSimulator(uniform(), engine=engine)
            watched = sim.submit_bulk([(0, 1, 1000.0 / 3)])
            sim.advance_to(0.37)
            rival = sim.submit_bulk([(0, 2, 50.0)])  # halves the uplink
            if read:
                self.READERS[reader](sim, watched)
            sim.cancel_task(rival)  # and gives it back, at one instant
            sim.run()
            return sim, watched

        plain, unread = run(read=False)
        looked, read = run(read=True)
        # The unread run never solved with the rival in: nothing of the
        # watched flow moved.  The read one settled it twice over.
        assert (plain.settlements, looked.settlements) == (3, 6)
        assert read.finish_time == pytest.approx(
            unread.finish_time, rel=1e-12
        )
        for sim, handle in ((plain, unread), (looked, read)):
            assert sim.task_bytes_carried(handle) == 1000.0 / 3
            assert sim.stats.bytes_transferred == 1000.0 / 3
        assert looked.stats.steps == plain.stats.steps


# ----------------------------------------------------------------------
# Conservation is exact
# ----------------------------------------------------------------------
class TestExactConservation:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_drained_run_sums_to_submitted_sizes(self, engine):
        # Whole-byte sizes (what a chunk is), so every sum below is
        # exact in binary64 and ``==`` means it.  Node 0's uplink moves
        # at t = 0.7, 1.9, 4.2: flows cross capacity breakpoints.
        rng = random.Random(11)
        network = stepped(
            8, 0, [0.0, 0.7, 1.9, 4.2], [100.0, 35.0, 80.0, 55.0]
        )
        sim = FluidSimulator(network, engine=engine)
        expected = []  # (handle, bytes submitted over its edges)
        cancelled = []
        for round_ in range(40):
            nodes = rng.sample(range(1, 8), rng.randint(2, 4))
            if round_ % 4 == 0:
                nodes[0] = 0  # across the moving uplink
            edges = list(zip(nodes, nodes[1:]))
            size = float(rng.randint(40, 900))
            if round_ % 2:
                handle = sim.submit_pipelined(
                    edges, size, kind=rng.choice(["repair", "hedge"]),
                    max_rate=rng.choice([None, 13.0]),
                )
                expected.append((handle, size * len(edges)))
            else:
                sizes = [float(rng.randint(40, 900)) for _ in edges]
                handle = sim.submit_bulk(
                    [(s, d, z) for (s, d), z in zip(edges, sizes)],
                    kind="foreground",
                )
                expected.append((handle, float(sum(sizes))))
            live = [
                h for h, _ in expected if not h.done and not h.cancelled
            ]
            if round_ % 5 == 0:
                sim.set_task_max_rate(rng.choice(live), rng.choice([9.0, None]))
            if round_ % 9 == 8:
                cancelled.append(rng.choice(live))
                sim.cancel_task(cancelled[-1])
            sim.advance_to(sim.now + rng.uniform(0.0, 0.4))
        sim.run()
        stats = sim.stats
        assert (
            stats.bytes_transferred
            == sum(stats.bytes_by_kind.values())
            == sum(sim.bytes_up.values())
            == sum(sim.bytes_down.values())
            == sim.total_bytes_transferred
        )
        finished = [(h, total) for h, total in expected if h.done]
        assert len(finished) + len(cancelled) == 40 and len(cancelled) == 4
        for handle, total in finished:
            assert sim.task_bytes_carried(handle) == total
        partial = sum(sim.task_bytes_carried(h) for h in cancelled)
        assert partial > 0
        assert stats.bytes_transferred == pytest.approx(
            sum(total for _, total in finished) + partial, rel=1e-9
        )

    def test_a_repair_sized_transfer_is_an_exact_integer(self):
        # ROADMAP's example: 17 170 432 bytes over links whose rates
        # make every step's share a non-terminating binary fraction.
        network = stepped(4, 0, [0.0, 0.013, 0.027], [1e8 / 3, 1e8 / 7, 9e7])
        sim = FluidSimulator(network)
        sim.submit_pipelined([(0, 1), (1, 2), (3, 2)], 17170432 / 4)
        sim.submit_bulk([(0, 3, 1e6 / 3)])
        sim.run()
        assert sim.stats.bytes_transferred == 3 * (17170432 / 4) + 1e6 / 3
        assert sim.bytes_down[2] == 2 * (17170432 / 4)


# ----------------------------------------------------------------------
# Ties
# ----------------------------------------------------------------------
class TestSimultaneousFinishers:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("gap_bytes", [0.0, 1e-8], ids=["same", "1e-10s"])
    def test_complete_in_one_step_in_submission_order(self, engine, gap_bytes):
        # 100 B/s on disjoint links: ``late`` would finish ``gap_bytes /
        # 100`` seconds after ``early``, and is submitted first.
        sim = FluidSimulator(uniform(), engine=engine)
        late = sim.submit_bulk([(0, 1, 100.0 + gap_bytes)])
        early = sim.submit_bulk([(2, 3, 100.0)])
        assert sim.run_until_completion() == [late, early]
        assert sim.stats.steps == 1
        assert late.finish_time == early.finish_time == sim.now == 1.0
        assert sim.task_bytes_carried(late) == 100.0 + gap_bytes
        assert sim.active_task_count == 0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_a_microsecond_apart_is_two_steps(self, engine):
        sim = FluidSimulator(uniform(), engine=engine)
        late = sim.submit_bulk([(0, 1, 100.0001)])
        early = sim.submit_bulk([(2, 3, 100.0)])
        assert sim.run_until_completion() == [early]
        assert sim.run_until_completion() == [late]
        assert sim.stats.steps == 2

    @pytest.mark.parametrize("engine", ENGINES)
    def test_a_bound_just_short_of_a_finish_takes_it(self, engine):
        # The "drains in < 1e-9 s" rule at a step that ends on
        # ``max_time``, not on a finish.
        sim = FluidSimulator(uniform(), engine=engine)
        handle = sim.submit_bulk([(0, 1, 100.0)])
        assert sim.advance_to(1.0 - 5e-10) == [handle]
        assert handle.finish_time == 1.0 - 5e-10
        assert sim.bytes_up == {0: 100.0}


# ----------------------------------------------------------------------
# Heap hygiene
# ----------------------------------------------------------------------
def heap_bound(sim):
    return 2 * len(sim._entities) + 65


class TestHeapHygiene:
    def test_sequential_tasks_leave_nothing_behind(self):
        # The ``TestLiveTaskAccounting`` shape: 2000 short tasks one
        # after the other beside one long-lived task.
        sim = FluidSimulator(StarNetwork.constant([100.0] * 4, [100.0] * 4))
        background = sim.submit_bulk([(2, 3, 1e9)])
        for _ in range(2000):
            short = sim.submit_bulk([(0, 1, 100.0)])
            assert sim.run_until_completion() == [short]
            assert len(sim._finish_heap) <= 2
        assert sim.heap_pushes == 2001 and sim.stale_pops == 0
        assert not background.done

    def test_a_recap_storm_keeps_the_heap_bounded(self):
        # Every re-cap moves the flow's rate: one push each, and each
        # push makes the previous entry stale.  Stale entries are
        # dropped when they surface or, if they never would, by the
        # rebuild — the heap stays within 2 x live + 65 entries.
        sim = FluidSimulator(uniform(8))
        flows = [sim.submit_bulk([(n, n + 1, 1e9)]) for n in (0, 2, 4)]
        peak = 0
        for i in range(3000):
            sim.set_task_max_rate(flows[i % 3], 10.0 + (i % 7))
            sim.advance_to(sim.now + 0.001)
            peak = max(peak, len(sim._finish_heap))
            assert len(sim._finish_heap) <= heap_bound(sim)
        assert sim.heap_pushes > 2500
        assert peak > 3  # the storm did pile stale entries up
        assert sim.active_task_count == 3

    @pytest.mark.parametrize("engine", ENGINES)
    def test_churn_keeps_the_heap_bounded(self, engine):
        script = random_scenario(7, node_count=12, steps=200)
        bounds = []

        class Watched(FluidSimulator):
            def _advance(self, max_time):
                completed = super()._advance(max_time)
                bounds.append(len(self._finish_heap) <= heap_bound(self))
                return completed

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(scenario_module, "FluidSimulator", Watched)
            replay(script, engine)
        assert len(bounds) > 100 and all(bounds)


# ----------------------------------------------------------------------
# Zero-rate entities
# ----------------------------------------------------------------------
class TestZeroRate:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_never_scheduled_until_the_breakpoint_that_frees_it(self, engine):
        network = stepped(4, 0, [0.0, 5.0], [0.0, 100.0])
        sim = FluidSimulator(network, engine=engine)
        blocked = sim.submit_bulk([(0, 1, 300.0)])
        other = sim.submit_bulk([(2, 3, 100.0)])
        assert sim.run_until_completion() == [other]
        sim.advance_to(4.0)
        assert sim.heap_pushes == 1 and not sim._finish_heap
        assert sim.task_progress(blocked) == 0.0
        assert sim.task_bytes_carried(blocked) == 0.0
        assert sim.run() == [blocked]
        assert blocked.finish_time == 8.0
        assert sim.heap_pushes == 2
        assert sim.bytes_up == {2: 100.0, 0: 300.0}

    @pytest.mark.parametrize("engine", ENGINES)
    def test_the_stuck_report_names_it_when_nothing_will(self, engine):
        network = StarNetwork.constant([0.0, 100.0, 100.0], [100.0] * 3)
        sim = FluidSimulator(network, engine=engine)
        sim.submit_bulk([(0, 1, 300.0)], label="starved")
        sim.submit_bulk([(1, 2, 100.0)], label="fine")
        with pytest.raises(SimulationError) as raised:
            sim.run()
        message = str(raised.value)
        assert "'starved' (zero capacity on ('up', 0))" in message
        assert "fine" not in message
        assert sim.now == 1.0 and not sim._finish_heap


# ----------------------------------------------------------------------
# Settlement sites, counted
# ----------------------------------------------------------------------
class TestSettlementSites:
    """One test per place a residue is brought up to date.  Each checks
    the count and a value the settlement is needed for, so deleting the
    site fails it."""

    def test_a_rate_move_settles_at_the_old_rate(self):
        sim = FluidSimulator(uniform())
        first = sim.submit_bulk([(0, 1, 1000.0)])
        sim.advance_to(1.0)  # 100 B/s alone
        assert sim.settlements == 1  # 0 -> 100 at t=0
        second = sim.submit_bulk([(0, 2, 1000.0)])  # shares node 0's uplink
        sim.advance_to(2.0)  # 50 B/s each
        assert sim.settlements == 3  # first 100 -> 50, second 0 -> 50
        assert sim.task_bytes_carried(first) == 150.0
        assert sim.task_bytes_carried(second) == 50.0
        assert sim._entities[0].remaining == 900.0  # as of t=1, not t=2
        assert sim._entities[0].settled_at == 1.0

    def test_a_finish_books_the_whole_entity(self):
        sim = FluidSimulator(uniform(rate=300.0))
        handle = sim.submit_pipelined([(0, 1), (1, 2)], 100.0)
        sim.advance_to(0.2)
        assert sim.settlements == 1 and sim._ledger.total == 0.0
        assert sim.stats.bytes_transferred == pytest.approx(120.0)
        assert sim.run() == [handle]
        assert sim.settlements == 2
        assert sim._ledger.total == 200.0
        assert sim._ledger.up == {0: 100.0, 1: 100.0}
        assert handle.departed_bytes == 200.0

    def test_a_cancel_settles_and_books_what_was_carried(self):
        sim = FluidSimulator(uniform())
        handle = sim.submit_bulk([(0, 1, 1000.0), (2, 3, 1000.0)])
        sim.advance_to(3.0)
        assert sim.settlements == 2
        assert sim.cancel_task(handle) == 1400.0
        assert sim.settlements == 4
        assert sim._ledger.total == 600.0
        assert sim.stats.bytes_by_kind == {"repair": 600.0}
        assert sim.bytes_down == {1: 300.0, 3: 300.0}

    def test_a_recap_that_moves_the_rate_settles(self):
        sim = FluidSimulator(uniform())
        handle = sim.submit_bulk([(0, 1, 1000.0)])
        sim.advance_to(1.0)
        sim.set_task_max_rate(handle, 10.0)
        sim.advance_to(2.0)
        assert (sim.settlements, sim.heap_pushes) == (2, 2)
        assert sim.task_bytes_carried(handle) == 110.0
        assert sim.run() == [handle]
        assert handle.finish_time == 1.0 + 900.0 / 10.0
        assert sim.stale_pops == 1  # the 100 B/s finish time, at t=10

    def test_a_recap_that_moves_nothing_settles_nothing(self):
        sim = FluidSimulator(uniform())
        handle = sim.submit_bulk([(0, 1, 1000.0)])
        sim.advance_to(1.0)
        for cap in (500.0, 500.0, None, 100.0):  # never below the fair share
            sim.set_task_max_rate(handle, cap)
            sim.advance_to(sim.now + 0.5)
        assert (sim.settlements, sim.heap_pushes) == (1, 1)
        assert sim.stats.rate_recomputations > 1  # it did re-solve

    @pytest.mark.parametrize("engine", ENGINES)
    def test_steps_that_change_no_rate_touch_no_entity(self, engine):
        # Pure clock advances, another component's arrival and finish,
        # and a capacity breakpoint under a flow its cap holds below
        # both capacities: ten steps, nobody's residue is touched.
        network = stepped(6, 0, [0.0, 2.0], [100.0, 60.0])
        sim = FluidSimulator(network, engine=engine)
        capped = sim.submit_bulk([(0, 1, 1e6)], max_rate=10.0)
        sim.advance_to(0.5)
        before = (sim.settlements, sim._entities[0].remaining)
        for i in range(1, 6):
            sim.advance_to(0.5 + 0.1 * i)
        other = sim.submit_bulk([(2, 3, 50.0)])
        assert sim.advance_to(3.0) == [other]
        assert sim.stats.steps >= 9
        # ``other`` moved 0 -> 100 and finished: two settlements, its own.
        assert sim.settlements == before[0] + 2
        assert sim._entities[0].remaining == before[1] == 1e6
        assert sim.task_bytes_carried(capped) == 30.0


# ----------------------------------------------------------------------
# A bulk task's rate drop is traced when it happens
# ----------------------------------------------------------------------
class TestTracedBulkDrop:
    @staticmethod
    def rate_changes(engine, second_flow):
        tracer = Tracer()
        sim = FluidSimulator(uniform(), engine=engine, tracer=tracer)
        sim.submit_bulk([(0, 1, 100.0), (2, 3, 300.0)])
        sim.advance_to(2.5)
        if second_flow:
            sim.submit_bulk([(4, 5, 50.0)])
        sim.run()
        return [
            (event.t, event.fields["task"], event.fields["rate"])
            for event in tracer.events
            if event.name == "flow.rate_change"
        ]

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("second_flow", [False, True])
    def test_a_finished_sibling_is_traced_at_its_finish(
        self, engine, second_flow
    ):
        # The 100-byte flow finishes at t = 1.0 and no rate moves, so
        # the fast engine solves nothing there; the task's drop from
        # 200 to 100 must still be traced at t = 1.0.
        changes = self.rate_changes(engine, second_flow)
        assert changes[:2] == [(0.0, 0, 200.0), (1.0, 0, 100.0)]
        assert changes[2:] == ([(2.5, 1, 100.0)] if second_flow else [])
