"""Property-based tests for the fluid simulator.

Invariants checked on randomized workloads:

* every submitted task eventually completes on a strictly positive network;
* no task finishes faster than its bytes divided by the fastest link
  (conservation: the simulator cannot create bandwidth);
* a pipelined task is never faster than the same edges as independent bulk
  flows (the common-rate coupling can only constrain);
* adding competing load never makes an existing task finish earlier;
* the live-task count equals the number of tasks with a live entity
  after every operation, and the event loop keeps no per-finished-task
  state its guards would have to walk.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.simulator import FluidSimulator
from repro.network.topology import StarNetwork

NODES = 6

edge = st.tuples(
    st.integers(min_value=0, max_value=NODES - 1),
    st.integers(min_value=0, max_value=NODES - 1),
).filter(lambda e: e[0] != e[1])


def network_from_seed(seed):
    rng = np.random.default_rng(seed)
    ups = [float(rng.integers(10, 1000)) for _ in range(NODES)]
    downs = [float(rng.integers(10, 1000)) for _ in range(NODES)]
    return StarNetwork.constant(ups, downs), ups, downs


class TestCompletionAndConservation:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.lists(
            st.tuples(edge, st.floats(min_value=1, max_value=1e6)),
            min_size=1,
            max_size=6,
        ),
    )
    def test_all_bulk_tasks_complete_no_faster_than_physics(
        self, seed, transfers
    ):
        network, ups, downs = network_from_seed(seed)
        sim = FluidSimulator(network)
        handles = [
            sim.submit_bulk([(src, dst, size)])
            for (src, dst), size in transfers
        ]
        sim.run()
        for handle, ((src, dst), size) in zip(handles, transfers):
            assert handle.done
            best_rate = min(ups[src], downs[dst])
            assert handle.duration >= size / best_rate - 1e-6

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.lists(edge, min_size=1, max_size=5, unique=True),
        st.floats(min_value=10, max_value=1e5),
    )
    def test_pipelined_no_faster_than_bulk(self, seed, edges, size):
        network, _, _ = network_from_seed(seed)
        pipelined_sim = FluidSimulator(network)
        pipelined = pipelined_sim.submit_pipelined(edges, size)
        pipelined_sim.run()
        bulk_sim = FluidSimulator(network)
        bulk = bulk_sim.submit_bulk([(s, d, size) for s, d in edges])
        bulk_sim.run()
        assert pipelined.duration >= bulk.duration - 1e-6

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        edge,
        st.lists(edge, min_size=1, max_size=4),
    )
    def test_competition_never_speeds_a_task_up(
        self, seed, target, competitors
    ):
        network, _, _ = network_from_seed(seed)
        alone_sim = FluidSimulator(network)
        alone = alone_sim.submit_bulk([(target[0], target[1], 1000.0)])
        alone_sim.run()
        busy_sim = FluidSimulator(network)
        watched = busy_sim.submit_bulk([(target[0], target[1], 1000.0)])
        for src, dst in competitors:
            busy_sim.submit_bulk([(src, dst, 1e5)])
        busy_sim.run()
        assert watched.duration >= alone.duration - 1e-6


def _live_tasks_by_scan(sim):
    return sum(1 for ids in sim._task_entities.values() if ids)


class TestLiveTaskAccounting:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_counter_matches_a_scan_after_every_operation(
        self, seed, engine
    ):
        rng = random.Random(seed)
        network, _, _ = network_from_seed(seed)
        sim = FluidSimulator(network, engine=engine)

        def check():
            assert sim.active_task_count == _live_tasks_by_scan(sim)
            assert sim._handles.keys() == sim._task_entities.keys()

        def random_edge():
            src = rng.randrange(NODES)
            return src, (src + 1 + rng.randrange(NODES - 1)) % NODES

        # A bulk task whose flows finish far apart, cancelled after the
        # first one did: the counter must drop by one task, not by one
        # per flow.
        staggered = sim.submit_bulk([(0, 1, 10.0), (2, 3, 1e7)])
        check()
        sim.advance_to(5.0)
        check()
        assert len(sim._task_entities[staggered.task_id]) == 1
        sim.cancel_task(staggered)
        check()
        assert sim.active_task_count == 0
        # Idle jump: nothing live, time still passes.
        sim.advance_to(sim.now + 3.0)
        check()

        live = []
        for _ in range(120):
            live = [h for h in live if not (h.done or h.cancelled)]
            op = rng.randrange(7)
            if op == 0:
                live.append(
                    sim.submit_pipelined(
                        [random_edge() for _ in range(rng.randint(1, 3))],
                        rng.uniform(10.0, 1e4),
                    )
                )
            elif op == 1:
                live.append(
                    sim.submit_bulk(
                        [
                            (*random_edge(), rng.uniform(10.0, 1e4))
                            for _ in range(rng.randint(1, 4))
                        ]
                    )
                )
            elif op == 2 and live:
                sim.cancel_task(live.pop(rng.randrange(len(live))))
            elif op == 3 and live:
                sim.set_task_max_rate(
                    rng.choice(live), rng.choice([None, 5.0, 50.0])
                )
            elif op == 4:
                sim.advance_to(sim.now + rng.uniform(0.0, 5.0))
            elif op == 5:
                sim.run_until_completion(
                    max_time=sim.now + rng.uniform(-1.0, 5.0)
                )
            else:
                sim.run(max_time=sim.now + rng.uniform(0.0, 2.0))
            check()
        sim.run()
        check()
        assert sim.active_task_count == 0
        assert not sim._entities

    def test_finished_tasks_leave_no_state_for_the_guards_to_walk(self):
        # Counter-based, no wall-clock: 2000 short tasks one after the
        # other beside one long-lived task.  What the per-step guards
        # and the rate tracer look at stays bounded by the live tasks,
        # and so does everything else the simulator holds per task.
        network = StarNetwork.constant([100.0] * 4, [100.0] * 4)
        sim = FluidSimulator(network)
        background = sim.submit_bulk([(2, 3, 1e9)])
        for i in range(2000):
            short = sim.submit_bulk([(0, 1, 100.0)])
            assert len(sim._task_entities) == 2
            assert sim.run_until_completion() == [short]
            assert len(sim._task_entities) == 1
            assert len(sim._handles) == 1
        assert sim.active_task_count == 1
        assert sim.stats.tasks_completed == 2000
        assert sim.task_progress(short) == 1.0
        assert sim.task_bytes_carried(short) == pytest.approx(100.0)
        sim.cancel_task(background)
        assert not sim._task_entities and not sim._handles
        # What each task carried lives on its handle, not in the simulator.
        assert short.departed_bytes == 100.0


class TestRepairedPlacementIntegration:
    def test_cluster_placement_updated_after_repairs(self):
        from repro.cluster import Cluster
        from repro.core import BandwidthSnapshot, PivotRepairPlanner
        from repro.ec import RSCode

        cluster = Cluster(12, RSCode(6, 4))
        stripe = cluster.write_random_stripes(
            1, 64, np.random.default_rng(3)
        )[0]
        view = BandwidthSnapshot(
            up={i: 100.0 for i in range(12)},
            down={i: 100.0 for i in range(12)},
        )
        failed = stripe.placement[2]
        cluster.fail_node(failed)
        holders = set(stripe.placement)
        spare = next(
            n for n in range(12) if n not in holders and n != failed
        )
        cluster.repair_stripe(
            PivotRepairPlanner(), view, stripe, [2], {2: spare}
        )
        assert stripe.placement[2] == spare
        # A subsequent failure of the *original* node loses nothing.
        assert stripe.chunk_on_node(failed) is None
        # The relocated chunk participates in future repairs.
        second_failed = stripe.placement[0]
        cluster.fail_node(second_failed)
        spare2 = next(
            n
            for n in range(12)
            if n not in set(stripe.placement) and cluster.nodes[n].alive
        )
        rebuilt = cluster.repair_stripe(
            PivotRepairPlanner(), view, stripe, [0], {0: spare2}
        )
        assert 0 in rebuilt
