"""Property-based tests for the max-min allocators (reference + fast).

Four properties pin down max-min fairness itself, independent of either
implementation:

* **feasibility** — no resource is loaded past its capacity;
* **max-min bottleneck criterion** — every task runs at its rate cap or
  saturates some resource on which no co-user runs faster (so no task can
  gain without starving a slower-or-equal one);
* **work conservation** — a saturated resource is actually full, and a
  task below its cap with headroom on every resource it uses cannot exist;
* **permutation invariance** — the allocation is a function of the task
  *set*, not the submission order.

Plus the property the fast engine rests on: the component kernel
(``IncrementalEngine._solve_small``, reached through the real engine)
returns **bit-identical** rates to the reference on every generated
instance — and so does the numpy formulation the engine used to carry
as a third tier (``tests/network/waterfill_oracle.py``), which stays as
a second, independent oracle.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from types import ModuleType, SimpleNamespace

from repro.network.engine import IncrementalEngine
from repro.network.fairness import max_min_allocate, usage_from_edges
from repro.network.topology import StarNetwork
from tests.network.waterfill_oracle import (
    vectorized_max_min_allocate,
    waterfill,
)

# Coupled-task instances built the way the simulator builds them: each
# task is a set of directed edges over a small node universe, so usage
# coefficients are integral edge counts (the exactness premise of the
# fast engine) and resources are genuinely shared.
node_ids = st.integers(min_value=0, max_value=7)
edges = st.tuples(node_ids, node_ids).filter(lambda e: e[0] != e[1])
tasks = st.lists(
    st.lists(edges, min_size=1, max_size=4), min_size=0, max_size=8
)
caps_for = st.one_of(
    st.none(),
    st.floats(
        min_value=0.0, max_value=200.0,
        allow_nan=False, allow_infinity=False,
    ),
)


def _instance(task_edges, seed):
    rng = random.Random(seed)
    usages = [usage_from_edges(e) for e in task_edges]
    resources = sorted(
        {r for usage in usages for r in usage}, key=repr
    )
    capacities = {
        r: rng.choice([0.0, rng.uniform(0.5, 150.0)]) for r in resources
    }
    rate_caps = [
        None if rng.random() < 0.5 else rng.uniform(0.0, 100.0)
        for _ in usages
    ]
    return usages, capacities, rate_caps


def _loads(usages, rates):
    loads = {}
    for usage, rate in zip(usages, rates):
        for resource, coeff in usage.items():
            loads[resource] = loads.get(resource, 0.0) + coeff * rate
    return loads


@settings(max_examples=200, deadline=None)
@given(task_edges=tasks, seed=st.integers(0, 2**20))
def test_feasibility_no_resource_over_capacity(task_edges, seed):
    usages, capacities, rate_caps = _instance(task_edges, seed)
    rates = max_min_allocate(usages, capacities, rate_caps)
    assert all(rate >= 0.0 for rate in rates)
    for rate, cap in zip(rates, rate_caps):
        if cap is not None:
            assert rate <= cap + 1e-9 * max(cap, 1.0)
    for resource, load in _loads(usages, rates).items():
        capacity = capacities.get(resource, 0.0)
        assert load <= capacity + 1e-9 * max(capacity, 1.0)


@settings(max_examples=200, deadline=None)
@given(task_edges=tasks, seed=st.integers(0, 2**20))
def test_max_min_bottleneck_criterion(task_edges, seed):
    # Every task with positive potential is either at its own cap or has
    # a bottleneck: a saturated resource where it is a fastest user.
    # That is the classical characterization of max-min fairness — no
    # task can be sped up without slowing a task that is no faster.
    usages, capacities, rate_caps = _instance(task_edges, seed)
    rates = max_min_allocate(usages, capacities, rate_caps)
    loads = _loads(usages, rates)
    for i, (usage, rate, cap) in enumerate(
        zip(usages, rates, rate_caps)
    ):
        if not usage:
            assert rate == 0.0
            continue
        if cap is not None and math.isclose(
            rate, cap, rel_tol=1e-9, abs_tol=1e-12
        ):
            continue
        bottlenecked = False
        for resource in usage:
            capacity = capacities.get(resource, 0.0)
            saturated = loads[resource] >= capacity - 1e-9 * max(
                capacity, 1.0
            )
            if not saturated:
                continue
            fastest = all(
                rates[j] <= rate + 1e-9 * max(rate, 1.0)
                for j, other in enumerate(usages)
                if resource in other and other[resource] > 0
            )
            if fastest:
                bottlenecked = True
                break
        assert bottlenecked, (
            f"task {i} rate {rate} is below cap with no bottleneck"
        )


@settings(max_examples=200, deadline=None)
@given(task_edges=tasks, seed=st.integers(0, 2**20))
def test_permutation_invariance(task_edges, seed):
    usages, capacities, rate_caps = _instance(task_edges, seed)
    rates = max_min_allocate(usages, capacities, rate_caps)
    order = list(range(len(usages)))
    random.Random(seed ^ 0x5EED).shuffle(order)
    shuffled = max_min_allocate(
        [usages[i] for i in order],
        capacities,
        [rate_caps[i] for i in order],
    )
    # Bit-identical under permutation, not merely close: the level
    # formulation's accumulators advance by order-independent sums.
    assert shuffled == [rates[i] for i in order]


@settings(max_examples=300, deadline=None)
@given(task_edges=tasks, seed=st.integers(0, 2**20))
def test_vectorized_allocator_bit_identical(task_edges, seed):
    usages, capacities, rate_caps = _instance(task_edges, seed)
    reference = max_min_allocate(usages, capacities, rate_caps)
    fast = vectorized_max_min_allocate(usages, capacities, rate_caps)
    assert reference == fast


# Components for the small kernel: five nodes, so columns are shared by
# many entities and carry coefficients above 1; entities with no edges
# (no columns); capacities / caps drawn from short menus so that
# cap == cap and cap == column-level ties (100 / 2 == 50.0) are common,
# as are zero-capacity columns.
kernel_nodes = st.integers(min_value=0, max_value=4)
kernel_edges = st.tuples(kernel_nodes, kernel_nodes).filter(
    lambda e: e[0] != e[1]
)
kernel_tasks = st.lists(
    st.lists(kernel_edges, min_size=0, max_size=4), min_size=2, max_size=8
)
CAPACITY_MENU = [0.0, 50.0, 100.0, 150.0]
CAP_MENU = [None, None, 25.0, 50.0]


def _menus(rng):
    """Capacity / cap draws: tie-prone menus or inexact uniforms."""
    if rng.random() < 0.5:
        def capacity():
            return rng.choice(CAPACITY_MENU)

        def cap():
            return rng.choice(CAP_MENU)
    else:
        def capacity():
            return rng.choice([0.0, rng.uniform(0.5, 150.0)])

        # Two inexact cap values per instance: groups of several
        # entities freeze together at a level whose multiples round.
        inexact = [None, rng.uniform(0.5, 40.0), rng.uniform(0.5, 40.0)]

        def cap():
            return rng.choice(inexact)

    return capacity, cap


def _assert_one_small_solve_matches_oracles(network, usages, rate_caps):
    engine = IncrementalEngine(network)
    entities = [
        SimpleNamespace(usage=usage, max_rate=cap, rate=-1.0)
        for usage, cap in zip(usages, rate_caps)
    ]
    for entity_id, entity in enumerate(entities):
        engine.add_entity(entity_id, entity)
    assert engine.ensure(0.0)
    # One solve over the union of the dirty components: two or more
    # entities, so the small tier ran.
    assert engine.solves_by_tier == {"single": 0, "small": 1}
    assert engine.solves == 1
    rates = [entity.rate for entity in entities]
    capacities = network.capacities_at(0.0)
    assert rates == max_min_allocate(usages, capacities, rate_caps)
    assert rates == vectorized_max_min_allocate(
        usages, capacities, rate_caps
    )
    assert engine.last_changed == [
        i for i, rate in enumerate(rates) if rate != -1.0
    ]


@settings(max_examples=300, deadline=None)
@given(task_edges=kernel_tasks, seed=st.integers(0, 2**20))
def test_small_kernel_bit_identical(task_edges, seed):
    rng = random.Random(seed)
    capacity, cap = _menus(rng)
    network = StarNetwork.constant(
        [capacity() for _ in range(5)], [capacity() for _ in range(5)]
    )
    usages = [usage_from_edges(e) for e in task_edges]
    _assert_one_small_solve_matches_oracles(
        network, usages, [cap() for _ in usages]
    )


@settings(max_examples=100, deadline=None)
@given(
    node_count=st.integers(8, 64),
    entity_count=st.integers(2, 400),
    seed=st.integers(0, 2**20),
)
def test_small_kernel_bit_identical_on_large_components(
    node_count, entity_count, seed
):
    # Up to 400 entities x 4 edges x 2 links = 3 200 entries (~2 000
    # typical at 400): sizes only the numpy tier used to solve.
    rng = random.Random(seed)
    capacity, cap = _menus(rng)

    def link():
        # A link is dead only on three zero draws in a row: at the
        # menus' own 25-50 % nearly every multi-edge entity would cross
        # a dead link and the whole component freeze in round one.
        return capacity() or capacity() or capacity()

    network = StarNetwork.constant(
        [link() for _ in range(node_count)],
        [link() for _ in range(node_count)],
    )
    usages = [
        usage_from_edges(
            tuple(rng.sample(range(node_count), 2))
            for _ in range(rng.randint(1, 4))
        )
        for _ in range(entity_count)
    ]
    _assert_one_small_solve_matches_oracles(
        network, usages, [cap() for _ in usages]
    )


class TestLevelHeapRounds:
    """One deterministic component per edge case of the level heap.

    ``_solve_small`` scans every column in round one and pops a
    ``(level, col)`` heap after it.  Each instance below is built so that
    round one freezes a lone flow at a tiny level (the heap is then
    built over the rest) and names, in its rates, the rounds it runs.
    Unlisted links have capacity 1 000.
    """

    @staticmethod
    def _solve(node_count, ups, downs, task_edges, rate_caps=None):
        up = [1000.0] * node_count
        down = [1000.0] * node_count
        for node, capacity in ups.items():
            up[node] = capacity
        for node, capacity in downs.items():
            down[node] = capacity
        usages = [usage_from_edges(edges) for edges in task_edges]
        if rate_caps is None:
            rate_caps = [None] * len(usages)
        network = StarNetwork.constant(up, down)
        _assert_one_small_solve_matches_oracles(network, usages, rate_caps)
        return max_min_allocate(
            usages, network.capacities_at(0.0), rate_caps
        )

    def test_a_column_re_derived_twice_before_its_entry_surfaces(self):
        # down0 (100) enters the heap at 100/3; a freezes at 10 and b at
        # 20, re-deriving it to 45 and then 70.  Its 100/3 and 45 entries
        # surface stale and are skipped; c rises to 70.
        rates = self._solve(
            6, ups={1: 10.0, 2: 20.0, 3: 100.0, 4: 1.0}, downs={0: 100.0},
            task_edges=[[(4, 5)], [(1, 0)], [(2, 0)], [(3, 0)]],
        )
        assert rates == [1.0, 10.0, 20.0, 70.0]

    def test_two_columns_reach_one_level_in_different_rounds(self):
        # down0 enters the heap at 100/3; down6 reaches (110 - 10) / 3,
        # the same float, when h1 freezes at 10 in round two.  Both are
        # popped in round three and freeze together, so up1 (shared by
        # g1, h2 and w, holding e0's 0.1) takes one ``2 * level`` — two
        # separate rounds would round it differently and move w's rate.
        third = 100.0 / 3
        rates = self._solve(
            12,
            ups={1: 200.0, 7: 10.0},
            downs={0: 100.0, 5: 0.1, 6: 110.0},
            task_edges=[
                [(1, 5)],                      # e0: down5, round one
                [(7, 6)],                      # h1: up7, round two
                [(1, 0)], [(2, 0)], [(3, 0)],  # g1-g3: down0
                [(1, 6)], [(8, 6)], [(9, 6)],  # h2-h4: down6
                [(1, 11)],                     # w: what is left of up1
            ],
        )
        assert rates[:2] == [0.1, 10.0]
        assert rates[2:8] == [third] * 6
        assert rates[8] == 200.0 - (0.1 + 2.0 * third)
        assert rates[8] != 200.0 - ((0.1 + third) + third)

    def test_a_cap_equal_to_a_column_level_after_round_one(self):
        # a freezes at 10 in round two and re-derives down0 to 45 — c's
        # cap.  c (cap and column) and d (column) freeze at 45 in one
        # round; c's cap entry is then passed over and g rises on up3.
        rates = self._solve(
            7, ups={1: 10.0, 4: 1.0}, downs={0: 100.0},
            task_edges=[[(4, 5)], [(1, 0)], [(2, 0)], [(3, 0)], [(3, 6)]],
            rate_caps=[None, None, 45.0, None, None],
        )
        assert rates == [1.0, 10.0, 45.0, 45.0, 955.0]

    def test_inert_entities_inside_a_multi_round_component(self):
        # The stale-entry component plus an entity with no columns and
        # one on a's links with a zero cap: both stay at 0 and load
        # nothing, and every other rate is the one without them.
        rates = self._solve(
            6, ups={1: 10.0, 2: 20.0, 3: 100.0, 4: 1.0}, downs={0: 100.0},
            task_edges=[[(4, 5)], [(1, 0)], [], [(2, 0)], [(1, 0)], [(3, 0)]],
            rate_caps=[None, None, None, None, 0.0, None],
        )
        assert rates == [1.0, 10.0, 0.0, 20.0, 0.0, 70.0]


def test_engine_module_holds_no_numpy():
    # The engine is pure Python since its numpy tier moved to
    # tests/network/waterfill_oracle.py: an import check, not a timing.
    import repro.network.engine as engine_module

    assert not [
        name
        for name, value in vars(engine_module).items()
        if isinstance(value, ModuleType)
        and value.__name__.split(".")[0] == "numpy"
    ]


@settings(max_examples=100, deadline=None)
@given(task_edges=tasks, seed=st.integers(0, 2**20))
def test_work_conservation_on_bottlenecked_links(task_edges, seed):
    # A resource that limited anyone is fully used: the sum of its
    # users' demands equals its capacity whenever some uncapped user
    # ended below every other constraint — i.e. bandwidth is never left
    # on the table by the allocator itself.
    usages, capacities, rate_caps = _instance(task_edges, seed)
    rates = max_min_allocate(usages, capacities, rate_caps)
    loads = _loads(usages, rates)
    for i, (usage, rate, cap) in enumerate(
        zip(usages, rates, rate_caps)
    ):
        if not usage:
            continue
        at_cap = cap is not None and math.isclose(
            rate, cap, rel_tol=1e-9, abs_tol=1e-12
        )
        if at_cap:
            continue
        # The task was limited by the network: at least one of its
        # resources must be exactly full (work conservation at its
        # bottleneck) — otherwise the allocator under-filled.
        full = any(
            math.isclose(
                loads[r], capacities.get(r, 0.0),
                rel_tol=1e-9, abs_tol=1e-9,
            )
            for r in usage
        )
        assert full, f"task {i}: no fully-used resource, rate {rate}"


class TestValidationParity:
    """Both allocators reject malformed instances with the same errors."""

    @pytest.mark.parametrize(
        "allocate", [max_min_allocate, vectorized_max_min_allocate]
    )
    def test_negative_coefficient(self, allocate):
        from repro.exceptions import SimulationError

        with pytest.raises(SimulationError, match="negative usage"):
            allocate([{("up", 0): -1.0}], {("up", 0): 10.0})

    @pytest.mark.parametrize(
        "allocate", [max_min_allocate, vectorized_max_min_allocate]
    )
    def test_cap_length_mismatch(self, allocate):
        from repro.exceptions import SimulationError

        with pytest.raises(SimulationError, match="length"):
            allocate([{("up", 0): 1.0}], {("up", 0): 10.0}, [1.0, 2.0])

    @pytest.mark.parametrize(
        "allocate", [max_min_allocate, vectorized_max_min_allocate]
    )
    def test_negative_cap(self, allocate):
        from repro.exceptions import SimulationError

        with pytest.raises(SimulationError, match="negative"):
            allocate([{("up", 0): 1.0}], {("up", 0): 10.0}, [-1.0])

    @pytest.mark.parametrize(
        "allocate", [max_min_allocate, vectorized_max_min_allocate]
    )
    def test_unconstrained_task(self, allocate):
        from repro.exceptions import SimulationError

        # Positive usage on a resource with infinite capacity and no cap:
        # the water level never stops rising.
        with pytest.raises(SimulationError, match="unconstrained"):
            allocate([{("up", 0): 1.0}], {("up", 0): math.inf})

    @pytest.mark.parametrize(
        "allocate", [max_min_allocate, vectorized_max_min_allocate]
    )
    def test_empty_instance(self, allocate):
        assert allocate([], {}) == []


def test_waterfill_kernel_direct():
    # Two tasks sharing one column of capacity 100; one capped at 10.
    import numpy as np

    rates = waterfill(
        np.array([0, 1, 2]),
        np.array([0, 0], dtype=np.intp),
        np.array([1.0, 1.0]),
        np.array([100.0]),
        np.array([math.inf, 10.0]),
    )
    assert list(rates) == [90.0, 10.0]
