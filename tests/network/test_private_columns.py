"""Private columns folded into rate caps, through the real engine.

A column with one registered user cannot couple two entities, so
``IncrementalEngine._solve_small`` reads it as that user's rate cap
(``capacity / coeff``, folded with a finite ``max_rate``) and keeps it
out of the water-level rounds, and ``_closure`` does not walk it.  Each
case below runs the engine and asserts its rates ``==`` the reference
:func:`repro.network.fairness.max_min_allocate` at tolerance zero, at
the places the fold can go wrong: a private level against the entity's
own cap, against a shared column's level in the same round, at zero, and
under an infinite or NaN cap, and a column whose live user count moves.
Unlisted links have capacity 1 000.
"""

import math
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.engine import IncrementalEngine
from repro.network.fairness import max_min_allocate, usage_from_edges
from repro.network.topology import StarNetwork


def _network(node_count, ups=None, downs=None):
    up = [1000.0] * node_count
    down = [1000.0] * node_count
    for node, capacity in (ups or {}).items():
        up[node] = capacity
    for node, capacity in (downs or {}).items():
        down[node] = capacity
    return StarNetwork.constant(up, down)


class _Run:
    """Entities on one engine, checked against the reference after
    every :meth:`IncrementalEngine.ensure`."""

    def __init__(self, network):
        self.network = network
        self.engine = IncrementalEngine(network)
        self.live: dict[int, SimpleNamespace] = {}

    def add(self, entity_id, edges, max_rate=None):
        entity = SimpleNamespace(
            usage=usage_from_edges(edges), max_rate=max_rate, rate=-1.0
        )
        self.live[entity_id] = entity
        self.engine.add_entity(entity_id, entity)

    def remove(self, entity_id):
        self.live.pop(entity_id)
        self.engine.remove_entity(entity_id)

    def rates(self):
        self.engine.ensure(0.0)
        ids = sorted(self.live)
        entities = [self.live[i] for i in ids]
        rates = [entity.rate for entity in entities]
        assert rates == max_min_allocate(
            [entity.usage for entity in entities],
            self.network.capacities_at(0.0),
            [_binding(entity.max_rate) for entity in entities],
        )
        return dict(zip(ids, rates))


def _binding(max_rate):
    """The cap the engine applies: a NaN ``max_rate`` never binds there.

    The reference rates a task with a NaN cap 0 instead (``nan > 0`` is
    false, so it never rises), so the two are compared with the NaN read
    as no cap.
    """
    return None if max_rate is not None and math.isnan(max_rate) else max_rate


def _solve(network, task_edges, rate_caps):
    run = _Run(network)
    for entity_id, (edges, cap) in enumerate(zip(task_edges, rate_caps)):
        run.add(entity_id, edges, cap)
    rates = run.rates()
    assert run.engine.solves_by_tier == {"single": 0, "small": 1}
    return [rates[i] for i in range(len(task_edges))]


class TestPrivateLevelAgainstTheCap:
    # a rises on its private up1 and shares down0 (100) with b, whose
    # own up2 is private too.  a's cap is 30.
    @pytest.mark.parametrize(
        "private, expected",
        [(20.0, [20.0, 80.0]), (30.0, [30.0, 70.0]), (40.0, [30.0, 70.0])],
        ids=["below", "equal", "above"],
    )
    def test_the_lower_of_the_private_level_and_max_rate_binds(
        self, private, expected
    ):
        network = _network(3, ups={1: private}, downs={0: 100.0})
        rates = _solve(network, [[(1, 0)], [(2, 0)]], [30.0, None])
        assert rates == expected

    @pytest.mark.parametrize(
        "max_rate", [None, math.inf, math.nan], ids=["none", "inf", "nan"]
    )
    def test_a_cap_that_never_binds_keeps_the_private_levels(self, max_rate):
        # An infinite or NaN max_rate binds nothing; a's private up1 (20)
        # still must.
        network = _network(3, ups={1: 20.0}, downs={0: 100.0})
        rates = _solve(network, [[(1, 0)], [(2, 0)]], [max_rate, None])
        assert rates == [20.0, 80.0]

    @pytest.mark.parametrize(
        "max_rate", [None, math.nan, 30.0], ids=["none", "nan", "finite"]
    )
    def test_a_zero_capacity_private_column(self, max_rate):
        # a's private up1 is dead: a freezes at 0 in round one and b
        # takes all of down0.
        network = _network(3, ups={1: 0.0}, downs={0: 100.0})
        rates = _solve(network, [[(1, 0)], [(2, 0)]], [max_rate, None])
        assert rates == [0.0, 100.0]


def test_a_private_level_equal_to_a_shared_level_freezes_in_its_round():
    # e0 freezes at 0.1 on its private down5.  Then g1-g3 reach 100 / 3
    # on down0 and c reaches its private down6, capacity 100 / 3, the
    # same float: one freeze group, so up1 (e0, g1, c and w) takes one
    # ``2 * level`` and w rises on what is left of it.  Two rounds would
    # round up1 differently and move w's rate.
    third = 100.0 / 3
    network = _network(
        12, ups={1: 200.0}, downs={0: 100.0, 5: 0.1, 6: third}
    )
    rates = _solve(
        network,
        [
            [(1, 5)],                      # e0
            [(1, 0)], [(2, 0)], [(3, 0)],  # g1-g3: down0
            [(1, 6)],                      # c: up1 and its private down6
            [(1, 11)],                     # w: what is left of up1
        ],
        [None] * 6,
    )
    assert rates[:5] == [0.1] + [third] * 4
    assert rates[5] == 200.0 - (0.1 + 2.0 * third)
    assert rates[5] != 200.0 - ((0.1 + third) + third)


def test_a_column_goes_shared_private_shared():
    # up1 (60) is shared by a and b, private to a once b leaves, and
    # shared with c once c arrives; a also shares down0 (100) with d.
    # Each step moves a's rate, so each is a solve of the small tier.
    run = _Run(_network(5, ups={1: 60.0}, downs={0: 100.0}))
    run.add(0, [(1, 0)])  # a
    run.add(1, [(1, 2)])  # b
    run.add(3, [(3, 0)])  # d
    assert run.rates() == {0: 30.0, 1: 30.0, 3: 70.0}
    run.remove(1)
    assert run.rates() == {0: 50.0, 3: 50.0}
    run.add(2, [(1, 4)])  # c
    assert run.rates() == {0: 30.0, 2: 30.0, 3: 70.0}
    assert run.engine.solves_by_tier == {"single": 0, "small": 3}


@settings(max_examples=150, deadline=None)
@given(
    task_edges=st.lists(
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 5)).filter(
                lambda e: e[0] != e[1]
            ),
            min_size=1, max_size=3,
        ),
        min_size=2, max_size=6,
    ),
    seed=st.integers(0, 2**20),
)
def test_folded_caps_match_the_reference(task_edges, seed):
    # Six nodes and few edges: most columns are private.  Caps include
    # inf and NaN, capacities include 0 and tie-prone round values.
    rng = random.Random(seed)
    menu = [0.0, 30.0, 60.0, 90.0, rng.uniform(0.5, 90.0)]
    network = StarNetwork.constant(
        [rng.choice(menu) for _ in range(6)],
        [rng.choice(menu) for _ in range(6)],
    )
    caps = [None, math.inf, math.nan, 30.0, rng.uniform(0.5, 60.0)]
    _solve(network, task_edges, [rng.choice(caps) for _ in task_edges])
