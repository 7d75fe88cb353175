"""Checked certificates: every quiet arrival and departure ``==`` a solve.

``IncrementalEngine`` settles an arrival or a departure that moves no
other entity's rate without gathering a component or solving it
(``_arrival_rate``, ``_departure_is_quiet``).  Here every certificate
runs under :class:`tests.network.checked_engine.CheckedEngine`, which
re-solves the perturbed component on a copy after it and asserts ``==``
on every rate.  Driven over the pinned repair suites, the 1024-node
scale storm, storms in the shapes of the benchmark's ``engine_storm``
regimes, and a hypothesis sequence of single arrivals, departures and
re-caps on a piecewise-constant network.  Each driver asserts that both
certificate kinds fired, so none passes vacuously, and that the
round-monotonicity premise held throughout.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.network.simulator as simulator
from repro.network.engine import IncrementalEngine
from repro.network.fairness import max_min_allocate
from repro.network.scenario import replay, storm_scenario
from repro.network.topology import StarNetwork
from tests.network import pinned_suites
from tests.network.checked_engine import COUNTS, CheckedEngine
from tests.recorded import load


@pytest.fixture
def checked(monkeypatch):
    """Every simulator built in the test runs a :class:`CheckedEngine`;
    yields the engines built."""
    built = []

    def build(network):
        engine = CheckedEngine(network)
        built.append(engine)
        return engine

    monkeypatch.setitem(simulator._ENGINES, "fast", build)
    COUNTS.clear()
    yield built
    assert all(engine.certifying for engine in built)


def _fired():
    return COUNTS["arrival"] > 0 and COUNTS["departure"] > 0


# ``single_chunk`` is left out: one repair at a time shares no column.
@pytest.mark.parametrize("suite", ["full_node", "foreground_interference"])
def test_pinned_suites(checked, suite):
    pinned = load(pinned_suites.FIXTURE)[suite]
    assert getattr(pinned_suites, suite)() == pinned
    assert _fired()


#: ``engine_storm``'s regimes (benchmarks/perf/manifest.py), by name.
REGIMES = {
    "sparse": dict(repairs=900, foreground_flows=2700, horizon=1080.0),
    "dense": dict(repairs=100, foreground_flows=300, horizon=40.0),
    "burst": dict(repairs=110, foreground_flows=330, burst=True),
}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("regime", sorted(REGIMES))
def test_engine_storm_regimes(checked, regime, seed):
    scenario = storm_scenario(seed * 1000, **REGIMES[regime])
    replay(scenario, "fast")
    assert _fired()


def test_scale_storm(checked):
    replay(storm_scenario(1), "fast")
    assert _fired()


# ----------------------------------------------------------------------
# Single perturbations, one at a time, against the reference
# ----------------------------------------------------------------------
class _Steps:
    """Capacities that are constant on ``[i, i + 1)`` for each row
    ``i`` and keep the last row after it."""

    def __init__(self, rows):
        self.rows = rows

    def capacities_at(self, t):
        return self.rows[min(int(t), len(self.rows) - 1)]

    def next_change_after(self, t):
        step = int(t) + 1
        return float(step) if step < len(self.rows) else math.inf


class _Entity:
    def __init__(self, usage, max_rate):
        self.usage = usage
        self.max_rate = max_rate
        self.rate = 0.0


NODES = 4
RESOURCES = [
    (kind, node) for kind in ("up", "down") for node in range(NODES)
]
#: Tie-prone capacities and caps, as in ``test_fairness_properties.py``.
CAPACITY_MENU = [0.0, 50.0, 100.0, 150.0]
CAP_MENU = [None, None, 25.0, 50.0]

usages = st.dictionaries(
    st.sampled_from(RESOURCES), st.integers(1, 3), min_size=1, max_size=4
)
capacity_rows = st.lists(
    st.lists(
        st.one_of(
            st.sampled_from(CAPACITY_MENU),
            st.floats(0.5, 150.0, allow_nan=False),
        ),
        min_size=len(RESOURCES), max_size=len(RESOURCES),
    ),
    min_size=1, max_size=3,
)
caps = st.one_of(
    st.sampled_from(CAP_MENU), st.floats(0.5, 40.0, allow_nan=False)
)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), usages, caps),
        st.tuples(st.just("add"), usages, caps),
        st.tuples(st.just("remove"), st.integers(0, 99)),
        st.tuples(st.just("remove"), st.integers(0, 99)),
        st.tuples(st.just("recap"), st.integers(0, 99), caps),
        st.tuples(st.just("tick"), st.sampled_from([0.0, 0.5, 1.0])),
    ),
    min_size=1, max_size=40,
)


def _churn(rows, ops):
    """Apply ``ops`` one at a time, ``ensure`` after each; every rate
    equals the reference's over the live entities every time."""
    network = _Steps([dict(zip(RESOURCES, row)) for row in rows])
    engine = CheckedEngine(network)
    live: dict[int, _Entity] = {}
    now = 0.0
    next_id = 0
    for op in ops:
        if op[0] == "add":
            live[next_id] = entity = _Entity(op[1], op[2])
            engine.add_entity(next_id, entity)
            next_id += 1
        elif op[0] == "tick":
            now += op[1]
        elif live:
            entity_id = sorted(live)[op[1] % len(live)]
            if op[0] == "remove":
                del live[entity_id]
                engine.remove_entity(entity_id)
            else:
                live[entity_id].max_rate = op[2]
                engine.touch(entity_id)
        engine.ensure(now)
        entities = list(live.values())
        assert [entity.rate for entity in entities] == max_min_allocate(
            [entity.usage for entity in entities],
            network.capacities_at(now),
            rate_caps=[entity.max_rate for entity in entities],
        )
    return engine


def _churn_property(max_examples=None):
    tripped = []

    # A quiet arrival, then its quiet departure: the second entity rises
    # to 90 beside the first, capped at 10, and moves nobody; then the
    # same with the newcomer held by its own cap below every level.
    @example(
        rows=[[50.0, 100.0, 100.0, 50.0, 100.0, 100.0, 150.0, 100.0]],
        ops=[
            ("add", {("up", 0): 1, ("down", 2): 1}, None),
            ("add", {("down", 2): 1, ("up", 3): 1}, 10.0),
            ("remove", 1),
        ],
    )
    @example(
        rows=[[100.0] * len(RESOURCES)],
        ops=[
            ("add", {("down", 2): 1, ("up", 3): 1}, 10.0),
            ("add", {("down", 2): 1}, None),
            ("remove", 1),
        ],
    )
    @given(rows=capacity_rows, ops=operations)
    def run(rows, ops):
        if not _churn(rows, ops).certifying:
            tripped.append(ops)

    if max_examples is None:
        run = settings(deadline=None)(run)
    else:
        run = settings(max_examples=max_examples, deadline=None)(run)
    COUNTS.clear()
    run()
    assert _fired()
    assert not tripped


def test_single_perturbations_match_the_reference():
    _churn_property()


@pytest.mark.slow
def test_single_perturbations_match_the_reference_at_length():
    _churn_property(max_examples=2000)


@pytest.mark.parametrize("coeff", [1.0, 0.5])
def test_a_fractional_coefficient_never_certifies(coeff):
    # Sums of 0.5 coefficients depend on their order, which the
    # certificates do not reproduce: registering one stops certifying,
    # also on columns it does not touch.
    engine = IncrementalEngine(StarNetwork.uniform(4, 100.0))
    usages = [
        {("up", 0): 1.0},
        {("up", 0): coeff, ("down", 1): 1.0},
        {("down", 2): 1.0, ("up", 3): 1.0},
        {("down", 2): 1.0},
    ]
    for entity_id, usage in enumerate(usages):
        cap = 10.0 if entity_id == 2 else None
        engine.add_entity(entity_id, _Entity(usage, cap))
        engine.ensure(0.0)
    # 3 rises to 90 beside 2, capped at 10: its arrival moves nobody,
    # and neither does its departure.
    engine.remove_entity(3)
    engine.ensure(0.0)
    if coeff == 1.0:
        assert engine.certifying
        assert engine.certified == {"arrival": 1, "departure": 1}
    else:
        assert not engine.certifying
        assert engine.certified == {"arrival": 0, "departure": 0}


def test_a_binding_column_with_a_user_still_rising_is_unknown():
    # x (coefficient 2) runs one ulp above the level its column c
    # reaches when a (coefficient 5) arrives on it, so c binds both at
    # that level.  Replayed past a's freeze, c's level rounds to above
    # x's rate again: only the binding-column check says unknown.
    capacity = 424.18735860211893
    level = capacity / 7
    rate = math.nextafter(level, math.inf)
    assert (capacity - 5 * level) / 2 > rate
    c, d = ("down", 1), ("up", 2)
    network = _Steps([{c: capacity, d: rate}])
    engine = CheckedEngine(network)
    x = _Entity({c: 2, d: 1}, None)
    a = _Entity({c: 5}, None)
    engine.add_entity(0, x)
    engine.ensure(0.0)
    assert x.rate == rate
    engine.add_entity(1, a)
    engine.ensure(0.0)
    assert engine.certified["arrival"] == 0
    assert [x.rate, a.rate] == [level, level] == max_min_allocate(
        [x.usage, a.usage], network.capacities_at(0.0)
    )
