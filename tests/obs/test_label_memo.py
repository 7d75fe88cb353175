"""The look-up memo of ``MetricsRegistry`` and ``TimeSeriesDB``.

A labeled look-up canonicalises its label set (stringify, sort, render)
the first time a call shape is seen; a repeat is one dict probe that
returns the child the canonical path found.  These tests count the
canonicalisations (a work-count gate, no wall clock), hold the errors a
memo could hide, and compare whole registries and databases fed through
the memo with the same calls replayed with sorted label kwargs and with
the memo switched off.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs.metrics as obs_metrics
import repro.obs.timeseries as timeseries
from repro.obs import MetricsRegistry
from repro.obs.timeseries import TimeSeriesDB, TimeSeriesError

TENANTS = 3
LOOKUPS = 1000


@pytest.fixture()
def calls(monkeypatch):
    """Count ``render_labels`` / ``label_items`` in both modules."""
    tally = {"render_labels": 0, "metrics.label_items": 0,
             "timeseries.label_items": 0}

    def counting(module, name, key):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            tally[key] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    counting(obs_metrics, "render_labels", "render_labels")
    counting(obs_metrics, "label_items", "metrics.label_items")
    counting(timeseries, "label_items", "timeseries.label_items")
    return tally


def label_sets():
    """``LOOKUPS`` label kwargs over ``TENANTS`` tenants: each tenant as
    an int and as a str, with the keys in both orders."""
    for index in range(LOOKUPS):
        tenant = index % TENANTS
        value = tenant if index % 2 else str(tenant)
        if index // 2 % 2:
            yield {"tenant": value, "op": "read"}
        else:
            yield {"op": "read", "tenant": value}


#: Distinct call shapes of :func:`label_sets`: a value's ``str`` is all
#: the canonical form keeps of it, so int and str tenants share a shape,
#: and the two key orders do not.
SHAPES = TENANTS * 2


class TestWorkCounts:
    def test_a_registry_renders_each_call_shape_once(self, calls):
        registry = MetricsRegistry()
        for labels in label_sets():
            registry.counter("reads", **labels).inc()
            registry.histogram("latency", **labels).observe(1.0)
        # One render per shape and family; ``label_items`` once inside
        # each render and once more to build each new child's labels.
        assert calls["render_labels"] == 2 * SHAPES
        assert calls["metrics.label_items"] == 2 * (SHAPES + TENANTS)
        children = registry.series("reads")
        assert [child.labels for child in children] == [
            {"op": "read", "tenant": str(tenant)} for tenant in range(TENANTS)
        ]
        assert sum(child.value for child in children) == LOOKUPS

    def test_a_tsdb_sorts_each_call_shape_once(self, calls):
        tsdb = TimeSeriesDB()
        for t, labels in enumerate(label_sets()):
            tsdb.inc("fg_requests", float(t), **labels)
            tsdb.record("fg_latency", float(t), 1.0, **labels)
        # One sort per shape and series name, plus one to build each new
        # series' labels.
        assert calls["timeseries.label_items"] == 2 * (SHAPES + TENANTS)
        assert calls["render_labels"] == 0
        assert len(tsdb) == 2 * TENANTS
        assert sum(
            len(series) for series in tsdb.series("fg_requests")
        ) == LOOKUPS

    def test_an_int_and_its_str_are_one_child(self):
        registry, tsdb = MetricsRegistry(), TimeSeriesDB()
        assert registry.counter("x", tenant=1) is registry.counter(
            "x", tenant="1"
        )
        assert registry.gauge("g", tenant="1") is registry.gauge(
            "g", tenant=1
        )
        tsdb.record("s", 0.0, 1.0, tenant=1)
        tsdb.record("s", 1.0, 2.0, tenant="1")
        assert len(tsdb) == 1

    def test_values_with_equal_hashes_and_other_strs_are_other_children(
        self,
    ):
        # ``True == 1 == 1.0`` and they hash alike, but the canonical
        # form keeps "True", "1" and "1.0".
        registry, tsdb = MetricsRegistry(), TimeSeriesDB()
        for value in (1, True, 1.0, 0.0, -0.0):
            registry.counter("x", flag=value).inc()
            tsdb.record("s", 0.0, 1.0, flag=value)
        assert [child.labels["flag"] for child in registry.series("x")] == [
            "-0.0", "0.0", "1", "1.0", "True",
        ]
        assert len(tsdb) == 5

    def test_an_unhashable_value_is_a_label_too(self):
        registry = MetricsRegistry()
        registry.counter("x", nodes=[1, 2]).inc()
        registry.counter("x", nodes="[1, 2]").inc()
        assert registry.snapshot()["counters"] == {'x{nodes="[1, 2]"}': 2.0}


class TestErrorsAfterAHit:
    @pytest.mark.parametrize("first", ["counter", "gauge", "histogram"])
    def test_one_type_per_family(self, first):
        registry = MetricsRegistry()
        child = getattr(registry, first)("x", tenant="a")
        assert getattr(registry, first)("x", tenant="a") is child
        for other in {"counter", "gauge", "histogram"} - {first}:
            for _ in range(2):
                with pytest.raises(ValueError, match="another type"):
                    getattr(registry, other)("x", tenant="a")
        assert registry.families() == {"x": first}

    def test_one_kind_per_series(self):
        tsdb = TimeSeriesDB()
        for t in (0.0, 1.0):
            tsdb.record("gauge_series", t, 1.0, tenant="a")
            tsdb.inc("counter_series", t, tenant="a")
        for _ in range(2):
            with pytest.raises(TimeSeriesError, match="is a gauge"):
                tsdb.inc("gauge_series", 2.0, tenant="a")
            with pytest.raises(TimeSeriesError, match="is a counter"):
                tsdb.record("counter_series", 2.0, 1.0, tenant="a")
        with pytest.raises(TimeSeriesError, match="unknown series kind"):
            tsdb.record("other", 0.0, 1.0, "histogram", tenant="a")
        assert [len(series) for series in tsdb.all_series()] == [2, 2]


class _Forgetful(dict):
    """A memo that remembers nothing: every look-up is canonical."""

    def __setitem__(self, key, value):
        pass


_VALUES = st.one_of(
    st.integers(-2, 2),
    st.sampled_from(["0", "1", "a", "True", "1.0"]),
    st.booleans(),
    st.sampled_from([0.0, -0.0, 1.0]),
)
_OPERATIONS = st.lists(
    st.tuples(
        st.sampled_from(["counter", "gauge", "histogram", "record", "inc"]),
        st.sampled_from(["x", "y"]),
        st.dictionaries(st.sampled_from(["a", "b", "kind"]), _VALUES,
                        max_size=3),
        st.integers(0, 5),
    ),
    max_size=40,
)


def _replay(operations, order, remember=True):
    """Feed ``operations`` to a new registry and TSDB, each label set's
    keys put in ``order``; the outcome of every call and both exports."""
    registry, tsdb = MetricsRegistry(), TimeSeriesDB()
    if not remember:
        registry._memo = _Forgetful()
        tsdb._memo = _Forgetful()
    outcomes = []
    for t, (operation, name, labels, amount) in enumerate(operations):
        labels = dict(order(labels.items()))
        try:
            if operation == "counter":
                registry.counter(name, **labels).inc(amount)
            elif operation == "gauge":
                registry.gauge(name, **labels).set(amount)
            elif operation == "histogram":
                registry.histogram(name, **labels).observe(amount)
            elif operation == "record":
                tsdb.record(name, float(t), amount, **labels)
            else:
                tsdb.inc(name, float(t), amount, **labels)
        except (ValueError, TimeSeriesError) as error:
            outcomes.append(type(error).__name__)
        else:
            outcomes.append("ok")
    return outcomes, json.dumps(registry.snapshot()), tsdb.to_jsonl()


@settings(max_examples=150, deadline=None)
@given(_OPERATIONS)
def test_the_memo_changes_no_outcome_and_no_export(operations):
    as_called = _replay(operations, list)
    assert _replay(operations, sorted) == as_called
    assert _replay(operations, reversed) == as_called
    assert _replay(operations, list, remember=False) == as_called
