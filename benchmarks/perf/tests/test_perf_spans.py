"""Span arithmetic, aggregation, and patch/restore of the recorder."""

from types import SimpleNamespace

import pytest

from spans import Recorder, covered, self_times


def span(start, end, parent=-1):
    return SimpleNamespace(start=start, end=end, parent=parent)


def test_self_time_of_nested_spans():
    # root [0, 10] > child [2, 8] > grandchild [3, 5]
    spans = [span(0, 10), span(2, 8, 0), span(3, 5, 1)]
    assert self_times(spans) == [4, 4, 2]
    assert sum(self_times(spans)) == 10


def test_self_time_of_sibling_spans():
    # Two children side by side; only direct children are subtracted.
    spans = [span(0, 10), span(1, 3, 0), span(3, 7, 0), span(4, 6, 2)]
    assert self_times(spans) == [4, 2, 2, 2]
    assert sum(self_times(spans)) == 10


def test_covered_merges_overlaps():
    assert covered([(0, 2), (1, 3), (5, 6)]) == 4
    assert covered([]) == 0


class Clock:
    """Deterministic clock: every reading advances by one tick."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


class Target:
    def outer(self):
        return self.inner() + self.inner()

    def inner(self):
        return self.leaf()

    def leaf(self):
        return 1

    @classmethod
    def make(cls):
        return cls()


def test_recorder_self_times_sum_to_the_root():
    recorder = Recorder(clock=Clock())
    with recorder:
        recorder.wrap(Target, "outer", "layer.outer")
        recorder.wrap(Target, "inner", "layer.inner")
        recorder.wrap(Target, "leaf", "layer.leaf", hot=True)
        with recorder.root("pass") as root:
            assert Target().outer() == 2
    totals = recorder.totals(root)
    assert totals.calls("layer.outer") == 1
    assert totals.calls("layer.inner") == 2
    assert totals.calls("layer.leaf") == 2  # aggregated, not spans
    assert [s.name for s in recorder.spans] == [
        "pass", "layer.outer", "layer.inner", "layer.inner",
    ]
    assert sum(row[2] for row in totals.values()) == pytest.approx(
        recorder.spans[root].duration, abs=1e-12
    )
    # The recorded spans agree with the pure arithmetic once the hot
    # callable's aggregated time is taken out of its parents.
    arithmetic = self_times(recorder.spans)
    hot_under = {}
    for (parent, _), (_, total, _) in recorder.aggregates.items():
        hot_under[parent] = hot_under.get(parent, 0.0) + total
    for index, recorded in enumerate(recorder.spans):
        assert recorded.self_s == pytest.approx(
            arithmetic[index] - hot_under.get(index, 0.0)
        )


def test_totals_within_a_named_span():
    recorder = Recorder(clock=Clock())
    with recorder:
        recorder.wrap(Target, "outer", "layer.outer")
        recorder.wrap(Target, "inner", "layer.inner")
        with recorder.root("pass"):
            target = Target()
            target.outer()
            target.inner()
    assert recorder.totals("pass").calls("layer.inner") == 3
    assert recorder.totals("layer.outer").calls("layer.inner") == 2


def test_wrappers_record_nothing_outside_a_root():
    recorder = Recorder(clock=Clock())
    with recorder:
        recorder.wrap(Target, "leaf", "layer.leaf")
        assert Target().leaf() == 1
    assert recorder.spans == []


def test_restore_puts_the_original_objects_back():
    originals = {name: vars(Target)[name] for name in ("outer", "make")}
    recorder = Recorder()
    recorder.wrap(Target, "outer", "layer.outer")
    recorder.wrap(Target, "make", "layer.make")
    assert vars(Target)["outer"] is not originals["outer"]
    assert isinstance(Target.make(), Target)  # still a classmethod
    recorder.restore()
    assert vars(Target)["outer"] is originals["outer"]
    assert vars(Target)["make"] is originals["make"]


def test_wrap_function_patches_every_importer():
    import repro.core.scheduler as scheduler
    import repro.repair.fullnode as fullnode

    original = scheduler.recommendation_value
    assert fullnode.recommendation_value is original
    recorder = Recorder()
    recorder.wrap_function(scheduler, "recommendation_value", "s")
    assert scheduler.recommendation_value is not original
    assert fullnode.recommendation_value is scheduler.recommendation_value
    recorder.restore()
    assert scheduler.recommendation_value is original
    assert fullnode.recommendation_value is original
