"""Tracer unit tests: events, spans, no-op behaviour."""

from collections import Counter

from repro.obs import NULL_TRACER, NullTracer, Tracer


class TestTracer:
    def test_instant_records_event(self):
        tracer = Tracer()
        tracer.instant("planner.plan", t=3.5, track="planner", bmin=7.0)
        [event] = tracer.events
        assert event.name == "planner.plan"
        assert event.kind == "instant"
        assert event.t == 3.5
        assert event.track == "planner"
        assert event.fields == {"bmin": 7.0}

    def test_span_ids_pair_begin_and_end(self):
        tracer = Tracer()
        first = tracer.begin("flow", t=0.0, track="node:1")
        second = tracer.begin("flow", t=1.0, track="node:2")
        tracer.end("flow", t=2.0, span_id=second, track="node:2")
        tracer.end("flow", t=3.0, span_id=first, track="node:1")
        assert first != second
        kinds = [event.kind for event in tracer.events]
        assert kinds == ["begin", "begin", "end", "end"]
        assert tracer.events[3].span_id == first

    def test_counts_and_prefixes(self):
        tracer = Tracer()
        tracer.instant("planner.insert", t=0.0, track="planner")
        tracer.instant("planner.insert", t=0.0, track="planner")
        tracer.instant("flow.submit", t=0.0, track="node:0")
        assert Counter(e.name for e in tracer.events) == {
            "planner.insert": 2, "flow.submit": 1,
        }
        assert tracer.counts_by_prefix() == {"planner": 2, "flow": 1}

    def test_tracks_first_seen_order(self):
        tracer = Tracer()
        tracer.instant("a", t=0.0, track="scheduler")
        tracer.instant("b", t=0.0, track="node:4")
        tracer.instant("c", t=0.0, track="scheduler")
        assert list(dict.fromkeys(e.track for e in tracer.events)) == [
            "scheduler", "node:4",
        ]

    def test_to_dict_deterministic_payload(self):
        tracer = Tracer()
        tracer.instant("x", t=1.0, track="sim", value=2)
        assert tracer.events[0].to_dict() == {
            "name": "x", "kind": "instant", "t": 1.0, "track": "sim",
            "fields": {"value": 2},
        }


class TestNullTracer:
    def test_disabled_and_inert(self):
        tracer = NullTracer()
        assert tracer.enabled is False
        span = tracer.begin("flow", t=0.0)
        tracer.end("flow", t=1.0, span_id=span)
        tracer.instant("x", t=0.0)
        assert len(tracer.events) == 0
        assert Counter(e.name for e in tracer.events) == {}
        assert list(dict.fromkeys(e.track for e in tracer.events)) == []

    def test_shared_singleton_is_disabled(self):
        assert NULL_TRACER.enabled is False


class TestCausalPrimitives:
    def test_explicit_parent_and_links_recorded(self):
        tracer = Tracer()
        parent = tracer.begin("repair.task", t=0.0, track="repair:1")
        child = tracer.begin(
            "flow", t=1.0, track="node:1", parent_id=parent,
            links=(parent,),
        )
        tracer.instant("flow.submit", t=1.0, parent_id=child)
        begin = tracer.events[1]
        assert begin.parent_id == parent
        assert begin.links == (parent,)
        assert tracer.events[2].parent_id == child

    def test_scope_sets_ambient_parent(self):
        tracer = Tracer()
        outer = tracer.begin("repair.task", t=0.0, track="repair:1")
        with tracer.scope(outer):
            tracer.instant("planner.plan", t=0.5, track="planner")
            inner = tracer.begin("flow", t=0.5, track="node:1")
            with tracer.scope(inner):
                tracer.instant("flow.submit", t=0.5)
        tracer.instant("repair.done", t=1.0)
        plan, flow_begin, submit, done = tracer.events[1:5]
        assert plan.parent_id == outer
        assert flow_begin.parent_id == outer
        assert submit.parent_id == inner
        assert done.parent_id is None  # the scope is gone on exit

    def test_explicit_parent_overrides_scope(self):
        tracer = Tracer()
        outer = tracer.begin("a.span", t=0.0)
        other = tracer.begin("b.span", t=0.0)
        with tracer.scope(outer):
            tracer.instant("x.y", t=1.0, parent_id=other)
        assert tracer.events[-1].parent_id == other

    def test_null_tracer_mirrors_causal_api(self):
        tracer = NullTracer()
        with tracer.scope(7) as span:
            assert span == 7
        tracer.begin("flow", t=0.0, parent_id=3, links=(1, 2))
        assert len(tracer.events) == 0

    def test_parent_and_links_round_trip_to_dict(self):
        tracer = Tracer()
        parent = tracer.begin("a.span", t=0.0)
        tracer.begin("b.span", t=1.0, parent_id=parent, links=(parent,))
        payload = tracer.events[-1].to_dict()
        assert payload["parent_id"] == parent
        assert payload["links"] == [parent]
        # Absent causal fields stay absent (byte-stable JSONL).
        assert "parent_id" not in tracer.events[0].to_dict()
        assert "links" not in tracer.events[0].to_dict()
