"""Exporter tests: JSONL round-trip and Chrome trace-event schema."""

import json
import math

import pytest

from repro.exceptions import TraceError
from repro.obs import (
    Sample,
    Tracer,
    events_from_jsonl,
    to_chrome_trace,
    to_jsonl,
    write_trace,
)


def sample_tracer() -> Tracer:
    tracer = Tracer()
    span = tracer.begin(
        "flow", t=1.0, track="node:3", label="PivotRepair", bytes_total=64.0
    )
    tracer.instant("planner.plan", t=1.0, track="planner", bmin=9.0)
    tracer.instant("flow.rate_change", t=1.5, track="node:3", rate=2.0)
    tracer.end("flow", t=2.0, span_id=span, track="node:3")
    return tracer


class TestJsonl:
    def test_round_trip(self):
        tracer = sample_tracer()
        text = to_jsonl(tracer.events)
        assert text.endswith("\n")
        parsed = events_from_jsonl(text)
        assert parsed == list(tracer.events)

    def test_one_json_object_per_line(self):
        text = to_jsonl(sample_tracer().events)
        lines = text.strip().split("\n")
        assert len(lines) == 4
        for line in lines:
            payload = json.loads(line)
            assert {"name", "kind", "t", "track"} <= set(payload)

    def test_empty_stream(self):
        assert to_jsonl([]) == ""
        assert events_from_jsonl("") == []

    def test_an_old_stream_with_wall_times_loads(self):
        # Streams written before the tracer dropped host time carry a
        # "wall" key per event; it is read past, not refused.
        tracer = sample_tracer()
        lines = [
            json.dumps({**event.to_dict(), "wall": 12.5})
            for event in tracer.events
        ]
        assert events_from_jsonl("\n".join(lines)) == list(tracer.events)


class TestMalformedStreams:
    """A torn or malformed line is a TraceError naming it, never a
    JSONDecodeError or KeyError from inside the reader."""

    GOOD = '{"name":"x","kind":"instant","t":0.0,"track":"sim"}'

    @pytest.mark.parametrize(
        "line, message",
        [
            ('{"name":"y","ki', "line 2: malformed trace event"),
            ('{"name":"y","kind":"instant","track":"sim"}',
             "line 2: trace event lacks key 't'"),
            ('{"name":"y","kind":"instant","t":"soon","track":"sim"}',
             "line 2: malformed trace event"),
            ("[1, 2]", "line 2: malformed trace event"),
        ],
        ids=["torn", "missing-key", "bad-value", "not-an-object"],
    )
    def test_events(self, line, message):
        with pytest.raises(TraceError, match=message):
            events_from_jsonl(f"{self.GOOD}\n{line}")

    def test_line_numbers_count_blank_lines(self):
        with pytest.raises(TraceError, match="line 3: "):
            events_from_jsonl(f"{self.GOOD}\n\n{{")

class TestChromeTrace:
    def test_schema_fields(self):
        trace = to_chrome_trace(sample_tracer().events)
        events = trace["traceEvents"]
        assert events, "trace must not be empty"
        for event in events:
            assert {"ph", "pid", "tid", "name"} <= set(event)
            if event["ph"] != "M":
                assert "ts" in event

    def test_span_becomes_complete_event(self):
        trace = to_chrome_trace(sample_tracer().events)
        [complete] = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert complete["name"] == "flow"
        assert complete["ts"] == pytest.approx(1.0e6)
        assert complete["dur"] == pytest.approx(1.0e6)
        assert complete["args"]["label"] == "PivotRepair"

    def test_thread_metadata_names_tracks(self):
        trace = to_chrome_trace(sample_tracer().events)
        names = {
            e["tid"]: e["args"]["name"]
            for e in trace["traceEvents"]
            if e["ph"] == "M"
        }
        # Node tracks sort before named tracks.
        assert names[0] == "node:3"
        assert names[1] == "planner"

    def test_unmatched_begin_degrades_to_instant(self):
        tracer = Tracer()
        tracer.begin("flow", t=4.0, track="node:0")
        trace = to_chrome_trace(tracer.events)
        [instant] = [e for e in trace["traceEvents"] if e["ph"] == "i"]
        assert instant["ts"] == pytest.approx(4.0e6)

    def test_node_tracks_sorted_numerically(self):
        tracer = Tracer()
        for node in (10, 2, 1):
            tracer.instant("x", t=0.0, track=f"node:{node}")
        trace = to_chrome_trace(tracer.events)
        names = [
            e["args"]["name"]
            for e in sorted(
                (e for e in trace["traceEvents"] if e["ph"] == "M"),
                key=lambda e: e["tid"],
            )
        ]
        assert names == ["node:1", "node:2", "node:10"]

    def test_foreground_tracks_grouped_and_sorted_numerically(self):
        tracer = Tracer()
        for track in (
            "foreground:10", "node:2", "foreground:3", "planner", "faults"
        ):
            tracer.instant("x", t=0.0, track=track)
        trace = to_chrome_trace(tracer.events)
        names = [
            e["args"]["name"]
            for e in sorted(
                (e for e in trace["traceEvents"] if e["ph"] == "M"),
                key=lambda e: e["tid"],
            )
        ]
        assert names == [
            "node:2", "foreground:3", "foreground:10", "faults", "planner"
        ]

    def test_samples_become_counter_events(self):
        samples = [
            Sample(
                t=0.5,
                up={0: 5e7},
                down={1: 2.5e7},
                up_util={0: 0.5},
                down_util={1: 0.25},
                rate_by_kind={"repair": 5e7, "foreground": 1e6},
            )
        ]
        trace = to_chrome_trace(sample_tracer().events, samples=samples)
        counters = [e for e in trace["traceEvents"] if e["ph"] == "C"]
        by_name = {e["name"]: e for e in counters}
        assert by_name["util node 0"]["args"] == {"up": 0.5, "down": 0.0}
        assert by_name["util node 1"]["args"] == {"up": 0.0, "down": 0.25}
        assert by_name["rate by kind (bytes/s)"]["args"] == {
            "foreground": 1e6,
            "repair": 5e7,
        }
        assert all(e["ts"] == pytest.approx(0.5e6) for e in counters)

    def test_infinite_utilization_clamped_to_finite_json(self):
        samples = [Sample(t=0.0, up_util={0: math.inf})]
        trace = to_chrome_trace([], samples=samples)
        text = json.dumps(trace, allow_nan=False)  # raises if inf leaks
        [counter] = [
            e for e in json.loads(text)["traceEvents"] if e["ph"] == "C"
        ]
        assert counter["args"]["up"] == 1e6


class TestWriteTrace:
    def test_jsonl_file(self, tmp_path):
        path = write_trace(sample_tracer().events, tmp_path / "t.jsonl")
        assert len(path.read_text().strip().split("\n")) == 4

    def test_chrome_file_is_valid_json(self, tmp_path):
        path = write_trace(
            sample_tracer().events, tmp_path / "t.json", fmt="chrome"
        )
        payload = json.loads(path.read_text())
        assert "traceEvents" in payload

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_trace([], tmp_path / "t", fmt="xml")

class TestLabeledCounterSeries:
    def make_registry(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        registry.counter("fg_requests", tenant="t0").inc(2)
        registry.counter("fg_requests", tenant="t1").inc(3)
        registry.counter("flows_cancelled").inc(2)  # unlabeled: excluded
        registry.gauge("cap", node=1).set(5.0)  # gauge family: excluded
        return registry

    def test_labeled_counter_families_become_counter_events(self):
        trace = to_chrome_trace(
            sample_tracer().events, registry=self.make_registry()
        )
        [event] = [
            e for e in trace["traceEvents"]
            if e["ph"] == "C" and e["name"] == "fg_requests"
        ]
        assert event["args"] == {
            '{tenant="t0"}': 2.0, '{tenant="t1"}': 3.0,
        }
        # Stamped at the last event timestamp (2.0s -> microseconds).
        assert event["ts"] == pytest.approx(2.0e6)
        names = [e.get("name") for e in trace["traceEvents"]]
        assert "flows_cancelled" not in names
        assert "cap" not in names

    def test_empty_events_and_samples_still_valid(self):
        # Regression: no events, no samples, no governor cap anywhere.
        trace = to_chrome_trace([], samples=[], registry=None)
        json.dumps(trace)
        assert trace["traceEvents"] == []
        trace = to_chrome_trace(
            [], samples=[Sample(t=1.0)], registry=self.make_registry()
        )
        json.dumps(trace)
        kinds = {e["ph"] for e in trace["traceEvents"]}
        assert kinds <= {"C", "M"}

    def test_absent_governor_emits_no_cap_counter(self):
        trace = to_chrome_trace([], samples=[Sample(t=1.0)])
        names = [e.get("name") for e in trace["traceEvents"]]
        assert "repair cap (bytes/s)" not in names
        capped = Sample(t=2.0, repair_cap=1e6)
        trace = to_chrome_trace([], samples=[capped])
        [event] = [
            e for e in trace["traceEvents"]
            if e.get("name") == "repair cap (bytes/s)"
        ]
        assert event["args"] == {"cap": 1e6}

    def test_write_trace_passes_registry_through(self, tmp_path):
        path = write_trace(
            sample_tracer().events, tmp_path / "t.json", fmt="chrome",
            registry=self.make_registry(),
        )
        payload = json.loads(path.read_text())
        assert any(
            e.get("name") == "fg_requests" for e in payload["traceEvents"]
        )


class TestCausalFlowArrows:
    """Perfetto flow events for the causal span DAG (a re-planned
    repair)."""

    def replanned_trace(self):
        from repro.core import PivotRepairPlanner
        from repro.faults import FaultPlan, RetryPolicy
        from repro.network.topology import StarNetwork
        from repro.repair import repair_single_chunk_faulted
        from repro.repair.pipeline import ExecutionConfig
        from tests.one_stripe import one_stripe

        mib = 1024 * 1024
        tracer = Tracer()
        result = repair_single_chunk_faulted(
            PivotRepairPlanner(),
            StarNetwork.constant([10 * mib] * 8, [10 * mib] * 8),
            0, *one_stripe(), FaultPlan.from_spec("crash:3@0.2"),
            policy=RetryPolicy(detection_timeout=0.05),
            config=ExecutionConfig(chunk_size=8 * mib, slice_size=32768),
            tracer=tracer,
        )
        assert result.ok and result.attempts == 2
        return tracer.events

    def test_arrows_are_wellformed_perfetto_flow_events(self):
        events = self.replanned_trace()
        doc = to_chrome_trace(events)
        arrows = [
            e for e in doc["traceEvents"] if e.get("cat") == "causal"
        ]
        # Span nesting, and the re-plan following the failed attempt.
        assert {e["name"] for e in arrows} == {
            "causal.parent", "causal.follows",
        }
        starts = {e["id"]: e for e in arrows if e["ph"] == "s"}
        finishes = {e["id"]: e for e in arrows if e["ph"] == "f"}
        # Every arrow is a matched s/f pair sharing an id; nothing else.
        assert set(starts) == set(finishes)
        assert len(starts) + len(finishes) == len(arrows)
        valid_tids = {
            e["tid"] for e in doc["traceEvents"]
            if e.get("ph") == "M" and e.get("name") == "thread_name"
        }
        for event in arrows:
            assert isinstance(event["id"], int)
            assert event["ts"] >= 0
            assert event["tid"] in valid_tids
        # Binding-point "enclosing slice" only on the finish side.
        assert all(e["bp"] == "e" for e in finishes.values())
        assert all("bp" not in e for e in starts.values())

    def test_start_lies_inside_its_source_slice(self):
        events = self.replanned_trace()
        doc = to_chrome_trace(events)
        slices = [
            (e["tid"], e["ts"], e["ts"] + e["dur"])
            for e in doc["traceEvents"] if e.get("ph") == "X"
        ]
        starts = [
            e for e in doc["traceEvents"]
            if e.get("cat") == "causal" and e["ph"] == "s"
        ]
        assert starts
        for event in starts:
            assert any(
                tid == event["tid"] and t0 <= event["ts"] <= t1
                for tid, t0, t1 in slices
            ), f"flow start {event} binds to no slice on its track"
