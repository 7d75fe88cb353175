"""Trace exporters: JSONL and Chrome ``trace_event`` JSON.

* :func:`to_jsonl` — one compact JSON object per event per line; two
  runs with the same seed produce byte-identical streams.
* :func:`to_chrome_trace` — the Chrome trace-event format (the
  ``{"traceEvents": [...]}`` JSON object), loadable in
  ``chrome://tracing`` and Perfetto.  Simulated seconds map to trace
  microseconds; every tracer track becomes one named thread (node tracks
  first, then planner/scheduler/etc.), spans become complete (``X``)
  events, instants become ``i`` events, and causal links
  (``parent_id`` / ``links``) become flow arrow (``s``/``f``) pairs so
  Perfetto draws the span DAG.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Sequence
from pathlib import Path

from repro.exceptions import TraceError
from repro.obs.metrics import render_labels
from repro.obs.tracer import TraceEvent

__all__ = [
    "to_jsonl",
    "to_chrome_trace",
    "write_trace",
    "events_from_jsonl",
]

#: Synthetic process id for the whole simulation.
TRACE_PID = 1


def to_jsonl(events: Sequence[TraceEvent]) -> str:
    """Serialise events as JSON Lines (trailing newline included)."""
    lines = [
        json.dumps(event.to_dict(), separators=(",", ":"))
        for event in events
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def events_from_jsonl(text: str) -> list[TraceEvent]:
    """Parse a JSONL stream back into :class:`TraceEvent` records.

    A line that is not a JSON object with ``name``, ``kind``, ``t`` and
    ``track`` (a torn last record included) raises :class:`TraceError`
    naming its line.  Keys the stream no longer writes (an old file's
    ``wall``) are ignored.
    """
    return parse_jsonl(text, "trace event", _event_from_dict)


def _event_from_dict(raw: dict) -> TraceEvent:
    return TraceEvent(
        name=raw["name"],
        kind=raw["kind"],
        t=float(raw["t"]),
        track=raw["track"],
        span_id=raw.get("span_id"),
        fields=raw.get("fields", {}),
        parent_id=raw.get("parent_id"),
        links=tuple(raw.get("links", ())),
    )


def parse_jsonl(text: str, what: str, build) -> list:
    """``build(record)`` for each non-blank line of ``text`` parsed as
    JSON; a parse error, a missing key or a bad value raises
    :class:`TraceError` naming the 1-based line."""
    out = []
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            out.append(build(json.loads(line)))
        except json.JSONDecodeError as error:
            raise TraceError(
                f"line {number}: malformed {what}: {error.msg} "
                f"at column {error.colno}"
            ) from error
        except KeyError as error:
            raise TraceError(
                f"line {number}: {what} lacks key {error.args[0]!r}"
            ) from error
        except (AttributeError, TypeError, ValueError) as error:
            raise TraceError(
                f"line {number}: malformed {what}: {error}"
            ) from error
    return out


def _track_order(tracks: Iterable[str]) -> dict[str, int]:
    """Stable tid assignment.

    ``node:<id>`` tracks come first ordered by id, then the other
    ``<prefix>:<id>`` groups (``foreground:``, ``client:`` …) each
    ordered numerically, then plain named tracks (``planner``,
    ``scheduler``, ``faults`` …) by name.
    """
    groups: dict[str, list[tuple[int, str]]] = {}
    named = []
    for track in set(tracks):
        prefix, _, suffix = track.partition(":")
        if suffix.isdigit():
            groups.setdefault(prefix, []).append((int(suffix), track))
        else:
            named.append(track)
    ordered = []
    for prefix in ["node"] + sorted(set(groups) - {"node"}):
        ordered.extend(track for _, track in sorted(groups.get(prefix, [])))
    ordered.extend(sorted(named))
    return {track: tid for tid, track in enumerate(ordered)}


def to_chrome_trace(
    events: Sequence[TraceEvent], samples: Sequence = (), registry=None
) -> dict:
    """Build the Chrome trace-event JSON object for a list of events.

    ``samples`` (flight-recorder :class:`~repro.obs.sampler.Sample`
    records) become counter (``C``) series: per-node up/down link
    utilization, the aggregate per-class rates, and the governor's
    repair cap when one was in force, rendered as stacked counter
    tracks in Perfetto above the flow timeline.  ``registry`` (a
    :class:`~repro.obs.metrics.MetricsRegistry`) adds one final counter
    event per **labeled** counter family — the run-total value of each
    label set (e.g. ``fg_requests`` split by ``tenant``).  Both inputs
    are optional and may be empty; the trace stays well-formed either
    way.
    """
    tids = _track_order(event.track for event in events)
    trace_events: list[dict] = [
        {
            "ph": "M",
            "pid": TRACE_PID,
            "tid": tid,
            "name": "thread_name",
            "args": {"name": track},
        }
        for track, tid in sorted(tids.items(), key=lambda kv: kv[1])
    ]
    # Pair begin/end spans by (track, span_id); leftovers degrade to instants.
    open_spans: dict[tuple[str, int], TraceEvent] = {}
    for event in events:
        tid = tids[event.track]
        ts = event.t * 1e6  # trace-event timestamps are microseconds
        if event.kind == "begin":
            open_spans[(event.track, event.span_id)] = event
        elif event.kind == "end":
            begin = open_spans.pop((event.track, event.span_id), None)
            if begin is None:
                trace_events.append(
                    _instant(event.name, ts, tid, event.fields)
                )
                continue
            args = dict(begin.fields)
            args.update(event.fields)
            trace_events.append(
                {
                    "name": begin.name,
                    "ph": "X",
                    "ts": begin.t * 1e6,
                    "dur": max(ts - begin.t * 1e6, 0.0),
                    "pid": TRACE_PID,
                    "tid": tid,
                    "args": args,
                }
            )
        else:
            trace_events.append(_instant(event.name, ts, tid, event.fields))
    for (track, _), begin in open_spans.items():
        trace_events.append(
            _instant(begin.name, begin.t * 1e6, tids[track], begin.fields)
        )
    trace_events.extend(_flow_arrows(events, tids))
    for sample in samples:
        trace_events.extend(_counters(sample))
    trace_events.extend(_family_counters(registry, events, samples))
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {"source": "repro.obs", "time_unit": "sim-seconds"},
    }


def _flow_arrows(
    events: Sequence[TraceEvent], tids: dict[str, int]
) -> list[dict]:
    """Chrome flow (arrow) events for the causal links in a trace.

    Each causal edge becomes a matched ``ph: "s"`` (start, on the source
    span's track, clamped into its interval so Perfetto can bind it to
    the enclosing slice) / ``ph: "f"`` (finish, ``bp: "e"``, at the
    destination's begin) pair sharing a unique ``id``.  Two edge kinds
    are rendered: span → child-span nesting (``parent_id``) and
    *follows-from* links recorded at ``begin`` time (``links``).
    """
    spans: dict[int, tuple[str, float, float]] = {}
    for event in events:
        if event.kind == "begin" and event.span_id is not None:
            spans[event.span_id] = (event.track, event.t, event.t)
        elif event.kind == "end" and event.span_id in spans:
            track, begin_t, _ = spans[event.span_id]
            spans[event.span_id] = (track, begin_t, event.t)

    out: list[dict] = []
    link_id = 0

    def arrow(name: str, src_span: int, dst_t: float, dst_track: str):
        nonlocal link_id
        source = spans.get(src_span)
        if source is None or dst_track not in tids:
            return
        src_track, src_begin, src_end = source
        link_id += 1
        src_ts = min(max(dst_t, src_begin), src_end) * 1e6
        common = {"cat": "causal", "name": name, "pid": TRACE_PID}
        out.append(
            {**common, "ph": "s", "id": link_id, "ts": src_ts,
             "tid": tids[src_track]}
        )
        out.append(
            {**common, "ph": "f", "bp": "e", "id": link_id,
             "ts": dst_t * 1e6, "tid": tids[dst_track]}
        )

    for event in events:
        if event.kind == "begin":
            if event.parent_id is not None:
                arrow("causal.parent", event.parent_id, event.t, event.track)
            for src in event.links:
                arrow("causal.follows", src, event.t, event.track)
    return out


def _counters(sample) -> list[dict]:
    """Counter (``C``) events for one flight-recorder sample."""
    ts = sample.t * 1e6
    out = []
    for node in sorted(set(sample.up_util) | set(sample.down_util)):
        out.append(
            {
                "name": f"util node {node}",
                "ph": "C",
                "ts": ts,
                "pid": TRACE_PID,
                "args": {
                    # Saturated zero-capacity links sample as inf; clamp
                    # so the JSON stays standard-parseable.
                    direction: round(min(value, 1e6), 6)
                    for direction, value in (
                        ("up", sample.up_util.get(node, 0.0)),
                        ("down", sample.down_util.get(node, 0.0)),
                    )
                },
            }
        )
    if sample.rate_by_kind:
        out.append(
            {
                "name": "rate by kind (bytes/s)",
                "ph": "C",
                "ts": ts,
                "pid": TRACE_PID,
                "args": dict(sorted(sample.rate_by_kind.items())),
            }
        )
    if sample.repair_cap is not None:
        out.append(
            {
                "name": "repair cap (bytes/s)",
                "ph": "C",
                "ts": ts,
                "pid": TRACE_PID,
                "args": {"cap": sample.repair_cap},
            }
        )
    return out


def _family_counters(registry, events, samples) -> list[dict]:
    """One final ``C`` event per labeled counter family of a registry.

    Counters are run totals, so each family gets a single event at the
    last known timestamp with one arg per label set (rendered
    ``{k="v"}`` form).  Unlabeled counters stay out — they already
    appear in the telemetry snapshot and carry no series structure.
    """
    if registry is None:
        return []
    ts = max(
        [event.t for event in events]
        + [sample.t for sample in samples]
        + [0.0]
    ) * 1e6
    out = []
    for name, family_type in registry.families().items():
        if family_type != "counter":
            continue
        labeled = [m for m in registry.series(name) if m.labels]
        if not labeled:
            continue
        out.append(
            {
                "name": name,
                "ph": "C",
                "ts": ts,
                "pid": TRACE_PID,
                "args": {
                    render_labels(metric.labels): metric.value
                    for metric in labeled
                },
            }
        )
    return out


def _instant(name: str, ts: float, tid: int, fields: dict) -> dict:
    return {
        "name": name,
        "ph": "i",
        "ts": ts,
        "pid": TRACE_PID,
        "tid": tid,
        "s": "t",
        "args": dict(fields),
    }


def write_trace(
    events: Sequence[TraceEvent],
    path: str | Path,
    fmt: str = "jsonl",
    samples: Sequence = (),
    registry=None,
) -> Path:
    """Write events to ``path`` in ``jsonl`` or ``chrome`` format.

    ``samples`` and ``registry`` only affect the ``chrome`` format,
    where they add utilization/rate and labeled-counter tracks (see
    :func:`to_chrome_trace`).
    """
    path = Path(path)
    if fmt == "jsonl":
        path.write_text(to_jsonl(events))
    elif fmt == "chrome":
        path.write_text(
            json.dumps(
                to_chrome_trace(events, samples=samples, registry=registry),
                indent=1,
            )
        )
    else:
        raise ValueError(f"unknown trace format {fmt!r}")
    return path
