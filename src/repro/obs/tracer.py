"""Structured event tracer with a zero-cost no-op default.

Instrumented modules take a ``tracer`` argument defaulting to
:data:`NULL_TRACER` and guard every emission site with ``tracer.enabled``,
so a run without tracing pays one attribute load per site and never
formats an event.  With a real :class:`Tracer`, each site records a
:class:`TraceEvent` carrying

* ``t`` — **simulated** seconds (the timeline the paper's figures use),
  the only clock an event carries, so the stream is byte-for-byte
  deterministic for a fixed seed;
* ``track`` — the timeline the event belongs to (``node:<id>``,
  ``planner``, ``scheduler``, ``sim``, ``master``);
* ``fields`` — event-specific structured payload.

Spans are begin/end pairs matched by ``(track, span_id)``; exporters pair
them back into intervals.

Causality is first-class: a ``begin`` (or ``instant``) may carry a
``parent_id`` — the span it is causally nested under, possibly on a
*different* track — and ``links``, a tuple of span ids it
*follows from* (completed or concurrent work that enabled it, e.g. the
planning span a transfer waits on, or the attempt a re-plan
replaces).  Span ids are unique per tracer, so the pair graph doubles
as a span DAG; :mod:`repro.obs.critpath` reconstructs it to compute exact
per-repair critical paths, and the Chrome exporter renders links as
flow arrows.  ``Tracer.scope`` pushes an ambient parent so that deeply
nested emission sites inherit causal context without threading an
extra argument through every call.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any

__all__ = ["TraceEvent", "Tracer", "NullTracer", "NULL_TRACER"]


@dataclass(slots=True)
class TraceEvent:
    """One structured trace event.

    Treated as write-once: nothing mutates an event after emission.
    The class is deliberately *not* frozen — emission sits on the
    simulator's hottest path, and a frozen dataclass pays
    ``object.__setattr__`` per field (~4x the construction cost), which
    is exactly the overhead the bench harness gates at 5%.
    """

    name: str
    kind: str  # "instant" | "begin" | "end"
    t: float  # simulated seconds
    track: str
    span_id: int | None = None
    fields: dict[str, Any] = field(default_factory=dict)
    #: Causal parent span (may live on another track).
    parent_id: int | None = None
    #: Spans this event *follows from* (cross-track causal links).
    links: tuple[int, ...] = ()

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form (JSONL line payload)."""
        payload: dict[str, Any] = {
            "name": self.name,
            "kind": self.kind,
            "t": self.t,
            "track": self.track,
        }
        if self.span_id is not None:
            payload["span_id"] = self.span_id
        if self.parent_id is not None:
            payload["parent_id"] = self.parent_id
        if self.links:
            payload["links"] = list(self.links)
        if self.fields:
            payload["fields"] = self.fields
        return payload


class Tracer:
    """Collects structured events; cheap enough to thread everywhere."""

    enabled = True

    def __init__(self):
        self.events: list[TraceEvent] = []
        self._span_ids = 0
        self._scope: list[int] = []

    def __len__(self) -> int:
        return len(self.events)

    @contextmanager
    def scope(self, span_id: int):
        """Make ``span_id`` the ambient causal parent inside the block.

        Emission sites that do not pass an explicit ``parent_id``
        inherit the innermost scoped span, so orchestrators can wrap a
        whole submit path in one ``with tracer.scope(span):``.
        """
        self._scope.append(span_id)
        try:
            yield span_id
        finally:
            self._scope.pop()

    def instant(
        self,
        name: str,
        t: float,
        track: str = "sim",
        parent_id: int | None = None,
        **fields,
    ) -> None:
        """Record a point event at simulated time ``t``."""
        # Hot path: a traced run emits tens of thousands of instants.
        if parent_id is None and self._scope:
            parent_id = self._scope[-1]
        self.events.append(
            TraceEvent(
                name=name, kind="instant", t=float(t), track=track,
                fields=fields, parent_id=parent_id,
            )
        )

    def begin(
        self,
        name: str,
        t: float,
        track: str = "sim",
        parent_id: int | None = None,
        links: tuple[int, ...] = (),
        **fields,
    ) -> int:
        """Open a span; returns the span id to pass to :meth:`end`.

        ``parent_id`` nests the span under a causal parent (defaulting
        to the ambient :meth:`scope` parent); ``links`` records
        *follows-from* edges to spans whose completion (or progress)
        enabled this one.
        """
        self._span_ids += 1
        span_id = self._span_ids
        if parent_id is None and self._scope:
            parent_id = self._scope[-1]
        self.events.append(
            TraceEvent(
                name=name, kind="begin", t=float(t), track=track,
                span_id=span_id, fields=fields, parent_id=parent_id,
                links=tuple(links),
            )
        )
        return span_id

    def end(
        self, name: str, t: float, span_id: int, track: str = "sim", **fields
    ) -> None:
        """Close the span opened under ``span_id``."""
        self.events.append(
            TraceEvent(
                name=name, kind="end", t=float(t), track=track,
                span_id=span_id, fields=fields,
            )
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def counts_by_prefix(self) -> dict[str, int]:
        """Event count per dotted name prefix (``flow.submit`` -> ``flow``)."""
        out: dict[str, int] = {}
        for event in self.events:
            prefix = event.name.split(".", 1)[0]
            out[prefix] = out.get(prefix, 0) + 1
        return out


class NullTracer:
    """Disabled tracer: every method is a no-op, ``enabled`` is False.

    Instrumentation sites check ``tracer.enabled`` before building field
    dicts, so the disabled path costs one attribute load and a branch.
    """

    enabled = False
    events: tuple = ()

    def instant(
        self, name: str, t: float, track: str = "sim",
        parent_id: int | None = None, **fields,
    ) -> None:
        pass

    def begin(
        self, name: str, t: float, track: str = "sim",
        parent_id: int | None = None, links: tuple[int, ...] = (), **fields,
    ) -> int:
        return 0

    @contextmanager
    def scope(self, span_id: int):
        yield span_id

    def end(
        self, name: str, t: float, span_id: int, track: str = "sim", **fields
    ) -> None:
        pass

    def counts_by_prefix(self) -> dict[str, int]:
        return {}


#: Shared module-level no-op tracer; the default everywhere.
NULL_TRACER = NullTracer()
