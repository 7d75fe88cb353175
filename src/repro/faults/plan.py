"""Deterministic, seedable fault plans.

A :class:`FaultPlan` is a fixed schedule of failure events that a run
consumes: node crashes, transient link degradations, helper stalls, and
chunk-read errors.  The plan is *data*, not behaviour — the network wrapper
(:class:`~repro.faults.network.FaultyNetwork`) turns it into capacity
mutations, and the executors turn it into failure detection and
re-planning.  Because the schedule is fixed up front, two runs with the
same seed and plan are byte-identical (see ``tests/obs/test_determinism``).

Four event kinds:

* :class:`NodeCrash` — the node dies at ``time`` and never comes back; its
  uplink and downlink capacities drop to zero and it can no longer serve
  as helper, forwarder, or requestor.
* :class:`LinkDegradation` — the node's link capacities are multiplied by
  ``factor`` during ``[start, end)`` (``direction`` limits it to the
  uplink or downlink side).
* :class:`HelperStall` — the node freezes for ``duration`` seconds from
  ``start``: a degradation with factor 0 on both directions.  A pipelined
  repair through a stalled node makes no progress until the stall ends or
  the executor's detection timeout fires.
* :class:`ChunkReadError` — from ``time`` on, chunk reads on the node fail
  (media error); the node keeps its network capacity but is unusable as a
  helper holding stripe data.

A compact spec string describes a plan on the CLI::

    crash:3@5;degrade:2@2-8x0.25:down;stall:4@3+2;readerr:1@0
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path

from repro.exceptions import FaultError

__all__ = [
    "ChunkReadError",
    "FaultPlan",
    "HelperStall",
    "LinkDegradation",
    "NodeCrash",
]

_DIRECTIONS = ("up", "down", "both")


@dataclass(frozen=True)
class NodeCrash:
    """Permanent node failure at ``time``."""

    node: int
    time: float

    kind = "crash"

    def __post_init__(self) -> None:
        if self.time < 0:
            raise FaultError(f"crash of node {self.node} at negative time")

    def as_dict(self) -> dict:
        return {"kind": "crash", "node": self.node, "time": self.time}


@dataclass(frozen=True)
class LinkDegradation:
    """Scale the node's link capacities by ``factor`` during ``[start, end)``."""

    node: int
    start: float
    end: float
    factor: float
    direction: str = "both"

    kind = "degrade"

    def __post_init__(self) -> None:
        if self.start < 0 or self.end <= self.start:
            raise FaultError(
                f"degradation window [{self.start}, {self.end}) is invalid"
            )
        if not 0.0 <= self.factor <= 1.0:
            raise FaultError(
                f"degradation factor {self.factor} outside [0, 1]"
            )
        if self.direction not in _DIRECTIONS:
            raise FaultError(f"unknown direction {self.direction!r}")

    def as_dict(self) -> dict:
        return {
            "kind": "degrade", "node": self.node, "start": self.start,
            "end": self.end, "factor": self.factor,
            "direction": self.direction,
        }


@dataclass(frozen=True)
class HelperStall:
    """The node freezes (factor 0, both directions) for ``duration`` seconds."""

    node: int
    start: float
    duration: float

    kind = "stall"

    def __post_init__(self) -> None:
        if self.start < 0 or self.duration <= 0:
            raise FaultError(
                f"stall of node {self.node}: start {self.start}, "
                f"duration {self.duration}"
            )

    @property
    def end(self) -> float:
        return self.start + self.duration

    def as_dict(self) -> dict:
        return {
            "kind": "stall", "node": self.node, "start": self.start,
            "duration": self.duration,
        }


@dataclass(frozen=True)
class ChunkReadError:
    """Chunk reads on the node fail from ``time`` on (media error)."""

    node: int
    time: float = 0.0

    kind = "readerr"

    def __post_init__(self) -> None:
        if self.time < 0:
            raise FaultError(
                f"read error on node {self.node} at negative time"
            )

    def as_dict(self) -> dict:
        return {"kind": "readerr", "node": self.node, "time": self.time}


FaultEvent = NodeCrash | LinkDegradation | HelperStall | ChunkReadError


class FaultPlan:
    """An immutable schedule of fault events, queried by time."""

    def __init__(self, events: Iterable[FaultEvent] = ()):
        self._events: tuple[FaultEvent, ...] = tuple(events)
        for event in self._events:
            if not isinstance(
                event, (NodeCrash, LinkDegradation, HelperStall, ChunkReadError)
            ):
                raise FaultError(f"not a fault event: {event!r}")
        self._crash_time: dict[int, float] = {}
        for event in self._events:
            if isinstance(event, NodeCrash):
                previous = self._crash_time.get(event.node, math.inf)
                self._crash_time[event.node] = min(previous, event.time)
        self._read_error_time: dict[int, float] = {}
        for event in self._events:
            if isinstance(event, ChunkReadError):
                previous = self._read_error_time.get(event.node, math.inf)
                self._read_error_time[event.node] = min(previous, event.time)
        self._windows: list[tuple[int, float, float, float, str]] = [
            (e.node, e.start, e.end, e.factor, e.direction)
            if isinstance(e, LinkDegradation)
            else (e.node, e.start, e.end, 0.0, "both")
            for e in self._events
            if isinstance(e, (LinkDegradation, HelperStall))
        ]
        breakpoints: set[float] = set(self._crash_time.values())
        breakpoints.update(self._read_error_time.values())
        for _, start, end, _, _ in self._windows:
            breakpoints.add(start)
            breakpoints.add(end)
        self._breakpoints = sorted(breakpoints)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def none(cls) -> FaultPlan:
        return cls(())

    @classmethod
    def from_spec(cls, spec: str) -> FaultPlan:
        """Parse a ``;``-separated spec string (see the module docstring)."""
        events: list[FaultEvent] = []
        for raw in spec.split(";"):
            entry = raw.strip()
            if not entry:
                continue
            events.append(_parse_entry(entry))
        return cls(events)

    @classmethod
    def from_file(cls, path: str | Path) -> FaultPlan:
        """Load a plan from a JSON file: ``{"events": [{...}, ...]}``."""
        try:
            payload = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as error:
            raise FaultError(f"cannot load fault plan {path}: {error}") from error
        if not isinstance(payload, dict) or "events" not in payload:
            raise FaultError(f"fault plan {path} lacks an 'events' list")
        return cls(_event_from_dict(entry) for entry in payload["events"])

    @classmethod
    def rack_outage(
        cls,
        rack_nodes: Sequence[int],
        at: float = 0.0,
        *,
        gray_nodes: Sequence[int] = (),
        gray_start: float | None = None,
        gray_duration: float = 10.0,
        gray_factor: float = 0.4,
        gray_direction: str = "up",
    ) -> FaultPlan:
        """A correlated rack power loss, optionally with a gray tail.

        Every node in ``rack_nodes`` crashes simultaneously at ``at`` —
        the storm scenario of :mod:`repro.controlplane.storm`, where one
        failure domain takes out several chunk holders at once and
        triggers as many concurrent full-node repairs.  ``gray_nodes``
        models the cascading gray failure that often follows a power
        event (PSU failover browning out neighbouring racks' links):
        each listed survivor's ``gray_direction`` link degrades to
        ``gray_factor`` of capacity for ``gray_duration`` seconds
        starting at ``gray_start`` (default: the outage instant plus one
        second, so repairs are already in flight when the links sag).
        """
        if not rack_nodes:
            raise FaultError("a rack outage needs at least one node")
        events: list[FaultEvent] = [
            NodeCrash(node=node, time=at) for node in sorted(rack_nodes)
        ]
        if gray_nodes:
            start = gray_start if gray_start is not None else at + 1.0
            dead = set(rack_nodes)
            for node in sorted(gray_nodes):
                if node in dead:
                    raise FaultError(
                        f"gray node {node} is already crashed by the outage"
                    )
                events.append(
                    LinkDegradation(
                        node=node, start=start,
                        end=start + gray_duration,
                        factor=gray_factor, direction=gray_direction,
                    )
                )
        return cls(events)

    def shifted(self, delta: float) -> FaultPlan:
        """A copy with every event time offset by ``delta`` seconds.

        Lets plans written relative to the start of a repair run against
        a simulator whose clock starts later (the CLI repairs start at
        the congestion instant picked from the workload trace).
        """
        if not delta:
            return self
        moved: list[FaultEvent] = []
        for event in self._events:
            if isinstance(event, NodeCrash):
                moved.append(NodeCrash(event.node, event.time + delta))
            elif isinstance(event, LinkDegradation):
                moved.append(
                    LinkDegradation(
                        event.node, event.start + delta, event.end + delta,
                        event.factor, event.direction,
                    )
                )
            elif isinstance(event, HelperStall):
                moved.append(
                    HelperStall(event.node, event.start + delta, event.duration)
                )
            else:
                moved.append(ChunkReadError(event.node, event.time + delta))
        return FaultPlan(moved)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def events(self) -> tuple[FaultEvent, ...]:
        return self._events

    def __bool__(self) -> bool:
        return bool(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def is_dead(self, node: int, t: float) -> bool:
        return t >= self._crash_time.get(node, math.inf)

    def dead_nodes(self, t: float) -> set[int]:
        return {n for n, at in self._crash_time.items() if t >= at}

    def chunk_unreadable(self, node: int, t: float) -> bool:
        return t >= self._read_error_time.get(node, math.inf)

    def unreadable_nodes(self, t: float) -> set[int]:
        return {n for n, at in self._read_error_time.items() if t >= at}

    def capacity_factor(self, node: int, direction: str, t: float) -> float:
        """Multiplier on the node's ``direction`` capacity at time ``t``.

        0 once the node is dead; otherwise the product of every active
        degradation/stall window covering ``t``.
        """
        if direction not in ("up", "down"):
            raise FaultError(f"unknown direction {direction!r}")
        if self.is_dead(node, t):
            return 0.0
        factor = 1.0
        for w_node, start, end, w_factor, w_direction in self._windows:
            if w_node != node:
                continue
            if w_direction != "both" and w_direction != direction:
                continue
            if start <= t < end:
                factor *= w_factor
        return factor

    def stalled_nodes(self, t: float) -> set[int]:
        """Nodes whose capacity factor is zero at ``t`` but who are alive."""
        out = set()
        for node, start, end, factor, direction in self._windows:
            if factor == 0.0 and direction == "both" and start <= t < end:
                if not self.is_dead(node, t):
                    out.add(node)
        return out

    def next_change_after(self, t: float) -> float:
        """First plan breakpoint strictly after ``t`` (+inf if none)."""
        for point in self._breakpoints:
            if point > t:
                return point
        return math.inf

    def next_failure_affecting(
        self, nodes: Iterable[int], t: float
    ) -> float:
        """Earliest crash or read error on ``nodes`` strictly after ``t``."""
        times = [
            at
            for node in nodes
            for at in (
                self._crash_time.get(node, math.inf),
                self._read_error_time.get(node, math.inf),
            )
            if t < at < math.inf
        ]
        return min(times, default=math.inf)

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        return {"events": [event.as_dict() for event in self._events]}

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.as_dict(), indent=2))

    def __repr__(self) -> str:
        return f"FaultPlan({len(self._events)} events)"


def _parse_entry(entry: str) -> FaultEvent:
    try:
        head, body = entry.split(":", 1)
    except ValueError:
        raise FaultError(f"malformed fault entry {entry!r}") from None
    try:
        if head == "crash":
            node, at = body.split("@")
            return NodeCrash(node=int(node), time=float(at))
        if head == "readerr":
            node, at = body.split("@")
            return ChunkReadError(node=int(node), time=float(at))
        if head == "stall":
            node, window = body.split("@")
            start, duration = window.split("+")
            return HelperStall(
                node=int(node), start=float(start), duration=float(duration)
            )
        if head == "degrade":
            direction = "both"
            if body.count(":") == 1:
                body, direction = body.split(":")
            node, window = body.split("@")
            span, factor = window.split("x")
            start, end = span.split("-")
            return LinkDegradation(
                node=int(node), start=float(start), end=float(end),
                factor=float(factor), direction=direction,
            )
    except (ValueError, FaultError) as error:
        if isinstance(error, FaultError):
            raise
        raise FaultError(f"malformed fault entry {entry!r}") from error
    raise FaultError(f"unknown fault kind {head!r} in {entry!r}")


def _event_from_dict(payload: dict) -> FaultEvent:
    if not isinstance(payload, dict):
        raise FaultError(f"fault event must be an object, got {payload!r}")
    kind = payload.get("kind")
    fields = {k: v for k, v in payload.items() if k != "kind"}
    try:
        if kind == "crash":
            return NodeCrash(**fields)
        if kind == "degrade":
            return LinkDegradation(**fields)
        if kind == "stall":
            return HelperStall(**fields)
        if kind == "readerr":
            return ChunkReadError(**fields)
    except (TypeError, FaultError) as error:
        if isinstance(error, FaultError):
            raise
        raise FaultError(f"malformed fault event {payload!r}") from error
    raise FaultError(f"unknown fault kind {kind!r}")
