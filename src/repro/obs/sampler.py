"""Flight recorder: a low-overhead periodic sampler for the fluid simulator.

The event tracer (:mod:`repro.obs.tracer`) answers "what happened"; the
flight recorder answers "what was the network doing while it happened".
A :class:`FlightRecorder` attached to a
:class:`~repro.network.simulator.FluidSimulator` records aligned time
series at a fixed simulated-time interval:

* per-node uplink/downlink **rates** (bytes/s) and **utilization**
  (rate over the link's capacity at sample time);
* per-traffic-class aggregate rates (``repair`` vs ``foreground``), so
  interference is visible without re-deriving it from flow events;
* active-task counts per class;
* the repair QoS governor's current rate cap (fed by the orchestrators
  through :meth:`note_governor_cap`).

Because the fluid model is piecewise constant between events, sampling
is exact: the recorder is invoked once per simulator advance with the
window ``[start, end)`` and the live entity set, computes the per-node
rates once, and replays them onto every sample tick the window crosses.
Capacities are likewise constant inside a window (an advance never
crosses a capacity breakpoint), so one ``capacities_at`` call covers all
ticks in it.

The recorder is **off by default** — ``FluidSimulator`` carries a
``sampler=None`` slot and its advance loop pays exactly one ``is not
None`` guard per step when disabled.  Samples live in a bounded ring
buffer (oldest dropped first, ``dropped`` counts evictions) and are
deterministic for a fixed seed: timestamps are simulated time and
:meth:`Sample.to_dict` sorts every mapping by key.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

from repro.exceptions import SimulationError

__all__ = ["Sample", "FlightRecorder"]

#: Default sampling period, simulated seconds.
DEFAULT_INTERVAL = 0.25

#: Default ring-buffer capacity (samples kept).
DEFAULT_CAPACITY = 4096

#: Tick-alignment slack for floating-point clock arithmetic.
_EPS = 1e-9


@dataclass(frozen=True)
class Sample:
    """One aligned observation of the simulator's instantaneous state."""

    t: float
    #: Per-node uplink / downlink rates, bytes/s (only nodes with flow).
    up: dict[int, float] = field(default_factory=dict)
    down: dict[int, float] = field(default_factory=dict)
    #: Per-node utilization = rate / capacity at ``t`` (same key sets).
    up_util: dict[int, float] = field(default_factory=dict)
    down_util: dict[int, float] = field(default_factory=dict)
    #: Aggregate per-class rate over all edges, bytes/s.
    rate_by_kind: dict[str, float] = field(default_factory=dict)
    #: Live task count per traffic class.
    active_by_kind: dict[str, int] = field(default_factory=dict)
    #: Governor per-repair-flow rate cap in force (None = uncapped).
    repair_cap: float | None = None

    def to_dict(self) -> dict:
        """Deterministic plain-dict form (a scenario digest's record)."""
        payload: dict = {"t": self.t}
        for name in ("up", "down", "up_util", "down_util"):
            series = getattr(self, name)
            if series:
                payload[name] = {
                    str(node): value for node, value in sorted(series.items())
                }
        if self.rate_by_kind:
            payload["rate_by_kind"] = dict(sorted(self.rate_by_kind.items()))
        if self.active_by_kind:
            payload["active_by_kind"] = dict(
                sorted(self.active_by_kind.items())
            )
        if self.repair_cap is not None:
            payload["repair_cap"] = self.repair_cap
        return payload


class FlightRecorder:
    """Periodic sampler bound to one simulator run.

    Args:
        interval: sampling period in simulated seconds.
        capacity: ring-buffer size; the oldest samples are evicted once
            full (``dropped`` counts how many).
    """

    def __init__(
        self,
        interval: float = DEFAULT_INTERVAL,
        capacity: int = DEFAULT_CAPACITY,
        tsdb=None,
    ):
        if interval <= 0:
            raise SimulationError("sampling interval must be positive")
        if capacity < 1:
            raise SimulationError("ring capacity must be >= 1")
        self.interval = float(interval)
        self.capacity = int(capacity)
        self.samples: deque[Sample] = deque(maxlen=self.capacity)
        self.dropped = 0
        self.sim = None
        self._next_tick = math.inf
        self._cap: float | None = None
        #: Optional :class:`~repro.obs.timeseries.TimeSeriesDB` every
        #: sample is mirrored into as labeled series.
        self.tsdb = tsdb
        #: ``fn(t)`` callbacks invoked once per sample tick — the
        #: deterministic evaluation grid for live consumers (SLO
        #: monitor, dashboard refresh).
        self._listeners: list = []

    # ------------------------------------------------------------------
    # Simulator protocol
    # ------------------------------------------------------------------
    def bind(self, sim) -> FlightRecorder:
        """Attach to the simulator driving the run (once)."""
        if self.sim is not None:
            raise SimulationError(
                "flight recorder is already bound to a simulator"
            )
        self.sim = sim
        self._next_tick = sim.now
        return self

    def note_governor_cap(self, cap: float | None) -> None:
        """Record the governor's current per-repair-flow rate cap."""
        self._cap = cap

    def add_listener(self, listener) -> None:
        """Invoke ``listener(t)`` once per sample tick, in order."""
        self._listeners.append(listener)

    def on_window(self, start: float, end: float, entities) -> None:
        """Sample every tick inside the advance window ``[start, end]``.

        Called by the simulator once per event-loop step, *before* the
        clock moves, with the live entity collection whose rates held
        over the window.  Rates and capacities are piecewise constant
        inside a window, so they are computed once and reused for every
        tick it covers.
        """
        if self._next_tick > end + _EPS:
            return
        up: dict[int, float] = {}
        down: dict[int, float] = {}
        rate_by_kind: dict[str, float] = {}
        active_by_kind: dict[str, int] = {}
        for entity in entities:
            active_by_kind[entity.kind] = (
                active_by_kind.get(entity.kind, 0) + 1
            )
            if entity.rate <= 0:
                continue
            rate_by_kind[entity.kind] = (
                rate_by_kind.get(entity.kind, 0.0)
                + entity.rate * len(entity.edges)
            )
            for (resource, node), coefficient in entity.usage.items():
                if resource == "up":
                    up[node] = up.get(node, 0.0) + coefficient * entity.rate
                elif resource == "down":
                    down[node] = (
                        down.get(node, 0.0) + coefficient * entity.rate
                    )
        capacities = self.sim.network.capacities_at(start)

        def utilization(series: dict[int, float], direction: str):
            out = {}
            for node, rate in series.items():
                cap = capacities.get((direction, node), 0.0)
                out[node] = rate / cap if cap > 0 else math.inf
            return out

        up_util = utilization(up, "up")
        down_util = utilization(down, "down")
        while self._next_tick <= end + _EPS:
            if len(self.samples) == self.capacity:
                self.dropped += 1
            sample = Sample(
                t=self._next_tick,
                up=dict(up),
                down=dict(down),
                up_util=dict(up_util),
                down_util=dict(down_util),
                rate_by_kind=dict(rate_by_kind),
                active_by_kind=dict(active_by_kind),
                repair_cap=self._cap,
            )
            self.samples.append(sample)
            if self.tsdb is not None:
                self._feed_tsdb(sample)
            for listener in self._listeners:
                listener(sample.t)
            self._next_tick += self.interval

    def _feed_tsdb(self, sample: Sample) -> None:
        """Mirror one sample into the attached TSDB as labeled series."""
        tsdb = self.tsdb
        t = sample.t
        for direction, series in (
            ("up", sample.up_util), ("down", sample.down_util)
        ):
            for node, value in series.items():
                tsdb.record(
                    "link_utilization", t, value,
                    node=node, direction=direction,
                )
        for kind, rate in sample.rate_by_kind.items():
            tsdb.record("class_rate", t, rate, kind=kind)
        for kind, count in sample.active_by_kind.items():
            tsdb.record("active_tasks", t, count, kind=kind)
        tsdb.record(
            "repair_cap", t,
            -1.0 if sample.repair_cap is None else sample.repair_cap,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.samples)
