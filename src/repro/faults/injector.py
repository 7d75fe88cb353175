"""Fault announcement: turn plan events into trace events and counters.

The :class:`FaultInjector` is the observability side of fault injection.
The capacity effects of a plan come from
:class:`~repro.faults.network.FaultyNetwork`; the injector's job is to
*announce* each event exactly once as simulated time passes it — a
``fault.<kind>`` instant on the ``faults`` track (plus a
``fault.<kind>_end`` for windowed kinds) and a ``faults_injected``
counter — so a trace of a faulted run shows when each fault fired,
independent of whether any repair noticed.
"""

from __future__ import annotations

from repro.faults.plan import (
    ChunkReadError,
    FaultPlan,
    HelperStall,
    LinkDegradation,
    NodeCrash,
)
from repro.obs.tracer import NULL_TRACER

__all__ = ["FaultInjector"]


class FaultInjector:
    """Announces plan events as the simulated clock passes them."""

    def __init__(self, plan: FaultPlan, tracer=NULL_TRACER, registry=None):
        self.plan = plan
        self.tracer = tracer
        self.registry = registry
        # (time, kind, node, emit) in deterministic firing order.
        pending: list[tuple[float, str, int, dict]] = []
        for event in plan.events:
            if isinstance(event, NodeCrash):
                pending.append((event.time, "fault.crash", event.node, {}))
            elif isinstance(event, ChunkReadError):
                pending.append(
                    (event.time, "fault.read_error", event.node, {})
                )
            elif isinstance(event, LinkDegradation):
                fields = {
                    "factor": event.factor, "direction": event.direction,
                    "until": event.end,
                }
                pending.append(
                    (event.start, "fault.degrade", event.node, fields)
                )
                pending.append((event.end, "fault.degrade_end", event.node, {}))
            elif isinstance(event, HelperStall):
                pending.append(
                    (event.start, "fault.stall", event.node,
                     {"until": event.end})
                )
                pending.append((event.end, "fault.stall_end", event.node, {}))
        pending.sort(key=lambda item: (item[0], item[1], item[2]))
        self._pending = pending
        self._cursor = 0

    def announce_until(self, t: float) -> int:
        """Fire every not-yet-announced event with time <= ``t``.

        Returns how many events fired.
        """
        fired = 0
        while (
            self._cursor < len(self._pending)
            and self._pending[self._cursor][0] <= t
        ):
            at, name, node, fields = self._pending[self._cursor]
            self._cursor += 1
            fired += 1
            if self.tracer.enabled:
                self.tracer.instant(
                    name, t=at, track="faults", node=node, **fields
                )
            if self.registry is not None and not name.endswith("_end"):
                self.registry.counter("faults_injected").inc()
        return fired
