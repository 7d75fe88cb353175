"""The counters of a finished simulation run, as one plain dict.

Shared by the single-chunk executor and the full-node orchestrators:
turns :class:`~repro.network.simulator.FluidSimulator` statistics and a
:class:`~repro.obs.tracer.Tracer` event stream into the counters the
``telemetry`` result field reports, which
:meth:`~repro.obs.metrics.MetricsRegistry.snapshot` merges in.
"""

from __future__ import annotations

from repro.network.simulator import FluidSimulator

__all__ = ["run_counters"]

#: Tracer event-name prefixes surfaced as ``<prefix>_events`` counters.
EVENT_PREFIXES = (
    "planner",
    "scheduler",
    "flow",
    "master",
    "fault",
    "repair",
    "governor",
    "journal",
    "slo",
    "lifetime",
    "slice",
    "critpath",
    "plane",
)

#: ``(prefix, counter name)`` per prefix, formatted once.
_EVENT_COUNTERS = tuple(
    (prefix, f"{prefix}_events") for prefix in EVENT_PREFIXES
)


def run_counters(sim: FluidSimulator, tracer) -> dict[str, float]:
    """Simulator statistics and tracer event counts, by counter name.

    ``flows_completed``/``flows_submitted``, the event-loop cost counters
    (``sim_steps``, ``sim_rate_recomputations``), the total
    ``bytes_transferred``, per-class ``bytes_kind/<kind>`` and per-node
    ``bytes_up/<node>`` / ``bytes_down/<node>`` bytes (one ledger read),
    and one ``<prefix>_events`` counter per traced subsystem plus
    ``trace_events`` — zero when tracing was off or the subsystem
    emitted nothing.  Unsorted: ``snapshot`` sorts.
    """
    stats, bytes_up, bytes_down = sim.read_ledger()
    counters = {
        "flows_completed": stats.tasks_completed,
        "flows_submitted": stats.tasks_submitted,
        "sim_steps": stats.steps,
        "sim_rate_recomputations": stats.rate_recomputations,
        "bytes_transferred": stats.bytes_transferred,
    }
    for kind, amount in stats.bytes_by_kind.items():
        counters[f"bytes_kind/{kind}"] = amount
    for node, amount in bytes_up.items():
        counters[f"bytes_up/{node}"] = amount
    for node, amount in bytes_down.items():
        counters[f"bytes_down/{node}"] = amount
    prefix_counts = tracer.counts_by_prefix()
    for prefix, name in _EVENT_COUNTERS:
        counters[name] = prefix_counts.get(prefix, 0)
    counters["trace_events"] = len(tracer.events)
    return counters
