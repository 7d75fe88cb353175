"""Build metrics registries out of a finished simulation run.

Shared by the single-chunk executor and the full-node orchestrators:
turns :class:`~repro.network.simulator.FluidSimulator` statistics and a
:class:`~repro.obs.tracer.Tracer` event stream into the counters the
``telemetry`` result field reports.
"""

from __future__ import annotations

from repro.network.simulator import FluidSimulator
from repro.obs.metrics import MetricsRegistry

__all__ = ["registry_from_run"]

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
    "health",
    "hedge",
    "slo",
    "lifetime",
    "span",
    "slice",
    "critpath",
    "plane",
)


def registry_from_run(
    sim: FluidSimulator, tracer, registry: MetricsRegistry | None = None
) -> MetricsRegistry:
    """Fill a registry with simulator statistics and tracer event counts.

    Records ``flows_completed``/``flows_submitted``, the event-loop cost
    counters (``sim_steps``, ``sim_rate_recomputations``), per-node byte
    counters (``bytes_up/<node>``, ``bytes_down/<node>``), the total
    ``bytes_transferred``, and one ``<prefix>_events`` counter per traced
    subsystem (planner, scheduler, flow, master) — zero when tracing was
    off or the subsystem emitted nothing.
    """
    registry = registry or MetricsRegistry()
    stats = sim.stats  # a snapshot: one read
    registry.counter("flows_completed").inc(stats.tasks_completed)
    registry.counter("flows_submitted").inc(stats.tasks_submitted)
    registry.counter("sim_steps").inc(stats.steps)
    registry.counter("sim_rate_recomputations").inc(
        stats.rate_recomputations
    )
    registry.counter("bytes_transferred").inc(stats.bytes_transferred)
    for kind, amount in sorted(stats.bytes_by_kind.items()):
        registry.counter(f"bytes_kind/{kind}").inc(amount)
    for node, amount in sorted(sim.bytes_up.items()):
        registry.counter(f"bytes_up/{node}").inc(amount)
    for node, amount in sorted(sim.bytes_down.items()):
        registry.counter(f"bytes_down/{node}").inc(amount)
    prefix_counts = tracer.counts_by_prefix()
    for prefix in EVENT_PREFIXES:
        registry.counter(f"{prefix}_events").inc(prefix_counts.get(prefix, 0))
    registry.counter("trace_events").inc(len(tracer.events))
    return registry
