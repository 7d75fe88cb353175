"""Counter-by-counter telemetry: the reference for ``run_counters``.

Fills a :class:`~repro.obs.metrics.MetricsRegistry` with one
:class:`~repro.obs.metrics.Counter` per name, reading the simulator
through its three separate properties (``stats``, ``bytes_up``,
``bytes_down``), each its own ledger copy.  ``registry.snapshot()``
after this call is the telemetry schema
``registry.snapshot(run_counters(sim, tracer))`` must reproduce byte for
byte (``tests/repair/test_telemetry_differential.py``).
"""

from __future__ import annotations

from repro.network.simulator import FluidSimulator
from repro.obs.metrics import MetricsRegistry
from repro.repair.telemetry import EVENT_PREFIXES


def registry_from_run(
    sim: FluidSimulator, tracer, registry: MetricsRegistry | None = None
) -> MetricsRegistry:
    """Fill a registry with simulator statistics and tracer event counts."""
    registry = registry or MetricsRegistry()
    stats = sim.stats
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
