"""Which public callables of ``repro`` are wrapped, and under which layer.

``install`` registers the wrap table on a :class:`spans.Recorder`;
``ledger`` turns one traced pass's totals into the generic ``.calls`` /
``.self_s`` entries of the per-layer ledger.  Workload-specific entries
(rates, ratios, counts read from result objects) are added by the
workloads themselves.
"""

from __future__ import annotations

import repro.cluster.master as cluster_master
import repro.controlplane.plane as plane
import repro.core.bandwidth_view as bandwidth_view
import repro.core.plan as core_plan
import repro.core.scheduler as scheduler
import repro.ec.reed_solomon as reed_solomon
import repro.faults.network as faults_network
import repro.lifetime.simulate as lifetime_simulate
import repro.loadgen.engine as loadgen_engine
import repro.loadgen.generator as loadgen_generator
import repro.loadgen.governor as governor
import repro.network.engine as network_engine
import repro.network.hierarchical as hierarchical
import repro.network.simulator as simulator
import repro.network.topology as topology
import repro.obs.critpath as critpath
import repro.obs.export as export
import repro.obs.metrics as obs_metrics
import repro.obs.sampler as sampler
import repro.obs.slo as slo
import repro.obs.timeseries as timeseries
import repro.obs.tracer as tracer
import repro.repair.executor as executor
import repro.repair.fullnode as fullnode
import repro.repair.jobmaster as jobmaster
import repro.resilience.health as health
import repro.resilience.journal as journal
import repro.traces.generators as trace_generators
import repro.traces.workload as trace_workload

from spans import Recorder, Totals


def _planner_layer(planner) -> str:
    """``RepairPlanner.plan`` serves the contribution and the baselines."""
    module = type(planner).__module__
    return "core.plan" if module.startswith("repro.core") else "baselines.plan"


def install(recorder: Recorder) -> None:
    """Wrap every layer boundary; ``recorder.restore()`` undoes it.

    Planners pinned with ``pin_planning`` capture ``planner.plan`` when
    pinned, so install *before* building planners.
    """
    wrap, function = recorder.wrap, recorder.wrap_function
    wrap(core_plan.RepairPlanner, "plan", _planner_layer)
    wrap(bandwidth_view.BandwidthSnapshot, "from_network", "core.snapshot")
    function(scheduler, "recommendation_value", "core.scheduler")
    function(executor, "repair_single_chunk", "repair.single")
    function(fullnode, "repair_full_node", "repair.fullnode_fixed")
    function(
        fullnode, "repair_full_node_adaptive", "repair.fullnode_adaptive"
    )
    for step in ("tick", "candidate", "submit", "collect"):
        wrap(jobmaster.StripeRepairMaster, step, "repair.master")
    for entry in ("submit_pipelined", "submit_bulk"):
        wrap(simulator.FluidSimulator, entry, "network.simulator.submit")
    for entry in ("advance_to", "run", "run_until_completion"):
        wrap(simulator.FluidSimulator, entry, "network.simulator.advance")
    wrap(
        network_engine.IncrementalEngine, "ensure", "network.engine.ensure",
        hot=True,
    )
    for net in (topology.StarNetwork, hierarchical.RackNetwork):
        for query in ("capacities_at", "next_change_after"):
            wrap(net, query, "network.capacity", hot=True)
    for query in ("capacities_at", "next_change_after"):
        wrap(faults_network.FaultyNetwork, query, "faults.network", hot=True)
    function(trace_generators, "generate_trace", "traces.generate")
    wrap(trace_workload.WorkloadTrace, "to_network", "traces.to_network")
    function(loadgen_generator, "generate_requests", "loadgen.generate")
    wrap(loadgen_engine.ForegroundEngine, "pump", "loadgen.pump")
    wrap(loadgen_engine.ForegroundEngine, "absorb", "loadgen.absorb")
    wrap(loadgen_engine.ForegroundEngine, "drain", "loadgen.drain")
    for cls in (
        governor.NoGovernor, governor.StaticCapGovernor,
        governor.AdaptiveSLOGovernor,
    ):
        wrap(cls, "repair_rate_cap", "loadgen.governor")
    wrap(plane.ControlPlane, "run", "controlplane.run")
    wrap(health.HealthMonitor, "observe", "resilience.health")
    wrap(journal.RepairJournal, "append", "resilience.journal.append")
    for emit in ("instant", "begin", "end"):
        wrap(tracer.Tracer, emit, "obs.tracer.emit", hot=True)
    wrap(sampler.FlightRecorder, "on_window", "obs.sampler", hot=True)
    for write in ("record", "inc"):
        wrap(timeseries.TimeSeriesDB, write, "obs.tsdb", hot=True)
    wrap(slo.SLOMonitor, "evaluate", "obs.slo")
    function(critpath, "critical_paths", "obs.critpath")
    for exporter in ("to_chrome_trace", "to_jsonl", "write_trace"):
        function(export, exporter, "obs.export")
    for access in ("counter", "gauge", "histogram", "snapshot"):
        wrap(obs_metrics.MetricsRegistry, access, "obs.metrics", hot=True)
    wrap(obs_metrics.Histogram, "observe", "obs.metrics", hot=True)
    function(lifetime_simulate, "simulate_lifetime", "lifetime.simulate")
    wrap(reed_solomon.RSCode, "encode", "ec.encode")
    wrap(reed_solomon.RSCode, "repair_coefficients", "ec.repair_coefficients")
    wrap(cluster_master.Cluster, "write_stripe", "cluster.write_stripe")
    wrap(cluster_master.Cluster, "repair_chunk", "cluster.repair_chunk")


#: ledger entry -> span names it sums.
_CALLS = {
    "core.plan.calls": ("core.plan",),
    "core.snapshot.calls": ("core.snapshot",),
    "baselines.plan.calls": ("baselines.plan",),
    "repair.single.calls": ("repair.single",),
    "repair.master.calls": ("repair.master",),
    "network.simulator.advance.calls": ("network.simulator.advance",),
    "network.simulator.submit.calls": ("network.simulator.submit",),
    "network.engine.ensure.calls": ("network.engine.ensure",),
    "network.capacity.calls": ("network.capacity", "faults.network"),
    "loadgen.pump.calls": ("loadgen.pump",),
    "loadgen.governor.calls": ("loadgen.governor",),
    "obs.sampler.windows": ("obs.sampler",),
    "obs.tsdb.points": ("obs.tsdb",),
    "obs.slo.evaluations": ("obs.slo",),
    "resilience.journal.records": ("resilience.journal.append",),
    "lifetime.simulate.calls": ("lifetime.simulate",),
    "ec.repair_coefficients.calls": ("ec.repair_coefficients",),
    "cluster.repair_chunk.calls": ("cluster.repair_chunk",),
}

_SELF = {
    "core.plan.self_s": ("core.plan",),
    "core.snapshot.self_s": ("core.snapshot",),
    "core.scheduler.self_s": ("core.scheduler",),
    "baselines.plan.self_s": ("baselines.plan",),
    "repair.single.self_s": ("repair.single",),
    "repair.fullnode.self_s": (
        "repair.fullnode_fixed", "repair.fullnode_adaptive",
    ),
    "repair.master.self_s": ("repair.master",),
    "network.simulator.advance.self_s": ("network.simulator.advance",),
    "network.simulator.submit.self_s": ("network.simulator.submit",),
    "network.engine.ensure.self_s": ("network.engine.ensure",),
    "network.capacity.self_s": ("network.capacity", "faults.network"),
    "traces.generate.self_s": ("traces.generate",),
    "traces.to_network.self_s": ("traces.to_network",),
    "loadgen.generate.self_s": ("loadgen.generate",),
    "loadgen.pump.self_s": ("loadgen.pump",),
    "loadgen.absorb.self_s": ("loadgen.absorb",),
    "loadgen.governor.self_s": ("loadgen.governor",),
    "controlplane.run.self_s": ("controlplane.run",),
    "faults.network.self_s": ("faults.network",),
    "resilience.health.self_s": ("resilience.health",),
    "obs.tracer.emit_self_s": ("obs.tracer.emit",),
    "obs.sampler.self_s": ("obs.sampler",),
    "obs.tsdb.self_s": ("obs.tsdb",),
    "obs.slo.self_s": ("obs.slo",),
    "obs.critpath.self_s": ("obs.critpath",),
    "obs.export.self_s": ("obs.export",),
    "obs.metrics.self_s": ("obs.metrics",),
    "resilience.journal.append_self_s": ("resilience.journal.append",),
    "lifetime.simulate.self_s": ("lifetime.simulate",),
    "ec.encode.self_s": ("ec.encode",),
    "ec.repair_coefficients.self_s": ("ec.repair_coefficients",),
    "cluster.write_stripe.self_s": ("cluster.write_stripe",),
    "cluster.repair_chunk.self_s": ("cluster.repair_chunk",),
}


def ledger(totals: Totals) -> dict[str, float]:
    """Generic call counts and self-times of one traced span set."""
    out: dict[str, float] = {
        entry: totals.calls(*names) for entry, names in _CALLS.items()
    }
    out.update(
        (entry, totals.self_s(*names)) for entry, names in _SELF.items()
    )
    return out
