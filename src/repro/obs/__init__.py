"""Observability: structured event tracing, metrics, timeline export.

Three pieces, all dependency-free and usable independently:

* :mod:`repro.obs.tracer` — a structured event tracer.  Modules accept a
  :class:`Tracer` and emit *instant* events and *spans* carrying simulated
  time.  The default :data:`NULL_TRACER` is a zero-cost no-op: hot paths
  guard on ``tracer.enabled`` and never build an event payload when
  tracing is off.
* :mod:`repro.obs.metrics` — a metrics registry (counters, gauges,
  histograms with percentile summaries).  Repair entry points fill one
  per run and expose its snapshot as the ``telemetry`` field of
  :class:`~repro.repair.metrics.RepairResult` /
  :class:`~repro.repair.metrics.FullNodeResult`.
* :mod:`repro.obs.export` — exporters: JSONL (one event per line,
  deterministic by default) and Chrome ``trace_event`` JSON loadable in
  ``chrome://tracing`` / Perfetto, one track per node plus planner and
  scheduler tracks.

On top of those, run analysis:

* :mod:`repro.obs.sampler` — the **flight recorder**, a periodic sampler
  recording per-node link rates/utilization, per-class aggregate rates,
  and the governor cap as aligned time series (off by default);
* :mod:`repro.obs.critpath` — the **attribution engine**: one pass
  digests a trace into the span DAG, rate profiles and cap timeline;
  one rule splits a flow's seconds into transfer / contention /
  governor / stall; on top, **causal critical paths** recover
  the exact chain of intervals bounding each repair's makespan (tiling
  checked to 1e-9) and attribute its seconds per category and per
  tenant (``repro critpath``);
* :mod:`repro.obs.analysis` — **bottleneck attribution**: the same rule
  applied to every repair flow end to end against an oracle ``B_min``,
  plus bottleneck-link naming and invariant checks (``repro explain``);
* :mod:`repro.obs.report` — a self-contained single-file HTML dashboard
  for a diagnosed run (``repro report --html``).

And the streaming telemetry plane (see ``docs/telemetry.md``):

* :mod:`repro.obs.timeseries` — a ring-buffered **simulated-time TSDB**
  fed by the flight recorder, loadgen engine and repair orchestrators,
  with windowed rate/avg/max/percentile queries, JSONL round-trip and
  Prometheus text exposition;
* :mod:`repro.obs.slo` — per-tenant **SLO burn-rate monitoring**
  (multi-window, Google SRE style) with alert hooks the QoS governor
  consumes;
* :mod:`repro.obs.promtext` — Prometheus exposition rendering;
* :mod:`repro.obs.top` — the ``repro top`` live terminal dashboard.
"""

from repro.obs.analysis import (
    BottleneckLink,
    RepairDiagnosis,
    RunDiagnosis,
    diagnose,
)
from repro.obs.critpath import (
    CritPathReport,
    PathSegment,
    RepairPath,
    critical_paths,
)
from repro.obs.export import (
    events_from_jsonl,
    to_chrome_trace,
    to_jsonl,
    write_trace,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    render_labels,
)
from repro.obs.promtext import render_exposition
from repro.obs.report import render_html_report
from repro.obs.sampler import FlightRecorder, Sample
from repro.obs.slo import SLOAlert, SLOMonitor, SLOSpec, SLOStatus
from repro.obs.timeseries import Series, TimeSeriesDB
from repro.obs.top import Dashboard, LiveTop
from repro.obs.tracer import NULL_TRACER, NullTracer, TraceEvent, Tracer

__all__ = [
    "BottleneckLink",
    "Counter",
    "CritPathReport",
    "Dashboard",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "LiveTop",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "PathSegment",
    "RepairDiagnosis",
    "RepairPath",
    "RunDiagnosis",
    "SLOAlert",
    "SLOMonitor",
    "SLOSpec",
    "SLOStatus",
    "Sample",
    "Series",
    "TimeSeriesDB",
    "TraceEvent",
    "Tracer",
    "critical_paths",
    "diagnose",
    "events_from_jsonl",
    "render_exposition",
    "render_html_report",
    "render_labels",
    "to_chrome_trace",
    "to_jsonl",
    "write_trace",
]
