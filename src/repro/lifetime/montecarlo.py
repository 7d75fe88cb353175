"""Monte-Carlo cluster-lifetime driver: durability as a metric.

Repeats the event-driven lifetime simulation over many independent
seeded runs and turns data-loss counts into the reliability numbers
operators actually budget with:

* **MTTDL** — mean time to data loss, estimated by renewal-reward as
  total simulated stripe-time divided by total loss events;
* **durability nines** — ``-log10`` of the per-stripe-year loss
  probability (eleven nines ≈ S3's marketing number);
* **95% confidence intervals** on expected loss events per run, so a
  "PivotRepair beats conventional" claim comes with error bars.

The comparison is *paired*: each run generates one outage timeline
(placement + every unit's failure schedule) from scheme-independent RNG
streams, and every scheme replays that identical history — differing
only in how fast its repairs close exposure windows.  Scheme-specific
randomness (repair-duration sampling) comes from separate named streams,
so adding a scheme or reordering the loop never perturbs another
scheme's results.  Everything derives from one root seed via
:func:`repro.core.seeding.spawn_rng` paths, making the whole report —
and its SHA-256 digest — bit-reproducible.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.seeding import spawn_rng
from repro.ec.reed_solomon import RSCode
from repro.ec.stripe import place_stripes
from repro.exceptions import LifetimeError
from repro.lifetime.durations import (
    SCHEME_KEYS,
    CalibratedDurations,
    DurationModel,
)
from repro.lifetime.failure import DAY, YEAR, ExponentialFailures
from repro.lifetime.simulate import POLICIES, simulate_lifetime
from repro.lifetime.units import ClusterLayout
from repro.obs.tracer import NULL_TRACER

__all__ = [
    "LifetimeConfig",
    "LifetimeReport",
    "SchemeSummary",
    "default_processes",
    "run_lifetime",
]

HOUR = 3600.0


@dataclass(frozen=True)
class LifetimeConfig:
    """Parameters of one Monte-Carlo lifetime study.

    Failure rates are *accelerated* relative to real hardware so that a
    10-year × 100-run study observes enough loss events to compare
    schemes; what matters for the comparison is the ratio of exposure
    windows to inter-failure times, not absolute calendar realism.
    Setting an ``*_mttf_days`` to 0 disables that failure layer.
    """

    years: float = 10.0
    runs: int = 100
    seed: int = 42
    schemes: tuple[str, ...] = ("pivot", "conventional")
    # Topology and placement.
    machines: int = 16
    racks: int = 4
    disks_per_machine: int = 2
    stripes: int = 64
    n: int = 6
    k: int = 4
    # Failure layers (days / hours; 0 MTTF disables a layer).
    disk_mttf_days: float = 120.0
    disk_replace_hours: float = 0.0
    machine_mttf_days: float = 60.0
    machine_mttr_hours: float = 1.0
    rack_mttf_days: float = 180.0
    rack_mttr_hours: float = 4.0
    # Repair plane.
    repair_streams: int = 2
    policy: str = "eager"
    lazy_threshold: int = 2
    #: Real data represented by one simulated chunk: repairing it costs
    #: this many GiB of sequential 64 MiB single-chunk repairs.
    data_per_chunk_gib: float = 64.0
    # Calibration of the congestion-aware duration model.
    workload: str = "TPC-DS"
    calibration_instants: int = 8

    def __post_init__(self) -> None:
        if self.years <= 0:
            raise LifetimeError("years must be positive")
        if self.runs < 1:
            raise LifetimeError("need at least one run")
        if not self.schemes:
            raise LifetimeError("need at least one scheme")
        for scheme in self.schemes:
            if scheme not in SCHEME_KEYS:
                raise LifetimeError(
                    f"unknown scheme {scheme!r}; expected from {SCHEME_KEYS}"
                )
        if len(set(self.schemes)) != len(self.schemes):
            raise LifetimeError("schemes must be unique")
        if self.n <= self.k or self.k < 1:
            raise LifetimeError(f"need n > k >= 1, got ({self.n}, {self.k})")
        if self.machines < self.n:
            raise LifetimeError(
                f"an (n={self.n}) stripe needs at least {self.n} machines"
            )
        if self.stripes < 1:
            raise LifetimeError("need at least one stripe")
        if self.policy not in POLICIES:
            raise LifetimeError(f"unknown policy {self.policy!r}")
        for name in (
            "disk_mttf_days", "disk_replace_hours", "machine_mttf_days",
            "machine_mttr_hours", "rack_mttf_days", "rack_mttr_hours",
        ):
            if getattr(self, name) < 0:
                raise LifetimeError(f"{name} cannot be negative")
        if self.data_per_chunk_gib <= 0:
            raise LifetimeError("data_per_chunk_gib must be positive")

    @property
    def horizon(self) -> float:
        return self.years * YEAR

    @property
    def layout(self) -> ClusterLayout:
        return ClusterLayout(
            machines=self.machines,
            racks=self.racks,
            disks_per_machine=self.disks_per_machine,
        )

    @property
    def duration_scale(self) -> float:
        """Single-chunk repairs represented by one simulated repair."""
        return self.data_per_chunk_gib * 1024.0 / 64.0

    def to_dict(self) -> dict:
        return {
            "years": self.years, "runs": self.runs, "seed": self.seed,
            "schemes": list(self.schemes), "machines": self.machines,
            "racks": self.racks, "disks_per_machine": self.disks_per_machine,
            "stripes": self.stripes, "n": self.n, "k": self.k,
            "disk_mttf_days": self.disk_mttf_days,
            "disk_replace_hours": self.disk_replace_hours,
            "machine_mttf_days": self.machine_mttf_days,
            "machine_mttr_hours": self.machine_mttr_hours,
            "rack_mttf_days": self.rack_mttf_days,
            "rack_mttr_hours": self.rack_mttr_hours,
            "repair_streams": self.repair_streams, "policy": self.policy,
            "lazy_threshold": self.lazy_threshold,
            "data_per_chunk_gib": self.data_per_chunk_gib,
            "workload": self.workload,
            "calibration_instants": self.calibration_instants,
        }


def default_processes(
    config: LifetimeConfig,
) -> dict[str, ExponentialFailures]:
    """The three-layer failure model a config describes.

    Disks fail *permanently* (the data on them is gone) and return after
    the replacement lead time; machines and racks suffer *transient*
    outages — data survives, but chunks behind them are unreachable,
    repairs reading from them stall, and exposure windows stretch.
    """
    processes: dict[str, ExponentialFailures] = {}
    if config.disk_mttf_days > 0:
        processes["disk"] = ExponentialFailures(
            mttf=config.disk_mttf_days * DAY,
            mttr=config.disk_replace_hours * HOUR,
            permanent=True,
        )
    if config.machine_mttf_days > 0:
        processes["machine"] = ExponentialFailures(
            mttf=config.machine_mttf_days * DAY,
            mttr=config.machine_mttr_hours * HOUR,
        )
    if config.rack_mttf_days > 0:
        processes["rack"] = ExponentialFailures(
            mttf=config.rack_mttf_days * DAY,
            mttr=config.rack_mttr_hours * HOUR,
        )
    if not processes:
        raise LifetimeError("every failure layer is disabled")
    return processes


@dataclass
class SchemeSummary:
    """Aggregated durability of one scheme over all runs."""

    scheme: str
    runs: list[dict] = field(default_factory=list)

    @property
    def total_losses(self) -> int:
        return sum(r["data_loss_events"] for r in self.runs)

    @property
    def mean_losses(self) -> float:
        return self.total_losses / len(self.runs)

    @property
    def loss_ci95(self) -> tuple[float, float]:
        """Normal-approximation 95% CI on expected losses per run."""
        counts = [r["data_loss_events"] for r in self.runs]
        count = len(counts)
        mean = sum(counts) / count
        if count < 2:
            return (mean, mean)
        var = sum((c - mean) ** 2 for c in counts) / (count - 1)
        half = 1.96 * math.sqrt(var / count)
        return (max(0.0, mean - half), mean + half)

    def mttdl_years(self, years: float) -> float:
        """Cluster MTTDL by renewal-reward; inf when no losses observed."""
        if self.total_losses == 0:
            return math.inf
        return len(self.runs) * years / self.total_losses

    def durability_nines(self, years: float, stripes: int) -> float:
        """-log10 of the per-stripe-year loss rate; inf when loss-free."""
        rate = self.total_losses / (len(self.runs) * years * stripes)
        if rate <= 0:
            return math.inf
        return -math.log10(rate)

    def summary(self, years: float, stripes: int) -> dict:
        low, high = self.loss_ci95
        nines = self.durability_nines(years, stripes)
        mttdl = self.mttdl_years(years)
        return {
            "scheme": self.scheme,
            "total_data_loss_events": self.total_losses,
            "mean_losses_per_run": self.mean_losses,
            "loss_ci95": [low, high],
            "mttdl_years": None if math.isinf(mttdl) else mttdl,
            "durability_nines": None if math.isinf(nines) else nines,
            "repairs_completed": sum(
                r["repairs_completed"] for r in self.runs
            ),
            "repairs_aborted": sum(r["repairs_aborted"] for r in self.runs),
            "mean_repair_hours": self._mean_repair_hours(),
            "unavailable_events": sum(
                r["unavailable_events"] for r in self.runs
            ),
            "unavailable_hours": sum(
                r["unavailable_seconds"] for r in self.runs
            ) / HOUR,
        }

    def _mean_repair_hours(self) -> float:
        completed = sum(r["repairs_completed"] for r in self.runs)
        if not completed:
            return 0.0
        return sum(r["repair_seconds"] for r in self.runs) / completed / HOUR


@dataclass
class LifetimeReport:
    """Everything one Monte-Carlo lifetime study produced."""

    config: LifetimeConfig
    schemes: dict[str, SchemeSummary]
    duration_means: dict[str, float]
    digest: str

    def summary(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "digest": self.digest,
            "duration_mean_hours": {
                scheme: seconds / HOUR
                for scheme, seconds in sorted(self.duration_means.items())
            },
            "schemes": {
                scheme: summary.summary(self.config.years, self.config.stripes)
                for scheme, summary in sorted(self.schemes.items())
            },
        }

    def write_jsonl(self, path: Path | str) -> None:
        """Artifact: a summary header line, then one line per run."""
        path = Path(path)
        lines = [json.dumps({"kind": "summary", **self.summary()})]
        for scheme, summary in sorted(self.schemes.items()):
            for run_index, run in enumerate(summary.runs):
                lines.append(
                    json.dumps({
                        "kind": "run", "scheme": scheme, "run": run_index,
                        **run,
                    })
                )
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _run_record(stats) -> dict:
    """The per-run fields that feed artifacts and the digest."""
    return {
        "data_loss_events": stats.data_loss_events,
        "loss_times": [round(t, 6) for t in stats.loss_times],
        "chunk_failures": stats.chunk_failures,
        "repairs_completed": stats.repairs_completed,
        "repairs_aborted": stats.repairs_aborted,
        "repair_seconds": round(stats.repair_seconds, 6),
        "unavailable_events": stats.unavailable_events,
        "unavailable_seconds": round(stats.unavailable_seconds, 6),
    }


def run_lifetime(
    config: LifetimeConfig,
    durations: DurationModel | None = None,
    registry=None,
    tsdb=None,
    tracer=NULL_TRACER,
) -> LifetimeReport:
    """Run the full Monte-Carlo study a config describes.

    ``durations`` defaults to :meth:`CalibratedDurations.calibrate` on
    the config's workload (the congestion-aware model); pass an analytic
    model for Markov golden tests.  The failure layers are
    :func:`default_processes`.  ``registry``
    (:class:`~repro.obs.metrics.MetricsRegistry`) and ``tsdb``
    (:class:`~repro.obs.timeseries.TimeSeriesDB`) receive durability
    metrics when provided.
    """
    if durations is None:
        durations = CalibratedDurations.calibrate(
            workload=config.workload,
            code=(config.n, config.k),
            schemes=config.schemes,
            instants=config.calibration_instants,
            node_count=config.machines,
            scale=config.duration_scale,
        )
    processes = default_processes(config)
    layout = config.layout
    code = RSCode(config.n, config.k)
    horizon = config.horizon
    summaries = {scheme: SchemeSummary(scheme) for scheme in config.schemes}

    for run_index in range(config.runs):
        # One timeline per run, shared by every scheme (paired design).
        placement_rng = spawn_rng(config.seed, "lifetime", run_index, "placement")
        stripes = place_stripes(
            config.stripes, code, config.machines, placement_rng
        )
        outages = {}
        for kind, process in sorted(processes.items()):
            for unit in layout.units(kind):
                schedule = process.schedule(
                    spawn_rng(
                        config.seed, "lifetime", run_index, "failures",
                        str(unit),
                    ),
                    horizon,
                )
                if schedule:
                    outages[unit] = schedule
        for scheme in config.schemes:
            stats = simulate_lifetime(
                layout, stripes, outages, scheme, durations,
                spawn_rng(
                    config.seed, "lifetime", run_index, "repairs", scheme
                ),
                horizon,
                repair_streams=config.repair_streams,
                policy=config.policy,
                lazy_threshold=config.lazy_threshold,
                tracer=tracer,
            )
            record = _run_record(stats)
            summaries[scheme].runs.append(record)
            if tracer.enabled:
                tracer.instant(
                    "lifetime.run", float(run_index), track="lifetime",
                    scheme=scheme, losses=stats.data_loss_events,
                    repairs=stats.repairs_completed,
                )
            if tsdb is not None:
                for loss_time in stats.loss_times:
                    tsdb.inc(
                        "lifetime_losses", loss_time,
                        scheme=scheme, run=str(run_index),
                    )

    digest_payload = {
        "config": config.to_dict(),
        "runs": {
            scheme: summary.runs
            for scheme, summary in sorted(summaries.items())
        },
    }
    digest = hashlib.sha256(
        json.dumps(digest_payload, sort_keys=True).encode("utf-8")
    ).hexdigest()

    if registry is not None:
        for scheme, summary in sorted(summaries.items()):
            registry.counter(
                "lifetime_data_loss_events_total", scheme=scheme
            ).inc(summary.total_losses)
            registry.counter(
                "lifetime_repairs_completed_total", scheme=scheme
            ).inc(sum(r["repairs_completed"] for r in summary.runs))
            mttdl = summary.mttdl_years(config.years)
            if not math.isinf(mttdl):
                registry.gauge(
                    "lifetime_mttdl_years", scheme=scheme
                ).set(mttdl)
            nines = summary.durability_nines(config.years, config.stripes)
            if not math.isinf(nines):
                registry.gauge(
                    "lifetime_durability_nines", scheme=scheme
                ).set(nines)

    return LifetimeReport(
        config=config,
        schemes=summaries,
        duration_means={
            scheme: durations.mean(scheme) for scheme in config.schemes
        },
        digest=digest,
    )
