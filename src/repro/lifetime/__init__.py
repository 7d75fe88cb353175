"""Monte-Carlo cluster-lifetime reliability simulation.

Estimates MTTDL, durability nines, and data-loss-event counts over
months-to-years of simulated cluster life, with repair durations fed by
the congestion-aware repair machinery — so PivotRepair's faster repairs
show up as measurably better durability, not just lower latency.

Layers (see docs/lifetime.md):

* :mod:`repro.lifetime.units` — the rack / machine / disk hierarchy;
* :mod:`repro.lifetime.failure` — exponential outage schedules;
* :mod:`repro.lifetime.durations` — repair-duration models, including
  calibration against the fluid simulator;
* :mod:`repro.lifetime.simulate` — the event-driven lifetime loop;
* :mod:`repro.lifetime.montecarlo` — the multi-run driver and report;
* :mod:`repro.lifetime.mttdl` — closed-form Markov MTTDL (golden
  reference for the exponential configuration).
"""

from repro.lifetime.durations import (
    CalibratedDurations,
    DurationModel,
    ExponentialDurations,
    FixedDurations,
)
from repro.lifetime.failure import (
    DAY,
    YEAR,
    ExponentialFailures,
    Outage,
)
from repro.lifetime.montecarlo import (
    LifetimeConfig,
    LifetimeReport,
    SchemeSummary,
    default_processes,
    run_lifetime,
)
from repro.lifetime.mttdl import markov_mttdl
from repro.lifetime.simulate import LifetimeRunStats, simulate_lifetime
from repro.lifetime.units import ClusterLayout, UnitRef

__all__ = [
    "DAY",
    "YEAR",
    "CalibratedDurations",
    "ClusterLayout",
    "DurationModel",
    "ExponentialDurations",
    "ExponentialFailures",
    "FixedDurations",
    "LifetimeConfig",
    "LifetimeReport",
    "LifetimeRunStats",
    "Outage",
    "SchemeSummary",
    "UnitRef",
    "default_processes",
    "markov_mttdl",
    "run_lifetime",
    "simulate_lifetime",
]
