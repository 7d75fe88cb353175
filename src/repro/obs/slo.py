"""Per-tenant SLOs evaluated as multi-window burn rates.

An :class:`SLOSpec` states an objective over one telemetry series in the
:class:`~repro.obs.timeseries.TimeSeriesDB`; an :class:`SLOMonitor`
evaluates every spec on a fixed simulated-time grid and classifies each
as healthy or **firing** using the multi-window burn-rate rule (the
Google SRE alerting recipe): the error-budget burn must exceed
:data:`MAX_BURN` over *both* a short window (fast detection) and a long
window (noise rejection) before an alert fires, and the alert resolves
once either window recovers.

Two objective kinds:

* ``latency`` — client-visible latency: the fraction of request-latency
  points above ``threshold`` may not exceed ``budget``; burn is
  ``bad_fraction / budget``.
* ``repair_deadline`` — the repair must finish within ``deadline``
  simulated seconds: burn compares budget consumed (elapsed/deadline)
  against work done (the windowed mean of the ``repair_progress``
  series), so a repair on pace burns at 1.0 and a stalled one diverges.

Transitions emit ``slo.alert`` / ``slo.resolve`` tracer events (track
``slo``) and invoke subscribed hooks — the AIMD repair governor backs
off on a firing latency SLO.  Everything runs on simulated time, so a
seeded run fires its alerts at byte-identical timestamps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.exceptions import ReproError
from repro.obs.tracer import NULL_TRACER

__all__ = ["SLOError", "SLOSpec", "SLOStatus", "SLOAlert", "SLOMonitor"]

_KINDS = ("latency", "repair_deadline")

#: Series each kind reads.
_SERIES = {
    "latency": "fg_read_latency",
    "repair_deadline": "repair_progress",
}

_EPS = 1e-9

#: Burn level both windows must exceed before an alert fires.
MAX_BURN = 1.0


class SLOError(ReproError):
    """Invalid SLO specification or monitor configuration."""


@dataclass(frozen=True)
class SLOSpec:
    """One tenant objective over a telemetry series."""

    name: str
    kind: str
    tenant: str = "default"
    #: ``latency``: seconds a request may take before it is budget-bad.
    threshold: float = 0.5
    #: ``latency``: allowed bad fraction.
    budget: float = 0.01
    #: ``repair_deadline``: seconds the full repair may take.
    deadline: float = 120.0
    short_window: float = 5.0
    long_window: float = 30.0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise SLOError(
                f"unknown SLO kind {self.kind!r}; expected one of {_KINDS}"
            )
        if not self.name:
            raise SLOError("SLO needs a name")
        if self.threshold <= 0:
            raise SLOError("latency threshold must be positive")
        if self.budget <= 0:
            raise SLOError("error budget must be positive")
        if self.deadline <= 0:
            raise SLOError("repair deadline must be positive")
        if not 0 < self.short_window <= self.long_window:
            raise SLOError("need 0 < short_window <= long_window")

    @property
    def source(self) -> str:
        """Series the spec evaluates against."""
        return _SERIES[self.kind]

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "tenant": self.tenant,
            "threshold": self.threshold,
            "budget": self.budget,
            "deadline": self.deadline,
            "short_window": self.short_window,
            "long_window": self.long_window,
            "max_burn": MAX_BURN,
            "series": self.source,
        }


@dataclass(frozen=True)
class SLOStatus:
    """One evaluation of one spec at one instant."""

    spec: SLOSpec
    t: float
    burn_short: float
    burn_long: float
    firing: bool
    #: True when neither window held any points (no evidence either way).
    no_data: bool = False


@dataclass(frozen=True)
class SLOAlert:
    """A firing/resolve transition of one spec."""

    name: str
    tenant: str
    kind: str  # "fire" | "resolve"
    t: float
    burn_short: float
    burn_long: float

    @property
    def firing(self) -> bool:
        return self.kind == "fire"


class SLOMonitor:
    """Evaluate SLO specs on a simulated-time grid; emit transitions.

    Drive it either from the flight recorder's tick stream
    (``sampler.add_listener(monitor.on_tick)``) or by calling
    :meth:`evaluate` directly at chosen times.  ``interval`` rate-limits
    tick-driven evaluation; explicit ``evaluate`` calls always run.
    """

    def __init__(
        self,
        tsdb,
        specs,
        tracer=NULL_TRACER,
        interval: float = 1.0,
    ):
        if interval <= 0:
            raise SLOError("evaluation interval must be positive")
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            raise SLOError("SLO names must be unique")
        self.tsdb = tsdb
        self.specs: list[SLOSpec] = list(specs)
        self.tracer = tracer
        self.interval = float(interval)
        self.alerts: list[SLOAlert] = []
        self._firing: set[str] = set()
        self._hooks: list = []
        self._next_eval: float | None = None
        #: Latest status per spec name (dashboard surface).
        self.statuses: dict[str, SLOStatus] = {}

    def subscribe(self, hook) -> None:
        """Register ``hook(alert: SLOAlert)`` for every transition."""
        self._hooks.append(hook)

    def firing(self) -> list[str]:
        """Names of currently firing SLOs, sorted."""
        return sorted(self._firing)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def on_tick(self, t: float) -> None:
        """Sampler tick hook: evaluate when the grid interval elapsed."""
        if self._next_eval is None:
            self._next_eval = t
        if t + _EPS < self._next_eval:
            return
        self.evaluate(t)
        self._next_eval = t + self.interval

    def evaluate(self, now: float) -> list[SLOStatus]:
        """Evaluate every spec at ``now``; record and emit transitions."""
        statuses = []
        for spec in self.specs:
            status = self._evaluate_spec(spec, now)
            statuses.append(status)
            self.statuses[spec.name] = status
            self._record_burn(spec, status, now)
            self._transition(spec, status, now)
        return statuses

    def _evaluate_spec(self, spec: SLOSpec, now: float) -> SLOStatus:
        short = self._burn(spec, now - spec.short_window, now)
        long_ = self._burn(spec, now - spec.long_window, now)
        no_data = math.isnan(short) and math.isnan(long_)
        burn_short = 0.0 if math.isnan(short) else short
        burn_long = 0.0 if math.isnan(long_) else long_
        was_firing = spec.name in self._firing
        if was_firing:
            # Hysteresis: stay lit until both windows recover.
            firing = burn_short > MAX_BURN or burn_long > MAX_BURN
        else:
            firing = burn_short > MAX_BURN and burn_long > MAX_BURN
        return SLOStatus(
            spec=spec, t=now, burn_short=burn_short, burn_long=burn_long,
            firing=firing, no_data=no_data,
        )

    def _burn(self, spec: SLOSpec, t0: float, t1: float) -> float:
        t0 = max(t0, 0.0)
        if t1 <= t0:
            return math.nan
        if spec.kind == "latency":
            bad = self.tsdb.fraction_over(
                spec.source, spec.threshold, t0, t1, tenant=spec.tenant
            )
            if math.isnan(bad):
                return math.nan
            return bad / spec.budget
        # repair_deadline: budget consumed over work done.
        progress = self.tsdb.avg(spec.source, t0, t1)
        if math.isnan(progress):
            return math.nan
        if progress >= 1.0 - _EPS:
            return 0.0
        # The repair-deadline clock starts at simulated time 0.
        consumed = t1 / spec.deadline
        return consumed / max(progress, _EPS)

    def _record_burn(
        self, spec: SLOSpec, status: SLOStatus, now: float
    ) -> None:
        for window, burn in (
            ("short", status.burn_short), ("long", status.burn_long)
        ):
            self.tsdb.record(
                "slo_burn", now, burn,
                slo=spec.name, tenant=spec.tenant, window=window,
            )

    def _transition(
        self, spec: SLOSpec, status: SLOStatus, now: float
    ) -> None:
        was_firing = spec.name in self._firing
        if status.firing == was_firing:
            return
        kind = "fire" if status.firing else "resolve"
        if status.firing:
            self._firing.add(spec.name)
        else:
            self._firing.discard(spec.name)
        alert = SLOAlert(
            name=spec.name, tenant=spec.tenant, kind=kind, t=now,
            burn_short=status.burn_short, burn_long=status.burn_long,
        )
        self.alerts.append(alert)
        if self.tracer.enabled:
            self.tracer.instant(
                "slo.alert" if status.firing else "slo.resolve",
                t=now, track="slo",
                slo=spec.name, tenant=spec.tenant,
                burn_short=round(status.burn_short, 4),
                burn_long=round(status.burn_long, 4),
            )
        for hook in self._hooks:
            hook(alert)
