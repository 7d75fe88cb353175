"""Repair QoS governors: how much bandwidth may repair take right now?

Full-node repair and foreground traffic share the same links.  Left
alone, max-min fairness splits capacity evenly per *flow* — and a repair
orchestrator running many concurrent stripe repairs can crowd client
reads badly at the tail.  A governor is consulted by the orchestrators at
every decision point (stripe completion, fault tick, periodic interval)
and answers with a per-repair-flow rate cap:

* :class:`NoGovernor` — repair runs unthrottled (the paper's default
  setting, and the baseline in the interference benchmark);
* :class:`StaticCapGovernor` — a fixed per-flow ceiling, the classic
  operator knob ("repair may use at most X");
* :class:`AdaptiveSLOGovernor` — AIMD control against a foreground p99
  latency SLO: multiplicative backoff while the observed tail exceeds
  the objective, multiplicative (gentler) recovery while it is
  comfortably below, full release once repair no longer hurts.

Caps are applied with
:meth:`~repro.network.simulator.FluidSimulator.set_task_max_rate`, so a
decision retunes repair flows that are already in flight, not just new
submissions.
"""

from __future__ import annotations

import math

from repro.exceptions import LoadGenError
from repro.loadgen.engine import ForegroundEngine
from repro.units import gbps, mbps


class RepairQoSGovernor:
    """Base policy: answer "cap per repair flow?" at decision points."""

    #: Display name (CLI / benchmark rows).
    name = "base"
    #: How often orchestrators should wake up *just* to re-consult the
    #: governor, seconds.  ``inf`` means only consult at natural events.
    decision_interval: float = math.inf

    def repair_rate_cap(
        self, now: float, foreground: ForegroundEngine | None
    ) -> float | None:
        """Per-flow byte-rate ceiling for repair tasks (None = uncapped)."""
        raise NotImplementedError


class NoGovernor(RepairQoSGovernor):
    """Repair is never throttled."""

    name = "none"

    def repair_rate_cap(self, now, foreground):
        return None


class StaticCapGovernor(RepairQoSGovernor):
    """Fixed per-flow ceiling, regardless of observed foreground latency."""

    name = "static"

    def __init__(self, cap: float = gbps(0.25)):
        if cap <= 0:
            raise LoadGenError("static repair cap must be positive")
        self.cap = float(cap)

    def repair_rate_cap(self, now, foreground):
        return self.cap


class AdaptiveSLOGovernor(RepairQoSGovernor):
    """AIMD throttle keeping foreground read p99 under an SLO.

    Reads the engine's trailing-window p99 at each decision point:

    * p99 above the SLO → cut the cap multiplicatively (``decrease``),
      never below ``floor_rate`` (repair must keep progressing);
    * p99 below ``relax_fraction * slo`` → grow the cap (``increase``)
      and release it entirely once it reaches ``reference_rate``;
    * no recent reads (``nan`` p99) → no evidence of harm, recover
      gently toward uncapped.
    """

    name = "adaptive"

    def __init__(
        self,
        slo_p99: float = 0.5,
        reference_rate: float = gbps(1),
        floor_rate: float = mbps(50),
        decrease: float = 0.5,
        increase: float = 1.25,
        relax_fraction: float = 0.7,
        decision_interval: float = 0.25,
    ):
        if slo_p99 <= 0:
            raise LoadGenError("latency SLO must be positive")
        if not 0 < floor_rate <= reference_rate:
            raise LoadGenError("need 0 < floor_rate <= reference_rate")
        if not 0 < decrease < 1:
            raise LoadGenError("decrease factor must be in (0, 1)")
        if increase <= 1:
            raise LoadGenError("increase factor must be > 1")
        if not 0 < relax_fraction < 1:
            raise LoadGenError("relax fraction must be in (0, 1)")
        if decision_interval <= 0:
            raise LoadGenError("decision interval must be positive")
        self.slo_p99 = float(slo_p99)
        self.reference_rate = float(reference_rate)
        self.floor_rate = float(floor_rate)
        self.decrease = float(decrease)
        self.increase = float(increase)
        self.relax_fraction = float(relax_fraction)
        self.decision_interval = float(decision_interval)
        self._cap: float | None = None
        #: (time, p99, cap) decision log, for reports and tests.
        self.decisions: list[tuple[float, float, float | None]] = []
        #: Firing SLO alerts consumed through :meth:`on_slo_alert`.
        self.slo_alerts = 0

    def repair_rate_cap(self, now, foreground):
        p99 = (
            math.nan
            if foreground is None
            else foreground.recent_read_p99(now)
        )
        if p99 == p99 and p99 > self.slo_p99:
            base = self._cap if self._cap is not None else self.reference_rate
            self._cap = max(self.floor_rate, base * self.decrease)
        elif self._cap is not None:
            # Healthy tail (or no signal): multiplicative recovery.
            if p99 != p99 or p99 < self.relax_fraction * self.slo_p99:
                grown = self._cap * self.increase
                self._cap = None if grown >= self.reference_rate else grown
        self.decisions.append((now, p99, self._cap))
        return self._cap

    def on_slo_alert(self, alert) -> None:
        """SLO-monitor hook: a firing burn-rate alert cuts the cap now.

        Subscribe with ``monitor.subscribe(governor.on_slo_alert)``.  The
        multi-window burn rate reacts to sustained budget spend that the
        instantaneous p99 check can miss (e.g. a tenant burning budget
        slowly but steadily), so a fire transition applies one immediate
        multiplicative backoff; resolve transitions are ignored — the
        normal AIMD recovery path re-grows the cap.
        """
        if not getattr(alert, "firing", False):
            return
        self.slo_alerts += 1
        base = self._cap if self._cap is not None else self.reference_rate
        self._cap = max(self.floor_rate, base * self.decrease)


def make_governor(name: str, **kwargs) -> RepairQoSGovernor:
    """Build a governor by policy name: none / static / adaptive."""
    factories = {
        "none": NoGovernor,
        "static": StaticCapGovernor,
        "adaptive": AdaptiveSLOGovernor,
    }
    try:
        factory = factories[name]
    except KeyError:
        raise LoadGenError(
            f"unknown governor {name!r}; expected one of {sorted(factories)}"
        ) from None
    return factory(**kwargs)
