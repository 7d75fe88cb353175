"""Backpressure signal: when should the plane shed admitted repairs?

Two inputs, either of which means "overloaded":

* the SLO burn-rate monitor (:class:`repro.obs.slo.SLOMonitor`) has at
  least one alert **firing** — foreground latency is actively burning
  error budget, the strongest possible signal that repair traffic must
  yield;
* network **saturation breadth** crossed a watermark.  Peak utilization
  is useless under max-min fairness (any unthrottled task saturates its
  bottleneck, so the peak sits at 1.0 whenever anything runs); what
  distinguishes a storm from a single healthy repair is *how many*
  links are saturated at once.  Breadth is the fraction of node-link
  resources (with nonzero capacity) running at ≥ :data:`SATURATED` of
  capacity.

Relief is hysteretic: the plane resumes shed jobs only when no alert is
firing **and** breadth is back under the lower ``resume_breadth``
watermark, so a marginal storm does not flap pause/resume on every
check.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ClusterError

__all__ = ["BackpressureConfig", "BackpressureMonitor"]

#: A resource counts as saturated at this utilization.
SATURATED = 0.99
#: Never pause below this many running jobs (drain-order invariant:
#: something always makes progress, so shed jobs eventually resume).
MIN_ACTIVE_JOBS = 1
#: Seconds between backpressure evaluations when nothing else wakes the
#: plane.
CHECK_INTERVAL = 0.5


@dataclass(frozen=True)
class BackpressureConfig:
    """Watermarks of the shed/resume decision."""

    #: Shed when saturated-resource fraction exceeds this.
    breadth_watermark: float = 0.45
    #: Resume only when the fraction is back under this (hysteresis).
    resume_breadth: float = 0.30

    def __post_init__(self) -> None:
        if not 0.0 < self.breadth_watermark <= 1.0:
            raise ClusterError("breadth_watermark must be in (0, 1]")
        if not 0.0 <= self.resume_breadth <= self.breadth_watermark:
            raise ClusterError(
                "resume_breadth must be in [0, breadth_watermark]"
            )


class BackpressureMonitor:
    """Evaluate the overload/relief predicates against live fleet state."""

    def __init__(
        self,
        config: BackpressureConfig | None = None,
        slo_monitor=None,
    ):
        self.config = config or BackpressureConfig()
        #: Anything with a ``firing() -> list[str]`` method (duck-typed
        #: so tests can drive the plane with a stub).
        self.slo_monitor = slo_monitor

    def saturation_breadth(self, sim) -> float:
        """Fraction of node-link resources at ≥ :data:`SATURATED`
        utilization.

        Only per-node up/down resources are counted (rack links are not
        reported by ``current_usage``); foreground traffic counts toward
        saturation — congestion is congestion whoever causes it.
        """
        used_up, used_down = sim.current_usage()
        capacities = sim.network.capacities_at(sim.now)
        total = 0
        saturated = 0
        for resource in sorted(capacities):
            kind = resource[0]
            if kind not in ("up", "down"):
                continue
            capacity = capacities[resource]
            if capacity <= 0.0:
                continue
            total += 1
            node = resource[1]
            used = (used_up if kind == "up" else used_down).get(node, 0.0)
            if used / capacity >= SATURATED:
                saturated += 1
        if total == 0:
            return 0.0
        return saturated / total

    def slo_firing(self) -> list[str]:
        if self.slo_monitor is None:
            return []
        return list(self.slo_monitor.firing())

    def overloaded(self, sim) -> tuple[bool, dict]:
        """(overloaded?, detail) — detail feeds the plane's trace event."""
        firing = self.slo_firing()
        breadth = self.saturation_breadth(sim)
        return (
            bool(firing) or breadth > self.config.breadth_watermark,
            {"firing": firing, "breadth": breadth},
        )

    def relieved(self, sim) -> tuple[bool, dict]:
        firing = self.slo_firing()
        breadth = self.saturation_breadth(sim)
        return (
            not firing and breadth <= self.config.resume_breadth,
            {"firing": firing, "breadth": breadth},
        )
