"""Failure/recovery schedules for lifetime simulation.

:class:`ExponentialFailures` turns a child RNG into the full outage
schedule of **one unit** over the simulated horizon — a sorted list of
:class:`Outage` windows.  Generating schedules up front (instead of
sampling lazily inside the event loop) buys two properties the
Monte-Carlo driver depends on:

* **paired comparisons** — every repair scheme replays the *identical*
  failure history of a run, so "PivotRepair loses fewer stripes than
  conventional repair" is measured against the same storms, not
  different luck; and
* **state independence** — the failure process cannot accidentally
  couple to repair progress, which keeps the exponential configuration
  exactly the Markov chain that :func:`repro.lifetime.mttdl.markov_mttdl`
  solves in closed form (the golden regression).

``permanent=True`` marks outages that destroy the unit's data (disk
death, machine loss); the ``duration`` is then the replacement lead time
before the unit is back in service *empty* — restoring the chunks is the
repair plane's job.  Transient outages keep data intact and end by
themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.exceptions import LifetimeError

__all__ = ["DAY", "ExponentialFailures", "Outage"]

#: Seconds per day / per (365-day) year — the time units of this module.
DAY = 86_400.0
YEAR = 365.0 * DAY


@dataclass(frozen=True)
class Outage:
    """One outage window of one unit.

    ``duration`` is the downtime of a transient outage, or the
    replacement lead time of a permanent failure (the unit returns to
    service empty after it).
    """

    start: float
    duration: float
    permanent: bool = False

    def __post_init__(self) -> None:
        if self.start < 0:
            raise LifetimeError(f"outage at negative time {self.start}")
        if self.duration < 0:
            raise LifetimeError(f"negative outage duration {self.duration}")

    @property
    def end(self) -> float:
        return self.start + self.duration


class ExponentialFailures:
    """Memoryless alternating renewal: uptime ~ Exp(MTTF), then
    downtime ~ Exp(MTTR) (none when ``mttr`` is 0), repeated."""

    def __init__(
        self, mttf: float, mttr: float = 0.0, *, permanent: bool = False
    ):
        if mttf <= 0:
            raise LifetimeError(f"MTTF must be positive, got {mttf}")
        if mttr < 0:
            raise LifetimeError(f"negative MTTR {mttr}")
        self.mttf = mttf
        self.mttr = mttr
        self.permanent = permanent

    def schedule(
        self, rng: np.random.Generator, horizon: float
    ) -> list[Outage]:
        """Sorted outages of one unit over ``[0, horizon)``.

        Draws one ``rng.exponential(mttf)`` per uptime and, when
        ``mttr > 0``, one ``rng.exponential(mttr)`` per downtime.
        """
        if horizon <= 0:
            raise LifetimeError(f"horizon must be positive, got {horizon}")
        outages: list[Outage] = []
        t = 0.0
        while True:
            t += float(rng.exponential(self.mttf))
            if not math.isfinite(t) or t >= horizon:
                return outages
            downtime = (
                float(rng.exponential(self.mttr)) if self.mttr else 0.0
            )
            outages.append(
                Outage(start=t, duration=downtime, permanent=self.permanent)
            )
            t += downtime
