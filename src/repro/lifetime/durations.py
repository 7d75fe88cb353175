"""Repair-duration models: how long restoring one chunk takes.

A months-to-years lifetime loop cannot afford to run the fluid network
simulator inside every repair — a ten-year, hundred-run Monte-Carlo
schedules hundreds of thousands of them.  Instead, repair durations come
from a :class:`DurationModel` sampled per repair:

* :class:`FixedDurations` / :class:`ExponentialDurations` — analytic
  models.  The exponential one makes the lifetime loop an exact Markov
  chain, which the golden regression checks against
  :func:`repro.lifetime.mttdl.markov_mttdl`.
* :class:`CalibratedDurations` — the PivotRepair-aware model.  Its
  :meth:`~CalibratedDurations.calibrate` constructor runs the *real*
  congestion-aware repair machinery (planner + fluid simulator) for
  each scheme at congested instants of a workload trace, and keeps the resulting per-chunk transfer times as an empirical
  distribution.  The lifetime loop then resamples from that distribution,
  so scheme differences measured in seconds (Figure 5) propagate into
  durability differences measured in nines — without paying simulator
  cost per lifetime repair.

Samples are *per simulated chunk*.  A lifetime cluster coarse-grains
placement: each simulated chunk stands for ``scale`` real 64 MiB chunks
that share its fate (same disk, same stripe geometry), so the time to
re-create it is ``scale`` sequential single-chunk repairs.  The scale is
what turns sub-second chunk repairs into the hours-long exposure windows
real clusters see when a 4 TB disk dies.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Mapping, Sequence

import numpy as np

from repro.baselines import ConventionalPlanner, RPPlanner
from repro.core import PivotRepairPlanner
from repro.exceptions import LifetimeError

__all__ = [
    "CalibratedDurations",
    "DurationModel",
    "ExponentialDurations",
    "FixedDurations",
]

#: The schemes :func:`make_scheme_planner` builds a planner for.
SCHEME_KEYS = ("pivot", "rp", "conventional")

#: Seconds and seed of the synthetic trace a calibration repairs on.
CALIBRATION_TRACE_SECONDS = 600
CALIBRATION_TRACE_SEED = 1


def make_scheme_planner(scheme: str):
    """Planner for a lifetime scheme key ("pivot", "rp", "conventional")."""
    if scheme == "pivot":
        return PivotRepairPlanner()
    if scheme == "rp":
        return RPPlanner()
    if scheme == "conventional":
        return ConventionalPlanner()
    raise LifetimeError(
        f"unknown repair scheme {scheme!r}; expected one of {SCHEME_KEYS}"
    )


def _per_scheme(value, schemes: Sequence[str], what: str) -> dict[str, float]:
    """Normalise a scalar-or-mapping parameter to {scheme: float}."""
    if isinstance(value, Mapping):
        table = {str(s): float(v) for s, v in value.items()}
    else:
        table = {s: float(value) for s in schemes}
    for scheme, seconds in table.items():
        if seconds <= 0:
            raise LifetimeError(f"{what} for {scheme!r} must be positive")
    return table


class DurationModel(ABC):
    """Sampler of per-chunk repair durations, one stream per scheme."""

    @abstractmethod
    def sample(self, rng: np.random.Generator, scheme: str) -> float:
        """One repair duration (seconds) for ``scheme``."""

    def mean(self, scheme: str) -> float:
        """Expected repair duration (seconds) — reporting only."""
        raise NotImplementedError


class FixedDurations(DurationModel):
    """Every repair of a scheme takes exactly its configured time."""

    def __init__(
        self, seconds: float | Mapping[str, float], schemes=SCHEME_KEYS
    ):
        self.seconds = _per_scheme(seconds, schemes, "repair duration")

    def _of(self, scheme: str) -> float:
        try:
            return self.seconds[scheme]
        except KeyError:
            raise LifetimeError(
                f"no repair duration configured for scheme {scheme!r}"
            ) from None

    def sample(self, rng: np.random.Generator, scheme: str) -> float:
        return self._of(scheme)

    def mean(self, scheme: str) -> float:
        return self._of(scheme)


class ExponentialDurations(DurationModel):
    """Exponential repair times — the Markov-chain repair model."""

    def __init__(
        self, mean_seconds: float | Mapping[str, float], schemes=SCHEME_KEYS
    ):
        self.mean_seconds = _per_scheme(
            mean_seconds, schemes, "mean repair duration"
        )

    def sample(self, rng: np.random.Generator, scheme: str) -> float:
        return float(rng.exponential(self.mean(scheme)))

    def mean(self, scheme: str) -> float:
        try:
            return self.mean_seconds[scheme]
        except KeyError:
            raise LifetimeError(
                f"no repair duration configured for scheme {scheme!r}"
            ) from None


class CalibratedDurations(DurationModel):
    """Empirical per-chunk repair times from the congestion-aware machinery.

    ``samples`` maps scheme -> measured single-chunk transfer times
    (seconds); :meth:`sample` resamples one and multiplies by ``scale``
    (real chunks represented by one simulated chunk).
    """

    def __init__(
        self,
        samples: Mapping[str, Sequence[float]],
        scale: float = 1.0,
    ):
        if scale <= 0:
            raise LifetimeError(f"scale must be positive, got {scale}")
        self.samples = {}
        for scheme, values in samples.items():
            arr = np.asarray(values, dtype=float)
            if arr.ndim != 1 or len(arr) == 0:
                raise LifetimeError(
                    f"scheme {scheme!r} needs a non-empty 1-D sample set"
                )
            if (arr <= 0).any() or not np.isfinite(arr).all():
                raise LifetimeError(
                    f"scheme {scheme!r} has non-positive or non-finite "
                    "duration samples"
                )
            self.samples[str(scheme)] = arr
        if not self.samples:
            raise LifetimeError("need samples for at least one scheme")
        self.scale = float(scale)

    def _of(self, scheme: str) -> np.ndarray:
        try:
            return self.samples[scheme]
        except KeyError:
            raise LifetimeError(
                f"scheme {scheme!r} was not calibrated; have "
                f"{sorted(self.samples)}"
            ) from None

    def sample(self, rng: np.random.Generator, scheme: str) -> float:
        arr = self._of(scheme)
        return float(arr[int(rng.integers(0, len(arr)))]) * self.scale

    def mean(self, scheme: str) -> float:
        return float(self._of(scheme).mean()) * self.scale

    @classmethod
    def calibrate(
        cls,
        workload: str = "TPC-DS",
        code: tuple[int, int] = (6, 4),
        schemes: Sequence[str] = SCHEME_KEYS,
        instants: int = 8,
        node_count: int = 16,
        scale: float = 1.0,
    ) -> "CalibratedDurations":
        """Measure per-chunk repair times under a congested trace.

        Generates the named synthetic workload trace (Table I profiles;
        :data:`CALIBRATION_TRACE_SECONDS` long, seed
        :data:`CALIBRATION_TRACE_SEED`), samples ``instants`` congested
        seconds, and at each one lays a stripe over the cluster and
        executes a full single-chunk repair per scheme on the fluid
        simulator.  Only the *simulated* transfer time is kept — the
        planning charge is a host cost that does not scale with
        ``scale``, so it is excluded by construction.  Every scheme
        repairs at the same instants with the same stripe layout: the
        calibration is a paired sample.
        """
        from repro.experiments.single_chunk import (
            congested_instants,
            stripe_nodes_at,
        )
        from repro.repair import ExecutionConfig, repair_single_chunk
        from repro.traces.generators import PROFILES, generate_trace

        if workload not in PROFILES:
            raise LifetimeError(
                f"unknown workload {workload!r}; "
                f"expected one of {sorted(PROFILES)}"
            )
        n, k = code
        if instants < 1:
            raise LifetimeError("need at least one calibration instant")
        trace = generate_trace(
            PROFILES[workload],
            node_count=node_count,
            duration=CALIBRATION_TRACE_SECONDS,
            seed=CALIBRATION_TRACE_SEED,
        )
        network = trace.to_network(floor=1e6)
        config = ExecutionConfig()
        planners = {scheme: make_scheme_planner(scheme) for scheme in schemes}
        samples: dict[str, list[float]] = {scheme: [] for scheme in schemes}
        for index, instant in enumerate(
            congested_instants(trace, instants, seed=CALIBRATION_TRACE_SEED)
        ):
            requestor, survivors = stripe_nodes_at(
                trace, instant, n, seed=1000 * index + n * 10 + k
            )
            for scheme, planner in planners.items():
                result = repair_single_chunk(
                    planner, network, requestor, survivors, k,
                    start_time=instant, config=config,
                )
                samples[scheme].append(result.transfer_seconds)
        return cls(samples, scale=scale)
