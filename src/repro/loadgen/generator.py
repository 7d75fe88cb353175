"""Seeded open-loop request generators.

Arrivals follow a Poisson process — the open-loop model of client
traffic: request times do not depend on completions, so a slow system
builds queues instead of silently back-pressuring the load.  Object
popularity is Zipfian over stripes (hot storage concentrates reads on
few objects).  The arrival *rate* is ``arrival_rate`` throughout, or,
when a ``rate_profile`` is passed, that rate times the profile's
per-sample multiplier: :func:`rate_profile_from_trace` converts a
measured :class:`~repro.traces.workload.WorkloadTrace` into one, a
:class:`RateShape` on the trace's own sample clock, so
foreground load can follow, e.g., the TPC-DS intensity shape while the
flows themselves compete for full link capacity.

Both are sampled by thinning (Lewis & Shedler): candidate arrivals are
drawn at the peak rate and accepted with probability ``rate(t) / peak``,
which is exact for any bounded rate function.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.seeding import rng_from
from repro.ec.stripe import Stripe
from repro.exceptions import LoadGenError
from repro.loadgen.requests import READ, WRITE, ClientRequest
from repro.traces.workload import WorkloadTrace
from repro.units import mib

@dataclass(frozen=True)
class LoadProfile:
    """Parameters of one synthetic foreground workload."""

    name: str = "synthetic"
    #: Mean request arrivals per second (before a rate profile's shape).
    arrival_rate: float = 50.0
    #: Length of the generated request stream, seconds.
    duration: float = 60.0
    #: Fraction of requests that are reads (the rest are writes).
    read_fraction: float = 0.9
    #: Bytes moved per request.
    request_size: int = mib(1)
    #: Zipf exponent of object popularity over stripes (0 = uniform).
    zipf_s: float = 0.9
    #: Tenant names requests are attributed to (telemetry/SLO labels).
    #: Empty = single anonymous tenant ("default"); with one name every
    #: request carries it; with several, each request draws a tenant
    #: uniformly.  Zero or one tenant consumes no extra randomness, so
    #: existing seeded streams are byte-identical.
    tenants: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.arrival_rate < 0:
            raise LoadGenError("arrival rate cannot be negative")
        if self.duration <= 0:
            raise LoadGenError("duration must be positive")
        if not 0 <= self.read_fraction <= 1:
            raise LoadGenError("read fraction must be in [0, 1]")
        if self.request_size <= 0:
            raise LoadGenError("request size must be positive")
        if self.zipf_s < 0:
            raise LoadGenError("zipf exponent cannot be negative")
        if len(set(self.tenants)) != len(self.tenants) or any(
            not name for name in self.tenants
        ):
            raise LoadGenError("tenant names must be unique and non-empty")


def zipf_weights(count: int, s: float) -> np.ndarray:
    """Normalised Zipf(s) popularity over ``count`` ranked objects."""
    if count < 1:
        raise LoadGenError("need at least one object")
    weights = 1.0 / np.arange(1, count + 1, dtype=float) ** s
    return weights / weights.sum()


@dataclass(frozen=True)
class RateShape:
    """Arrival-rate multipliers, one per ``interval`` seconds of the
    trace they follow; the last holds beyond its end."""

    multipliers: np.ndarray
    interval: float


def rate_profile_from_trace(trace: WorkloadTrace) -> RateShape:
    """Arrival-rate multipliers following a measured trace, one per
    sample on the trace's interval.

    The cluster-mean used node bandwidth, normalised to mean 1.0 (so the
    profile modulates shape, not volume) and floored at 0.05 (quiet
    samples still see trickle traffic).
    """
    mean_used = trace.used_node_bandwidth().mean(axis=0)
    base = mean_used.mean()
    if base <= 0:
        multipliers = np.ones_like(mean_used)
    else:
        multipliers = np.clip(mean_used / base, 0.05, None)
    return RateShape(multipliers, trace.interval)


def _rate_shape(rate_profile: RateShape | None):
    """(rate multiplier fn, peak multiplier) for the thinning sampler."""
    if rate_profile is None:
        return (lambda t: 1.0), 1.0
    samples = np.asarray(rate_profile.multipliers, dtype=float)
    interval = rate_profile.interval
    if samples.ndim != 1 or not len(samples):
        raise LoadGenError("rate_profile must be a non-empty 1-D array")
    if (samples < 0).any():
        raise LoadGenError("rate_profile multipliers cannot be negative")
    if not interval > 0:
        raise LoadGenError("rate_profile interval must be positive")

    def traced(t: float) -> float:
        index = min(int(t / interval), len(samples) - 1)
        return float(samples[index])

    return traced, float(samples.max())


def generate_requests(
    profile: LoadProfile,
    stripes: Sequence[Stripe],
    node_count: int,
    seed: int | np.random.Generator = 0,
    rate_profile: RateShape | None = None,
) -> list[ClientRequest]:
    """Generate a seeded, time-ordered foreground request stream.

    Reads target a Zipf-popular stripe's data chunk from a uniformly
    random client node (never the chunk's holder — that read is local and
    moves no network bytes); writes store a fresh object across a
    stripe's placement.  With ``rate_profile`` the arrival rate follows
    its multipliers, one per ``rate_profile.interval`` seconds (the last
    holds beyond its end).  Deterministic for a given seed.  ``seed`` is an
    integer (historical streams, unchanged) or a child generator spawned
    from a composite run's root seed
    (:func:`repro.core.seeding.spawn_rng`).
    """
    if not stripes:
        raise LoadGenError("need at least one stripe to address")
    if node_count < 2:
        raise LoadGenError("need at least two nodes for client traffic")
    rng = rng_from(seed)
    rate_of, peak = _rate_shape(rate_profile)
    # Generator.choice(len(ordered), p=weights) builds this CDF on every
    # call and draws ``cdf.searchsorted(rng.random(), side="right")``.
    cdf = zipf_weights(len(stripes), profile.zipf_s).cumsum()
    cdf /= cdf[-1]
    ordered = sorted(stripes, key=lambda s: s.stripe_id)
    peak_rate = profile.arrival_rate * peak
    requests: list[ClientRequest] = []
    if peak_rate <= 0:
        return requests
    t = 0.0
    while True:
        t += rng.exponential(1.0 / peak_rate)
        if t >= profile.duration:
            return requests
        if rng.random() * peak > rate_of(t):
            continue  # thinned out: instantaneous rate below peak
        stripe = ordered[int(cdf.searchsorted(rng.random(), side="right"))]
        is_read = rng.random() < profile.read_fraction
        if is_read:
            chunk_index = int(rng.integers(0, stripe.code.k))
            holder = stripe.placement[chunk_index]
            client = int(rng.integers(0, node_count))
            while client == holder:
                client = int(rng.integers(0, node_count))
        else:
            chunk_index = 0
            client = int(rng.integers(0, node_count))
        if len(profile.tenants) > 1:
            tenant = profile.tenants[int(rng.integers(0, len(profile.tenants)))]
        elif profile.tenants:
            tenant = profile.tenants[0]
        else:
            tenant = "default"
        requests.append(
            ClientRequest(
                arrival=t,
                kind=READ if is_read else WRITE,
                stripe_id=stripe.stripe_id,
                chunk_index=chunk_index,
                client=client,
                size=profile.request_size,
                tenant=tenant,
            )
        )
