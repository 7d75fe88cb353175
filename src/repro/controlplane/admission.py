"""Token/credit admission control for fleet-scale repair storms.

A correlated rack outage enqueues one repair *job* per lost node.  Running
them all at once collapses foreground SLOs — every job saturates its
bottleneck links and the max-min allocator happily splits the cluster
between them.  The admission gate bounds the blast radius with a token
pool of concurrent repair **streams** (in-flight pipelined tasks, fleet
wide) and a cap on admitted jobs.  Jobs queue until there is room.

Starvation freedom comes from **priority aging**: a job's effective
priority is its QoS base priority plus ``aging_rate`` points per
simulated second spent waiting, so a bronze job parked behind a stream
of fresh gold arrivals eventually outbids them — the wait is bounded by
``(gold.base - bronze.base) / aging_rate`` seconds (plus one admission
cycle), which tests/controlplane/test_admission.py pins down.

Every admit/shed/resume decision is appended to a deterministic decision
log; the storm determinism test diffs two runs' logs byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ClusterError

__all__ = [
    "QoSClass",
    "QOS_CLASSES",
    "AdmissionConfig",
    "AdmissionController",
]


@dataclass(frozen=True)
class QoSClass:
    """A tenant service class: the job's base admission priority."""

    name: str
    base_priority: float


#: Built-in service classes.  The spread between classes and the aging
#: rate jointly bound the worst-case queue wait (see module docstring).
QOS_CLASSES = {
    "gold": QoSClass("gold", 100.0),
    "silver": QoSClass("silver", 50.0),
    "bronze": QoSClass("bronze", 10.0),
}


@dataclass(frozen=True)
class AdmissionConfig:
    """Token pool and aging for the fleet admission gate.

    ``max_streams`` bounds concurrent repair pipelines fleet-wide (the
    knob production systems call "recovery streams"); ``max_jobs``
    bounds concurrently *admitted* jobs (each job may run several
    streams).  ``aging_rate`` is priority points per simulated second a
    job waits un-admitted.
    """

    max_streams: int = 8
    max_jobs: int = 4
    aging_rate: float = 1.0

    def __post_init__(self) -> None:
        if self.max_streams < 1:
            raise ClusterError("max_streams must be >= 1")
        if self.max_jobs < 1:
            raise ClusterError("max_jobs must be >= 1")
        if self.aging_rate < 0:
            raise ClusterError("aging_rate cannot be negative")


class AdmissionController:
    """Decide which jobs hold admission tokens, with priority aging.

    The controller is pure policy over the job list the plane hands it —
    it holds no simulator references, which keeps it trivially
    deterministic and property-testable (the starvation-freedom test
    drives it directly with synthetic jobs).
    """

    def __init__(self, config: AdmissionConfig | None = None):
        self.config = config or AdmissionConfig()
        #: Deterministic decision log: dicts with ``t``/``action``/``job``
        #: (+ context), appended in decision order.  The storm
        #: determinism test compares two runs' logs verbatim.
        self.decisions: list[dict] = []

    def effective_priority(self, job, now: float) -> float:
        """Base QoS priority plus aging credit for time spent waiting."""
        waited = max(0.0, now - job.enqueued_at)
        return job.qos.base_priority + self.config.aging_rate * waited

    def record(self, t: float, action: str, job, **detail) -> None:
        entry = {"t": t, "action": action, "job": job.job_id}
        entry.update(sorted(detail.items()))
        self.decisions.append(entry)

    # ------------------------------------------------------------------
    # Selection policy
    # ------------------------------------------------------------------
    def pick_admit(self, queued, now: float):
        """Highest effective priority wins; enqueue order breaks ties."""
        if not queued:
            return None
        return max(
            queued,
            key=lambda job: (self.effective_priority(job, now), -job.index),
        )

    def pick_shed(self, admitted, now: float):
        """Lowest effective priority sheds; youngest sheds on ties."""
        if not admitted:
            return None
        return min(
            admitted,
            key=lambda job: (self.effective_priority(job, now), -job.index),
        )

    def pick_resume(self, paused, now: float):
        """Resume order mirrors admission order."""
        return self.pick_admit(paused, now)

    # ------------------------------------------------------------------
    # Token accounting
    # ------------------------------------------------------------------
    def stream_tokens_free(self, active_streams: int) -> int:
        return max(0, self.config.max_streams - active_streams)

    def may_admit_job(self, admitted_count: int) -> bool:
        return admitted_count < self.config.max_jobs

    def may_start_stream(self, active_streams: int) -> bool:
        """May one more repair stream start right now?"""
        return self.stream_tokens_free(active_streams) >= 1
