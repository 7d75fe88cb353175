"""Result records for single-chunk and full-node repairs."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.plan import RepairPlan


@dataclass
class RepairResult:
    """Outcome of one single-chunk repair.

    ``planning_seconds`` is the planner's modelled cost
    (:class:`~repro.core.plan.RepairPlanner`); ``transfer_seconds`` is
    simulated time.
    ``bytes_transferred`` sums what every link carried (per-edge bytes ×
    edges, including pipeline fill).  ``telemetry`` is a
    :meth:`repro.obs.MetricsRegistry.snapshot` dict — counters
    (``flows_completed``, per-node ``bytes_up``/``bytes_down``, simulator
    event-loop statistics, planner/scheduler event counts), gauges
    (``bottleneck_utilization``), and histogram summaries — filled by the
    executors; ``None`` when the run was not instrumented.
    """

    scheme: str
    planning_seconds: float
    transfer_seconds: float
    bmin: float
    plan: RepairPlan | None = None
    bytes_transferred: float = 0.0
    telemetry: dict | None = None
    #: Execution attempts the repair needed (> 1 after mid-repair re-plans).
    attempts: int = 1
    #: Slice provenance: ``(plan, start_slice)`` per verified slice range,
    #: delivery order; ``repro.repair.jobmaster.slice_ranges`` ends each
    #: where the next starts.  At least one per master result, none from
    #: ``execute_plan``.  Slices index the slicing of the stripe's first
    #: submission (``config_for``): coarser after ``degrade_to(2)``.
    segments: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True — a ``RepairResult`` always describes a completed repair;
        failed repairs come back as :class:`RepairFailed` instead."""
        return True

    @property
    def replans(self) -> int:
        """Mid-repair re-plans the repair survived."""
        return self.attempts - 1

    @property
    def total_seconds(self) -> float:
        """Overall repair time = algorithm running time + transfer time."""
        return self.planning_seconds + self.transfer_seconds


@dataclass
class RepairFailed:
    """Clean terminal outcome of a repair that could not complete.

    Returned (not raised) by fault-aware executors when fewer than ``k``
    helpers survive, the requestor dies, or the retry budget runs out —
    the caller always gets *either* a :class:`RepairResult` with correct
    data or a ``RepairFailed`` with the reason, never a hang or short
    data.  ``elapsed_seconds`` is the simulated time spent before giving
    up; ``bytes_transferred`` counts what the aborted attempts moved.
    """

    scheme: str
    reason: str
    elapsed_seconds: float = 0.0
    attempts: int = 0
    bytes_transferred: float = 0.0
    telemetry: dict | None = None
    #: Optional stripe id, for full-node runs that abort some stripes.
    stripe_id: int | None = None

    @property
    def ok(self) -> bool:
        return False


@dataclass
class FullNodeResult:
    """Outcome of repairing every lost chunk of a failed node."""

    scheme: str
    failed_node: int
    total_seconds: float
    task_results: list[RepairResult] = field(default_factory=list)
    #: Registry snapshot of the whole run (see ``RepairResult.telemetry``).
    telemetry: dict | None = None
    #: Stripes that could not be repaired (fault-injected runs only).
    failures: list[RepairFailed] = field(default_factory=list)

    @property
    def chunks_repaired(self) -> int:
        return len(self.task_results)

    @property
    def chunks_failed(self) -> int:
        return len(self.failures)

    @property
    def bytes_transferred(self) -> float:
        """Total bytes moved across all links by all repair tasks."""
        return sum(r.bytes_transferred for r in self.task_results)

    @property
    def mean_task_seconds(self) -> float:
        if not self.task_results:
            return 0.0
        return sum(r.total_seconds for r in self.task_results) / len(
            self.task_results
        )

    def repair_rate_chunks_per_second(self) -> float:
        if self.total_seconds <= 0:
            return 0.0
        return self.chunks_repaired / self.total_seconds
