"""Repair plans and the planner interface shared by all schemes."""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.core.bandwidth_view import BandwidthSnapshot
from repro.core.tree import RepairTree
from repro.exceptions import PlanningError
from repro.obs.tracer import NULL_TRACER


@dataclass
class RepairPlan:
    """Output of a repair planner for one single-chunk repair.

    Pipelined schemes (RP, PPT, PivotRepair) fill ``tree``; staged schemes
    (conventional, PPR) fill ``stages`` — lists of (src, dst) transfer rounds
    executed one after another, each round a set of independent bulk flows.
    """

    scheme: str
    requestor: int
    helpers: list[int]
    tree: RepairTree | None = None
    stages: list[list[tuple[int, int]]] | None = None
    bmin: float = 0.0
    planning_seconds: float = 0.0
    #: Number of candidate trees the planner evaluated (1 for greedy
    #: schemes; PPT's whole enumeration, (k+1)^(k-1), which it charges for).
    trees_examined: int = 1
    notes: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if (self.tree is None) == (self.stages is None):
            raise PlanningError(
                "a plan must have exactly one of tree or stages"
            )
        if self.tree is not None and self.tree.root != self.requestor:
            raise PlanningError("tree root must be the requestor")

    @property
    def is_pipelined(self) -> bool:
        return self.tree is not None


class RepairPlanner(ABC):
    """Common interface: compute a repair plan from a bandwidth snapshot.

    Planning is charged a modelled cost, never timed: seconds per helper
    candidate offered plus seconds per tree examined.
    """

    #: Human-readable scheme name, e.g. "PivotRepair".
    name: str = "base"

    #: PivotRepair's host cost per candidate, which planners without a
    #: measurement of their own inherit: a proportional fit of the
    #: (6, 4)-(14, 10) medians of ``bench_fig5_running_time.py``'s
    #: microbenchmark (13.8-24.1 us), on a 2-vCPU Intel Xeon host.
    SECONDS_PER_CANDIDATE = 2.0e-6
    #: A greedy planner's one tree costs nothing beyond its scan.
    SECONDS_PER_TREE = 0.0

    #: Structured event tracer; reassign to a live Tracer to observe
    #: planning decisions (subclasses may emit richer per-step events).
    tracer = NULL_TRACER

    @contextmanager
    def traced(self, tracer):
        """Temporarily route this planner's events to ``tracer``."""
        previous = self.tracer
        self.tracer = tracer
        try:
            yield self
        finally:
            self.tracer = previous

    def plan(
        self,
        snapshot: BandwidthSnapshot,
        requestor: int,
        candidates: Sequence[int],
        k: int,
    ) -> RepairPlan:
        """Plan a single-chunk repair and charge its modelled cost.

        Args:
            snapshot: available bandwidths at planning time.
            requestor: node where the chunk is rebuilt (tree root).
            candidates: surviving nodes holding chunks of the stripe
                (the n - 1 possible helpers), excluding the requestor.
            k: number of helpers the code requires.
        """
        candidates = self._validated(snapshot, requestor, candidates, k)
        plan = self._build(snapshot, requestor, candidates, k)
        plan.planning_seconds = (
            self.SECONDS_PER_CANDIDATE * len(candidates)
            + self.SECONDS_PER_TREE * plan.trees_examined
        )
        if self.tracer.enabled:
            self.tracer.instant(
                "planner.plan", t=snapshot.time, track="planner",
                scheme=plan.scheme, requestor=requestor,
                helpers=len(plan.helpers), bmin=plan.bmin,
                trees_examined=plan.trees_examined,
            )
        return plan

    @abstractmethod
    def _build(
        self,
        snapshot: BandwidthSnapshot,
        requestor: int,
        candidates: list[int],
        k: int,
    ) -> RepairPlan:
        """Scheme-specific planning; must fill everything but the charge."""

    def _validated(
        self,
        snapshot: BandwidthSnapshot,
        requestor: int,
        candidates: Sequence[int],
        k: int,
    ) -> list[int]:
        candidates = list(candidates)
        if k <= 0:
            raise PlanningError(f"k must be positive, got {k}")
        if requestor in candidates:
            raise PlanningError("the requestor cannot be a helper candidate")
        if len(set(candidates)) != len(candidates):
            raise PlanningError("duplicate helper candidates")
        if len(candidates) < k:
            raise PlanningError(
                f"need at least k={k} candidates, got {len(candidates)}"
            )
        known = set(snapshot.up)
        missing = ({requestor} | set(candidates)) - known
        if missing:
            raise PlanningError(f"nodes missing from snapshot: {missing}")
        return candidates


def pin_planning(planner: RepairPlanner, seconds: float) -> RepairPlanner:
    """Charge a fixed planning cost instead of the modelled one.

    The storm, the benchmark workloads and the pinned test suites keep
    the charge they were recorded with.  Wraps ``planner.plan`` in place.
    """
    inner = planner.plan

    def plan(*args, **kwargs):
        result = inner(*args, **kwargs)
        result.planning_seconds = seconds
        return result

    planner.plan = plan
    return planner
