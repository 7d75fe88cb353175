"""Repair plans and the planner interface shared by all schemes."""

from __future__ import annotations

import time
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
    """Common interface: compute a repair plan from a bandwidth snapshot."""

    #: Human-readable scheme name, e.g. "PivotRepair".
    name: str = "base"

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
        """Plan a single-chunk repair; wall-clock times the planning step.

        Args:
            snapshot: available bandwidths at planning time.
            requestor: node where the chunk is rebuilt (tree root).
            candidates: surviving nodes holding chunks of the stripe
                (the n - 1 possible helpers), excluding the requestor.
            k: number of helpers the code requires.
        """
        candidates = self._validated(snapshot, requestor, candidates, k)
        started = time.perf_counter()
        plan = self._build(snapshot, requestor, candidates, k)
        plan.planning_seconds = time.perf_counter() - started
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
        """Scheme-specific planning; must fill everything but timing."""

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
    """Charge a fixed planning cost instead of measured wall time.

    Wall-clock planning durations advance the simulated clock and differ
    between runs of one seed; pinning them keeps a run (``repro explain``
    / ``report`` / ``storm``, the bench and identity tests)
    bit-reproducible.  Wraps ``planner.plan`` in place.
    """
    inner = planner.plan

    def plan(*args, **kwargs):
        result = inner(*args, **kwargs)
        result.planning_seconds = seconds
        return result

    planner.plan = plan
    return planner
