"""Adaptive scheduling for full-node repair (Section IV-E).

A full-node repair triggers many single-chunk repairs that compete for
bandwidth.  PivotRepair starts a new repair task only when its
*recommendation value* is high enough:

    r = B_min - sum_i S(i,c) * (alpha * max(A_i - E_i, 0) / E_i + beta)

where the sum ranges over the ``eta`` currently running tasks; ``B_min`` is
the candidate tree's bottleneck bandwidth under current conditions;
``S(i,c)`` is the similarity between the candidate tree and running task i's
tree (number of identical upload/download nodes); ``E_i`` is task i's
expected duration (from its B_min at planning time) and ``A_i`` its elapsed
time, so ``max(A_i - E_i, 0) / E_i`` is its relative delay.  Larger alpha
and beta make running tasks discourage new ones more strongly.

``B_min`` enters in Mb/s so alpha/beta are scale-free knobs.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.core.bandwidth_view import BandwidthSnapshot
from repro.core.tree import RepairTree
from repro.exceptions import PlanningError
from repro.obs.tracer import NULL_TRACER
from repro.units import to_mbps


#: When idle and below threshold, re-check bandwidths this often, in
#: seconds ("check periodically until available bandwidths turn
#: sufficient").
IDLE_CHECK_INTERVAL = 1.0
#: Give up waiting for bandwidth after this many seconds and start the
#: best candidate anyway, so a permanently congested network still
#: repairs.
MAX_IDLE_WAIT = 30.0


@dataclass(frozen=True)
class SchedulerConfig:
    """Knobs of the adaptive scheduling strategy."""

    alpha: float = 1.0
    beta: float = 2.0
    #: Minimum recommendation value required to start a task while other
    #: tasks are running (the "threshold fixed based on experience").
    threshold: float = 0.0
    #: Hard cap on concurrently running repair tasks (None = unbounded).
    max_concurrency: int | None = None

    def __post_init__(self) -> None:
        if self.alpha < 0 or self.beta < 0:
            raise PlanningError("alpha and beta must be non-negative")
        if self.max_concurrency is not None and self.max_concurrency < 1:
            raise PlanningError("max_concurrency must be >= 1")


def _transfer_sets(tree: RepairTree) -> tuple[frozenset[int], frozenset[int]]:
    """(nodes that upload, nodes that download) in a repair tree."""
    return (
        frozenset(tree.helpers),
        frozenset([tree.root, *tree.non_leaf_helpers()]),
    )


@dataclass
class RunningTask:
    """Book-keeping for one in-flight single-chunk repair."""

    tree: RepairTree
    start_time: float
    expected_seconds: float
    uploaders: frozenset[int] = field(init=False)
    downloaders: frozenset[int] = field(init=False)

    def __post_init__(self) -> None:
        if self.expected_seconds <= 0:
            raise PlanningError("expected task duration must be positive")
        self.uploaders, self.downloaders = _transfer_sets(self.tree)

    def relative_delay(self, now: float) -> float:
        """max(A_i - E_i, 0) / E_i with A_i the elapsed time so far."""
        elapsed = now - self.start_time
        return max(elapsed - self.expected_seconds, 0.0) / self.expected_seconds


def _similarity(
    sets: tuple[frozenset[int], frozenset[int]], running: RunningTask
) -> int:
    uploaders, downloaders = sets
    return len(uploaders & running.uploaders) + len(
        downloaders & running.downloaders
    )


def tree_similarity(candidate: RepairTree, running: RunningTask) -> int:
    """S(i, c): identical upload nodes + identical download nodes."""
    return _similarity(_transfer_sets(candidate), running)


def recommendation_ceiling(
    snapshot: BandwidthSnapshot,
    requestor: int,
    candidates: Sequence[int],
    k: int,
) -> float:
    """An upper bound on Eq. 3 for any pipelined tree over these inputs.

    Lemma 1: the requestor's term is ``down / children <= down``, and
    each of the (at least) ``k`` helpers' terms is at most its uplink,
    so ``B_min`` is at most the k-th largest candidate uplink.  The
    penalty is never negative (alpha, beta, similarity, delay >= 0).
    Every step is monotone in floats, so the bound is exact.
    """
    up = snapshot.up
    uplinks = sorted([up[node] for node in candidates], reverse=True)
    return to_mbps(min(snapshot.down[requestor], uplinks[k - 1]))


def recommendation_value(
    candidate: RepairTree,
    candidate_bmin: float,
    running: list[RunningTask],
    now: float,
    config: SchedulerConfig | None = None,
    tracer=NULL_TRACER,
) -> float:
    """Equation (3): how strongly this task is recommended right now."""
    config = config or SchedulerConfig()
    penalty = 0.0
    # S(i, c) against every running task: the candidate's two node sets
    # are the same for all of them.
    sets = _transfer_sets(candidate)
    for task in running:
        penalty += _similarity(sets, task) * (
            config.alpha * task.relative_delay(now) + config.beta
        )
    value = to_mbps(candidate_bmin) - penalty
    if tracer.enabled:
        tracer.instant(
            "scheduler.recommendation", t=now, track="scheduler",
            requestor=candidate.root, bmin_mbps=to_mbps(candidate_bmin),
            penalty=penalty, value=value, running=len(running),
        )
    return value
