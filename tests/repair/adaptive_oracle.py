"""Test-only oracle: the exhaustive Eq. 3 round ``fullnode`` replaced.

``start_recommended`` is ``repro.repair.fullnode._start_recommended`` as
it stood before the round learned to prune by the recommendation
ceiling: every pending stripe is planned every round, and the first
maximum in pending order starts.  It is kept as the formulation the
bounded round must equal — the same stripe, plan and value started in
every round.  It shares the master, ``recommendation_value`` and the
error types with the package, nothing of the ceiling.
"""

from __future__ import annotations

from repro.core.scheduler import (
    IDLE_CHECK_INTERVAL,
    MAX_IDLE_WAIT,
    SchedulerConfig,
    recommendation_value,
)
from repro.ec.stripe import Stripe
from repro.exceptions import ClusterError, PlanningError
from repro.repair.jobmaster import StripeRepairMaster


def start_recommended(
    master: StripeRepairMaster,
    scheduler: SchedulerConfig,
    max_rate: float | None,
) -> None:
    """Start best-stripe tasks while their recommendation clears the bar."""
    sim, tracer, pending = master.sim, master.tracer, master.pending
    faulted = master.faulted
    idle_since: float | None = None
    while pending:
        if (
            scheduler.max_concurrency is not None
            and len(master.in_flight) >= scheduler.max_concurrency
        ):
            return
        running = master.running_tasks()
        best_value = float("-inf")
        best_plan = None
        best_stripe = None
        unrepairable: list[tuple[int, Stripe, str]] = []
        # Every pending stripe is re-planned under the current residual
        # bandwidths each round (unscoped: the round, not one stripe,
        # is the planner events' cause).
        for index, stripe in enumerate(pending):
            try:
                plan = master.plan(stripe)
            except (ClusterError, PlanningError) as exc:
                if not faulted:
                    raise
                unrepairable.append((index, stripe, str(exc)))
                continue
            value = recommendation_value(
                plan.tree, plan.bmin, running, sim.now, scheduler,
                tracer=tracer,
            )
            if value > best_value:
                best_value, best_plan, best_stripe = value, plan, stripe
        for index, stripe, reason in reversed(unrepairable):
            pending.pop(index)
            master.abort_stripe(stripe, reason)
        if best_plan is None:
            return
        master.registry.counter("scheduler_rounds").inc()
        master.registry.histogram("recommendation_value").observe(best_value)
        if tracer.enabled:
            tracer.instant(
                "scheduler.round", t=sim.now, track="scheduler",
                parent_id=master.spans.get(best_stripe.stripe_id),
                candidates=len(pending), running=len(master.in_flight),
                best_value=best_value, best_stripe=best_stripe.stripe_id,
                started=best_value >= scheduler.threshold,
            )
        if best_value < scheduler.threshold:
            # Below the threshold we wait for a completion; when nothing is
            # running we check periodically until bandwidths turn
            # sufficient, bounded so a permanently congested network still
            # makes progress.
            if master.in_flight:
                return
            if idle_since is None:
                idle_since = sim.now
            if sim.now - idle_since < MAX_IDLE_WAIT:
                master.advance(sim.now + IDLE_CHECK_INTERVAL)
                continue
        idle_since = None
        planning_span = master.charge_planning(best_stripe, best_plan)
        if tracer.enabled:
            tracer.instant(
                "scheduler.start", t=sim.now, track="scheduler",
                parent_id=master.spans.get(best_stripe.stripe_id),
                stripe=best_stripe.stripe_id,
                requestor=best_plan.requestor, value=best_value,
            )
        master.submit(
            best_stripe, best_plan, max_rate=max_rate,
            planning_span=planning_span,
        )
