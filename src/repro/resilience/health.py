"""Gray-failure (straggler) detection for in-flight repairs.

A *gray failure* is a helper that silently degrades — it answers RPCs and
never crashes, but its links crawl at a few percent of their planned
capacity.  The hard-fault path (``repro.faults``) cannot see it: the flow's
rate never reaches zero, so the stall watchdog never fires, and the repair
limps along at the degraded rate until the degradation ends.

The :class:`HealthMonitor` classifies gray failures from *relative
progress*: at every ``check_interval`` of **simulated** time it compares
the flow's observed per-edge rate (bytes carried between checks, read from
the simulator's flow state — the same quantity the FlightRecorder samples)
against the rate the planner promised (``plan.bmin``).  A flow observed
below ``min_progress_ratio`` of its promise for ``grace_checks``
consecutive checks is a straggler.  No wall-clock heuristics are involved:
both the observation grid and the verdict are functions of simulated time
only, so verdicts are deterministic and seed-stable.

Culprit attribution compares the current bandwidth snapshot against the
plan-time snapshot per tree node: nodes whose uplink/downlink capacity
ratio dropped below the progress threshold are named; if none did (e.g.
pure contention), the node with the smallest ratio is named.  The executor
reacts by launching a *hedged re-plan* over the non-culprit survivors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.bandwidth_view import BandwidthSnapshot
from repro.exceptions import ReproError


class HealthError(ReproError):
    """Invalid health-monitor configuration."""


@dataclass(frozen=True)
class HealthPolicy:
    """Knobs of the straggler detector (all in simulated time)."""

    #: Simulated seconds between progress checks.
    check_interval: float = 0.25
    #: Observed/promised rate ratio below which a check counts as bad.
    min_progress_ratio: float = 0.5
    #: Consecutive bad checks before a straggler verdict.
    grace_checks: int = 2
    #: Hedged re-plans allowed per repair task.
    max_hedges: int = 1

    def __post_init__(self) -> None:
        if self.check_interval <= 0:
            raise HealthError("check_interval must be positive")
        if not 0 < self.min_progress_ratio < 1:
            raise HealthError("min_progress_ratio must be in (0, 1)")
        if self.grace_checks < 1:
            raise HealthError("grace_checks must be >= 1")
        if self.max_hedges < 0:
            raise HealthError("max_hedges cannot be negative")


@dataclass(frozen=True)
class StragglerVerdict:
    """A classified gray failure on one repair flow."""

    task_id: int
    #: Nodes blamed for the degradation.
    nodes: tuple[int, ...]
    #: Simulated time the degradation window began (first bad check's
    #: observation window start) — the attribution engine charges the
    #: interval from here to the hedge launch to ``stall``.
    since: float
    #: Observed per-edge rate over the last check window (bytes/s).
    observed: float
    #: The planner's promised rate (``plan.bmin``, bytes/s).
    promised: float


class HealthMonitor:
    """Relative-progress watcher for one repair attempt.

    Bound to a single submitted flow; the executor calls
    :meth:`next_check` to bound simulator advances and :meth:`observe`
    after each advance.  ``observe`` returns a :class:`StragglerVerdict`
    exactly once, when ``grace_checks`` consecutive windows ran below the
    promised rate.
    """

    def __init__(self, policy, sim, handle, plan, baseline, tree_nodes):
        self.policy = policy
        self.sim = sim
        self.handle = handle
        self.plan = plan
        #: Plan-time :class:`BandwidthSnapshot`, for culprit attribution.
        self.baseline = baseline
        self.tree_nodes = frozenset(tree_nodes)
        self.edges = max(1, len(plan.tree.edges()))
        self.next_check = sim.now + policy.check_interval
        self._last_t = sim.now
        self._last_bytes = sim.task_bytes_carried(handle)
        self._bad_checks = 0
        self._since: float | None = None
        self._verdict_given = False
        self._slo_pressure = False

    def on_slo_alert(self, alert) -> None:
        """SLO-monitor hook: hedge eagerly while an SLO is firing.

        Subscribe with ``monitor.subscribe(health_monitor.on_slo_alert)``.
        Under burn-rate pressure every simulated second of a straggling
        repair spends client error budget, so the grace period collapses
        to a single bad check; the resolve transition restores it.
        """
        self._slo_pressure = getattr(alert, "firing", False)

    @property
    def effective_grace(self) -> int:
        """Bad checks tolerated before a verdict (1 under SLO pressure)."""
        return 1 if self._slo_pressure else self.policy.grace_checks

    def observe(self, network) -> StragglerVerdict | None:
        """Run a progress check if a check boundary has been reached."""
        now = self.sim.now
        if self._verdict_given or now + 1e-12 < self.next_check:
            return None
        elapsed = now - self._last_t
        carried = self.sim.task_bytes_carried(self.handle)
        observed = (
            (carried - self._last_bytes) / self.edges / elapsed
            if elapsed > 0
            else 0.0
        )
        window_start = self._last_t
        self._last_t = now
        self._last_bytes = carried
        self.next_check = now + self.policy.check_interval
        promised = self.plan.bmin
        ratio = observed / promised if promised > 0 else 1.0
        if ratio >= self.policy.min_progress_ratio:
            self._bad_checks = 0
            self._since = None
            return None
        if self._bad_checks == 0:
            self._since = window_start
        self._bad_checks += 1
        if self._bad_checks < self.effective_grace:
            return None
        self._verdict_given = True
        # No check is due ever again: a driver bounding its advances by
        # ``next_check`` must not be held at a boundary already passed.
        self.next_check = math.inf
        return StragglerVerdict(
            task_id=self.handle.task_id,
            nodes=tuple(self.culprits(network)),
            since=self._since if self._since is not None else window_start,
            observed=observed,
            promised=promised,
        )

    def culprits(self, network) -> list[int]:
        """Tree nodes whose link capacity dropped since plan time."""
        snapshot = BandwidthSnapshot.from_network(network, self.sim.now)
        factors: dict[int, float] = {}
        for node in sorted(self.tree_nodes):
            factors[node] = min(
                self._factor(snapshot.up_of, self.baseline.up_of, node),
                self._factor(snapshot.down_of, self.baseline.down_of, node),
            )
        blamed = [
            node
            for node, factor in factors.items()
            if factor < self.policy.min_progress_ratio
        ]
        if blamed:
            return blamed
        worst = min(factors, key=lambda node: (factors[node], node))
        return [worst]

    @staticmethod
    def _factor(current_of, baseline_of, node: int) -> float:
        baseline = baseline_of(node)
        if baseline <= 0:
            return 1.0
        return current_of(node) / baseline
