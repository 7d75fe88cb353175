"""Closed-loop foreground traffic engine.

A :class:`ForegroundEngine` drives a generated request stream through the
fluid network simulator as **first-class flows** (``kind="foreground"``)
that compete max-min with repair traffic, instead of being pre-subtracted
from link capacities:

* a read becomes one bulk flow holder -> client;
* a read whose chunk sits on a failed (or fault-crashed) node takes the
  **degraded-read path**: the planner builds a pipelined repair tree with
  the client as requestor, and the whole tree runs as one coupled
  foreground flow — the hot-storage scenario the paper motivates;
* a write fans out client -> every live chunk holder of the stripe
  (``size / k`` bytes each, the erasure-coded write amplification).

The engine is *open-loop in arrivals, closed-loop in observation*:
request times never react to the system, but every completion feeds
latency histograms (:mod:`repro.obs`) and a sliding recent-latency window
that the repair QoS governors (:mod:`repro.loadgen.governor`) read to
throttle repair.

Orchestration contract: the repair orchestrators own the simulator; an
engine is *bound* to it once (:meth:`bind`), after which all clock
movement must go through :meth:`drive_to` / :meth:`run_until_repair_event`
so arrivals are injected at exactly their due times.  Both methods return
only non-foreground task handles, so existing repair collection loops are
oblivious to the extra traffic.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Iterable, Sequence

from repro.core.bandwidth_view import BandwidthSnapshot
from repro.ec.stripe import Stripe
from repro.exceptions import LoadGenError, PlanningError
from repro.loadgen.requests import READ, ClientRequest, RequestOutcome
from repro.network.simulator import FluidSimulator, TaskHandle
from repro.obs.metrics import Histogram, MetricsRegistry

FOREGROUND = "foreground"

#: Arrival-time comparison slack (floating-point clock arithmetic).
_EPS = 1e-9


class ForegroundEngine:
    """Inject client request flows into a repair simulation.

    Args:
        stripes: stripes addressable by the request stream.
        requests: the generated request stream (any order; sorted here).
            Arrival times are relative to the moment the engine is bound.
        planner: repair planner used for degraded-read trees.
        failed_nodes: nodes whose chunks need degraded reads (typically
            the node under full-node repair).
        faults: optional :class:`~repro.faults.plan.FaultPlan`; without
            one the engine follows the plan its driver hands to
            :meth:`bind`.  Nodes the plan declares dead or unreadable at
            request time are treated like failed nodes (as read targets
            and as helpers), and under a plan with any event a request
            whose *client* is unavailable is dropped (counted under
            ``fg_client_dead``): a dead client cannot issue traffic, and
            a flow touching a crashed node (zero capacity) would sit at
            zero rate forever.  Without faults the repaired node is only
            logically failed — its links stay up and it keeps reading.
        registry: metrics registry to fill; a private one by default.
        recent_window: seconds of completed reads the governors see.
        tsdb: optional :class:`~repro.obs.timeseries.TimeSeriesDB`;
            every completion appends per-tenant latency and byte series.
    """

    def __init__(
        self,
        stripes: Sequence[Stripe],
        requests: Iterable[ClientRequest],
        planner,
        failed_nodes: Iterable[int] = (),
        faults=None,
        registry: MetricsRegistry | None = None,
        recent_window: float = 5.0,
        tsdb=None,
    ):
        if recent_window <= 0:
            raise LoadGenError("recent window must be positive")
        self.stripes = {s.stripe_id: s for s in stripes}
        self.planner = planner
        self.failed_nodes = set(failed_nodes)
        #: The fault plan in force: the constructor's, else the driver's
        #: (:meth:`bind`); None when there is none or it is empty.
        self.faults = faults
        self.registry = registry or MetricsRegistry()
        self.recent_window = recent_window
        self.tsdb = tsdb
        self._queue = deque(sorted(requests, key=lambda r: r.arrival))
        for request in self._queue:
            if request.stripe_id not in self.stripes:
                raise LoadGenError(
                    f"request targets unknown stripe {request.stripe_id}"
                )
        self.outcomes: list[RequestOutcome] = []
        self.sim: FluidSimulator | None = None
        self.network = None
        self._offset = 0.0
        #: task_id -> (request, arrival, degraded?, touched nodes, handle).
        self._pending: dict[
            int, tuple[ClientRequest, float, bool, frozenset[int], TaskHandle]
        ] = {}
        self._recent: deque[tuple[float, float]] = deque()
        #: (stripe_id, chunk_index) -> node that now holds the rebuilt
        #: chunk (filled by the repair orchestrator as stripes complete).
        self._relocated: dict[tuple[int, int], int] = {}
        #: Crashed nodes whose in-flight flows :meth:`abort_on_crash`
        #: has already cancelled.
        self._handled_crashes: set[int] = set()

    # ------------------------------------------------------------------
    # Binding and clock movement
    # ------------------------------------------------------------------
    def bind(
        self, sim: FluidSimulator, network, faults=None
    ) -> ForegroundEngine:
        """Attach to the simulator driving the run (once).

        ``faults`` is the driver's fault plan: the engine follows it
        when it was built without one.
        """
        if self.sim is not None:
            raise LoadGenError("engine is already bound to a simulator")
        self.sim = sim
        self.network = network
        self._offset = sim.now
        plan = self.faults if self.faults is not None else faults
        self.faults = plan or None
        return self

    def _require_bound(self) -> FluidSimulator:
        if self.sim is None:
            raise LoadGenError("engine is not bound to a simulator")
        return self.sim

    def next_arrival(self) -> float:
        """Absolute simulator time of the next request (inf when drained)."""
        if not self._queue:
            return math.inf
        return self._queue[0].arrival + self._offset

    def drive_to(self, t: float) -> list[TaskHandle]:
        """Advance the clock to ``t``, injecting arrivals on the way.

        Returns non-foreground tasks that completed (foreground
        completions are absorbed into outcomes).
        """
        sim = self._require_bound()
        others: list[TaskHandle] = []
        while self.next_arrival() <= t + _EPS:
            others += self.absorb(sim.advance_to(min(self.next_arrival(), t)))
            self.pump()
        others += self.absorb(sim.advance_to(t))
        return others

    def run_until_repair_event(
        self, max_time: float = math.inf
    ) -> list[TaskHandle]:
        """Run until a *non-foreground* task completes (or ``max_time``).

        The foreground-aware analogue of
        :meth:`~repro.network.simulator.FluidSimulator.run_until_completion`:
        arrivals are injected as the clock passes them and foreground
        completions are absorbed silently.  Returns ``[]`` when
        ``max_time`` was reached first or nothing remains to run.
        """
        sim = self._require_bound()
        while True:
            self.pump()
            arrival = self.next_arrival()
            bound = min(max_time, arrival)
            if sim.active_task_count:
                others = self.absorb(sim.run_until_completion(bound))
            elif math.isfinite(bound) and bound > sim.now:
                others = self.absorb(sim.advance_to(bound))
            else:
                return []
            if others:
                return others
            if sim.now >= max_time:
                return []

    def drain(self) -> None:
        """Finish every remaining arrival and in-flight foreground flow."""
        sim = self._require_bound()
        while True:
            self.abort_on_crash()
            self.pump()
            arrival = self.next_arrival()
            if self._pending:
                # No repair driver is ticking faults any more: stop at
                # the next crash under a pending flow and abort it there.
                self.absorb(
                    sim.run_until_completion(
                        min(arrival, self._next_crash())
                    )
                )
            elif math.isfinite(arrival):
                self.absorb(sim.advance_to(arrival))
            else:
                return

    # ------------------------------------------------------------------
    # Request submission
    # ------------------------------------------------------------------
    def pump(self) -> int:
        """Submit every request due at the current simulator time."""
        sim = self._require_bound()
        submitted = 0
        while self._queue and (
            self._queue[0].arrival + self._offset <= sim.now + _EPS
        ):
            self._submit(self._queue.popleft())
            submitted += 1
        return submitted

    def _unavailable(self, node: int, now: float) -> bool:
        if node in self.failed_nodes:
            return True
        if self.faults is not None:
            return self.faults.is_dead(node, now) or (
                self.faults.chunk_unreadable(node, now)
            )
        return False

    def _holder(self, request: ClientRequest) -> int:
        moved = self._relocated.get((request.stripe_id, request.chunk_index))
        if moved is not None:
            return moved
        return self.stripes[request.stripe_id].placement[request.chunk_index]

    def _submit(self, request: ClientRequest) -> None:
        sim = self.sim
        now = sim.now
        arrival = request.arrival + self._offset
        self.registry.counter("fg_requests").inc()
        self.registry.counter("fg_requests", tenant=request.tenant).inc()
        if self.faults is not None and self._unavailable(request.client, now):
            self.registry.counter("fg_client_dead").inc()
            return
        if request.kind == READ:
            self._submit_read(request, arrival, now)
        else:
            self._submit_write(request, arrival, now)

    def _flow_meta(self, request: ClientRequest) -> dict | None:
        """Tenant tag on traced foreground flow spans.

        Critical-path analysis uses it to attribute repair slowdown
        seconds to the tenants whose traffic contended for the links.
        """
        if not self.sim.tracer.enabled:
            return None
        return {"tenant": request.tenant}

    def _submit_read(
        self, request: ClientRequest, arrival: float, now: float
    ) -> None:
        self.registry.counter("fg_reads").inc()
        holder = self._holder(request)
        if holder == request.client:
            # Relocation put the chunk on the client: a local read.
            self._finish_local(request, arrival, now)
            return
        if not self._unavailable(holder, now):
            handle = self.sim.submit_bulk(
                [(holder, request.client, float(request.size))],
                label=f"fg-read-s{request.stripe_id}",
                kind=FOREGROUND,
                meta=self._flow_meta(request),
            )
            self._pending[handle.task_id] = (
                request, arrival, False,
                frozenset((holder, request.client)), handle,
            )
            return
        self._submit_degraded_read(request, arrival, now)

    def _submit_degraded_read(
        self, request: ClientRequest, arrival: float, now: float
    ) -> None:
        stripe = self.stripes[request.stripe_id]
        holder = stripe.placement[request.chunk_index]
        candidates = [
            node
            for node in stripe.surviving_nodes(holder)
            if not self._unavailable(node, now) and node != request.client
        ]
        k = stripe.code.k
        if len(candidates) < k:
            self.registry.counter("fg_read_failures").inc()
            return
        snapshot = BandwidthSnapshot.from_network(self.network, now)
        try:
            plan = self.planner.plan(snapshot, request.client, candidates, k)
        except PlanningError:
            self.registry.counter("fg_read_failures").inc()
            return
        # The whole tree streams the requested range: each edge carries
        # the read size (pipeline fill is negligible at request sizes).
        edges = plan.tree.edges()
        handle = self.sim.submit_pipelined(
            edges,
            float(request.size),
            label=f"fg-dread-s{request.stripe_id}",
            kind=FOREGROUND,
            meta=self._flow_meta(request),
        )
        self.registry.counter("fg_degraded_reads").inc()
        touched = frozenset(
            node for edge in edges for node in edge
        ) | {request.client}
        self._pending[handle.task_id] = (
            request, arrival, True, touched, handle,
        )

    def _submit_write(
        self, request: ClientRequest, arrival: float, now: float
    ) -> None:
        self.registry.counter("fg_writes").inc()
        stripe = self.stripes[request.stripe_id]
        share = request.size / stripe.code.k
        transfers = []
        skipped = 0
        for chunk_index, node in enumerate(stripe.placement):
            node = self._relocated.get(
                (request.stripe_id, chunk_index), node
            )
            if node == request.client:
                continue  # local shard
            if self._unavailable(node, now):
                skipped += 1
                continue
            transfers.append((request.client, node, share))
        if skipped:
            self.registry.counter("fg_degraded_writes").inc()
        if not transfers:
            self._finish_local(request, arrival, now)
            return
        handle = self.sim.submit_bulk(
            transfers, label=f"fg-write-s{request.stripe_id}",
            kind=FOREGROUND, meta=self._flow_meta(request),
        )
        touched = frozenset(dst for _, dst, _ in transfers) | {request.client}
        self._pending[handle.task_id] = (
            request, arrival, False, touched, handle,
        )

    def _finish_local(
        self, request: ClientRequest, arrival: float, now: float
    ) -> None:
        self.registry.counter("fg_local").inc()
        self._record(
            RequestOutcome(
                request=request, arrival=arrival, finished=now, local=True
            )
        )

    def abort_on_crash(self) -> int:
        """Cancel in-flight flows crossing newly crashed nodes.

        A node crash zeroes its link capacities, so a flow already
        crossing it would sit at zero rate forever and wedge the drain.
        The repair drivers call this once per fault tick and
        :meth:`drain` once per iteration; the engine keeps the record
        of crashes already handled.  Aborted requests count under
        ``fg_aborted`` (plus ``fg_read_failures`` for reads) and produce
        no outcome, like any other failed request; a traced run carries
        one ``plane.fg_abort`` instant per batch.  Returns the number of
        flows cancelled.
        """
        sim = self._require_bound()
        if self.faults is None:
            return 0
        newly = self.faults.dead_nodes(sim.now) - self._handled_crashes
        if not newly:
            return 0
        self._handled_crashes |= newly
        aborted = 0
        for task_id in sorted(self._pending):
            request, _, _, touched, handle = self._pending[task_id]
            if not (touched & newly):
                continue
            del self._pending[task_id]
            sim.cancel_task(handle)
            aborted += 1
            self.registry.counter("fg_aborted").inc()
            if request.kind == READ:
                self.registry.counter("fg_read_failures").inc()
        if aborted and sim.tracer.enabled:
            sim.tracer.instant(
                "plane.fg_abort", t=sim.now, track="plane",
                nodes=sorted(newly), flows=aborted,
            )
        return aborted

    def _next_crash(self) -> float:
        """Earliest future failure of a node some pending flow touches."""
        if self.faults is None:
            return math.inf
        return self.faults.next_failure_affecting(
            (node for entry in self._pending.values() for node in entry[3]),
            self.sim.now,
        )

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def absorb(self, handles: Sequence[TaskHandle]) -> list[TaskHandle]:
        """Consume foreground completions; return the other handles."""
        others: list[TaskHandle] = []
        for handle in handles:
            entry = self._pending.pop(handle.task_id, None)
            if entry is None:
                others.append(handle)
                continue
            request, arrival, degraded = entry[0], entry[1], entry[2]
            self._record(
                RequestOutcome(
                    request=request,
                    arrival=arrival,
                    finished=handle.finish_time,
                    degraded=degraded,
                    bytes_moved=float(request.size),
                )
            )
        return others

    def _record(self, outcome: RequestOutcome) -> None:
        self.outcomes.append(outcome)
        latency = outcome.latency
        request = outcome.request
        tenant = request.tenant
        self.registry.counter("fg_bytes").inc(outcome.bytes_moved)
        self.registry.counter("fg_bytes", tenant=tenant).inc(
            outcome.bytes_moved
        )
        if request.kind == READ:
            self.registry.histogram("fg_read_latency").observe(latency)
            self.registry.histogram(
                "fg_read_latency", tenant=tenant
            ).observe(latency)
            if outcome.degraded:
                self.registry.histogram("fg_degraded_latency").observe(
                    latency
                )
            self._recent.append((outcome.finished, latency))
        else:
            self.registry.histogram("fg_write_latency").observe(latency)
        if self.tsdb is not None:
            series = (
                "fg_read_latency" if request.kind == READ
                else "fg_write_latency"
            )
            self.tsdb.record(
                series, outcome.finished, latency, tenant=tenant
            )
            self.tsdb.inc(
                "fg_bytes_total", outcome.finished, outcome.bytes_moved,
                tenant=tenant,
            )
            self.tsdb.inc(
                "fg_requests_total", outcome.finished, 1.0, tenant=tenant
            )

    def note_repaired(self, stripe: Stripe, chunk_index: int, node: int) -> None:
        """Record that a repair rebuilt a chunk on ``node``.

        Later reads of that chunk are served normally from the new holder
        — closing the loop between repair progress and client traffic.
        """
        self._relocated[(stripe.stripe_id, chunk_index)] = node

    # ------------------------------------------------------------------
    # Observation (what governors and reports read)
    # ------------------------------------------------------------------
    @property
    def pending_flows(self) -> int:
        return len(self._pending)

    @property
    def requests_remaining(self) -> int:
        return len(self._queue)

    @property
    def degraded_reads(self) -> int:
        return int(self.registry.counter("fg_degraded_reads").value)

    def read_latency(self) -> Histogram:
        return self.registry.histogram("fg_read_latency")

    def recent_read_p99(self, now: float) -> float:
        """p99 of read latencies completed in the trailing window.

        ``nan`` when no reads completed recently — governors treat that
        as "no signal" rather than "healthy".
        """
        cutoff = now - self.recent_window
        while self._recent and self._recent[0][0] < cutoff:
            self._recent.popleft()
        if not self._recent:
            return math.nan
        ordered = sorted(latency for _, latency in self._recent)
        rank = max(1, math.ceil(0.99 * len(ordered)))
        return ordered[rank - 1]

    def goodput(self) -> float:
        """Foreground bytes delivered per second of elapsed run time."""
        elapsed = self._require_bound().now - self._offset
        if elapsed <= 0:
            return 0.0
        return self.registry.counter("fg_bytes").value / elapsed

    def summary(self) -> dict:
        """JSON-friendly roll-up of the engine's metrics."""
        snapshot = self.registry.snapshot()
        counters = snapshot["counters"]
        out = {
            "requests": int(counters.get("fg_requests", 0)),
            "reads": int(counters.get("fg_reads", 0)),
            "writes": int(counters.get("fg_writes", 0)),
            "degraded_reads": int(counters.get("fg_degraded_reads", 0)),
            "degraded_writes": int(counters.get("fg_degraded_writes", 0)),
            "read_failures": int(counters.get("fg_read_failures", 0)),
            "local": int(counters.get("fg_local", 0)),
            "bytes": counters.get("fg_bytes", 0.0),
            "read_latency": snapshot["histograms"].get(
                "fg_read_latency", {"count": 0}
            ),
            "degraded_latency": snapshot["histograms"].get(
                "fg_degraded_latency", {"count": 0}
            ),
            "write_latency": snapshot["histograms"].get(
                "fg_write_latency", {"count": 0}
            ),
        }
        if self.sim is not None:
            out["goodput_bytes_per_second"] = self.goodput()
        return out
