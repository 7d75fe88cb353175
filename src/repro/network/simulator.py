"""Event-driven fluid-flow network simulator.

Models repair traffic as fluid tasks on a network topology whose link
capacities vary over time.  Any topology exposing ``capacities_at(t)``,
``edge_usage(src, dst)``, and ``next_change_after(t)`` works — the flat
:class:`~repro.network.topology.StarNetwork` of the paper's testbed and the
rack-based :class:`~repro.network.hierarchical.RackNetwork` of its
multi-layer discussion (Section IV-F) both do.  Between events every task transfers at a max-min
fair rate; events are (i) a task finishing and (ii) a capacity breakpoint.
This reproduces the quantity the paper's experiments measure — transfer time
under time-varying, shared bandwidth — without packet-level detail.

Two task shapes are supported:

* **Pipelined tasks** (RP chains, PPT/PivotRepair trees): every edge moves at
  one common rate; the task finishes when each edge has carried its bytes.
* **Bulk tasks** (conventional repair, PPR rounds): each edge is an
  independent flow; the task finishes when the *last* flow does.

Every task carries a **traffic class** (``kind``): repair traffic and
foreground client traffic compete max-min on the same links but are
accounted separately (:attr:`SimulatorStats.bytes_by_kind`) and traced on
distinguishable tracks, so interference between the two is observable
rather than baked into the capacities.

An event costs what changed, not what is live.  Each entity keeps its
residue as of the instant its rate last moved; a heap of finish times
gives the next finish; carried bytes are booked when an entity leaves.
A step that only moves the clock — or another component's arrival, or
a capacity breakpoint that changes no rate — touches no entity, and
every reader of carried bytes (``task_progress``, ``bytes_up``,
``stats`` …) computes ``settled + rate * (now - settled_at)`` without
storing it, so whether anyone looked never changes a float.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from heapq import heapify, heappop, heappush

from repro.exceptions import SimulationError
from repro.network.engine import IncrementalEngine
from repro.network.fairness import ReferenceEngine
from repro.network.topology import StarNetwork
from repro.obs.tracer import NULL_TRACER

#: Allocation engines by name: ``"fast"`` (component-local incremental
#: recompute) and ``"reference"`` (full reallocation of every task on
#: every event — the differential oracle).  The two are bit-identical
#: on every observable; see docs/fluid_engine.md.
_ENGINES = {"fast": IncrementalEngine, "reference": ReferenceEngine}

#: Engine used when ``FluidSimulator(engine=None)``.
DEFAULT_ENGINE = "fast"

#: Traffic classes whose per-reallocation ``flow.rate_change`` instants
#: are *not* traced.  Foreground flows are short and numerous, and no
#: analysis reads their instantaneous rates (``diagnose`` attributes
#: repair flows only; tenant blame uses their spans; the flight
#: recorder samples their aggregate) — tracing every max-min re-split
#: they trigger roughly doubles tracing's event volume for nothing.
_RATE_TRACE_EXCLUDE = frozenset({"foreground"})


def _check_max_rate(max_rate: float | None) -> None:
    """A rate cap is ``None`` (uncapped) or a positive number, ``inf``
    included; ``not > 0`` also refuses NaN, which no comparison binds."""
    if max_rate is not None and not max_rate > 0:
        raise SimulationError(f"max_rate must be positive, got {max_rate}")


@dataclass
class SimulatorStats:
    """Event-loop statistics: what the fluid model itself costs.

    ``steps`` counts event-loop advances (task finishes, capacity
    breakpoints, explicit ``advance_to`` targets); ``rate_recomputations``
    counts max-min fair re-allocations — the simulator's dominant cost:
    the observations at which the engine re-rated something.  On the
    fast engine a departure it certifies moves no rate
    (``IncrementalEngine.certified``), so it is not a re-allocation; a
    certified arrival still rates the new entity and still counts.
    """

    steps: int = 0
    rate_recomputations: int = 0
    tasks_submitted: int = 0
    tasks_completed: int = 0
    tasks_cancelled: int = 0
    #: Bytes carried per traffic class (summed over edges), e.g.
    #: ``{"repair": ..., "foreground": ...}``.  Partially-finished and
    #: cancelled tasks count what they actually moved.  Both byte
    #: fields are filled when :attr:`FluidSimulator.stats` is read.
    bytes_by_kind: dict[str, float] = field(default_factory=dict)
    #: Total bytes carried over all links (summed over edges), including
    #: what cancelled tasks moved before cancellation — e.g. a failed
    #: attempt's flow.  Always equals
    #: ``sum(bytes_by_kind.values())``.
    bytes_transferred: float = 0.0

    def as_dict(self) -> dict:
        return {
            "steps": self.steps,
            "rate_recomputations": self.rate_recomputations,
            "tasks_submitted": self.tasks_submitted,
            "tasks_completed": self.tasks_completed,
            "tasks_cancelled": self.tasks_cancelled,
            "bytes_by_kind": dict(sorted(self.bytes_by_kind.items())),
            "bytes_transferred": self.bytes_transferred,
        }


@dataclass
class TaskHandle:
    """Caller-visible state of a submitted task."""

    task_id: int
    label: str
    submit_time: float
    finish_time: float | None = None
    cancelled: bool = False
    #: Traffic class ("repair", "foreground", ...).
    kind: str = "repair"
    #: Fraction of the task's submitted bytes carried so far, frozen at
    #: cancellation time for cancelled tasks (1.0 once finished).  Live
    #: tasks are read through :meth:`FluidSimulator.task_progress`.
    progress: float = 0.0
    #: Bytes submitted, summed over the task's edges.
    submitted_bytes: float = 0.0
    #: Bytes its departed entities carried, summed over their edges
    #: (everything it carried once finished or cancelled).  Live tasks
    #: are read through :meth:`FluidSimulator.task_bytes_carried`.
    departed_bytes: float = 0.0

    @property
    def done(self) -> bool:
        return self.finish_time is not None

    @property
    def duration(self) -> float:
        if self.finish_time is None:
            raise SimulationError(f"task {self.label!r} has not finished")
        return self.finish_time - self.submit_time


@dataclass
class _Entity:
    """One max-min allocation entity: a set of edges at a common rate.

    ``remaining`` is the residue per edge *as of* ``settled_at``, the
    instant the entity's rate last moved; between two such instants the
    residue is a closed form, :meth:`residue_at`, that nobody stores.
    """

    task_id: int
    edges: list[tuple[int, int]]
    remaining: float
    #: Bytes the entity was submitted with (``remaining`` at creation).
    total: float = 0.0
    usage: dict = field(default_factory=dict)
    #: The allocator's output.  Equal to ``settled_rate`` except inside
    #: ``_ensure_rates``, between a solve and the settlement it causes.
    rate: float = 0.0
    #: Optional ceiling on the entity's rate (rate-throttled traffic).
    max_rate: float | None = None
    #: Traffic class the entity's bytes are accounted under.
    kind: str = "repair"
    #: Instant ``remaining`` is valid at.
    settled_at: float = 0.0
    #: Rate in force since ``settled_at``.
    settled_rate: float = 0.0
    #: ``settled_at + remaining / settled_rate``, computed once per rate
    #: move; ``inf`` at rate zero.  The heap entry carrying any other
    #: value for this entity is stale.
    finish_at: float = math.inf

    def residue_at(self, now: float) -> float:
        """Bytes per edge still to move at ``now`` (a pure read)."""
        return self.remaining - self.settled_rate * (now - self.settled_at)


@dataclass
class _Ledger:
    """Bytes carried: per node and direction, per class, in total.

    The simulator's own ledger is credited only when an entity leaves
    (its whole size when it finishes, what it carried when cancelled),
    so a drained run's sums are sums of submitted sizes, with no
    per-step rounding in them.
    """

    up: dict[int, float] = field(default_factory=dict)
    down: dict[int, float] = field(default_factory=dict)
    by_kind: dict[str, float] = field(default_factory=dict)
    total: float = 0.0

    def credit(self, entity: _Entity, carried: float) -> float:
        """Add ``carried`` bytes on each of the entity's edges; return
        their sum over the edges."""
        up, down = self.up, self.down
        for src, dst in entity.edges:
            up[src] = up.get(src, 0.0) + carried
            down[dst] = down.get(dst, 0.0) + carried
        moved = carried * len(entity.edges)
        self.by_kind[entity.kind] = (
            self.by_kind.get(entity.kind, 0.0) + moved
        )
        self.total += moved
        return moved


class FluidSimulator:
    """Fluid simulator over a star network with time-varying capacities."""

    def __init__(
        self,
        network,
        start_time: float = 0.0,
        tracer=NULL_TRACER,
        sampler=None,
        engine: str | None = None,
    ):
        self.network = network
        self.now = float(start_time)
        self.tracer = tracer
        if engine is None:
            engine = DEFAULT_ENGINE
        if engine not in _ENGINES:
            raise SimulationError(
                f"unknown engine {engine!r}; expected one of "
                f"{tuple(_ENGINES)}"
            )
        self._engine = _ENGINES[engine](network)
        #: Optional :class:`~repro.obs.sampler.FlightRecorder`.  ``None``
        #: (the default) costs one ``is not None`` guard per event-loop
        #: step and records nothing.
        self.sampler = sampler
        if sampler is not None:
            sampler.bind(self)
        #: The counters behind :attr:`stats` (its byte fields stay
        #: empty here; ``_ledger`` holds what departed entities carried).
        self._stats = SimulatorStats()
        self._ledger = _Ledger()
        self._entities: dict[int, _Entity] = {}
        #: ``(finish_at, entity_id)`` of every entity with a positive
        #: rate, plus entries a later rate move or departure made stale
        #: (dropped when they surface, or by :meth:`_schedule`'s rebuild).
        self._finish_heap: list[tuple[float, int]] = []
        #: Exact work counts of the event loop (plain ints, like the
        #: engine's: ``SimulatorStats.as_dict()`` feeds recorded digests
        #: and must not grow keys).  ``settlements``: entities whose
        #: residue was brought up to date — one per rate move, finish
        #: and cancellation, never one per step.
        self.settlements = 0
        self.heap_pushes = 0
        self.stale_pops = 0
        self._entity_ids = itertools.count()
        #: Live tasks only: a task enters both maps in ``_add_entities``
        #: and leaves them when its last entity finishes or it is
        #: cancelled, so ``len(_task_entities)`` is the live-task count
        #: and the event-loop guards never see a finished task.
        self._handles: dict[int, TaskHandle] = {}
        self._task_ids = itertools.count()
        self._task_entities: dict[int, set[int]] = {}
        self._task_tracks: dict[int, str] = {}
        self._task_spans: dict[int, int] = {}
        self._task_rates: dict[int, float] = {}
        #: Tasks whose aggregate may have moved without any surviving
        #: entity being re-rated (a bulk sibling finished); consumed by
        #: the next :meth:`_trace_rate_changes` scan.
        self._trace_dirty_tasks: set[int] = set()
        #: Bumped wherever the allocation may have moved (a submission,
        #: a re-cap, a cancellation, every clock advance): equal epochs
        #: mean equal rates, so a reader may keep what it derived from
        #: them.  The simulator's own rates and the planning layer's
        #: residual snapshot both do.
        self.rate_epoch = 0
        #: Epoch the entities' ``rate`` fields were last solved in.
        self._rated_epoch = -1

    # ------------------------------------------------------------------
    # Carried bytes: pure reads of the ledger
    # ------------------------------------------------------------------
    def _ledger_now(self) -> _Ledger:
        """What has crossed the links up to ``now``, as a fresh copy.

        The settled ledger plus each live entity's closed-form share —
        computed, never stored, so whether anyone looked changes no
        float of the run.
        """
        settled = self._ledger
        ledger = _Ledger(
            dict(settled.up), dict(settled.down), dict(settled.by_kind),
            settled.total,
        )
        now = self.now
        for entity in self._entities.values():
            carried = entity.total - entity.residue_at(now)
            if carried > 0:
                ledger.credit(entity, carried)
        return ledger

    def read_ledger(
        self,
    ) -> tuple[SimulatorStats, dict[int, float], dict[int, float]]:
        """``(stats, bytes_up, bytes_down)`` as of ``now``, from one
        ledger copy — what :attr:`stats`, :attr:`bytes_up` and
        :attr:`bytes_down` return, read together for a third of the
        cost."""
        ledger = self._ledger_now()
        stats = replace(
            self._stats, bytes_by_kind=ledger.by_kind,
            bytes_transferred=ledger.total,
        )
        return stats, ledger.up, ledger.down

    @property
    def stats(self) -> SimulatorStats:
        """Event-loop statistics as of ``now`` (a snapshot)."""
        return self.read_ledger()[0]

    @property
    def bytes_up(self) -> dict[int, float]:
        """Bytes each node has uploaded so far (live tasks included)."""
        return self._ledger_now().up

    @property
    def bytes_down(self) -> dict[int, float]:
        """Bytes each node has received so far (live tasks included)."""
        return self._ledger_now().down

    @property
    def total_bytes_transferred(self) -> float:
        """Total bytes moved over all links so far (sum over edges).

        ``stats.bytes_transferred`` without the snapshot: the same fold,
        in the same float order, over no copy.
        """
        total = self._ledger.total
        now = self.now
        for entity in self._entities.values():
            carried = entity.total - entity.residue_at(now)
            if carried > 0:
                total += carried * len(entity.edges)
        return total

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit_pipelined(
        self,
        edges: Sequence[tuple[int, int]],
        bytes_per_edge: float,
        label: str = "",
        max_rate: float | None = None,
        kind: str = "repair",
        parent_id: int | None = None,
        links: tuple[int, ...] = (),
        meta: dict | None = None,
    ) -> TaskHandle:
        """Submit a pipelined task: all edges share one rate.

        ``bytes_per_edge`` is the amount each edge must carry (for a repair
        tree, the chunk size plus pipeline fill overhead).  ``max_rate``
        throttles the pipeline (production systems rate-limit repair).
        ``kind`` is the traffic class the bytes are accounted under.
        ``parent_id`` / ``links`` attach the traced flow span to its
        causal parent and *follows-from* predecessors; ``meta`` adds
        caller fields (tenant, stripe, claimed bmin …) to the span.
        """
        if not edges:
            raise SimulationError("a pipelined task needs at least one edge")
        if bytes_per_edge <= 0:
            raise SimulationError("bytes_per_edge must be positive")
        _check_max_rate(max_rate)
        usage = self._usage_of(edges)
        handle = self._new_handle(label, kind)
        entity = _Entity(
            task_id=handle.task_id,
            edges=list(edges),
            remaining=float(bytes_per_edge),
            usage=usage,
            max_rate=max_rate,
            kind=kind,
        )
        self._add_entities(handle, [entity])
        if self.tracer.enabled:
            self._trace_submit(
                handle, list(edges), shape="pipelined",
                bytes_total=float(bytes_per_edge) * len(edges),
                parent_id=parent_id, links=links, meta=meta,
            )
        return handle

    def submit_bulk(
        self,
        transfers: Sequence[tuple[int, int, float]],
        label: str = "",
        max_rate: float | None = None,
        kind: str = "repair",
        parent_id: int | None = None,
        links: tuple[int, ...] = (),
        meta: dict | None = None,
    ) -> TaskHandle:
        """Submit independent flows (src, dst, bytes); done when all finish.

        ``max_rate`` caps each flow individually (e.g. replayed foreground
        traffic running at its recorded intensity).  ``kind`` is the
        traffic class the bytes are accounted under.  ``parent_id`` /
        ``links`` / ``meta`` behave as in :meth:`submit_pipelined`.
        """
        if not transfers:
            raise SimulationError("a bulk task needs at least one transfer")
        _check_max_rate(max_rate)
        usages = []
        for src, dst, size in transfers:
            if size <= 0:
                raise SimulationError("transfer size must be positive")
            usages.append(self._usage_of([(src, dst)]))
        handle = self._new_handle(label, kind)
        entities = [
            _Entity(
                task_id=handle.task_id,
                edges=[(src, dst)],
                remaining=float(size),
                usage=usage,
                max_rate=max_rate,
                kind=kind,
            )
            for (src, dst, size), usage in zip(transfers, usages)
        ]
        self._add_entities(handle, entities)
        if self.tracer.enabled:
            self._trace_submit(
                handle, [(src, dst) for src, dst, _ in transfers],
                shape="bulk",
                bytes_total=float(sum(size for _, _, size in transfers)),
                parent_id=parent_id, links=links, meta=meta,
            )
        return handle

    def _trace_submit(
        self,
        handle: TaskHandle,
        edges: list[tuple[int, int]],
        shape: str,
        bytes_total: float,
        parent_id: int | None = None,
        links: tuple[int, ...] = (),
        meta: dict | None = None,
    ) -> None:
        """Open a span for the task on its sink node's track.

        Repair flows keep the historical ``node:<sink>`` track; other
        traffic classes get ``<kind>:<sink>`` tracks so foreground flows
        stay visually and programmatically distinguishable in timelines
        and trace exports.
        """
        prefix = "node" if handle.kind == "repair" else handle.kind
        if len(edges) == 1:
            src, dst = edges[0]
            track = f"{prefix}:{dst}" if dst != src else "sim"
        else:
            sources = {src for src, _ in edges}
            sinks = {dst for _, dst in edges if dst not in sources}
            track = f"{prefix}:{min(sinks)}" if sinks else "sim"
        self._task_tracks[handle.task_id] = track
        # The begin event carries the whole submit payload; a separate
        # ``flow.submit`` instant would duplicate every field and double
        # the per-submission emission cost for nothing (no consumer ever
        # keyed on it).
        span_id = self.tracer.begin(
            "flow",
            t=self.now,
            track=track,
            parent_id=parent_id,
            links=links,
            label=handle.label,
            task=handle.task_id,
            shape=shape,
            kind=handle.kind,
            edges=edges,
            bytes_total=bytes_total,
            **(meta or {}),
        )
        self._task_spans[handle.task_id] = span_id

    def _usage_of(self, edges) -> dict:
        """Aggregate topology resource usage of a set of edges.

        Checked here, before a submission touches any state: a negative
        coefficient is rejected before the task has a handle or an
        entity, so the simulator carries on as if it was never asked.
        """
        usage: dict = {}
        for src, dst in edges:
            for resource, coefficient in self.network.edge_usage(
                src, dst
            ).items():
                if coefficient < 0:
                    raise SimulationError(
                        f"edge {src}->{dst} has negative usage coefficient "
                        f"{coefficient} on {resource}"
                    )
                usage[resource] = usage.get(resource, 0.0) + coefficient
        return usage

    def _new_handle(self, label: str, kind: str = "repair") -> TaskHandle:
        if not kind:
            raise SimulationError("task kind cannot be empty")
        task_id = next(self._task_ids)
        handle = TaskHandle(
            task_id=task_id, label=label or f"task-{task_id}",
            submit_time=self.now, kind=kind,
        )
        self._stats.tasks_submitted += 1
        return handle

    def _add_entities(
        self, handle: TaskHandle, entities: list[_Entity]
    ) -> None:
        members: set[int] = set()
        for entity in entities:
            entity.total = entity.remaining
            entity.settled_at = self.now
            entity_id = next(self._entity_ids)
            self._entities[entity_id] = entity
            members.add(entity_id)
            self._engine.add_entity(entity_id, entity)
        self._handles[handle.task_id] = handle
        self._task_entities[handle.task_id] = members
        handle.submitted_bytes = sum(e.total * len(e.edges) for e in entities)
        self.rate_epoch += 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def active_task_count(self) -> int:
        return len(self._task_entities)

    def current_rate(self, handle: TaskHandle) -> float:
        """Aggregate current rate of a task (sum over its live entities).

        Forces a solve, like :meth:`current_usage`: a simulation input,
        not a pure read (:meth:`_settle`).
        """
        self._ensure_rates()
        ids = self._task_entities.get(handle.task_id, set())
        return sum(self._entities[i].rate for i in ids)

    def task_span(self, handle: TaskHandle) -> int | None:
        """Trace span id of a live task's flow span (None untraced/done).

        Lets orchestrators record causal ``follows_from`` links from a
        flow that is being cancelled to its successor (re-plan, journal
        resume) before the span is closed.
        """
        return self._task_spans.get(handle.task_id)

    def task_progress(self, handle: TaskHandle) -> float:
        """Fraction of the task's submitted bytes carried so far.

        Finished tasks report ``1.0``; cancelled tasks report the fraction
        frozen at cancellation time.  This is the simulator-side hook the
        resilience layer uses to derive slice-level watermarks.
        """
        if handle.done or handle.cancelled:
            return handle.progress
        total = handle.submitted_bytes
        if total <= 0:
            return 0.0
        return max(0.0, min(1.0, self.task_bytes_carried(handle) / total))

    def task_bytes_carried(self, handle: TaskHandle) -> float:
        """Bytes the task has moved so far, summed over its edges.

        The one ledger of how far a task is: what its departed entities
        carried plus the closed-form share of the live ones.
        :meth:`task_progress` is this over the submitted total.
        """
        carried = handle.departed_bytes
        now = self.now
        for entity_id in self._task_entities.get(handle.task_id, ()):
            entity = self._entities[entity_id]
            carried += (entity.total - entity.residue_at(now)) * len(
                entity.edges
            )
        return carried

    def current_usage(self) -> tuple[dict[int, float], dict[int, float]]:
        """Bandwidth currently consumed by live tasks, per node.

        Returns (uplink usage, downlink usage) in bytes/second.  This is
        what a Master observes on top of foreground traffic and must
        subtract when planning new repairs next to running ones.
        """
        self._ensure_rates()
        up: dict[int, float] = {}
        down: dict[int, float] = {}
        for entity in self._entities.values():
            for (kind, node), coefficient in entity.usage.items():
                if kind == "up":
                    up[node] = up.get(node, 0.0) + coefficient * entity.rate
                elif kind == "down":
                    down[node] = (
                        down.get(node, 0.0) + coefficient * entity.rate
                    )
                # Rack-level resources are not per-node usage.
        return up, down

    # ------------------------------------------------------------------
    # Rate control
    # ------------------------------------------------------------------
    def set_task_max_rate(
        self, handle: TaskHandle, max_rate: float | None
    ) -> None:
        """Re-cap a running task's rate (QoS governors retune repair).

        Applies to every live entity of the task (each bulk flow is capped
        individually, matching submission semantics); ``None`` removes the
        cap.  A no-op on finished or cancelled tasks.
        """
        _check_max_rate(max_rate)
        entity_ids = self._task_entities.get(handle.task_id, set())
        changed = False
        for entity_id in entity_ids:
            entity = self._entities[entity_id]
            if entity.max_rate != max_rate:
                entity.max_rate = max_rate
                changed = True
                self._engine.touch(entity_id)
        if changed:
            self.rate_epoch += 1

    # ------------------------------------------------------------------
    # Cancellation
    # ------------------------------------------------------------------
    def cancel_task(self, handle: TaskHandle) -> float:
        """Kill a task's remaining flows (e.g. its tree lost a node).

        Bytes the task already moved stay counted in ``bytes_up`` /
        ``bytes_down`` — they really crossed the links — but the task
        never completes and its handle is marked ``cancelled``.  Returns
        the bytes left uncarried at cancellation time (summed over the
        task's live entities).
        """
        if handle.done:
            raise SimulationError(
                f"cannot cancel finished task {handle.label!r}"
            )
        if handle.cancelled:
            raise SimulationError(
                f"task {handle.label!r} is already cancelled"
            )
        handle.progress = self.task_progress(handle)
        entity_ids = self._task_entities.pop(handle.task_id, ())
        self._handles.pop(handle.task_id, None)
        remaining = 0.0
        for entity_id in sorted(entity_ids):
            entity = self._entities.pop(entity_id)
            self._settle(entity)
            remaining += entity.remaining
            self._credit(handle, entity, entity.total - entity.remaining)
            self._engine.remove_entity(entity_id)
        handle.cancelled = True
        self._stats.tasks_cancelled += 1
        self.rate_epoch += 1
        if self.tracer.enabled:
            track = self._task_tracks.pop(handle.task_id, "sim")
            self._task_rates.pop(handle.task_id, None)
            span_id = self._task_spans.pop(handle.task_id, None)
            self.tracer.instant(
                "flow.cancel", t=self.now, track=track, parent_id=span_id,
                label=handle.label, task=handle.task_id,
                bytes_remaining=remaining,
            )
            if span_id is not None:
                self.tracer.end(
                    "flow", t=self.now, span_id=span_id, track=track,
                    cancelled=True,
                )
        return remaining

    # ------------------------------------------------------------------
    # Time advancement
    # ------------------------------------------------------------------
    def run(self, max_time: float = math.inf) -> list[TaskHandle]:
        """Run until every submitted task completes (or ``max_time``).

        Returns handles of tasks completed during this call.  A bound
        already in the past leaves nothing to do: ``[]``, ``now``
        unchanged.
        """
        completed: list[TaskHandle] = []
        while self._task_entities:
            newly = self._advance(max_time)
            completed.extend(newly)
            if self.now >= max_time:
                break
        return completed

    def advance_to(self, t: float) -> list[TaskHandle]:
        """Advance simulated time to ``t``, processing any events on the way.

        Used to model serial planning delays at the Master: time passes (and
        running tasks make progress) while a plan is being computed.
        Returns tasks that completed before ``t``.
        """
        if t < self.now:
            raise SimulationError(
                f"cannot advance to {t} before current time {self.now}"
            )
        completed: list[TaskHandle] = []
        while self.now < t and self._task_entities:
            completed.extend(self._advance(t))
        if self.sampler is not None and t > self.now:
            # Idle jump (no live tasks): sample the quiet gap too, so the
            # recorded series stays aligned across the whole run.
            self.sampler.on_window(self.now, t, ())
        self.now = max(self.now, t)
        self.rate_epoch += 1
        return completed

    def run_until_completion(
        self, max_time: float = math.inf
    ) -> list[TaskHandle]:
        """Advance until at least one task completes; return the finishers.

        Lets an orchestrator (e.g., the full-node scheduler) react to each
        completion by submitting more work.  Returns an empty list if no
        task is active, ``max_time`` was hit first, or ``max_time`` is
        already in the past.
        """
        while self._task_entities:
            newly = self._advance(max_time)
            if newly or self.now >= max_time:
                return newly
        return []

    def _advance(self, max_time: float) -> list[TaskHandle]:
        """Advance to the next event; return tasks that completed at it.

        A ``max_time`` already in the past is no event at all: nothing
        moves and the callers' ``now >= max_time`` checks end their
        loops.  Otherwise the step costs what changed, not what is
        live: the next finish is the top of ``_finish_heap``, and only
        the entities finishing at this event are touched — every other
        residue is a closed form of the clock (:meth:`_Entity.residue_at`)
        that moves by itself.  An entity finishes in the step that ends
        within 1e-9 s of its ``finish_at``: once ``now`` is large, a
        residue draining faster than the float resolution of ``now``
        would otherwise schedule zero-length advances, and finishers of
        one instant must reach the orchestrator together.  They are
        processed in entity-id, i.e. submission, order.  Recorded
        digests depend on the exact float operations here and in
        :meth:`_settle` / :meth:`_schedule`.
        """
        now = self.now
        if max_time < now:
            return []
        self._ensure_rates()
        entities = self._entities
        heap = self._finish_heap
        while heap:
            finish_at, entity_id = heap[0]
            entity = entities.get(entity_id)
            if entity is not None and entity.finish_at == finish_at:
                break
            heappop(heap)
            self.stale_pops += 1
        next_event = min(
            self.network.next_change_after(now),
            heap[0][0] if heap else math.inf,
            max_time,
        )
        if not math.isfinite(next_event):
            raise SimulationError(self._stuck_report())
        if next_event < now:
            raise SimulationError("time went backwards")
        if self.sampler is not None:
            self.sampler.on_window(now, next_event, entities.values())
        self.now = next_event
        stats = self._stats
        stats.steps += 1
        self.rate_epoch += 1

        finished: list[tuple[int, _Entity]] = []
        while heap and heap[0][0] - next_event < 1e-9:
            finish_at, entity_id = heappop(heap)
            entity = entities.get(entity_id)
            if entity is not None and entity.finish_at == finish_at:
                del entities[entity_id]
                finished.append((entity_id, entity))
            else:
                self.stale_pops += 1
        if len(finished) > 1:
            finished.sort()

        completed: list[TaskHandle] = []
        tracing = self.tracer.enabled
        for entity_id, entity in finished:
            # Finishing is exact: whatever rounding the residue picked
            # up, the entity carried the bytes it was submitted with.
            self.settlements += 1
            task_id = entity.task_id
            self._credit(self._handles[task_id], entity, entity.total)
            self._engine.remove_entity(entity_id)
            members = self._task_entities[task_id]
            members.discard(entity_id)
            if members:
                if tracing:
                    # The task lives on with one transfer fewer: its
                    # aggregate rate dropped even if no surviving entity
                    # is re-rated, so the next scan must visit it.
                    self._trace_dirty_tasks.add(task_id)
                continue
            del self._task_entities[task_id]
            handle = self._handles.pop(task_id)
            handle.finish_time = next_event
            handle.progress = 1.0
            completed.append(handle)
            stats.tasks_completed += 1
            if tracing:
                track = self._task_tracks.pop(task_id, "sim")
                self._task_rates.pop(task_id, None)
                span_id = self._task_spans.pop(task_id, None)
                # The span end doubles as the finish record (label,
                # task, duration ride on it) — a separate
                # ``flow.finish`` instant would double the emission
                # cost of every completion.
                if span_id is not None:
                    self.tracer.end(
                        "flow", t=next_event, span_id=span_id,
                        track=track, label=handle.label,
                        task=task_id,
                        duration=handle.finish_time - handle.submit_time,
                    )
        return completed

    # ------------------------------------------------------------------
    # Settlement: the only writers of carried bytes
    # ------------------------------------------------------------------
    def _settle(self, entity: _Entity) -> None:
        """Bring ``entity.remaining`` up to ``now``.

        Called when the simulation itself moves the entity — its rate
        changed or it was cancelled — and nowhere else; with no time
        elapsed it subtracts ``rate * 0.0`` and changes no bit.  A
        solve is such a move, so the readers that force one
        (:meth:`current_rate`, :meth:`current_usage`) are inputs of the
        simulation, not free observers: between two mutations of one
        instant that move a rate and move it back to the bit, a solve
        settles the entity where none would have, and its finish time
        may differ in the last bits.  Every other extra solve changes no float.
        """
        now = self.now
        entity.remaining -= entity.settled_rate * (now - entity.settled_at)
        entity.settled_at = now
        self.settlements += 1

    def _schedule(self, entity_id: int, entity: _Entity) -> None:
        """The entity's rate moved at ``now``: settle it at the old
        rate, adopt the new one, and push its new finish time."""
        self._settle(entity)
        rate = entity.settled_rate = entity.rate
        if rate <= 0:
            entity.finish_at = math.inf
            return
        finish_at = self.now + max(entity.remaining, 0.0) / rate
        entity.finish_at = finish_at
        heap = self._finish_heap
        heappush(heap, (finish_at, entity_id))
        self.heap_pushes += 1
        if len(heap) > 2 * len(self._entities) + 64:
            # Mostly stale (a re-cap storm re-pushes the same entities):
            # rebuild from the live ones, amortised over the pushes
            # that grew it.
            heap[:] = [
                (e.finish_at, i) for i, e in self._entities.items()
                if e.finish_at < math.inf
            ]
            heapify(heap)

    def _credit(
        self, handle: TaskHandle, entity: _Entity, carried: float
    ) -> None:
        """Book what a departing entity carried (per edge) in the
        ledger and on its task's handle."""
        if carried > 0:
            handle.departed_bytes += self._ledger.credit(entity, carried)

    def _stuck_report(self) -> str:
        """Message of the stuck error: who starves, and on what.

        Every live entity has zero rate and the network will never
        change again.  Names up to five starved tasks and, for each, the
        resources it crosses whose capacity is 0 at ``now``.
        """
        capacities = self.network.capacities_at(self.now)
        starved = []
        for task_id, entity_ids in itertools.islice(
            self._task_entities.items(), 5
        ):
            crossed = set()
            for entity_id in entity_ids:
                crossed.update(self._entities[entity_id].usage)
            dead = sorted(
                (r for r in crossed if capacities.get(r, 0.0) <= 0.0),
                key=repr,
            )
            blocked = (
                "zero capacity on " + ", ".join(map(repr, dead))
                if dead
                else "no zero-capacity resource"
            )
            starved.append(f"{self._handles[task_id].label!r} ({blocked})")
        more = len(self._task_entities) - len(starved)
        return (
            "simulation is stuck: active tasks have zero rate and no "
            "future capacity change will unblock them; starved at "
            f"t={self.now}: " + "; ".join(starved)
            + (f"; and {more} more" if more > 0 else "")
        )

    def _ensure_rates(self) -> None:
        if self._rated_epoch == self.rate_epoch:
            return
        self._rated_epoch = self.rate_epoch
        # The engine re-solves what the epoch change may have moved (the
        # fast one only the perturbed components, if any: a pure time
        # advance inside a capacity epoch with nothing dirty recomputes
        # nothing) and says whether a solve ran.
        entities = self._entities
        if self._engine.ensure(self.now):
            self._stats.rate_recomputations += 1
            # An entity is settled when, and only when, its rate moved.
            moved = self._engine.last_changed
            for entity_id in moved:
                self._schedule(entity_id, entities[entity_id])
        elif self._trace_dirty_tasks:
            # A task that lost a bulk sibling is traced now, solve or not.
            moved = ()
        else:
            return
        if self.tracer.enabled and entities:
            self._trace_rate_changes(moved)

    def _trace_rate_changes(self, moved) -> None:
        """Emit ``flow.rate_change`` for tasks whose aggregate rate moved.

        Only the tasks owning the ``moved`` entity ids, plus those that
        lost a bulk sibling since the last scan, are visited: every
        other task kept its rate by construction, and rescanning every
        live task would make tracing an O(tasks) tax per solve.  Task
        ids are assigned from a monotonic counter, so iterating them
        sorted reproduces a full scan's insertion order
        (``tests/network/trace_scan_oracle.py`` is that scan).
        """
        entities = self._entities
        task_entities = self._task_entities
        task_rates = self._task_rates
        seen = self._trace_dirty_tasks
        for entity_id in moved:
            entity = entities.get(entity_id)
            if entity is not None:
                seen.add(entity.task_id)
        task_ids = sorted(seen) if len(seen) > 1 else tuple(seen)
        self._trace_dirty_tasks = set()
        emit = self.tracer.instant
        handles = self._handles
        for task_id in task_ids:
            entity_ids = task_entities.get(task_id)
            if not entity_ids:
                continue
            if handles[task_id].kind in _RATE_TRACE_EXCLUDE:
                continue
            rate = 0.0
            for entity_id in entity_ids:
                rate += entities[entity_id].rate
            previous = task_rates.get(task_id)
            if previous is not None and abs(rate - previous) <= 1e-9:
                continue
            task_rates[task_id] = rate
            emit(
                "flow.rate_change",
                t=self.now,
                track=self._task_tracks.get(task_id, "sim"),
                parent_id=self._task_spans.get(task_id),
                label=self._handles[task_id].label,
                task=task_id,
                rate=rate,
            )
