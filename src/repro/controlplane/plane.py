"""Fleet-level repair control plane: admission, backpressure, degradation.

One :class:`ControlPlane` arbitrates N concurrent full-node repair jobs
(:class:`~repro.repair.jobmaster.StripeRepairMaster`, one per failed
node) over a single shared :class:`~repro.network.simulator.FluidSimulator`:

* the single job's Eq. 3 round (:func:`~repro.repair.fullnode.eq3_round`)
  picks *which* admitted job's head stripe starts next (recommendation
  value across the whole fleet's running tasks, the earlier job on a
  tie; QoS acts through admission and shed order), gated by the
  admission tokens;
* the admission gate (:mod:`repro.controlplane.admission`) bounds
  concurrent repair streams and admitted jobs, with priority aging so
  no queued job starves;
* the backpressure monitor (:mod:`repro.controlplane.backpressure`)
  sheds load — pausing the lowest-priority admitted job, checkpointed
  through the resilience journal so resume re-transfers nothing — when
  foreground SLOs burn or link saturation spreads;
* a degradation ladder escalates repeatedly-faulted jobs to fewer
  helpers and coarser slices instead of letting them fail.

**Drain-order invariant**: every enqueued job eventually reaches a
terminal state — all of its stripes repaired or surfaced as clean
``RepairFailed`` — because (i) at least ``MIN_ACTIVE_JOBS`` admitted
jobs always keep running, (ii) a fleet that has gone idle force-starts
the best head below the Eq. 3 threshold after ``MAX_IDLE_WAIT``,
and (iii) paused jobs are force-resumed once no admitted job has work
left, even if pressure never formally relieves.
See docs/control_plane.md for the state machine.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field

from repro.core.scheduler import SchedulerConfig
from repro.exceptions import ClusterError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.network.simulator import FluidSimulator
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER
from repro.repair.fullnode import eq3_round
from repro.repair.jobmaster import StripeRepairMaster
from repro.repair.metrics import FullNodeResult
from repro.repair.pipeline import ExecutionConfig

from repro.controlplane.admission import (
    AdmissionConfig,
    AdmissionController,
    QOS_CLASSES,
    QoSClass,
)
from repro.controlplane.backpressure import (
    CHECK_INTERVAL,
    MIN_ACTIVE_JOBS,
    BackpressureConfig,
    BackpressureMonitor,
)

__all__ = [
    "RepairJob",
    "FleetResult",
    "ControlPlane",
]

# A job's degradation level: 0 is normal planning; level 1 trims helper
# candidate sets to exactly ``k``; level 2 additionally coarsens slice
# width and caps the submit rate (see ``StripeRepairMaster``).  Levels
# never relax within a run (a cluster sick enough to escalate does not
# deserve the benefit of the doubt mid-storm).
#: Cumulative fault-requeue events per escalation step.
DEGRADE_AFTER = 2
#: The highest degradation level.
MAX_DEGRADE_LEVEL = 2


@dataclass
class RepairJob:
    """One enqueued full-node repair and its control-plane state."""

    job_id: str
    index: int
    master: StripeRepairMaster
    qos: QoSClass
    enqueued_at: float
    #: ``queued`` → ``admitted`` ⇄ ``paused`` → ``done``.
    state: str = "queued"
    admitted_at: float | None = None
    result: FullNodeResult | None = None

    @property
    def terminal(self) -> bool:
        return self.state == "done"


@dataclass
class FleetResult:
    """Outcome of a control-plane run."""

    total_seconds: float
    #: job_id -> per-job outcome, in enqueue order.
    jobs: dict[str, FullNodeResult] = field(default_factory=dict)
    #: job_id -> True once the job drained (all stripes repaired/failed).
    completed: dict[str, bool] = field(default_factory=dict)
    #: job_id -> QoS class name.
    qos: dict[str, str] = field(default_factory=dict)
    #: The admission controller's deterministic decision log.
    decisions: list[dict] = field(default_factory=list)

    def decision_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for entry in self.decisions:
            counts[entry["action"]] = counts.get(entry["action"], 0) + 1
        return dict(sorted(counts.items()))

    @property
    def chunks_repaired(self) -> int:
        return sum(r.chunks_repaired for r in self.jobs.values())

    @property
    def chunks_failed(self) -> int:
        return sum(r.chunks_failed for r in self.jobs.values())


class ControlPlane:
    """Run N repair jobs over one simulator under admission control."""

    def __init__(
        self,
        sim: FluidSimulator,
        network,
        *,
        scheduler: SchedulerConfig | None = None,
        admission: AdmissionConfig | None = None,
        backpressure: BackpressureConfig | None = None,
        faults: FaultPlan | None = None,
        tracer=NULL_TRACER,
        foreground=None,
        slo_monitor=None,
        journal=None,
    ):
        self.sim = sim
        #: Fault-wrapped topology shared by every master (wrap once —
        #: the caller passes ``FaultyNetwork.wrap(network, faults)``).
        self.network = network
        self.scheduler = scheduler or SchedulerConfig()
        self.admission = AdmissionController(admission)
        self.backpressure = BackpressureMonitor(backpressure, slo_monitor)
        self.faults = faults
        self.tracer = tracer
        self.foreground = foreground
        self.journal = journal
        self.registry = MetricsRegistry()
        #: One injector for the whole fleet; every master is
        #: re-pointed at it so a fault event announces exactly once.
        self.injector = FaultInjector(
            faults if faults is not None else FaultPlan.none(),
            tracer, self.registry,
        )
        self.jobs: list[RepairJob] = []
        if foreground is not None:
            foreground.bind(sim, network, faults)

    # ------------------------------------------------------------------
    # Job intake
    # ------------------------------------------------------------------
    def add_job(
        self,
        job_id: str,
        planner,
        stripes,
        failed_node: int,
        qos: str | QoSClass = "silver",
        *,
        config: ExecutionConfig | None = None,
        retry_policy=None,
    ) -> RepairJob:
        """Enqueue one full-node repair; it starts only when admitted."""
        if any(job.job_id == job_id for job in self.jobs):
            raise ClusterError(f"duplicate job id {job_id!r}")
        if isinstance(qos, str):
            try:
                qos = QOS_CLASSES[qos]
            except KeyError:
                raise ClusterError(
                    f"unknown QoS class {qos!r}; "
                    f"expected one of {sorted(QOS_CLASSES)}"
                ) from None
        master = StripeRepairMaster(
            job_id, planner, self.network, stripes, failed_node,
            sim=self.sim, scheme=f"{planner.name}+plane", config=config,
            tracer=self.tracer, faults=self.faults,
            retry_policy=retry_policy, journal=self.journal,
        )
        master.advance = self._routed_advance
        master.injector = self.injector
        if self.foreground is not None:
            master.on_chunk_repaired = self.foreground.note_repaired
        job = RepairJob(
            job_id=job_id, index=len(self.jobs), master=master, qos=qos,
            enqueued_at=self.sim.now,
        )
        self.jobs.append(job)
        self.admission.record(
            self.sim.now, "enqueue", job, qos=qos.name,
            stripes=len(master.pending),
        )
        return job

    # ------------------------------------------------------------------
    # Clock plumbing: every advance routes completions to their master
    # ------------------------------------------------------------------
    def _routed_advance(self, t: float) -> list:
        """Advance the shared clock to ``t``; deliver completions.

        Installed as every master's ``advance`` hook, so a
        detection window opened by one job still completes and delivers
        *another* job's tasks.  Returns ``[]`` — ownership routing
        already collected everything.
        """
        if self.foreground is not None:
            done = self.foreground.drive_to(t)
        else:
            done = self.sim.advance_to(t)
        self._route(done)
        return []

    def _run_until_event(self, bound: float) -> None:
        if self.foreground is not None:
            done = self.foreground.run_until_repair_event(max_time=bound)
        else:
            done = self.sim.run_until_completion(max_time=bound)
        self._route(done)
        if self.sim.now < bound and not done:
            # Nothing live could advance the clock (fleet fully idle):
            # jump to the bound so aging/backpressure still make progress.
            self._routed_advance(bound)

    def _route(self, handles) -> None:
        """Hand each finished task to the master it is in flight for."""
        for handle in handles:
            for job in self.jobs:
                if handle.task_id in job.master.in_flight:
                    job.master.collect([handle])
                    break

    # ------------------------------------------------------------------
    # Control steps
    # ------------------------------------------------------------------
    def _admitted(self) -> list[RepairJob]:
        return [job for job in self.jobs if job.state == "admitted"]

    def _paused(self) -> list[RepairJob]:
        return [job for job in self.jobs if job.state == "paused"]

    def _queued(self) -> list[RepairJob]:
        return [job for job in self.jobs if job.state == "queued"]

    def _tick_faults(self) -> None:
        self.injector.announce_until(self.sim.now)
        if self.foreground is not None:
            self.foreground.abort_on_crash()
        for job in self._admitted():
            job.master.tick()
            requeues = job.master.requeue_events
            level = min(MAX_DEGRADE_LEVEL, requeues // DEGRADE_AFTER)
            if job.master.degrade_to(level):
                self.admission.record(
                    self.sim.now, "degrade", job, level=level,
                    requeues=requeues,
                )

    def _backpressure_step(self) -> None:
        now = self.sim.now
        admitted = self._admitted()
        paused = self._paused()
        overloaded, detail = self.backpressure.overloaded(self.sim)
        if overloaded and len(admitted) > MIN_ACTIVE_JOBS:
            # Shed one job per evaluation — gentle, hysteresis does the
            # rest.  Only jobs actually holding streams relieve pressure.
            candidates = [j for j in admitted if j.master.in_flight]
            victim = self.admission.pick_shed(candidates or admitted, now)
            if victim is not None:
                released = victim.master.pause()
                victim.state = "paused"
                self.admission.record(
                    now, "shed", victim,
                    breadth=round(detail["breadth"], 6),
                    firing=detail["firing"],
                    released_bytes=released,
                )
                if self.tracer.enabled:
                    self.tracer.instant(
                        "plane.shed", t=now, track="plane",
                        job=victim.job_id, breadth=detail["breadth"],
                        firing=detail["firing"],
                    )
            return
        if not paused:
            return
        relieved, detail = self.backpressure.relieved(self.sim)
        admitted_runnable = any(
            job.master.pending or job.master.in_flight for job in admitted
        )
        if not relieved and admitted_runnable:
            return
        # Relieved — or nothing admitted can run anymore, in which case
        # the drain-order invariant forces a resume regardless.
        job = self.admission.pick_resume(paused, now)
        if job is None:
            return
        job.state = "admitted"
        job.master.note_resumed()
        self.admission.record(
            now, "resume" if relieved else "resume_forced", job,
            breadth=round(detail["breadth"], 6), firing=detail["firing"],
        )
        if self.tracer.enabled:
            self.tracer.instant(
                "plane.resume", t=now, track="plane", job=job.job_id,
                forced=not relieved,
            )

    def _admission_step(self) -> None:
        now = self.sim.now
        while True:
            queued = self._queued()
            if not queued:
                return
            held = len(self._admitted()) + len(self._paused())
            if not self.admission.may_admit_job(held):
                return
            job = self.admission.pick_admit(queued, now)
            job.state = "admitted"
            job.admitted_at = now
            self.admission.record(
                now, "admit", job,
                priority=self.admission.effective_priority(job, now),
                waited=now - job.enqueued_at,
            )
            if self.tracer.enabled:
                self.tracer.instant(
                    "plane.admit", t=now, track="plane", job=job.job_id,
                    qos=job.qos.name, waited=now - job.enqueued_at,
                )

    def _dispatch(self) -> None:
        """The Eq. 3 round over admitted jobs' head stripes, gated by
        the stream tokens."""
        eq3_round(self._offers, self.scheduler, on_start=self._started)

    def _offers(self) -> list[tuple[StripeRepairMaster, int]]:
        admitted = self._admitted()
        if not self.admission.may_start_stream(
            sum(len(job.master.in_flight) for job in admitted)
        ):
            return []
        return [(job.master, 1) for job in admitted]

    def _started(self, master, flight, value: float) -> None:
        job = next(job for job in self.jobs if job.master is master)
        self.admission.record(
            self.sim.now, "start", job, stripe=flight.stripe.stripe_id,
            value=value, start_slice=flight.start_slice,
        )

    def _finalize_done(self) -> None:
        for job in self.jobs:
            if job.state in ("admitted", "paused") and job.master.done:
                job.state = "done"
                job.result = job.master.build_result()
                self.admission.record(
                    self.sim.now, "complete", job,
                    repaired=len(job.master.results),
                    failed=len(job.master.failures),
                )
                job.master.record(
                    "job_done", repaired=len(job.master.results),
                    failed=len(job.master.failures),
                )
                if self.tracer.enabled:
                    self.tracer.instant(
                        "plane.complete", t=self.sim.now, track="plane",
                        job=job.job_id,
                        repaired=len(job.master.results),
                        failed=len(job.master.failures),
                    )

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self, max_time: float = math.inf) -> FleetResult:
        """Drive every job to a terminal state (bounded by ``max_time``)."""
        if not self.jobs:
            raise ClusterError("control plane has no jobs to run")
        start = self.sim.now
        with contextlib.ExitStack() as stack:
            for planner in dict.fromkeys(
                job.master.planner for job in self.jobs
            ):
                stack.enter_context(planner.traced(self.tracer))
            while not all(job.terminal for job in self.jobs):
                self._tick_faults()
                self._backpressure_step()
                self._admission_step()
                self._dispatch()
                self._finalize_done()
                if all(job.terminal for job in self.jobs):
                    break
                if self.sim.now >= max_time:
                    break
                self._run_until_event(self._event_bound(max_time))
                self._finalize_done()
        result = FleetResult(
            total_seconds=self.sim.now - start,
            decisions=list(self.admission.decisions),
        )
        for job in self.jobs:
            outcome = job.result if job.result is not None \
                else job.master.build_result()
            result.jobs[job.job_id] = outcome
            result.completed[job.job_id] = job.master.done
            result.qos[job.job_id] = job.qos.name
        return result

    def _event_bound(self, max_time: float) -> float:
        bound = self.sim.now + CHECK_INTERVAL
        for job in self._admitted():
            bound = min(
                bound,
                job.master.run_bound(),
            )
        return min(bound, max_time)
