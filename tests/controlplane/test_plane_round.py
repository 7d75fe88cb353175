"""The control plane's dispatch is the shared Eq. 3 round.

* **Idle path** — a plane whose threshold no value clears must still
  drain (drain-order invariant (ii)): with nothing running it re-checks
  every ``IDLE_CHECK_INTERVAL`` and force-starts the best head once
  ``MAX_IDLE_WAIT`` has passed.  ``run_storm`` never reaches this path
  (its thresholds are 0 and -1e30, and with nothing running Eq. 3 is
  ``B_min`` >= 0), so the plane is built directly here.  The test sets
  both constants to values off the plane's 0.5 s ``CHECK_INTERVAL``
  grid, so a plane that waited out idle time in main-loop steps would
  start at 3.0, outside the window.
* **Pruning** — the round plans only the heads whose
  ``recommendation_ceiling`` can win.  With every ceiling ``inf`` it
  plans every head, as the plane did before it shared the round; the
  two storms must start the same stripes with the same plans and write
  the same journal, and differ only in fewer ``planner.*`` and
  ``scheduler.recommendation`` events.
"""

import math
from unittest import mock

import numpy as np
import pytest

import repro.repair.fullnode as fullnode
from repro.controlplane import ControlPlane
from repro.controlplane.storm import StormConfig, run_storm
from repro.core import PivotRepairPlanner, pin_planning
from repro.core.scheduler import SchedulerConfig
from repro.ec import RSCode, place_stripes
from repro.network.simulator import FluidSimulator
from repro.network.topology import StarNetwork
from repro.obs import Tracer
from repro.repair.pipeline import ExecutionConfig
from repro.resilience import RepairJournal
from tests.repair.test_adaptive_ceiling import PRUNABLE, kept_events
from tests.repair.test_driver_identity import result_payload

NODES = 10
#: A threshold no value clears.
IDLE = SchedulerConfig(threshold=math.inf)
#: Exact in binary, so the idle steps land on ``MAX_IDLE_WAIT`` itself.
CHECK, WAIT = 0.25, 2.75


class TestIdlePath:
    def test_every_job_drains_after_idle_waits(self, monkeypatch):
        monkeypatch.setattr(fullnode, "IDLE_CHECK_INTERVAL", CHECK)
        monkeypatch.setattr(fullnode, "MAX_IDLE_WAIT", WAIT)
        network = StarNetwork.constant([1e8] * NODES, [1e8] * NODES)
        stripes = place_stripes(
            6, RSCode(6, 4), NODES, np.random.default_rng(3)
        )
        failed = [stripes[0].placement[0], stripes[0].placement[1]]
        plane = ControlPlane(
            FluidSimulator(network), network, scheduler=IDLE
        )
        for node in failed:
            plane.add_job(
                f"node{node}", pin_planning(PivotRepairPlanner(), 0.0),
                stripes, node,
                config=ExecutionConfig(chunk_size=4 * 1024 * 1024),
            )
        result = plane.run(max_time=600.0)

        assert all(result.completed.values())
        for job, node in zip(plane.jobs, failed):
            outcome = result.jobs[job.job_id]
            lost = sum(s.chunk_on_node(node) is not None for s in stripes)
            assert (outcome.chunks_repaired, outcome.chunks_failed) == (
                lost, 0
            )
        starts = [
            entry["t"] for entry in result.decisions
            if entry["action"] == "start"
        ]
        assert len(starts) == result.chunks_repaired
        assert WAIT <= starts[0] < WAIT + CHECK


def storm(seed, admission_control):
    tracer, journal = Tracer(), RepairJournal()
    report = run_storm(
        StormConfig(
            seed=seed, admission_control=admission_control,
            foreground_duration=16.0,
        ),
        tracer=tracer, journal=journal,
    )
    return report, tracer.events, [r.to_json() for r in journal.records]


class TestPrunedAgainstExhaustive:
    @pytest.mark.parametrize("admission_control", [True, False])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_same_storm_with_fewer_plans(self, seed, admission_control):
        pruned, pruned_events, pruned_journal = storm(
            seed, admission_control
        )
        with mock.patch.object(
            fullnode, "recommendation_ceiling", lambda *inputs: math.inf
        ):
            exhaustive, exhaustive_events, exhaustive_journal = storm(
                seed, admission_control
            )

        assert pruned.as_dict() == exhaustive.as_dict()
        assert pruned.fleet.decisions == exhaustive.fleet.decisions
        assert {
            job: result_payload(outcome)
            for job, outcome in pruned.fleet.jobs.items()
        } == {
            job: result_payload(outcome)
            for job, outcome in exhaustive.fleet.jobs.items()
        }
        assert pruned_journal == exhaustive_journal
        assert kept_events(pruned_events) == kept_events(exhaustive_events)

        def planned(events):
            return sum(event.name.startswith(PRUNABLE) for event in events)

        assert planned(pruned_events) < planned(exhaustive_events)
