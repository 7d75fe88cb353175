"""Cross-commit identity of the full-node drivers.

The other determinism tests compare two runs of *this* commit (fast vs
reference engine, resumed vs uninterrupted, run twice).  This one pins
the drivers' observable bytes against the commit before: every scenario
below hashes the ``FullNodeResult`` (plans, telemetry and failures
included), the trace JSONL and the journal records into one SHA-256,
and the expected digests, in ``driver_identity.json`` beside this file,
were first recorded at commit ``1d210d4`` — the last one with three
separate full-node loops — before the drivers were merged onto
``StripeRepairMaster``.

A PR that restructures the driver (plan caching, mid-transfer
re-pivoting) must leave every digest alone; a PR that means to change
what a run does regenerates the fixture with ``scripts/rerecord.py`` in
a commit of its own and says so.  A failing assertion prints the digest
the current tree produces.

PR 21 meant to: the master became the one attempt state machine, so a
faulted full-node or fleet run now honours the whole ``RetryPolicy``.
Every fault-free digest stood; the seven faulted ones were re-recorded
in one commit, each for the cause noted beside it.

The five adaptive entries were re-recorded in one commit when the Eq. 3
round began planning only the stripes whose recommendation ceiling can
win: their results (but the ``*_events`` counters) and journals stand,
and so does every trace event but the fewer ``planner.*`` and
``scheduler.recommendation`` instants; ``scheduler.round`` gained
``planned``.

``storm/seed0`` was re-recorded in one commit when the fleet plane began
running that same round over its jobs' head stripes: its result and
journal stand, and its trace differs only in the round's events: fewer
``planner.*`` / ``scheduler.recommendation`` instants, no longer under a
stripe's span, and ``scheduler.round`` / ``scheduler.start`` where
``plane.round`` was.
"""

from pathlib import Path

import numpy as np
import pytest

import repro.traces.generators as trace_generators
from repro.baselines import RPPlanner
from repro.controlplane.storm import StormConfig, pin_planning, run_storm
from repro.core import PivotRepairPlanner
from repro.core.scheduler import SchedulerConfig
from repro.ec import RSCode, place_stripes
from repro.experiments.fullnode_experiment import (
    FIG7_SCHEDULER,
    stripes_with_failures,
)
from repro.faults import FaultPlan, RetryPolicy
from repro.loadgen import (
    ForegroundEngine,
    LoadProfile,
    generate_requests,
    make_governor,
)
from repro.network.topology import StarNetwork
from repro.obs import Tracer, to_jsonl
from repro.repair import repair_full_node, repair_full_node_adaptive
from repro.repair.pipeline import ExecutionConfig
from repro.resilience import RepairJournal
from tests.recorded import Recorded, load, run_values, sha256

FIXTURE = Path(__file__).with_name("driver_identity.json")
NODES = 12
CODE = RSCode(6, 4)
CONFIG = ExecutionConfig(chunk_size=64 * 1024 * 1024)
STRIPES = place_stripes(8, CODE, NODES, np.random.default_rng(7))
FAILED = STRIPES[0].placement[0]
HELPERS = [node for node in STRIPES[0].placement if node != FAILED]
OTHER = next(
    node for node in STRIPES[1].placement
    if node != FAILED and node != HELPERS[0]
)

FAULTS = {
    "none": None,
    "crash1": f"crash:{HELPERS[0]}@0.3",
    "crash2": f"crash:{HELPERS[0]}@0.3;crash:{OTHER}@0.9",
    # Two helpers of stripe 0 die together: fewer than k survive.
    "unrepairable": f"crash:{HELPERS[0]}@0.2;crash:{HELPERS[1]}@0.2",
    "readerr": f"readerr:{HELPERS[0]}@0.3",
}


def star():
    return StarNetwork.constant(
        [1e8 + i * 3e6 for i in range(NODES)],
        [1e8 + i * 5e6 for i in range(NODES)],
    )


def pinned(planner_class=PivotRepairPlanner):
    return pin_planning(planner_class(), 0.0)


def window(planner_class=PivotRepairPlanner, concurrency=3):
    def run(network, stripes, failed, **run_args):
        return repair_full_node(
            pinned(planner_class), network, stripes, failed,
            concurrency=concurrency, **run_args,
        )
    return run


def adaptive(scheduler=None):
    def run(network, stripes, failed, **run_args):
        return repair_full_node_adaptive(
            pinned(), network, stripes, failed, scheduler=scheduler,
            **run_args,
        )
    return run


def plan_payload(plan):
    return {
        "scheme": plan.scheme,
        "requestor": plan.requestor,
        "helpers": sorted(plan.helpers),
        "bmin": plan.bmin,
        "edges": sorted(map(list, plan.tree.edges())),
        "notes": {key: plan.notes[key] for key in sorted(plan.notes)},
    }


def result_payload(result):
    return {
        "scheme": result.scheme,
        "failed_node": result.failed_node,
        "total_seconds": result.total_seconds,
        "tasks": [
            {
                "scheme": task.scheme,
                "planning_seconds": task.planning_seconds,
                "transfer_seconds": task.transfer_seconds,
                "bmin": task.bmin,
                "bytes": task.bytes_transferred,
                "plan": plan_payload(task.plan),
            }
            for task in result.task_results
        ],
        "telemetry": result.telemetry,
        "failures": [
            {
                "scheme": failure.scheme, "reason": failure.reason,
                "elapsed": failure.elapsed_seconds,
                "stripe": failure.stripe_id,
            }
            for failure in result.failures
        ],
    }


def digest(payload, tracer, journal) -> Recorded:
    return Recorded(
        entry=sha256([
            payload,
            to_jsonl(tracer.events),
            [record.to_json() for record in journal.records],
        ]),
        values=run_values(payload, tracer, journal),
    )


def single_job(driver, network=None, stripes=STRIPES, failed=FAILED,
               faults=None, foreground=False, governor=None, **run_args):
    """One traced, journaled single-job run, hashed."""
    tracer, journal = Tracer(), RepairJournal()
    spec = FAULTS[faults] if faults else None
    engine = None
    if foreground:
        profile = LoadProfile(
            name="identity", arrival_rate=60.0, duration=4.0,
            read_fraction=0.9, request_size=4 * 1024 * 1024, zipf_s=0.9,
        )
        engine = ForegroundEngine(
            stripes, generate_requests(profile, stripes, NODES, seed=5),
            pinned(), failed_nodes={failed},
        )
    run_args.setdefault("config", CONFIG)
    result = driver(
        network or star(), stripes, failed, tracer=tracer, journal=journal,
        faults=FaultPlan.from_spec(spec) if spec else None,
        retry_policy=RetryPolicy() if spec else None,
        foreground=engine,
        governor=make_governor(governor) if governor else None,
        **run_args,
    )
    payload = result_payload(result)
    if engine is not None:
        engine.drain()
        assert engine.pending_flows == 0
        payload["foreground"] = engine.summary()
    return digest(payload, tracer, journal)


def traced(driver, name, chunks, seed):
    """Fig. 7 shape: a generated workload trace, repair starting at 60 s."""
    index = list(trace_generators.PROFILES).index(name)
    trace = trace_generators.generate_all(16, 240, seed=3000)[name]
    failed = int(np.argmax(trace.used_node_bandwidth().mean(axis=1)))
    return single_job(
        driver, network=trace.to_network(floor=1e6),
        stripes=stripes_with_failures(
            CODE, failed, 16, seed=seed + index, count=chunks
        ),
        failed=failed, start_time=60.0, config=ExecutionConfig(),
    )


def storm(seed):
    tracer, journal = Tracer(), RepairJournal()
    report = run_storm(
        StormConfig(seed=seed, foreground_duration=16.0),
        tracer=tracer, journal=journal,
    )
    payload = {
        "report": report.as_dict(),
        "decisions": report.fleet.decisions,
        "jobs": {
            job: result_payload(outcome)
            for job, outcome in report.fleet.jobs.items()
        },
        "foreground": report.foreground_summary,
    }
    return digest(payload, tracer, journal)


TUNED = SchedulerConfig(threshold=0.5, max_concurrency=4)

#: name -> scenario, hashed; the SHA-256 each must produce is in FIXTURE.
RECORDERS = {
    "window/none": lambda: single_job(window()),
    # PR 21: backoff honoured; retry / backoff / attempt_failed records.
    "window-rp/crash1": lambda: single_job(
        window(RPPlanner, 4), faults="crash1"
    ),
    # PR 21: backoff honoured; retry / backoff / attempt_failed records.
    "window/crash2": lambda: single_job(window(), faults="crash2"),
    # PR 21: backoff honoured; failure reason, attempts.
    "window/unrepairable": lambda: single_job(
        window(), faults="unrepairable"
    ),
    # PR 21: true kind (readerr); a doomed flow finishing inside
    # its detection window is no success; backoff honoured.
    "window/readerr": lambda: single_job(window(), faults="readerr"),
    # PR 21: backoff honoured; retry / backoff / attempt_failed records.
    "adaptive/crash1": lambda: single_job(adaptive(), faults="crash1"),
    "adaptive-tuned/none": lambda: single_job(adaptive(TUNED)),
    # PR 21: backoff honoured; failure reason, attempts.
    "adaptive/unrepairable": lambda: single_job(
        adaptive(), faults="unrepairable"
    ),
    "traced-TPC-H/adaptive": lambda: traced(
        adaptive(FIG7_SCHEDULER), "TPC-H", 10, seed=100
    ),
    "traced-SWIM/window": lambda: traced(window(), "SWIM", 24, seed=200),
    "foreground-governed/window": lambda: single_job(
        window(), foreground=True, governor="adaptive"
    ),
    "foreground/adaptive": lambda: single_job(adaptive(), foreground=True),
    # PR 21: keyed, jittered backoff and the budget honoured; stall watch.
    # Then: the fleet's dispatch became the single job's Eq. 3 round.
    "storm/seed0": lambda: storm(0),
}


@pytest.mark.parametrize("name", sorted(RECORDERS))
def test_bytes_match_the_parent_commit(name):
    assert RECORDERS[name]().entry == load(FIXTURE)[name], name
