"""Cross-commit identity of the single-chunk faulted repair.

``repair_single_chunk_faulted`` is a one-stripe job of the plain
``StripeRepairMaster``; ``test_driver_identity.py`` pins the full-node
drivers of the same master.  Every scenario below is one of the
single-chunk runs of ``tests/faults/test_chaos.py`` or
``tests/resilience/test_resume.py`` with planning pinned to 0.0, hashed three ways: the result (plan,
segments and telemetry included), the trace JSONL and the journal
records.  Together they pin what the attempt machine does to one chunk:
detection of a crash, a read error and a stall; the retry budget and
backoff; too few helpers and a dead requestor; resume from the verified
watermark, journaled or not; and, through the chaos harness, the bytes
adopted.  The expected digests are in
``attempt_identity.json`` beside this file.

A change that restructures the attempt machine must leave every digest
alone; a change that means to alter what a run does regenerates the
fixture with ``scripts/rerecord.py`` in a commit of its own and says so.
A failing assertion prints the digests the current tree produces.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.cluster.master import Cluster
from repro.core import PivotRepairPlanner
from repro.core.bandwidth_view import BandwidthSnapshot
from repro.core.plan import pin_planning
from repro.ec import RSCode
from repro.faults import FaultPlan, RetryPolicy
from repro.network.topology import StarNetwork
from repro.obs import Tracer, to_jsonl
from repro.repair import repair_single_chunk_faulted
from repro.repair.jobmaster import choose_requestor
from repro.repair.pipeline import ExecutionConfig
from repro.resilience import RepairJournal
from tests.chaos_harness import random_fault_plan, run_chaos_single_chunk
from tests.one_stripe import one_stripe
from tests.recorded import Recorded, load, run_values, sha256

FIXTURE = Path(__file__).with_name("attempt_identity.json")
MiB = 1024 * 1024
NODES = 12
CODE = RSCode(6, 4)
BIG = ExecutionConfig(chunk_size=64 * MiB)
MEDIUM = ExecutionConfig(chunk_size=8 * MiB, slice_size=32 * 1024)
SMALL = ExecutionConfig(chunk_size=1 * MiB, slice_size=16 * 1024)


def pinned():
    return pin_planning(PivotRepairPlanner(), 0.0)


def heterogeneous():
    """``test_chaos.py``'s network."""
    return StarNetwork.constant(
        [1e8 + i * 3e6 for i in range(NODES)],
        [1e8 + i * 5e6 for i in range(NODES)],
    )


def one_fast(victim, node_count=NODES, base=10 * MiB, boost=12 * MiB):
    """``test_resume.py``: the planner routes through the one faster
    node."""
    rates = [boost if i == victim else base for i in range(node_count)]
    return StarNetwork.constant(rates, rates)


def plan_payload(plan):
    return {
        "scheme": plan.scheme,
        "requestor": plan.requestor,
        "helpers": sorted(plan.helpers),
        "bmin": plan.bmin,
        "edges": sorted(map(list, plan.tree.edges())),
    }


def result_payload(result):
    if not result.ok:
        return {
            "failed": result.reason,
            "scheme": result.scheme,
            "elapsed": result.elapsed_seconds,
            "attempts": result.attempts,
            "bytes": result.bytes_transferred,
            "telemetry": result.telemetry,
        }
    return {
        "scheme": result.scheme,
        "planning_seconds": result.planning_seconds,
        "transfer_seconds": result.transfer_seconds,
        "bmin": result.bmin,
        "bytes": result.bytes_transferred,
        "attempts": result.attempts,
        "plan": plan_payload(result.plan),
        "segments": [
            [plan_payload(plan), start] for plan, start in result.segments
        ],
        "telemetry": result.telemetry,
    }


def sha(payload):
    return sha256(payload)[:24]


def digests(result, tracer, journal, **extra) -> Recorded:
    """[result, trace, journal] digests; the journal's is ``None``
    for a run without one."""
    payload = {**result_payload(result), **extra}
    return Recorded(
        entry=[
            sha(payload),
            sha(to_jsonl(tracer.events)),
            None if journal is None
            else sha([record.to_json() for record in journal.records]),
        ],
        values=run_values(payload, tracer, journal),
    )


def direct(network, requestor, stripe, failed, faults, policy, config,
           journal=False):
    """One traced ``repair_single_chunk_faulted`` run, hashed."""
    tracer = Tracer()
    journal = RepairJournal() if journal else None
    result = repair_single_chunk_faulted(
        pinned(), network, requestor, stripe, failed,
        FaultPlan.from_spec(faults) if isinstance(faults, str) else faults,
        policy=policy, config=config, tracer=tracer, journal=journal,
    )
    return digests(result, tracer, journal)


def chaos_setup(seed=7):
    """``test_chaos.py``'s cluster, stripe, requestor and pivot victim."""
    cluster = Cluster(NODES, CODE)
    (stripe,) = cluster.write_random_stripes(
        1, 2048, np.random.default_rng(seed)
    )
    network = heterogeneous()
    failed = stripe.placement[0]
    snapshot = BandwidthSnapshot.from_network(network, 0.0)
    requestor = choose_requestor(snapshot, stripe, failed, NODES)
    tree = PivotRepairPlanner().plan(
        snapshot, requestor, stripe.surviving_nodes(failed), CODE.k
    ).tree
    victim = next(h for h in tree.helpers if tree.children(h))
    return cluster, stripe, failed, network, requestor, victim


def chaos(faults, policy=None, seed=7, exact_k=False):
    _, stripe, failed, network, requestor, victim = chaos_setup(seed)
    if exact_k:
        stripe, failed = one_stripe(
            stripe.surviving_nodes(failed)[: CODE.k], failed,
            stripe_id=stripe.stripe_id,
        )
        victim = stripe.placement[1]
    spec = faults.format(
        victim=victim, requestor=requestor,
        everyone=";".join(
            f"stall:{n}@0+1000" for n in stripe.surviving_nodes(failed)
        ),
    )
    return direct(
        network, requestor, stripe, failed, spec, policy or RetryPolicy(),
        BIG,
    )


def chaos_random(seed, policy, **kinds):
    _, stripe, failed, network, requestor, _ = chaos_setup(seed=3)
    faults = random_fault_plan(seed, NODES, horizon=2.0, **kinds)
    return direct(network, requestor, stripe, failed, faults, policy, BIG)


def harness(seed, nodes, faults, policy):
    """The chaos harness end to end (byte verification included)."""
    cluster = Cluster(nodes, CODE)
    (stripe,) = cluster.write_random_stripes(
        1, SMALL.chunk_size, np.random.default_rng(seed)
    )
    victim = stripe.placement[1]
    tracer, journal = Tracer(), RepairJournal()
    outcome = run_chaos_single_chunk(
        cluster, one_fast(victim, nodes), stripe, 0,
        FaultPlan.from_spec(faults.format(victim=victim)),
        policy=policy, planner=pinned(), config=SMALL, tracer=tracer,
        journal=journal,
    )
    return digests(outcome.result, tracer, journal, correct=outcome.correct)


def resume(journal):
    return direct(
        one_fast(3), 0, *one_stripe(), "crash:3@0.45",
        RetryPolicy(detection_timeout=0.05), MEDIUM, journal=journal,
    )


STALL_POLICY = RetryPolicy(detection_timeout=0.3)
MIXED = dict(crashes=2, degradations=2, stalls=2, read_errors=1)

#: name -> scenario, hashed three ways; what each must produce is in
#: FIXTURE.
RECORDERS = {
    "chaos/crash-pivot": lambda: chaos("crash:{victim}@0.2"),
    "chaos/readerr-pivot": lambda: chaos("readerr:{victim}@0.2"),
    "chaos/stall-pivot": lambda: chaos(
        "stall:{victim}@0.2+30", STALL_POLICY
    ),
    "chaos/requestor-crash": lambda: chaos("crash:{requestor}@0.2"),
    "chaos/too-few-survivors": lambda: chaos(
        "crash:{victim}@0.2", exact_k=True
    ),
    "chaos/budget-exhausted": lambda: chaos(
        "{everyone}", RetryPolicy(detection_timeout=0.2, max_retries=2)
    ),
    "chaos/no-backoff": lambda: chaos(
        "crash:{victim}@0.2",
        RetryPolicy(backoff_base=0.0, backoff_factor=1.0),
    ),
    # mixed-2 and mixed-55: a read error on the *requestor* dooms
    # nothing (it reads no chunk).
    **{
        f"chaos/mixed-{seed}": (
            lambda seed=seed: chaos_random(seed, STALL_POLICY, **MIXED)
        )
        for seed in (0, 1, 2, 12, 16, 25, 27, 41, 55)
    },
    **{
        f"chaos/crashes-{seed}": (
            lambda seed=seed: chaos_random(seed, RetryPolicy(), crashes=2)
        )
        for seed in (0, 8, 37)
    },
    # One resume rule: "restart" runs without a journal and still
    # resumes from the verified watermark, as the journaled run does.
    "resume/journaled": lambda: resume(True),
    "resume/restart": lambda: resume(False),
    "resume/harness": lambda: harness(
        11, NODES, "crash:{victim}@0.05",
        RetryPolicy(detection_timeout=0.02),
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDERS))
def test_bytes_match_the_parent_commit(name):
    assert RECORDERS[name]().entry == load(FIXTURE)[name], name
