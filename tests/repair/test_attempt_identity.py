"""Cross-commit identity of the single-chunk faulted repair.

``test_driver_identity.py`` pins the full-node drivers against the
commit before they were merged onto ``StripeRepairMaster``; this file
does the same for ``repair_single_chunk_faulted`` before it became a
one-stripe driver over that master.  Every scenario below is one of the
single-chunk runs of ``tests/faults/test_chaos.py``,
``tests/resilience/test_hedge.py`` or ``tests/resilience/test_resume.py``
with planning pinned to 0.0, hashed three ways — the result (plan,
segments and telemetry included), the trace JSONL and the journal
records — and the expected digests are literals recorded at commit
``fe33813``, the last one with a second attempt loop in
``repair/executor.py``.

A PR that restructures the attempt machine must leave every digest
alone; a PR that means to change what a run does replaces the affected
literals and says so.  A failing assertion prints the digests the
current tree produces.

The merge itself (PR 21) kept all three digests of 20 of the 26
scenarios.  The six it moved are marked in ``RECORDED`` with the cause,
and only the digests named there are this tree's, not ``fe33813``'s.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.cluster.master import Cluster
from repro.core import PivotRepairPlanner
from repro.core.bandwidth_view import BandwidthSnapshot
from repro.core.plan import pin_planning
from repro.ec import RSCode
from repro.faults import FaultPlan, RetryPolicy, run_chaos_single_chunk
from repro.network.topology import StarNetwork
from repro.obs import Tracer, to_jsonl
from repro.repair import repair_single_chunk_faulted
from repro.repair.fullnode import choose_requestor
from repro.repair.pipeline import ExecutionConfig
from repro.resilience import HealthPolicy, RepairJournal

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
    """``test_hedge.py`` / ``test_resume.py``: the planner routes through
    the one faster node."""
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
        "hedges": result.hedges,
        "plan": plan_payload(result.plan),
        "segments": [
            [plan_payload(plan), start] for plan, start in result.segments
        ],
        "telemetry": result.telemetry,
    }


def sha(payload):
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:24]


def digests(result, tracer, journal, **extra):
    """(result, trace, journal) digests; the journal's is ``None``
    for a run without one."""
    return (
        sha({**result_payload(result), **extra}),
        sha(to_jsonl(tracer.events)),
        None if journal is None
        else sha([record.to_json() for record in journal.records]),
    )


def direct(network, requestor, candidates, faults, policy, config,
           journal=False, health=None):
    """One traced ``repair_single_chunk_faulted`` run, hashed."""
    tracer = Tracer()
    journal = RepairJournal() if journal else None
    result = repair_single_chunk_faulted(
        pinned(), network, requestor, candidates, CODE.k,
        FaultPlan.from_spec(faults) if isinstance(faults, str) else faults,
        policy=policy, config=config, tracer=tracer, journal=journal,
        health=health,
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
    survivors = stripe.surviving_nodes(failed)
    tree = PivotRepairPlanner().plan(
        snapshot, requestor, survivors, CODE.k
    ).tree
    victim = next(h for h in tree.helpers if tree.children(h))
    return cluster, stripe, network, requestor, survivors, victim


def chaos(faults, policy=None, seed=7, exact_k=False):
    _, _, network, requestor, survivors, victim = chaos_setup(seed)
    if exact_k:
        survivors = survivors[: CODE.k]
        victim = survivors[0]
    spec = faults.format(
        victim=victim, requestor=requestor,
        everyone=";".join(f"stall:{n}@0+1000" for n in survivors),
    )
    return direct(
        network, requestor, survivors, spec, policy or RetryPolicy(), BIG,
    )


def chaos_random(seed, policy, **kinds):
    _, _, network, requestor, survivors, _ = chaos_setup(seed=3)
    faults = FaultPlan.random(seed, NODES, horizon=2.0, **kinds)
    return direct(network, requestor, survivors, faults, policy, BIG)


def harness(seed, nodes, faults, policy, health=None):
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
        journal=journal, health=health,
    )
    return digests(outcome.result, tracer, journal, correct=outcome.correct)


def gray(health, faults="degrade:3@0.1-1000x0.05"):
    return direct(
        one_fast(3, 8), 0, [1, 2, 3, 4, 5], faults,
        RetryPolicy(detection_timeout=0.05), MEDIUM, health=health,
    )


def resume(journal):
    return direct(
        one_fast(3), 0, [1, 2, 3, 4, 5], "crash:3@0.45",
        RetryPolicy(detection_timeout=0.05), MEDIUM, journal=journal,
    )


STALL_POLICY = RetryPolicy(detection_timeout=0.3)
MIXED = dict(crashes=2, degradations=2, stalls=2, read_errors=1)

#: name -> scenario.
SCENARIOS = {
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
    "hedge/gray-hedged": lambda: gray(HealthPolicy()),
    "hedge/gray-limped": lambda: gray(None),
    "hedge/healthy-monitored": lambda: gray(
        HealthPolicy(), faults=FaultPlan.none()
    ),
    "hedge/harness": lambda: harness(
        13, 8, "degrade:{victim}@0.01-1000x0.05",
        RetryPolicy(detection_timeout=0.02),
        health=HealthPolicy(check_interval=0.05),
    ),
    "resume/journaled": lambda: resume(True),
    "resume/restart": lambda: resume(False),
    "resume/harness": lambda: harness(
        11, NODES, "crash:{victim}@0.05",
        RetryPolicy(detection_timeout=0.02),
    ),
}

#: name -> (result, trace, journal) digests recorded at ``fe33813``.
RECORDED = {
    'chaos/crash-pivot': (
        '558b446c7c6459e8d1ef5b50', 'dc053cc051f7f0d0b5d54e2f',
        None,
    ),
    'chaos/readerr-pivot': (
        '1413d5bb42b9f2f5c24780e9', 'c8cbf9986a7710974496d535',
        None,
    ),
    'chaos/stall-pivot': (
        'b7378b913c52ac5f71050954', '68f61533ff1db70a8bd7be28',
        None,
    ),
    'chaos/requestor-crash': (
        'd42a75d8c21fe9b0ad8a7c8b', '2d295544d5d093ae135b11d6',
        None,
    ),
    'chaos/too-few-survivors': (
        'e320cc7cbca190a58b2d04b8', 'd76de3dd163d00e9e0c2ad56',
        None,
    ),
    'chaos/budget-exhausted': (
        '2154e4c887663359e5244c54', 'afa08bb8dae051b5d0368237',
        None,
    ),
    'chaos/no-backoff': (
        '19db03b8b13f6653133138f7', 'ecf4932fd11ef116cf243561',
        None,
    ),
    'chaos/mixed-0': (
        'b37479b56b194594b6c95f49', '486beeb803f0322e42855651',
        None,
    ),
    'chaos/mixed-1': (
        'ab37c36870efb03f320204cd', '6ce01fa7b03311bc70b55f73',
        None,
    ),
    # result + trace are PR 21's: a read error on the *requestor* dooms
    # nothing (it reads no chunk; the old loop failed every attempt on it).
    'chaos/mixed-2': (
        'bea9cf0eac34a04ad98581d2', 'f28cc54ff506ce88583e810b',
        None,
    ),
    'chaos/mixed-12': (
        '9f027951302ffed8990fabef', '2ba002b1e7f436297ea0b265',
        None,
    ),
    'chaos/mixed-16': (
        '02d83486f51ac10edf5544fd', '54157771680cf1d6e67eedf1',
        None,
    ),
    'chaos/mixed-25': (
        '813f417a0c38d6f95b6e1de0', '27a8905ab3c3c33520e9cb43',
        None,
    ),
    'chaos/mixed-27': (
        '41fdfec14bec3872e7f68559', '99fc4a8db70d7b89562cb241',
        None,
    ),
    'chaos/mixed-41': (
        '772aa778f3364ff7cfd256dd', '90f935608e46c8f75d3d1975',
        None,
    ),
    # result + trace are PR 21's: read error on the requestor, as mixed-2
    # (the old loop threw a completed transfer away and then failed).
    'chaos/mixed-55': (
        '459a532244cfd96b1c0131b4', '3441219826dde10e4e056b46',
        None,
    ),
    'chaos/crashes-0': (
        '551f094ac6323d001de79129', '3e94db230afb437a0ade32f6',
        None,
    ),
    'chaos/crashes-8': (
        '05231b537dc9d72f3e672809', 'ad4dea92796ddf0f275141a9',
        None,
    ),
    'chaos/crashes-37': (
        '640bde52f7344e14a7776fad', '3f2590cbde80f4660a6a44e5',
        None,
    ),
    # result + trace are PR 21's: the hedge is planned on the residual
    # view (the primary's traffic subtracted), not on raw capacities:
    # another tree, a smaller stamped bmin.
    'hedge/gray-hedged': (
        '709225573bcfcdc384e2736c', '600a55b7d2658637ed5d167e',
        None,
    ),
    'hedge/gray-limped': (
        'b3ef765e1b744113af27405f', 'cb7c09f2116f5c9a4888e4d6',
        None,
    ),
    'hedge/healthy-monitored': (
        'efd495ad640db54e530383e3', '81af0c2607f9bae0d0e370a9',
        None,
    ),
    # all three are PR 21's: hedge planned on the residual view (as
    # gray-hedged); journal vocabulary (as resume/journaled).
    'hedge/harness': (
        '8418cd4b332efd7957a8d3dd', '92271d20b6b991ac006dc1c8',
        'e8b5551c9d22dc0d13267a16',
    ),
    # journal is PR 21's: one vocabulary for every driver -- a per-flight
    # task_start replaces task_start + attempt, progress records the
    # checkpoint, task_done carries start_slice.  Result and trace hold.
    'resume/journaled': (
        'b35b8d83c436dd45fe07aa95', '22b32dc67e3aac491e1b1870',
        'a72d16a314c0f6f076046b08',
    ),
    'resume/restart': (
        '02527a5422c3ef49b54b633a', 'f000eb274a61b03d9d14ed02',
        None,
    ),
    # journal is PR 21's, as resume/journaled.  Result and trace hold.
    'resume/harness': (
        'ce3fa254dde2dd86fc95f924', '15fcc225c4a006696d8d9b87',
        'e757982b8e63d583d98e64a9',
    ),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_bytes_match_the_parent_commit(name):
    assert SCENARIOS[name]() == RECORDED[name], name


if __name__ == "__main__":
    for name, scenario in SCENARIOS.items():
        print(f"    {name!r}: {scenario()!r},")
