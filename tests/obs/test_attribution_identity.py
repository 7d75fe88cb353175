"""Cross-commit identity of the attribution engine.

PR 13 folded the two attribution engines (``diagnose`` and
``critical_paths``) onto one trace index and one flow rule.  Wherever
that rule did not change, the numbers must not either: for each
scenario below ``attribution_identity_parent.json`` holds, recorded at
commit ``9e996c3`` (the last one with two engines),

* the SHA-256 of ``CritPathReport.to_json()`` — compared byte for byte
  on every run without a hedge;
* per diagnosed flow, the reference rate the parent decomposed it
  against and its ``ideal + credit`` (now ``transfer``) /
  ``contention`` / ``governor`` / ``stall`` seconds — compared within
  1e-9 for every flow this commit measures against the same reference
  (the parent mis-matched some flows' claimed ``B_min``, see
  ``test_attribution_regressions.py``; those flows have no parent
  number worth keeping).

A PR that restructures the engine must leave the fixture alone; a PR
that means to change the rule regenerates the affected entries and says
so.  (PR 21 changed no rule but what the two *faulted* scenarios do —
the master honours backoff, budget and the stall watch — and
regenerated ``faults/crash+stall`` and ``storm/seed0`` on its own tree;
the four fault-free entries are still the parent's.)  ``SCENARIOS`` is
importable so the fixture can be rebuilt by running
:func:`parent_payload` against an older checkout.

A PR that moves simulated floats without touching the rule (a new
float-operation order in the simulator) runs ``scripts/rerecord.py``:
``RECORDERS`` regenerates what is compared with ``==`` — the critical-
path digest and every flow's ``(label, submit)`` — and carries the
parent's per-flow seconds over untouched, since those are history,
compared within 1e-9.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

import repro.traces.generators as trace_generators
from repro.controlplane.storm import StormConfig, pin_planning, run_storm
from repro.core import PivotRepairPlanner
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
from repro.obs import Tracer, critical_paths, diagnose
from repro.repair import repair_full_node, repair_full_node_adaptive
from repro.repair.pipeline import ExecutionConfig
from tests.recorded import Recorded, load

FIXTURE = Path(__file__).with_name("attribution_identity_parent.json")
NODES = 12
CODE = RSCode(6, 4)
LOSSES = ("contention", "governor", "stall")


def pinned():
    return pin_planning(PivotRepairPlanner(), 0.0)


def star():
    return StarNetwork.constant(
        [1e8 + i * 3e6 for i in range(NODES)],
        [1e8 + i * 5e6 for i in range(NODES)],
    )


def traced(driver, chunks, **run_args):
    """Fig. 7 shape on the generated TPC-DS trace, with oracle."""
    trace = trace_generators.generate_all(16, 240, seed=3000)["TPC-DS"]
    failed = int(np.argmax(trace.used_node_bandwidth().mean(axis=1)))
    network = trace.to_network(floor=1e6)
    tracer = Tracer()
    result = driver(
        pinned(), network,
        stripes_with_failures(CODE, failed, 16, seed=11, count=chunks),
        failed, start_time=60.0, tracer=tracer, **run_args,
    )
    return tracer.events, {
        "network": network, "telemetry": result.telemetry,
    }


def on_star(governor=None, foreground_rate=0.0, faults=None):
    """Window full-node repair on a constant star, claimed reference."""
    stripes = place_stripes(8, CODE, NODES, np.random.default_rng(7))
    failed = stripes[0].placement[0]
    engine = None
    if foreground_rate > 0:
        profile = LoadProfile(
            name="identity", arrival_rate=foreground_rate, duration=4.0,
            read_fraction=0.9, request_size=4 * 1024 * 1024, zipf_s=0.9,
        )
        engine = ForegroundEngine(
            stripes, generate_requests(profile, stripes, NODES, seed=5),
            pinned(), failed_nodes={failed},
        )
    if faults is not None:
        helpers = [n for n in stripes[0].placement if n != failed]
        faults = FaultPlan.from_spec(faults.format(*helpers))
    tracer = Tracer()
    result = repair_full_node(
        pinned(), star(), stripes, failed, concurrency=3,
        config=ExecutionConfig(chunk_size=64 * 1024 * 1024), tracer=tracer,
        foreground=engine, faults=faults,
        retry_policy=RetryPolicy() if faults else None,
        governor=make_governor(governor) if governor else None,
    )
    if engine is not None:
        engine.drain()
    return tracer.events, {"telemetry": result.telemetry}


def storm():
    tracer = Tracer()
    run_storm(StormConfig(seed=0), tracer=tracer)
    return tracer.events, {}


#: name -> () -> (events, diagnose keyword arguments).
SCENARIOS = {
    "traced/window": lambda: traced(repair_full_node, 12, concurrency=3),
    "traced/adaptive": lambda: traced(
        repair_full_node_adaptive, 10, scheduler=FIG7_SCHEDULER
    ),
    "foreground/adaptive-governor": lambda: on_star("adaptive", 80.0),
    "foreground/static-governor": lambda: on_star("static", 80.0),
    "faults/crash+stall": lambda: on_star(
        faults="crash:{0}@0.3;stall:{1}@0.9+0.4"
    ),
    "storm/seed0": storm,
}


def critpath_digest(events) -> str:
    return hashlib.sha256(critical_paths(events).to_json().encode()).hexdigest()


def flow_rows(events, **diagnose_args) -> list[dict]:
    """One comparable row per diagnosed flow, in diagnosis order.

    Reads either vocabulary, so the same function records the fixture at
    the parent (``ideal`` + ``credit``) and checks it here (``transfer``).
    """
    rows = []
    for diag in diagnose(events, **diagnose_args).repairs:
        parts = diag.components
        ref = {
            "oracle": diag.oracle_bmin, "claimed": diag.claimed_bmin,
        }.get(diag.reference)
        row = {"label": diag.label, "submit": diag.submit, "ref": ref}
        if parts and "hedge" not in parts:
            row["transfer"] = parts.get(
                "transfer", parts.get("ideal", 0.0) + parts.get("credit", 0.0)
            )
            row.update({key: parts.get(key, 0.0) for key in LOSSES})
        rows.append(row)
    return rows


def parent_payload() -> dict:
    """What the fixture holds; run against the parent checkout to rebuild."""
    payload = {}
    for name, scenario in SCENARIOS.items():
        events, diagnose_args = scenario()
        payload[name] = {
            "critpath_sha256": critpath_digest(events),
            "flows": flow_rows(events, **diagnose_args),
        }
    return payload


def _recorder(name):
    def record() -> Recorded:
        events, diagnose_args = SCENARIOS[name]()
        rows = flow_rows(events, **diagnose_args)
        previous = load(FIXTURE)[name]
        if [r["label"] for r in rows] != [
            r["label"] for r in previous["flows"]
        ]:
            raise AssertionError(
                f"{name}: the diagnosed flows changed, which no float "
                "order does; rebuild the entry from parent_payload()"
            )
        entry = {
            **previous,
            "critpath_sha256": critpath_digest(events),
            "flows": [
                {**theirs, "submit": mine["submit"]}
                for mine, theirs in zip(rows, previous["flows"])
            ],
        }
        values = {
            "critpath": json.loads(critical_paths(events).to_json()),
            "flows": rows,
        }
        return Recorded(entry=entry, values=values)
    return record


RECORDERS = {name: _recorder(name) for name in SCENARIOS}


@pytest.fixture(scope="module")
def parent():
    return load(FIXTURE)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_matches_parent_commit(name, parent):
    events, diagnose_args = SCENARIOS[name]()
    expected = parent[name]
    assert critpath_digest(events) == expected["critpath_sha256"]
    rows = flow_rows(events, **diagnose_args)
    assert [(r["label"], r["submit"]) for r in rows] == [
        (r["label"], r["submit"]) for r in expected["flows"]
    ]
    compared = 0
    for mine, theirs in zip(rows, expected["flows"]):
        if "transfer" not in theirs or mine["ref"] != theirs["ref"]:
            continue  # cancelled or mis-matched at the parent
        compared += 1
        for key in ("transfer",) + LOSSES:
            assert mine[key] == pytest.approx(theirs[key], abs=1e-9), (
                mine["label"], key,
            )
    # Not vacuous: the number of flows both commits measure alike is pinned.
    assert compared == expected["compared"]
