"""The pinned repair suites whose simulated values tests assert as recorded.

Test-side only, the way ``tests/ec/logexp_oracle.py`` sits beside the
kernel tests: one fixed mildly heterogeneous 16-node star, RS(6,4), 64 MiB
chunks, planning cost pinned to zero so every number is bit-stable.

* :func:`single_chunk` — one repair per scheme per requestor;
* :func:`full_node` — a seeded 96-stripe full-node repair, optionally
  beside a seeded client workload under the adaptive QoS governor (the
  ``foreground_interference`` suite), with any observer attached.

What each suite must produce is in ``pinned_suites.json`` beside this
file (``FIXTURE`` / ``RECORDERS``, see ``tests/recorded.py``): seconds
rounded to nine decimals, counts as they are.
"""

import itertools
from pathlib import Path

import numpy as np

from repro.baselines import PPTPlanner, RPPlanner
from repro.core import PivotRepairPlanner, pin_planning
from repro.ec import RSCode, place_stripes
from repro.loadgen import (
    ForegroundEngine,
    LoadProfile,
    generate_requests,
    make_governor,
)
from repro.network.topology import StarNetwork
from repro.obs import NULL_TRACER, FlightRecorder, TimeSeriesDB, Tracer
from repro.repair import (
    ExecutionConfig,
    repair_full_node,
    repair_single_chunk,
)
from repro.resilience import RepairJournal
from tests.recorded import Recorded

FIXTURE = Path(__file__).with_name("pinned_suites.json")
NODE_COUNT = 16
CODE = RSCode(6, 4)
STRIPES = 96
CHUNK = 64 * 1024 * 1024


def _network() -> StarNetwork:
    return StarNetwork.constant(
        [1e8 + i * 3e6 for i in range(NODE_COUNT)],
        [1e8 + i * 5e6 for i in range(NODE_COUNT)],
    )


def _sim_counters(telemetry: dict) -> dict:
    counters = telemetry["counters"]
    return {
        "sim_steps": int(counters["sim_steps"]),
        "rate_recomputations": int(counters["sim_rate_recomputations"]),
    }


def _seconds(value: float, exact: bool) -> float:
    return value if exact else round(value, 9)


def single_chunk(exact: bool = False) -> dict:
    """Per scheme, totals over one repair from each of 8 requestors
    (``exact``: seconds unrounded)."""
    network = _network()
    config = ExecutionConfig(chunk_size=CHUNK)
    schemes = {
        "pivot": PivotRepairPlanner,
        "rp": RPPlanner,
        "ppt": PPTPlanner,
    }
    sim = {}
    for name, factory in schemes.items():
        results = [
            repair_single_chunk(
                pin_planning(factory(), 0.0), network, requestor=requestor,
                candidates=[n for n in range(NODE_COUNT) if n != requestor],
                k=CODE.k, config=config,
            )
            for requestor in range(8)
        ]
        counters = [_sim_counters(result.telemetry) for result in results]
        sim[name] = {
            "transfer_seconds": _seconds(
                sum(result.transfer_seconds for result in results), exact
            ),
            "sim_steps": sum(c["sim_steps"] for c in counters),
            "rate_recomputations": sum(
                c["rate_recomputations"] for c in counters
            ),
        }
    return sim


def full_node(
    with_foreground: bool = False, sampler=None, journal=None,
    tracer=NULL_TRACER, exact: bool = False,
) -> dict:
    network = _network()
    stripes = place_stripes(
        STRIPES, CODE, NODE_COUNT, np.random.default_rng(5)
    )
    failed = stripes[0].placement[0]
    foreground = None
    governor = None
    if with_foreground:
        profile = LoadProfile(
            name="bench",
            arrival_rate=120.0,
            duration=60.0,
            read_fraction=0.9,
            request_size=1024 * 1024,
            zipf_s=0.9,
        )
        requests = generate_requests(profile, stripes, NODE_COUNT, seed=5)
        foreground = ForegroundEngine(
            stripes, requests, pin_planning(PivotRepairPlanner(), 0.0),
            failed_nodes={failed},
        )
        governor = make_governor("adaptive")
    result = repair_full_node(
        pin_planning(PivotRepairPlanner(), 0.0), network, stripes, failed,
        concurrency=4, config=ExecutionConfig(chunk_size=CHUNK),
        foreground=foreground, governor=governor, sampler=sampler,
        journal=journal, tracer=tracer,
    )
    sim = {
        "repair_seconds": _seconds(result.total_seconds, exact),
        "chunks_repaired": result.chunks_repaired,
        **_sim_counters(result.telemetry),
    }
    if foreground is not None:
        foreground.drain()
        summary = foreground.summary()
        sim["fg_requests"] = int(summary["requests"])
        sim["fg_degraded_reads"] = int(summary["degraded_reads"])
    return sim


def foreground_interference(**observers) -> dict:
    return full_node(with_foreground=True, **observers)


def _recorder(suite):
    return lambda: Recorded(entry=suite(), values=suite(exact=True))


RECORDERS = {
    suite.__name__: _recorder(suite)
    for suite in (single_chunk, full_node, foreground_interference)
}


_RECORDER = dict(interval=0.25, capacity=65536)
_RUNS = itertools.count()
#: name -> (scratch directory) -> the observer as a ``full_node`` keyword.
OBSERVERS = {
    "recorder": lambda tmp: {"sampler": FlightRecorder(**_RECORDER)},
    "recorder+tsdb": lambda tmp: {
        "sampler": FlightRecorder(
            **_RECORDER, tsdb=TimeSeriesDB(capacity=65536)
        )
    },
    "tracer": lambda tmp: {"tracer": Tracer()},
    # A real file with real fsyncs, a new one per run: a journal file
    # belongs to one run, so runs sharing ``tmp`` cannot share it.
    "journal": lambda tmp: {
        "journal": RepairJournal(tmp / f"suite-{next(_RUNS)}.jsonl")
    },
}


def observed(observer: str, tmp) -> tuple[dict, dict]:
    """``foreground_interference`` with one of :data:`OBSERVERS` attached:
    (simulated values, the attached keyword) — a journal comes back
    closed."""
    attached = OBSERVERS[observer](tmp)
    try:
        return foreground_interference(**attached), attached
    finally:
        if "journal" in attached:
            attached["journal"].close()
