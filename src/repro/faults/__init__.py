"""Deterministic, seedable fault injection for the repair stack.

The pieces:

* :class:`FaultPlan` — a declarative schedule of node crashes, link
  degradation windows, helper stalls, and chunk-read errors, built from
  code, a compact spec string (``crash:3@5;stall:4@3+2``), a JSON file,
  or a seeded RNG.
* :class:`FaultyNetwork` — wraps any network model, scaling its link
  capacities by the plan at query time; the fluid simulator re-allocates
  rates exactly at fault boundaries.
* :class:`RetryPolicy` — detection timeout, retry budget, exponential
  backoff.
* :class:`FaultInjector` — turns plan events into ``fault.*`` trace
  events and counters as simulated time passes.
* :mod:`repro.faults.runner` — moves the bytes the attempt machine's
  results describe: :func:`~repro.faults.runner.adopt_result` for one
  chunk, :func:`~repro.faults.runner.adopt_full_node` for every task of
  a full-node run, journaled and resumed or not.  The cluster executes
  the plans those runs produced and decides nothing itself.
"""

from repro.faults.injector import FaultInjector
from repro.faults.network import FaultyNetwork
from repro.faults.plan import (
    ChunkReadError,
    FaultEvent,
    FaultPlan,
    HelperStall,
    LinkDegradation,
    NodeCrash,
)
from repro.faults.policy import RetryPolicy

__all__ = [
    "ChunkReadError",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "FaultyNetwork",
    "HelperStall",
    "LinkDegradation",
    "NodeCrash",
    "RetryPolicy",
]
