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
* :func:`run_chaos_single_chunk` — the chaos harness combining the
  fault-aware executor (timing) with byte-accurate cluster reconstruction
  (correctness); :func:`repro.faults.runner.adopt_full_node` is the same
  step for every task of a full-node run, journaled and resumed or not.
  The cluster executes the plans those runs produced and decides nothing
  itself.
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


def __getattr__(name: str):
    # The chaos runner sits on top of the repair stack, which itself
    # imports this package — load it lazily to keep the import acyclic.
    if name in ("ChaosOutcome", "run_chaos_single_chunk"):
        from repro.faults import runner

        return getattr(runner, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "ChaosOutcome",
    "ChunkReadError",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "FaultyNetwork",
    "HelperStall",
    "LinkDegradation",
    "NodeCrash",
    "RetryPolicy",
    "run_chaos_single_chunk",
]
