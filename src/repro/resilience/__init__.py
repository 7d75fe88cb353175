"""Resilient repair runtime: never lose work.

Three cooperating pieces turn the fault-injection layer's "detect and
retry" into checkpointed, resumable repair:

* :class:`RepairJournal` — an append-only JSONL write-ahead log with
  fsync barriers recording slice-level progress watermarks, hedge
  decisions, and master adoptions; deterministic and replayable.
* :class:`HealthMonitor` / :class:`HealthPolicy` — a gray-failure
  (straggler) detector classifying silently degraded helpers from
  relative progress in simulated time, no wall-clock heuristics.
* :func:`run_full_node_journaled` / :func:`recover_full_node` — master
  crash recovery: the Eq. 3 queue is checkpointed into the journal and
  replayed idempotently (replaying twice adopts nothing twice).

The repair master (:class:`repro.repair.StripeRepairMaster`) consumes
the first two: every driver takes ``journal=``, and
:func:`repro.repair.repair_single_chunk_faulted` hands its ``health=``
to the master's constructor, where hedging lives for any number of
stripes.
"""

from repro.resilience.health import (
    HealthError,
    HealthMonitor,
    HealthPolicy,
    StragglerVerdict,
)
from repro.resilience.journal import (
    JournalError,
    JournalRecord,
    RepairJournal,
)


def __getattr__(name: str):
    # Recovery sits on top of the repair stack, which may import this
    # package — load it lazily to keep the import acyclic.
    if name in (
        "MasterRecoveryResult",
        "recover_full_node",
        "run_full_node_journaled",
    ):
        from repro.resilience import recovery

        return getattr(recovery, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "HealthError",
    "HealthMonitor",
    "HealthPolicy",
    "JournalError",
    "JournalRecord",
    "MasterRecoveryResult",
    "RepairJournal",
    "StragglerVerdict",
    "recover_full_node",
    "run_full_node_journaled",
]
