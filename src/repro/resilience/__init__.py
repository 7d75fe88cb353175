"""Repair runtime that never loses work.

Two cooperating pieces turn the fault-injection layer's "detect and
retry" into checkpointed, resumable repair:

* :class:`RepairJournal` — an append-only JSONL write-ahead log with
  fsync barriers recording a run's configuration, slice-level progress
  watermarks, finished stripes and hedge decisions; deterministic and
  replayable, and loadable after the crash that tore its last line.
* :class:`HealthMonitor` / :class:`HealthPolicy` — a gray-failure
  (straggler) detector classifying silently degraded helpers from
  relative progress in simulated time, no wall-clock heuristics.

The repair master (:class:`repro.repair.StripeRepairMaster`) consumes
both: every driver takes ``journal=``, and
:func:`repro.repair.repair_single_chunk_faulted` hands its ``health=``
to the master's constructor, where hedging lives for any number of
stripes.  Checkpoint / resume is one mechanism: a journaled run that
stopped — master crash included — is finished by
:func:`repro.scenario.resume` over the stripes ``done_stripes()`` lacks,
and :func:`repro.faults.runner.adopt_full_node` moves the bytes.
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

__all__ = [
    "HealthError",
    "HealthMonitor",
    "HealthPolicy",
    "JournalError",
    "JournalRecord",
    "RepairJournal",
    "StragglerVerdict",
]
