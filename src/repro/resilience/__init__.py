"""Repair runtime that never loses work.

:class:`RepairJournal` turns the fault-injection layer's "detect and
retry" into checkpointed, resumable repair: an append-only JSONL
write-ahead log with fsync barriers recording a run's configuration,
slice-level progress watermarks and finished stripes; deterministic and
replayable, and loadable after the crash that tore its last line.

The repair master (:class:`repro.repair.StripeRepairMaster`) consumes
it: every driver takes ``journal=``.  Checkpoint / resume is one
mechanism: a journaled run that stopped — master crash included — is
finished by :func:`repro.scenario.resume` over the stripes
``done_stripes()`` lacks, and :func:`repro.faults.runner.adopt_full_node`
moves the bytes.  ``repro.resilience.health``, a straggler detector no
driver runs, stays until the benchmark stops timing it (ROADMAP item
22).
"""

from repro.resilience.journal import (
    JournalError,
    JournalRecord,
    RepairJournal,
)

__all__ = [
    "JournalError",
    "JournalRecord",
    "RepairJournal",
]
