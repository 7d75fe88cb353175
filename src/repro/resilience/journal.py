"""Durable repair journal: an append-only JSONL write-ahead log.

The journal is the persistence substrate of the resilience layer.  Every
state transition a repair makes — task started, attempt failed, slice
watermark advanced, task done, job paused or resumed — is
appended as one compact JSON record *before* the transition is acted on,
so a crashed run (helper, orchestrator, or master) can be resumed from the
last verified slice instead of restarting.

Records are deterministic: fields serialise with sorted keys and no
whitespace, sequence numbers are dense, and all timestamps are simulated
time.  Two runs of the same seed produce byte-identical journals.

Durability follows the classic WAL discipline: every append is written and
flushed immediately; an ``os.fsync`` barrier is issued every
``fsync_interval`` appends (and on ``close``), trading at most that many
records on a host crash for not paying a synchronous disk barrier per
record.  A writer that dies mid-record leaves a last line without its
newline; :meth:`RepairJournal.load` drops it, so the journal a crash
leaves is the journal ``repro resume`` takes.  A journal without a path
keeps its records in memory only.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

from repro.exceptions import ReproError
from repro.obs.tracer import NULL_TRACER


class JournalError(ReproError):
    """A journal record could not be written, parsed, or replayed."""


@dataclass(frozen=True)
class JournalRecord:
    """One immutable journal entry.

    ``seq`` is the dense per-journal sequence number, ``t`` the simulated
    time of the event, ``kind`` the record type (``run_config``,
    ``task_start``, ``progress``, ``attempt_failed``, ``task_done``,
    ``pause``, ``resume``, ``degrade``, ``job_done``), and ``data`` the
    kind-specific payload.
    """

    seq: int
    t: float
    kind: str
    data: dict

    def to_json(self) -> str:
        """Serialise deterministically (sorted keys, no whitespace)."""
        return json.dumps(
            {"seq": self.seq, "t": self.t, "kind": self.kind,
             "data": self.data},
            sort_keys=True,
            separators=(",", ":"),
        )

    @classmethod
    def from_json(cls, line: str) -> JournalRecord:
        try:
            raw = json.loads(line)
            return cls(
                seq=int(raw["seq"]),
                t=float(raw["t"]),
                kind=str(raw["kind"]),
                data=dict(raw["data"]),
            )
        except (ValueError, KeyError, TypeError) as exc:
            raise JournalError(f"malformed journal record: {line!r}") from exc


class RepairJournal:
    """Append-only repair journal with fsync barriers and query helpers."""

    def __init__(
        self,
        path: str | os.PathLike | None = None,
        fsync_interval: int = 8,
        tracer=NULL_TRACER,
    ):
        if fsync_interval < 1:
            raise JournalError("fsync_interval must be >= 1")
        self.path = Path(path) if path is not None else None
        self.fsync_interval = fsync_interval
        self.tracer = tracer
        self.records: list[JournalRecord] = []
        self.appends = 0
        self.fsyncs = 0
        #: Unfinished last lines :meth:`load` dropped (0 or 1).
        self.torn = 0
        self._next_seq = 0
        self._file = None
        if self.path is not None:
            if self.path.exists() and self.path.stat().st_size > 0:
                # Appending a second run would restart ``seq`` at 0 and
                # leave two run_configs for ``resume`` to pick from.
                raise JournalError(
                    f"{self.path} already holds a journal; a new run "
                    "needs a new file, an interrupted one is finished "
                    "with 'repro resume' (RepairJournal.load)"
                )
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._file = open(self.path, "a", encoding="utf-8")

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def append(self, kind: str, t: float = 0.0, **data) -> JournalRecord:
        """Append one record; flush it; fsync at barrier points."""
        record = JournalRecord(
            seq=self._next_seq, t=float(t), kind=kind, data=data
        )
        self._next_seq += 1
        self.records.append(record)
        self.appends += 1
        if self._file is not None:
            self._file.write(record.to_json() + "\n")
            self._file.flush()
            if self.appends % self.fsync_interval == 0:
                os.fsync(self._file.fileno())
                self.fsyncs += 1
        if self.tracer.enabled:
            self.tracer.instant(
                "journal.append", t=record.t, track="journal",
                kind=kind, seq=record.seq,
            )
        return record

    def close(self) -> None:
        """Fsync any tail records and close the backing file."""
        if self._file is not None:
            self._file.flush()
            os.fsync(self._file.fileno())
            self.fsyncs += 1
            self._file.close()
            self._file = None

    def __enter__(self) -> RepairJournal:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self.records)

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    @classmethod
    def load(
        cls,
        path: str | os.PathLike,
        tracer=NULL_TRACER,
        fsync_interval: int = 8,
    ) -> RepairJournal:
        """Reopen an existing journal — the one way to; appends continue
        the sequence.

        A last line without its newline is the record the writer died
        in: the file is cut back to the last complete record, so the
        next append starts a line of its own.  A malformed *complete*
        line is damage of another kind and stays a :class:`JournalError`.
        """
        source = Path(path)
        if not source.exists():
            raise JournalError(f"journal not found: {source}")
        raw = source.read_bytes()
        complete = raw.rfind(b"\n") + 1
        records = [
            JournalRecord.from_json(line)
            for line in raw[:complete].decode("utf-8").splitlines()
            if line.strip()
        ]
        journal = cls(fsync_interval=fsync_interval, tracer=tracer)
        if complete < len(raw):
            os.truncate(source, complete)
            journal.torn = 1
        journal.path = source
        journal._file = open(source, "a", encoding="utf-8")
        journal.records = records
        journal._next_seq = (
            max(r.seq for r in records) + 1 if records else 0
        )
        return journal

    # ------------------------------------------------------------------
    # Queries (replay helpers)
    # ------------------------------------------------------------------

    def last(self, kind: str) -> JournalRecord | None:
        for record in reversed(self.records):
            if record.kind == kind:
                return record
        return None

    def run_config(self) -> dict | None:
        """The run's reproducibility envelope, if one was recorded."""
        record = self.last("run_config")
        return dict(record.data) if record is not None else None

    def done_stripes(self) -> set[int]:
        """Stripes whose repair task completed (simulator orchestrators)."""
        return {
            int(r.data["stripe"])
            for r in self.records
            if r.kind == "task_done" and "stripe" in r.data
        }
