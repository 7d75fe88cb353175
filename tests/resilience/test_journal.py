"""Property and unit tests for the append-only repair journal."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.resilience import JournalError, JournalRecord, RepairJournal

# JSON-representable payload values (floats finite: NaN round-trips as a
# parse error, infinity is not valid JSON).
_values = st.one_of(
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=20),
    st.booleans(),
    st.none(),
)
_payloads = st.dictionaries(
    st.text(
        alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=10
    # append()'s own parameter names cannot also arrive through **data.
    ).filter(lambda key: key not in ("self", "kind", "t")),
    _values,
    max_size=5,
)


class TestRoundTrip:
    @given(
        seq=st.integers(min_value=0, max_value=2**31),
        t=st.floats(min_value=0, max_value=1e9, allow_nan=False),
        kind=st.sampled_from(
            ["task_start", "progress", "attempt_failed", "hedge_launch"]
        ),
        data=_payloads,
    )
    @settings(max_examples=60, deadline=None)
    def test_record_json_round_trip(self, seq, t, kind, data):
        record = JournalRecord(seq=seq, t=t, kind=kind, data=data)
        back = JournalRecord.from_json(record.to_json())
        assert back == record
        # Deterministic serialisation: same record, same bytes.
        assert back.to_json() == record.to_json()

    @given(data=_payloads)
    @settings(max_examples=30, deadline=None)
    def test_file_round_trip(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("journal") / "j.jsonl"
        with RepairJournal(path) as journal:
            journal.append("task_start", t=1.5, **data)
            journal.append("progress", t=2.5, stripe=1, watermark=7)
        loaded = RepairJournal.load(path)
        assert loaded.records == journal.records
        loaded.close()

    def test_malformed_record_raises(self):
        with pytest.raises(JournalError):
            JournalRecord.from_json("not json")
        with pytest.raises(JournalError):
            JournalRecord.from_json('{"seq": 0}')


class TestJournal:
    def test_deterministic_bytes(self, tmp_path):
        paths = []
        for name in ("a.jsonl", "b.jsonl"):
            path = tmp_path / name
            with RepairJournal(path) as journal:
                journal.append("run_config", n=6, k=4, seed=3)
                journal.append("task_start", t=0.5, stripe=0, requestor=2)
                journal.append("progress", t=1.0, stripe=0, watermark=40)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_in_memory_journal_has_no_file(self):
        journal = RepairJournal()
        journal.append("task_start", stripe=0)
        assert journal.path is None
        assert len(journal) == 1
        journal.close()

    def test_fsync_barriers(self, tmp_path):
        with RepairJournal(tmp_path / "j.jsonl", fsync_interval=2) as j:
            for i in range(5):
                j.append("progress", stripe=0, watermark=i)
            assert j.fsyncs == 2  # after appends 2 and 4
        assert j.fsyncs == 3  # close() adds the tail barrier

    def test_fsync_interval_validated(self):
        with pytest.raises(JournalError):
            RepairJournal(fsync_interval=0)

    def test_load_missing_raises(self, tmp_path):
        with pytest.raises(JournalError):
            RepairJournal.load(tmp_path / "absent.jsonl")

    def test_load_continues_sequence(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with RepairJournal(path) as journal:
            journal.append("task_start", stripe=0)
            journal.append("task_done", stripe=0)
        with RepairJournal.load(path) as loaded:
            record = loaded.append("task_start", stripe=1)
            assert record.seq == 2
        lines = path.read_text().splitlines()
        assert [json.loads(line)["seq"] for line in lines] == [0, 1, 2]

    def test_a_new_run_refuses_a_file_that_holds_a_journal(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with RepairJournal(path) as journal:
            journal.append("run_config", seed=3)
        before = path.read_bytes()
        with pytest.raises(JournalError, match="repro resume"):
            RepairJournal(path)
        assert path.read_bytes() == before
        # An empty file (touched, or a run that wrote nothing) is new.
        empty = tmp_path / "empty.jsonl"
        empty.touch()
        with RepairJournal(empty) as journal:
            assert journal.append("run_config", seed=4).seq == 0

    def test_queries(self):
        journal = RepairJournal()
        journal.append("run_config", n=6, k=4)
        journal.append("task_start", t=0.0, stripe=0, requestor=3)
        journal.append("progress", t=1.0, stripe=0, watermark=10,
                       requestor=3)
        journal.append("progress", t=2.0, stripe=0, watermark=25,
                       requestor=3)
        journal.append("task_done", t=3.0, stripe=0)
        journal.append("chunk_adopted", t=3.0, stripe=0, requestor=3)
        assert journal.run_config() == {"n": 6, "k": 4}
        assert journal.watermark(0) == (25, 3)  # last record wins
        assert journal.watermark(99) is None
        assert journal.done_stripes() == {0}
        assert journal.adopted_stripes() == {0}
        assert journal.last("progress").data["watermark"] == 25
        assert len(journal.all("progress")) == 2
