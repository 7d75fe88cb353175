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

    TORN = '{"data":{"stripe":4},"kind":"task_d'

    def test_a_torn_last_line_is_dropped_and_appends_go_on(self, tmp_path):
        """The writer died mid-record: that is the journal a crash
        leaves, and resuming is what it is for."""
        path = tmp_path / "j.jsonl"
        with RepairJournal(path) as journal:
            journal.append("run_config", seed=3)
            journal.append("task_done", stripe=0)
        intact = path.read_bytes()
        with open(path, "a", encoding="utf-8") as crashed:
            crashed.write(self.TORN)
        with RepairJournal.load(path) as loaded:
            assert loaded.torn == 1
            assert [r.kind for r in loaded.records] == [
                "run_config", "task_done",
            ]
            assert path.read_bytes() == intact
            assert loaded.append("task_done", stripe=4).seq == 2
        with RepairJournal.load(path) as again:
            assert again.torn == 0
            assert [r.seq for r in again.records] == [0, 1, 2]
            assert again.done_stripes() == {0, 4}
        # A last line that parses but lacks its newline is torn too:
        # its writer never finished it.
        whole = tmp_path / "whole.jsonl"
        whole.write_bytes(intact.rstrip(b"\n"))
        with RepairJournal.load(whole) as loaded:
            assert loaded.torn == 1 and len(loaded) == 1
        # Nothing but a torn first record: an empty journal.
        only = tmp_path / "only.jsonl"
        only.write_text(self.TORN)
        with RepairJournal.load(only) as loaded:
            assert loaded.torn == 1 and len(loaded) == 0
            assert only.read_bytes() == b""

    def test_a_torn_line_in_the_middle_still_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with RepairJournal(path) as journal:
            journal.append("run_config", seed=3)
        good = path.read_text()
        path.write_text(good + self.TORN + "\n" + good)
        before = path.read_bytes()
        with pytest.raises(JournalError, match="malformed"):
            RepairJournal.load(path)
        # ... and so does a complete last line that is not a record.
        path.write_text(good + self.TORN + "\n")
        with pytest.raises(JournalError, match="malformed"):
            RepairJournal.load(path)
        path.write_bytes(before + self.TORN.encode())
        with pytest.raises(JournalError, match="malformed"):
            RepairJournal.load(path)
        assert path.read_bytes() == before + self.TORN.encode()

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
        assert journal.run_config() == {"n": 6, "k": 4}
        last = {
            r.data["stripe"]: (r.data["watermark"], r.data["requestor"])
            for r in journal.records if r.kind == "progress"
        }
        assert last[0] == (25, 3)  # last record wins
        assert last.get(99) is None
        assert journal.done_stripes() == {0}
        assert journal.last("progress").data["watermark"] == 25
        kinds = [record.kind for record in journal.records]
        assert kinds.count("progress") == 2
