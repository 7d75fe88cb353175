"""Master crash recovery: one journal, one resume, the bytes follow.

The acceptance criterion: kill the master partway through a full-node
repair, resume from the journal (:func:`repro.scenario.resume`), and end
with exactly the adoptions an uninterrupted run performs — no stripe
repaired twice, no stripe lost.  The timing plane decides (which stripes
the journal lacks, through which trees); the byte-accurate cluster
executes its results (:func:`repro.faults.runner.adopt_full_node`).
Replaying a finished journal is a no-op that leaves every chunk byte on
every node untouched.
"""

import dataclasses
import json
from collections import Counter

import numpy as np
import pytest

from repro.cluster.master import Cluster
from repro.ec import RSCode
from repro.faults.runner import adopt_full_node
from repro.resilience import JournalError, RepairJournal
from repro.scenario import FullNodeScenario, resume
from repro.traces import WorkloadTrace

NODE_COUNT = 12
CODE = RSCode(6, 4)
STRIPES = 10
SEED = 21


@pytest.fixture(scope="module")
def scenario(tmp_path_factory):
    """A static network and one stripe in flight at a time: nothing a
    plan depends on moves with the clock or with what else is running,
    so a resumed run must put every byte where the uninterrupted run
    put it.  128 KiB chunks, which the cluster really holds."""
    capacity = 1.25e8
    used = np.outer(np.linspace(0.1, 0.6, NODE_COUNT), np.ones(30))
    path = tmp_path_factory.mktemp("recovery") / "static.npz"
    WorkloadTrace(
        "static", capacity, used * capacity, used[::-1] * capacity
    ).save(path)
    return FullNodeScenario(
        trace=str(path), n=CODE.n, k=CODE.k, stripes=STRIPES,
        chunk_mib=0.125, concurrency=1, seed=SEED,
    )


def written_cluster(live) -> tuple[Cluster, dict]:
    """A cluster holding the scenario's stripes (the placement its seed
    draws), the failed node crashed; and the chunks that node held."""
    cluster = Cluster(live.trace.node_count, CODE)
    placement_rng = np.random.default_rng(live.spec.seed)
    data_rng = np.random.default_rng(SEED + 1)
    for _ in live.stripes:
        data = [
            data_rng.integers(
                0, 256, size=live.config.chunk_size, dtype=np.uint8
            )
            for _ in range(CODE.k)
        ]
        cluster.write_stripe(data, placement_rng)
    assert [s.placement for s in cluster.stripes.values()] == [
        s.placement for s in live.stripes
    ]
    failed = cluster.nodes[live.failed_node]
    originals = {
        chunk_id.stripe_id: failed.read(chunk_id).tobytes()
        for chunk_id in failed.chunk_ids()
    }
    cluster.fail_node(live.failed_node)
    return cluster, originals


def journaled_run(scenario, path):
    """One uninterrupted journaled repair: (live scenario, result)."""
    live = scenario.build()
    with RepairJournal(path) as journal:
        result, _ = live.run(journal=journal)
    return live, result


def cut_after(source, boundary: int, target, torn: str = ""):
    """The journal a master leaves when it dies just before writing
    ``task_done`` number ``boundary`` (``torn``: mid-way through it)."""
    kept, done = [], 0
    for line in source.read_text().splitlines():
        is_done = json.loads(line)["kind"] == "task_done"
        if is_done and done == boundary:
            break
        kept.append(line)
        done += is_done
    target.write_text("".join(line + "\n" for line in kept) + torn)
    return target


def snapshot_bytes(cluster: Cluster) -> dict:
    return {
        (node.node_id, chunk_id): node.read(chunk_id).tobytes()
        for node in cluster.nodes if node.alive
        for chunk_id in node.chunk_ids()
    }


def rebuilt_chunks(cluster: Cluster, live) -> dict:
    """stripe id -> bytes of the chunk the failed node used to hold,
    wherever the cluster says it lives now."""
    chunks = {}
    for original in live.lost_stripes():
        index = original.chunk_on_node(live.failed_node)
        stripe = cluster.stripes[original.stripe_id]
        holder = cluster.nodes[stripe.placement[index]]
        chunks[stripe.stripe_id] = holder.read(
            stripe.chunk_id(index)
        ).tobytes()
    return chunks


def done_records(path) -> list[int]:
    with RepairJournal.load(path) as journal:
        return [
            r.data["stripe"] for r in journal.records if r.kind == "task_done"
        ]


def crash_and_resume(scenario, full_journal, full, boundary, path, **torn):
    """Crash after ``boundary`` stripes, adopt those, resume, adopt the
    rest: (cluster, originals, adopted before, adopted after, done)."""
    live = scenario.build()
    cluster, originals = written_cluster(live)
    # What the interrupted run had finished: the first tasks of ``full``.
    finished = dataclasses.replace(
        full, task_results=full.task_results[:boundary]
    )
    first = adopt_full_node(cluster, finished, live.config)
    with RepairJournal.load(
        cut_after(full_journal, boundary, path, **torn)
    ) as journal:
        _, done, result = resume(journal)
    second = (
        adopt_full_node(cluster, result, live.config)
        if result is not None else []
    )
    return cluster, originals, first, second, done


class TestMasterRecovery:
    @pytest.fixture
    def uninterrupted(self, scenario, tmp_path):
        path = tmp_path / "full.jsonl"
        live, result = journaled_run(scenario, path)
        return live, result, path

    def test_uninterrupted_run_adopts_all(self, uninterrupted):
        live, result, path = uninterrupted
        cluster, originals = written_cluster(live)
        lost = {s.stripe_id for s, _ in cluster.lost_chunks(live.failed_node)}
        assert len(lost) > 2
        adopted = adopt_full_node(cluster, result, live.config)
        assert sorted(adopted) == sorted(lost)
        assert set(done_records(path)) == lost
        assert cluster.lost_chunks(live.failed_node) == []
        assert rebuilt_chunks(cluster, live) == originals

    def test_crash_then_recover_matches_uninterrupted(
        self, scenario, uninterrupted, tmp_path
    ):
        live, full, path = uninterrupted
        baseline, _ = written_cluster(live)
        base_adopted = adopt_full_node(baseline, full, live.config)

        cluster, originals, crashed, recovered, done = crash_and_resume(
            scenario, path, full, 2, tmp_path / "cut.jsonl"
        )
        assert len(crashed) == 2 and recovered
        # Crash + recovery adopt exactly what one clean run adopts: the
        # journal's done set is what the resume skips, nothing twice.
        assert done == set(crashed)
        assert sorted(crashed + recovered) == sorted(base_adopted)
        assert snapshot_bytes(cluster) == snapshot_bytes(baseline)
        assert rebuilt_chunks(cluster, live) == originals

    def test_second_replay_is_a_no_op(
        self, scenario, uninterrupted, tmp_path
    ):
        live, full, path = uninterrupted
        cut = tmp_path / "cut.jsonl"
        cluster, _, crashed, recovered, _ = crash_and_resume(
            scenario, path, full, 1, cut
        )
        before = snapshot_bytes(cluster)
        records = cut.read_bytes()
        with RepairJournal.load(cut) as journal:
            _, done, again = resume(journal)
        assert again is None
        assert done == set(crashed + recovered)
        assert cut.read_bytes() == records
        # The finished result replayed into the cluster adopts nothing.
        assert adopt_full_node(cluster, full, live.config) == []
        assert snapshot_bytes(cluster) == before

    def test_checkpoint_survives_on_disk(
        self, scenario, uninterrupted, tmp_path
    ):
        live, full, path = uninterrupted
        # The master process is gone, killed half-way into a record; a
        # fresh one loads the journal file and finishes the repair.
        cluster, originals, crashed, recovered, done = crash_and_resume(
            scenario, path, full, 2, tmp_path / "cut.jsonl",
            torn='{"data":{"stripe":4},"kind":"task_d',
        )
        assert done == set(crashed) and recovered
        assert cluster.lost_chunks(live.failed_node) == []
        assert rebuilt_chunks(cluster, live) == originals

    def test_recover_requires_checkpoint(self, tmp_path):
        with pytest.raises(JournalError, match="no run_config"):
            resume(RepairJournal())
        with RepairJournal(tmp_path / "other.jsonl") as journal:
            journal.append("task_done", stripe=0)
            with pytest.raises(JournalError, match="no run_config"):
                resume(journal)

    def test_checkpoint_for_other_node_rejected(
        self, uninterrupted, tmp_path
    ):
        live, _, path = uninterrupted
        records = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        assert records[0]["data"]["failed_node"] == live.failed_node
        records[0]["data"]["failed_node"] = live.failed_node + 1
        edited = tmp_path / "edited.jsonl"
        edited.write_text(
            "".join(json.dumps(record) + "\n" for record in records)
        )
        with RepairJournal.load(edited) as journal:
            with pytest.raises(JournalError, match="now places node"):
                resume(journal)


class TestEveryBoundary:
    def test_resume_at_every_task_done_boundary_moves_the_same_bytes(
        self, scenario, tmp_path
    ):
        """The seam, crossed at every point a master can die between
        two stripes: the timing plane resumes, the byte plane adopts,
        and the cluster ends where the uninterrupted run's ends."""
        path = tmp_path / "full.jsonl"
        live, full = journaled_run(scenario, path)
        baseline, _ = written_cluster(live)
        lost = sorted(adopt_full_node(baseline, full, live.config))
        # A result's tasks are in the order of its task_done records.
        assert [
            task.plan.notes["stripe_id"] for task in full.task_results
        ] == done_records(path)
        for boundary in range(len(lost) + 1):
            cut = tmp_path / f"cut{boundary}.jsonl"
            cluster, originals, first, second, done = crash_and_resume(
                scenario, path, full, boundary, cut
            )
            assert len(first) == boundary and done == set(first)
            # Every stripe adopted exactly once, across both runs.
            assert Counter(first + second) == Counter(lost)
            assert snapshot_bytes(cluster) == snapshot_bytes(baseline)
            assert rebuilt_chunks(cluster, live) == originals
            with RepairJournal.load(cut) as journal:
                _, done, again = resume(journal)
            assert again is None and done == set(lost)
            assert snapshot_bytes(cluster) == snapshot_bytes(baseline)
