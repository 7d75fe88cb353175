"""``repro.scenario``: the decisions the seeded full-node scenario owns.

What the ``repro`` subcommands print through it is pinned by
``tests/test_cli_identity.py``; these tests hold each decision the
module documents at the library surface, where a caller other than the
CLI meets it.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.ec import RSCode, place_stripes
from repro.resilience import JournalError, RepairJournal
from repro.scenario import (
    RUN_CONFIG_KEYS,
    SCHEMES,
    FullNodeScenario,
    parse_fault_specs,
    resume,
)
from repro.traces import PROFILES, generate_trace


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("scenario") / "t.npz"
    generate_trace(
        PROFILES["TPC-H"], node_count=12, duration=20, seed=5
    ).save(path)
    return path


@pytest.fixture
def scenario(trace_file):
    return FullNodeScenario(
        trace=str(trace_file), stripes=6, chunk_mib=4, seed=3
    )


def test_placement_and_victim_follow_the_seed(scenario):
    live = scenario.build()
    expected = place_stripes(
        6, RSCode(6, 4), live.trace.node_count, np.random.default_rng(3)
    )
    assert [s.placement for s in live.stripes] == [
        s.placement for s in expected
    ]
    assert live.failed_node == expected[0].placement[0]


def test_explicit_foreground_runs_on_full_capacity_links(scenario):
    subtracted = scenario.build()
    loaded = dataclasses.replace(scenario, foreground_rate=40.0).build()
    capacity = loaded.trace.capacity
    assert set(loaded.network.capacities_at(7.0).values()) == {capacity}
    assert min(subtracted.network.capacities_at(7.0).values()) < capacity
    # The baseline of a loaded scenario shares its network, not its load.
    baseline, foreground = loaded.run(foreground=False)
    assert foreground is None
    assert baseline.chunks_repaired == 3


def test_foreground_is_drained_and_dead_clients_dropped(scenario):
    loaded = dataclasses.replace(scenario, foreground_rate=40.0)
    _, foreground = loaded.build().run()
    counters = foreground.registry.snapshot()["counters"]
    assert "fg_client_dead" not in counters
    assert foreground.requests_remaining == 0
    assert foreground.pending_flows == 0
    crashed = dataclasses.replace(loaded, faults="crash:3@0.5")
    _, foreground = crashed.build().run()
    counters = foreground.registry.snapshot()["counters"]
    assert counters["fg_client_dead"] > 0
    assert foreground.pending_flows == 0


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_planning_is_charged_the_model(scenario, scheme):
    result, _ = scenario.build().run(scheme)
    planner = SCHEMES[scheme]
    assert result.task_results
    for task in result.task_results:
        assert task.planning_seconds == (
            planner.SECONDS_PER_CANDIDATE * (scenario.n - 1)
            + planner.SECONDS_PER_TREE * task.plan.trees_examined
        ) > 0


def test_fault_specs_have_one_parser(tmp_path):
    assert parse_fault_specs(None, None) == (None, None)
    plan, policy = parse_fault_specs("crash:3@5", "timeout=0.5,retries=3")
    assert len(plan) == 1 and policy.max_retries == 3
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan.as_dict()))
    from_file, _ = parse_fault_specs(str(path), None)
    assert from_file.as_dict() == plan.as_dict()


class TestResume:
    @pytest.fixture
    def journal_file(self, scenario, tmp_path):
        path = tmp_path / "j.jsonl"
        with RepairJournal(path) as journal:
            scenario.build().run(journal=journal)
        return path

    def test_run_config_is_the_documented_record(self, journal_file):
        first = json.loads(journal_file.read_text().splitlines()[0])
        assert first["kind"] == "run_config"
        assert tuple(first["data"]) == tuple(sorted(RUN_CONFIG_KEYS))
        assert first["data"]["scheme"] == "pivot"

    def test_resume_repairs_what_the_journal_lacks(self, journal_file):
        lines = journal_file.read_text().splitlines()
        done = [
            line for line in lines
            if json.loads(line)["kind"] == "task_done"
        ]
        kept = [line for line in lines if line not in done[1:]]
        journal_file.write_text("".join(line + "\n" for line in kept))
        with RepairJournal.load(journal_file) as journal:
            live, done, result = resume(journal)
            kinds = [record.kind for record in journal.records]
            assert kinds.count("run_config") == 1
        lost = {stripe.stripe_id for stripe in live.lost_stripes()}
        assert len(lost) == 3 and len(done) == 1 and done < lost
        assert result.chunks_repaired == 2
        with RepairJournal.load(journal_file) as journal:
            _, done, result = resume(journal)
        assert done == lost and result is None

    def test_a_record_from_another_placement_is_refused(
        self, journal_file, tmp_path
    ):
        def rewritten(edit) -> RepairJournal:
            records = [
                json.loads(line)
                for line in journal_file.read_text().splitlines()
            ]
            edit(records[0]["data"])
            path = tmp_path / "edited.jsonl"
            path.write_text(
                "".join(json.dumps(record) + "\n" for record in records)
            )
            return RepairJournal.load(path)

        with rewritten(lambda data: data.update(seed=4)) as journal:
            with pytest.raises(JournalError, match="now places node"):
                resume(journal)
        with rewritten(lambda data: data.pop("chunk_mib")) as journal:
            with pytest.raises(JournalError, match="lacks 'chunk_mib'"):
                resume(journal)
