"""FaultPlan construction, queries, and serialisation."""

import math

import pytest

from repro.exceptions import FaultError
from repro.faults import (
    ChunkReadError,
    FaultPlan,
    HelperStall,
    LinkDegradation,
    NodeCrash,
)
from tests.chaos_harness import random_fault_plan


def to_spec(plan):
    """The ``--faults`` spec string of ``plan``, written independently of
    ``FaultPlan.from_spec``: numbers as ``%g``, a degradation's direction
    only when it is not ``both``."""
    parts = []
    for event in plan.events:
        fields = {
            key: f"{value:g}" if isinstance(value, float) else value
            for key, value in event.as_dict().items()
        }
        at = f"{event.kind}:{fields['node']}@"
        if event.kind == "degrade":
            direction = fields["direction"]
            parts.append(
                f"{at}{fields['start']}-{fields['end']}x{fields['factor']}"
                + ("" if direction == "both" else f":{direction}")
            )
        elif event.kind == "stall":
            parts.append(f"{at}{fields['start']}+{fields['duration']}")
        else:
            parts.append(f"{at}{fields['time']}")
    return ";".join(parts)


class TestEvents:
    def test_crash_rejects_negative_time(self):
        with pytest.raises(FaultError):
            NodeCrash(node=1, time=-0.5)

    def test_degradation_validates_window_and_factor(self):
        with pytest.raises(FaultError):
            LinkDegradation(node=1, start=5.0, end=4.0, factor=0.5)
        with pytest.raises(FaultError):
            LinkDegradation(node=1, start=0.0, end=1.0, factor=1.5)
        with pytest.raises(FaultError):
            LinkDegradation(
                node=1, start=0.0, end=1.0, factor=0.5, direction="sideways"
            )

    def test_stall_requires_positive_duration(self):
        with pytest.raises(FaultError):
            HelperStall(node=2, start=1.0, duration=0.0)

    def test_stall_end(self):
        assert HelperStall(node=2, start=1.0, duration=2.5).end == 3.5


class TestSpecRoundtrip:
    SPEC = "crash:3@5;degrade:2@2-8x0.25:down;stall:4@3+2;readerr:1@0"

    def test_from_spec_parses_every_kind(self):
        plan = FaultPlan.from_spec(self.SPEC)
        kinds = [event.kind for event in plan.events]
        assert kinds == ["crash", "degrade", "stall", "readerr"]

    def test_spec_roundtrip_is_identity(self):
        plan = FaultPlan.from_spec(self.SPEC)
        assert to_spec(plan) == self.SPEC
        again = FaultPlan.from_spec(to_spec(plan))
        assert again.events == plan.events

    def test_file_roundtrip(self, tmp_path):
        plan = FaultPlan.from_spec(self.SPEC)
        path = tmp_path / "plan.json"
        plan.save(path)
        loaded = FaultPlan.from_file(path)
        assert loaded.events == plan.events

    def test_malformed_specs_raise(self):
        for bad in ("crash", "crash:x@1", "wobble:1@2", "degrade:1@2x0.5"):
            with pytest.raises(FaultError):
                FaultPlan.from_spec(bad)

    def test_malformed_file_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2]")
        with pytest.raises(FaultError):
            FaultPlan.from_file(path)

    def test_empty_plan_is_falsy(self):
        assert not FaultPlan.none()
        assert len(FaultPlan.none()) == 0
        assert FaultPlan.from_spec(self.SPEC)


class TestQueries:
    def test_crash_kills_capacity_permanently(self):
        plan = FaultPlan([NodeCrash(node=3, time=5.0)])
        assert not plan.is_dead(3, 4.999)
        assert plan.is_dead(3, 5.0)
        assert plan.capacity_factor(3, "up", 4.0) == 1.0
        assert plan.capacity_factor(3, "up", 5.0) == 0.0
        assert plan.capacity_factor(3, "down", 100.0) == 0.0
        assert plan.dead_nodes(6.0) == {3}
        assert plan.dead_nodes(4.0) == set()

    def test_degradation_scales_only_its_direction_and_window(self):
        plan = FaultPlan(
            [LinkDegradation(node=2, start=2.0, end=8.0, factor=0.25,
                             direction="down")]
        )
        assert plan.capacity_factor(2, "down", 5.0) == 0.25
        assert plan.capacity_factor(2, "up", 5.0) == 1.0
        assert plan.capacity_factor(2, "down", 1.0) == 1.0
        assert plan.capacity_factor(2, "down", 8.0) == 1.0

    def test_overlapping_windows_multiply(self):
        plan = FaultPlan(
            [
                LinkDegradation(node=1, start=0.0, end=10.0, factor=0.5),
                LinkDegradation(node=1, start=5.0, end=15.0, factor=0.5),
            ]
        )
        assert plan.capacity_factor(1, "up", 7.0) == 0.25
        assert plan.capacity_factor(1, "up", 2.0) == 0.5
        assert plan.capacity_factor(1, "up", 12.0) == 0.5

    def test_stall_is_zero_factor_both_directions(self):
        plan = FaultPlan([HelperStall(node=4, start=3.0, duration=2.0)])
        assert plan.capacity_factor(4, "up", 4.0) == 0.0
        assert plan.capacity_factor(4, "down", 4.0) == 0.0
        assert plan.stalled_nodes(4.0) == {4}
        assert plan.stalled_nodes(5.0) == set()

    def test_read_error_keeps_capacity(self):
        plan = FaultPlan([ChunkReadError(node=1, time=2.0)])
        assert not plan.chunk_unreadable(1, 1.9)
        assert plan.chunk_unreadable(1, 2.0)
        assert plan.capacity_factor(1, "up", 3.0) == 1.0
        assert plan.unreadable_nodes(3.0) == {1}

    def test_breakpoints_and_next_change(self):
        plan = FaultPlan.from_spec(
            "crash:3@5;degrade:2@2-8x0.25;stall:4@3+2"
        )
        assert plan._breakpoints == [2.0, 3.0, 5.0, 8.0]
        assert plan.next_change_after(0.0) == 2.0
        assert plan.next_change_after(3.0) == 5.0
        assert plan.next_change_after(8.0) == math.inf

    def test_next_failure_affecting_scopes_to_nodes(self):
        plan = FaultPlan.from_spec("crash:3@5;readerr:1@2;crash:7@1")
        assert plan.next_failure_affecting({1, 3}, 0.0) == 2.0
        assert plan.next_failure_affecting({3}, 0.0) == 5.0
        assert plan.next_failure_affecting({3}, 5.0) == math.inf
        assert plan.next_failure_affecting({0, 2}, 0.0) == math.inf

    def test_shifted_offsets_every_event(self):
        spec = "crash:3@5;degrade:2@2-8x0.25:down;stall:4@3+2;readerr:1@0"
        plan = FaultPlan.from_spec(spec).shifted(100.0)
        assert plan.is_dead(3, 105.0) and not plan.is_dead(3, 104.0)
        assert plan.capacity_factor(2, "down", 103.0) == 0.25
        assert plan.capacity_factor(2, "down", 2.5) == 1.0
        assert plan.capacity_factor(4, "up", 104.0) == 0.0
        assert plan.chunk_unreadable(1, 100.0)
        assert not plan.chunk_unreadable(1, 99.0)
        # Zero offset is the identity (same object, no copy).
        assert plan.shifted(0.0) is plan


class TestRandom:
    def test_same_seed_same_plan(self):
        a = random_fault_plan(11, 10, crashes=2, stalls=2, read_errors=1)
        b = random_fault_plan(11, 10, crashes=2, stalls=2, read_errors=1)
        assert a.events == b.events

    def test_different_seeds_differ(self):
        a = random_fault_plan(1, 10)
        b = random_fault_plan(2, 10)
        assert a.events != b.events

    def test_protect_excludes_nodes(self):
        plan = random_fault_plan(
            5, 6, crashes=4, degradations=4, stalls=4,
            protect=(0, 1, 2, 3, 4),
        )
        assert {event.node for event in plan.events} == {5}

    def test_protect_everything_raises(self):
        with pytest.raises(FaultError):
            random_fault_plan(0, 3, protect=(0, 1, 2))
