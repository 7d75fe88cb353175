"""Tests for the event-driven lifetime loop on hand-built timelines."""

import re

import pytest

from repro.core.seeding import spawn_rng
from repro.ec import RSCode
from repro.ec.stripe import Stripe
from repro.exceptions import LifetimeError
from repro.lifetime import (
    ClusterLayout,
    FixedDurations,
    Outage,
    UnitRef,
    simulate_lifetime,
)

CODE = RSCode(4, 2)


def one_stripe(placement):
    return [Stripe(stripe_id=0, code=CODE, placement=list(placement))]


def flat_layout(machines=4, racks=1):
    # One disk per machine: disk index == machine index, so timelines
    # are easy to write by hand.
    return ClusterLayout(
        machines=machines, racks=racks, disks_per_machine=1
    )


def run(
    outages,
    layout=None,
    placement=(0, 1, 2, 3),
    repair_seconds=50.0,
    horizon=10_000.0,
    **kwargs,
):
    return simulate_lifetime(
        layout or flat_layout(),
        one_stripe(placement),
        outages,
        "pivot",
        FixedDurations({"pivot": repair_seconds}),
        spawn_rng(0, "test"),
        horizon,
        **kwargs,
    )


def perm(start, duration=0.0):
    return Outage(start=start, duration=duration, permanent=True)


def transient(start, duration):
    return Outage(start=start, duration=duration, permanent=False)


class TestRepairPath:
    def test_single_failure_is_repaired(self):
        stats = run({UnitRef("disk", 0): [perm(100.0)]})
        assert stats.chunk_failures == 1
        assert stats.repairs_completed == 1
        assert stats.data_loss_events == 0
        assert stats.repair_seconds == 50.0

    def test_replacement_lead_time_blocks_repair(self):
        # The destroyed chunk cannot be rebuilt while its disk awaits
        # replacement: with the lead time the repair misses the horizon.
        timeline = {UnitRef("disk", 0): [perm(100.0, duration=1000.0)]}
        blocked = run(timeline, horizon=1100.0)
        assert blocked.repairs_completed == 0
        unblocked = run(
            {UnitRef("disk", 0): [perm(100.0)]}, horizon=1100.0
        )
        assert unblocked.repairs_completed == 1

    def test_repair_streams_serialize(self):
        # Two failures, one stream, 50 s repairs: the second chunk waits
        # for the first stream and completes at ~200 s.
        timeline = {
            UnitRef("disk", 0): [perm(100.0)],
            UnitRef("disk", 1): [perm(110.0)],
        }
        stats = run(timeline, repair_streams=1, horizon=210.0)
        assert stats.repairs_completed == 2
        shorter = run(timeline, repair_streams=1, horizon=190.0)
        assert shorter.repairs_completed == 1

    def test_lazy_policy_defers_until_threshold(self):
        single = run(
            {UnitRef("disk", 0): [perm(100.0)]},
            policy="lazy", lazy_threshold=2,
        )
        assert single.repairs_completed == 0  # below threshold: ride it out
        double = run(
            {
                UnitRef("disk", 0): [perm(100.0)],
                UnitRef("disk", 1): [perm(200.0)],
            },
            policy="lazy", lazy_threshold=2,
        )
        assert double.repairs_completed == 2


class TestDataLoss:
    def test_third_concurrent_failure_loses_data(self):
        # Repairs take 10000 s, failures land every 100 s: the third
        # failure finds 2 chunks already gone -> below k=2 intact.
        stats = run(
            {
                UnitRef("disk", 0): [perm(100.0)],
                UnitRef("disk", 1): [perm(200.0)],
                UnitRef("disk", 2): [perm(300.0)],
            },
            repair_seconds=10_000.0,
            horizon=20_000.0,
        )
        assert stats.data_loss_events == 1
        assert stats.loss_times == [300.0]
        # The in-flight repair of the restored stripe is discarded.
        assert stats.repairs_aborted >= 1

    def test_stripe_restored_after_loss_keeps_counting(self):
        # Two independent triple-failure bursts: both must count.
        stats = run(
            {
                UnitRef("disk", 0): [perm(100.0), perm(5000.0)],
                UnitRef("disk", 1): [perm(200.0), perm(5100.0)],
                UnitRef("disk", 2): [perm(300.0), perm(5200.0)],
            },
            repair_seconds=100_000.0,
            horizon=50_000.0,
        )
        assert stats.data_loss_events == 2

    def test_fast_repair_prevents_loss(self):
        stats = run(
            {
                UnitRef("disk", 0): [perm(100.0)],
                UnitRef("disk", 1): [perm(200.0)],
                UnitRef("disk", 2): [perm(300.0)],
            },
            repair_seconds=50.0,
        )
        assert stats.data_loss_events == 0
        assert stats.repairs_completed == 3


class TestTransientOutages:
    def test_transient_outage_destroys_nothing(self):
        stats = run({UnitRef("machine", 0): [transient(100.0, 500.0)]})
        assert stats.chunk_failures == 0
        assert stats.data_loss_events == 0
        assert stats.repairs_completed == 0

    def test_unavailability_is_counted_not_lost(self):
        # Three of four chunks unreachable -> fewer than k=2 live: an
        # availability incident, not a durability one.
        stats = run(
            {
                UnitRef("machine", 0): [transient(100.0, 500.0)],
                UnitRef("machine", 1): [transient(150.0, 500.0)],
                UnitRef("machine", 2): [transient(150.0, 500.0)],
            }
        )
        assert stats.data_loss_events == 0
        assert stats.unavailable_events == 1
        assert stats.unavailable_seconds == pytest.approx(450.0)

    def test_rack_outage_takes_down_its_machines_together(self):
        # racks=2 round-robin: rack 1 holds machines 1 and 3.  With the
        # stripe on machines 0..3, a rack-1 outage plus one transient
        # machine outage leaves 1 live chunk < k.
        stats = run(
            {
                UnitRef("rack", 1): [transient(100.0, 300.0)],
                UnitRef("machine", 0): [transient(150.0, 100.0)],
            },
            layout=flat_layout(racks=2),
        )
        assert stats.unavailable_events == 1
        assert stats.unavailable_seconds == pytest.approx(100.0)


class TestRackStallsRepair:
    def test_repair_waits_for_readable_sources(self):
        # Chunk on machine 0 is destroyed at t=100; a rack-1 outage
        # (machines 1 and 3) from t=90 leaves only 1 live source < k, so
        # the 50 s repair cannot start until the rack returns at t=400.
        timeline = {
            UnitRef("disk", 0): [perm(100.0)],
            UnitRef("rack", 1): [transient(90.0, 310.0)],
        }
        stalled = run(timeline, layout=flat_layout(racks=2), horizon=430.0)
        assert stalled.repairs_completed == 0
        finished = run(timeline, layout=flat_layout(racks=2), horizon=500.0)
        assert finished.repairs_completed == 1


class TestValidation:
    def test_deterministic_for_equal_inputs(self):
        timeline = {
            UnitRef("disk", 0): [perm(100.0)],
            UnitRef("machine", 1): [transient(50.0, 25.0)],
        }
        a = run(timeline)
        b = run(timeline)
        assert a.__dict__ == b.__dict__

    def test_rejects_mixed_codes(self):
        stripes = [
            Stripe(stripe_id=0, code=RSCode(4, 2), placement=[0, 1, 2, 3]),
            Stripe(stripe_id=1, code=RSCode(3, 2), placement=[0, 1, 2]),
        ]
        with pytest.raises(LifetimeError):
            simulate_lifetime(
                flat_layout(), stripes, {}, "pivot",
                FixedDurations({"pivot": 1.0}), spawn_rng(0, "x"), 100.0,
            )

    def test_rejects_placement_outside_layout(self):
        with pytest.raises(LifetimeError):
            run({}, layout=flat_layout(machines=3))

    @pytest.mark.parametrize(
        "unit, message",
        [
            (UnitRef("disk", 99), "disk 99 outside [0, 4)"),
            (UnitRef("machine", 99), "machine 99 outside [0, 4)"),
            (UnitRef("rack", 99), "rack 99 outside [0, 1)"),
        ],
        ids=["disk", "machine", "rack"],
    )
    def test_rejects_outage_unit_outside_layout(self, unit, message):
        # Up front, naming the unit and the layout's bound: also for an
        # outage past the horizon, which the loop would never reach.
        for start in (100.0, 20_000.0):
            with pytest.raises(LifetimeError, match=re.escape(message)):
                run({unit: [transient(start, 1.0)]})

    def test_rejects_bad_policy(self):
        with pytest.raises(LifetimeError):
            run({}, policy="never")
