"""The ready-heap lifetime loop against the scan loop it replaced.

``scan_oracle.scan_simulate_lifetime`` is the previous event loop kept
verbatim (one event heap, a ``pending`` set re-scanned per free stream).
Both loops must tell the same story to the last bit: every count, every
loss time and its stripe, and both float sums compare with ``==``.
``offers_examined`` is the one field left out — it counts the entries
each dispatch looks at, which is exactly what the two data structures
do differently.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.seeding import spawn_rng
from repro.ec import RSCode
from repro.ec.stripe import Stripe, place_stripes
from repro.lifetime import (
    ClusterLayout,
    ExponentialDurations,
    FixedDurations,
    LifetimeConfig,
    UnitRef,
    default_processes,
    simulate_lifetime,
)
from tests.lifetime.scan_oracle import scan_simulate_lifetime
from tests.lifetime.test_simulate import perm, transient

HOUR = 3600.0
LOOPS = pytest.mark.parametrize(
    "loop", [simulate_lifetime, scan_simulate_lifetime], ids=["heap", "scan"]
)


def outcome(stats) -> dict:
    record = dataclasses.asdict(stats)
    del record["offers_examined"]
    return record


@st.composite
def studies(draw):
    """One seeded single-run study: config, duration model, scheme."""
    n, k = draw(st.sampled_from([(4, 3), (5, 2), (6, 4), (9, 6), (14, 10)]))
    config = LifetimeConfig(
        years=draw(st.sampled_from([0.1, 0.25, 0.5, 1.0])),
        runs=1,
        seed=draw(st.integers(0, 10_000)),
        machines=n + draw(st.integers(0, 6)),
        racks=draw(st.sampled_from([1, 2, 4])),
        disks_per_machine=draw(st.integers(1, 3)),
        stripes=draw(st.integers(2, 40)),
        n=n,
        k=k,
        disk_mttf_days=draw(st.sampled_from([5.0, 15.0, 40.0])),
        disk_replace_hours=draw(st.sampled_from([0.0, 0.5, 6.0])),
        machine_mttf_days=draw(st.sampled_from([0.0, 10.0, 30.0])),
        rack_mttf_days=draw(st.sampled_from([0.0, 20.0, 60.0])),
        repair_streams=draw(st.integers(1, 4)),
        policy=draw(st.sampled_from(["eager", "lazy"])),
        lazy_threshold=draw(st.integers(1, n - k)),
    )
    model = draw(st.sampled_from([FixedDurations, ExponentialDurations]))
    slowdown = draw(st.sampled_from([1.0, 8.0, 40.0]))
    durations = model({"pivot": HOUR, "conventional": slowdown * HOUR})
    return config, durations, draw(st.sampled_from(["pivot", "conventional"]))


def timeline(config):
    """Placement and outages of run 0, built as ``run_lifetime`` does."""
    layout = config.layout
    stripes = place_stripes(
        config.stripes, RSCode(config.n, config.k), config.machines,
        spawn_rng(config.seed, "placement"),
    )
    outages = {}
    for kind, process in sorted(default_processes(config).items()):
        for unit in layout.units(kind):
            schedule = process.schedule(
                spawn_rng(config.seed, "failures", str(unit)), config.horizon
            )
            if schedule:
                outages[unit] = schedule
    return layout, stripes, outages


class TestAgainstScanOracle:
    @settings(max_examples=60, deadline=None)
    @given(studies())
    def test_whole_run_stats_are_equal(self, study):
        config, durations, scheme = study
        layout, stripes, outages = timeline(config)
        heap, scan = (
            loop(
                layout, stripes, outages, scheme, durations,
                spawn_rng(config.seed, "repairs", scheme), config.horizon,
                repair_streams=config.repair_streams, policy=config.policy,
                lazy_threshold=config.lazy_threshold,
            )
            for loop in (simulate_lifetime, scan_simulate_lifetime)
        )
        assert outcome(heap) == outcome(scan)
        # Lazy invalidation never drops a chunk it should have started.
        assert heap.offers_examined >= heap.dispatches


def run(loop, outages, horizon=10_000.0):
    """RS(4,2) on four one-disk machines (disk == machine), 50 s repairs."""
    return loop(
        ClusterLayout(machines=4, racks=1, disks_per_machine=1),
        [Stripe(stripe_id=0, code=RSCode(4, 2), placement=[0, 1, 2, 3])],
        outages, "pivot", FixedDurations({"pivot": 50.0}),
        spawn_rng(0, "test"), horizon, repair_streams=1,
    )


@LOOPS
class TestSameInstantTies:
    """An outage edge goes before a completion at the same timestamp."""

    def test_target_disk_fails_as_its_repair_completes(self, loop):
        # Chunk 0 is rebuilt 100 -> 150; its disk drops out at 150.0
        # sharp.  The edge is taken first, so the write cannot land: the
        # repair aborts, re-queues, restarts when the disk returns at
        # 180 and completes at 230.
        stats = run(loop, {
            UnitRef("disk", 0): [perm(100.0), transient(150.0, 30.0)],
        })
        assert stats.repairs_aborted == 1
        assert stats.repairs_completed == 1
        assert stats.dispatches == 2
        assert stats.repair_seconds == 50.0
        cut_short = run(loop, {
            UnitRef("disk", 0): [perm(100.0), transient(150.0, 30.0)],
        }, horizon=229.0)
        assert cut_short.repairs_completed == 0

    def test_kth_source_fails_as_the_repair_completes(self, loop):
        # Machine 1 is out from 120; machine 2 drops at 150.0 sharp,
        # leaving one readable source < k as the repair would complete:
        # it aborts and restarts the instant machine 2 is back (170).
        stats = run(loop, {
            UnitRef("disk", 0): [perm(100.0)],
            UnitRef("machine", 1): [transient(120.0, 500.0)],
            UnitRef("machine", 2): [transient(150.0, 20.0)],
        }, horizon=221.0)
        assert stats.repairs_aborted == 1
        assert stats.repairs_completed == 1  # 170 -> 220
        assert stats.unavailable_events == 1
        assert stats.unavailable_seconds == 20.0

    def test_zero_lead_time_replacement_dispatches_at_once(self, loop):
        # A permanent outage with no lead time has its down and up
        # edges at one timestamp: the chunk is destroyed while its disk
        # is out and must be started by the up edge of that same
        # instant — no later event would ever offer it.
        stats = run(loop, {UnitRef("disk", 0): [perm(100.0)]}, horizon=151.0)
        assert stats.events == 3  # down, up, completion at 150
        assert stats.dispatches == 1
        assert stats.repairs_completed == 1
