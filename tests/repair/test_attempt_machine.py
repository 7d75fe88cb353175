"""The composed attempt machine: one ``StripeRepairMaster`` behind every
driver.

``test_attempt_identity.py`` pins what the single-chunk driver emits
across commits; this file checks what one machine behind every driver
is for — a full-node (or fleet) repair honours the ``RetryPolicy`` it
is handed, watches for stalls, reports what happened per task, keys its
backoffs, and does none of it to a stripe that was merely paused — and that the two drivers of one stripe
agree with each other.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bandwidth_view import BandwidthSnapshot
from repro.ec import place_stripes
from repro.faults import FaultPlan, RetryPolicy
from repro.faults.network import FaultyNetwork
from repro.network.simulator import FluidSimulator
from repro.obs import Tracer
from repro.repair import (
    RepairFailed,
    repair_full_node,
    repair_single_chunk_faulted,
)
from repro.repair.jobmaster import StripeRepairMaster, choose_requestor
from repro.repair.pipeline import ExecutionConfig
from repro.resilience import RepairJournal
from tests.repair.test_driver_identity import (
    CODE,
    CONFIG,
    FAILED,
    HELPERS,
    NODES,
    STRIPES,
    pinned,
    star,
)

MiB = 1024 * 1024
H0 = HELPERS[0]


def full_node(faults=None, policy=None, stripes=STRIPES, failed=FAILED,
              network=None, config=CONFIG, concurrency=3, journal=None):
    tracer = Tracer()
    result = repair_full_node(
        pinned(), network or star(), stripes, failed,
        concurrency=concurrency, config=config, tracer=tracer,
        faults=FaultPlan.from_spec(faults) if faults else None,
        retry_policy=RetryPolicy.from_spec(policy or "") if faults else None,
        journal=journal,
    )
    return result, tracer


def detections(tracer):
    return [
        event.fields["kind"]
        for event in tracer.events if event.name == "repair.detect"
    ]


class TestFullNodeHonoursItsPolicy:
    """The master used to read ``detection_timeout`` and nothing else."""

    CLEAN = full_node()[0].total_seconds

    def test_backoff_is_waited_out(self):
        short, _ = full_node(f"crash:{H0}@0.3", "backoff=0.25x2")
        long, tracer = full_node(f"crash:{H0}@0.3", "backoff=5x2")
        assert short.chunks_failed == long.chunks_failed == 0
        # Crash at 0.3 + detection 0.5 + backoff 5 before any re-plan.
        assert long.total_seconds > 5.8 > short.total_seconds
        names = [event.name for event in tracer.events]
        assert names.count("repair.retry") == names.count("repair.replan")
        backoffs = [
            event for event in tracer.events
            if event.name == "repair.backoff" and event.kind == "begin"
        ]
        assert backoffs
        assert all(
            event.track.startswith("repair:") and event.fields["seconds"] == 5
            for event in backoffs
        )

    def test_the_other_stripes_proceed_during_a_backoff(self):
        result, tracer = full_node(f"crash:{H0}@0.3", "backoff=5x2")
        finished = sorted(
            event.t for event in tracer.events
            if event.name == "repair.task" and event.kind == "end"
        )
        # Three stripes never touch H0: they are done long before the
        # doomed ones may even be re-planned.
        assert sum(t < 5.8 for t in finished) == 3
        assert result.chunks_repaired == 5

    def test_budget_spent_fails_the_stripe_not_the_job(self):
        result, _ = full_node(f"crash:{H0}@0.3", "timeout=0.5,retries=0")
        assert result.chunks_repaired == 3
        assert result.chunks_failed == 2
        for failure in result.failures:
            assert isinstance(failure, RepairFailed)
            assert failure.stripe_id is not None
            assert failure.attempts == 1
            assert failure.reason.startswith(
                "retry budget exhausted after 1 attempts"
            )

    def test_a_stalled_helper_is_noticed_not_waited_out(self):
        # The stall outlasts the whole repair thirty times over; the
        # parent commit finished at 31.17 s.
        result, tracer = full_node(f"stall:{H0}@0.3+30")
        assert result.chunks_failed == 0
        assert set(detections(tracer)) == {"stall"}
        assert result.total_seconds < self.CLEAN + 0.5 + 0.25 + self.CLEAN
        assert result.total_seconds < 10.0

    @pytest.mark.parametrize("kind, spec", [
        ("crash", "crash:{}@0.3"), ("readerr", "readerr:{}@0.3"),
        ("stall", "stall:{}@0.3+30"),
    ])
    def test_detect_carries_the_true_kind(self, kind, spec):
        _, tracer = full_node(spec.format(H0))
        assert set(detections(tracer)) == {kind}

    @pytest.mark.parametrize("spec", [
        "crash:{}@0.3", "readerr:{}@0.3", "stall:{}@0.3+30",
    ])
    def test_task_results_say_what_happened(self, spec):
        result, tracer = full_node(spec.format(H0), journal=RepairJournal())
        assert result.chunks_failed == 0
        replanned = [task for task in result.task_results if task.replans]
        assert replanned
        assert sum(task.replans for task in result.task_results) == (
            result.telemetry["counters"]["replans"]
        )
        assert result.telemetry["counters"]["replans"] == len(
            detections(tracer)
        )
        for task in result.task_results:
            # The last range is the final flight's; ranges are in order.
            starts = [start for _, start in task.segments]
            assert starts == sorted(starts) and starts[0] == 0
            assert task.segments[-1][0] is task.plan


def stepped_master(faults, policy, count=2, stripes=STRIPES):
    """A master on its own simulator, for tests that step it by hand."""
    faults = FaultPlan.from_spec(faults) if faults else None
    network = FaultyNetwork.wrap(star(), faults)
    sim = FluidSimulator(network)
    master = StripeRepairMaster(
        None, pinned(), network, stripes, FAILED, sim=sim, scheme="test",
        config=CONFIG, faults=faults, retry_policy=policy,
    )
    for _ in range(count):
        master.submit(*master.candidate())
    return master, sim


def step(master, sim):
    """One round of ``run_rounds`` without a dispatch."""
    bound = master.run_bound()
    if master.in_flight:
        master.collect(sim.run_until_completion(max_time=bound))
    else:
        sim.advance_to(bound)
    master.tick()


class TestKeyedBackoff:
    """``jitter`` decorrelates stripes doomed at the same instant."""

    def doomed_together(self, policy):
        # Stripes 0 and 3 both route through H0.
        master, sim = stepped_master(
            f"crash:{H0}@0.3", policy, stripes=[STRIPES[0], STRIPES[3]],
        )
        assert all(H0 in f.tree_nodes for f in master.in_flight.values())
        while not master.backing_off:
            step(master, sim)
        assert not master.in_flight
        detected = sim.now
        return [due - detected for due, _ in master.backing_off]

    def test_two_stripes_come_back_at_two_instants(self):
        policy = RetryPolicy.from_spec("backoff=4x2,maxbackoff=2,jitter=0.5")
        waits = self.doomed_together(policy)
        assert len(waits) == 2 and waits[0] != waits[1]
        # Inside [1 - jitter, 1] x the clamped wait, and reproducible.
        assert all(1.0 <= wait <= 2.0 for wait in waits)
        assert waits == self.doomed_together(policy)

    def test_without_jitter_the_curve_is_untouched(self):
        policy = RetryPolicy.from_spec("backoff=0.25x2")
        assert self.doomed_together(policy) == [0.25, 0.25]
        assert policy.backoff(0, key=3) == policy.backoff(0) == 0.25


class TestPauseIsNotAFailedAttempt:
    def test_budget_and_due_time_survive_a_pause(self):
        policy = RetryPolicy.from_spec("retries=5,backoff=0.5x1")
        # A plan whose only event is far away: the machine is armed.
        master, sim = stepped_master("degrade:0@900-901x0.5", policy, count=3)
        first, second, third = (
            flight.stripe for flight in master.in_flight.values()
        )

        def fail(stripe):
            (flight,) = [
                f for f in master.in_flight.values() if f.stripe is stripe
            ]
            sim.advance_to(sim.now + 0.05)
            del master.in_flight[flight.handle.task_id]
            master.fail(flight, "stall", [])

        for _ in range(2):
            fail(first)
            sim.advance_to(sim.now + 0.5)
            master.tick()
            assert master.pending[-1] is first
            master.submit(first, master.plan(first))
        fail(second)
        ledger = master.ledgers[first.stripe_id]
        assert (ledger.failed, ledger.watermark > 0) == (2, True)
        backing_off = list(master.backing_off)
        assert [stripe for _, stripe in backing_off] == [second]
        replans = master.registry.counter("replans").value
        assert replans == 2

        assert master.pause() > 0
        assert master.backing_off == backing_off
        assert [entry.failed for entry in master.ledgers.values()][:3] == [
            2, 1, 0,
        ]
        # Oldest flight first.
        assert master.pending[:2] == [third, first]
        # The resumed flight is attempt 3 again, not a re-plan, and it
        # resumes from the checkpoint the pause took.
        flight = master.submit(first, master.plan(first))
        assert flight.start_slice == ledger.watermark > 0
        assert flight.handle.label.endswith(f"-r{flight.plan.requestor}")
        assert master.registry.counter("replans").value == replans
        assert master.requeue_events == 3


# ----------------------------------------------------------------------
# Two drivers, one stripe: they must agree
# ----------------------------------------------------------------------
SMALL = ExecutionConfig(chunk_size=16 * MiB, slice_size=64 * 1024)
ONE = place_stripes(1, CODE, NODES, np.random.default_rng(11))
ONE_FAILED = ONE[0].placement[0]
ONE_REQUESTOR = choose_requestor(
    BandwidthSnapshot.from_network(star(), 0.0), ONE[0], ONE_FAILED, NODES
)
#: Fault menus over helpers and bystanders; the requestor is left
#: alone (full-node repair moves to another one, single-chunk repair
#: has nowhere to move to).
TARGETS = [n for n in range(NODES) if n not in (ONE_FAILED, ONE_REQUESTOR)]
times = st.sampled_from([0.0, 0.02, 0.05, 0.08, 0.11, 0.15, 0.3])
nodes = st.sampled_from(TARGETS)
fault_specs = st.lists(
    st.one_of(
        st.builds("crash:{}@{}".format, nodes, times),
        st.builds("readerr:{}@{}".format, nodes, times),
        st.builds(
            "stall:{}@{}+{}".format, nodes, times,
            st.sampled_from([0.04, 0.2, 5]),
        ),
        st.builds(
            "degrade:{}@{}-9x{}".format, nodes, times,
            st.sampled_from([0.05, 0.3, 0.7]),
        ),
    ),
    min_size=1, max_size=4, unique_by=lambda spec: spec.split("@")[0],
)
policies = st.sampled_from([
    "timeout=0.05", "timeout=0.03,retries=1,backoff=0.02x3",
    "timeout=0.1,backoff=0x1", "timeout=0.05,jitter=0.5,maxbackoff=0.3",
])


class TestTwoDriversOneStripe:
    @settings(max_examples=60, deadline=None)
    @given(fault_specs, policies)
    def test_single_chunk_and_one_stripe_full_node_agree(self, specs, policy):
        spec = ";".join(specs)
        single_journal, full_journal = RepairJournal(), RepairJournal()
        single = repair_single_chunk_faulted(
            pinned(), star(), ONE_REQUESTOR, ONE[0], ONE_FAILED,
            FaultPlan.from_spec(spec), policy=RetryPolicy.from_spec(policy),
            config=SMALL, journal=single_journal,
        )
        full, _ = full_node(
            spec, policy, stripes=ONE, failed=ONE_FAILED, config=SMALL,
            concurrency=1, journal=full_journal,
        )
        # One stripe, one master, one naming: the same journal bytes.
        assert [r.to_json() for r in single_journal.records] == [
            r.to_json() for r in full_journal.records
        ]
        assert single.bytes_transferred == (
            full.telemetry["counters"]["bytes_transferred"]
        )
        if not single.ok:
            (failure,) = full.failures
            assert failure.reason == single.reason
            assert failure.attempts == single.attempts
            assert failure.elapsed_seconds == single.elapsed_seconds
            return
        (task,) = full.task_results
        assert task.attempts == single.attempts
        assert [
            (sorted(plan.helpers), start) for plan, start in task.segments
        ] == [
            (sorted(plan.helpers), start) for plan, start in single.segments
        ]
        # The single-chunk result adds the analytic per-slice tail.
        assert full.total_seconds + SMALL.slices * (
            SMALL.per_slice_overhead
        ) == single.transfer_seconds
