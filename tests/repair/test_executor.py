"""Tests for single-chunk repair execution on the fluid simulator."""

from pathlib import Path

import pytest

import repro.traces.generators as trace_generators
from repro.baselines import ConventionalPlanner, PPRPlanner, RPPlanner
from repro.core import PivotRepairPlanner, pin_planning
from repro.ec import RSCode, Stripe
from repro.experiments.single_chunk import (
    congested_instants,
    stripe_members_at,
    stripe_nodes_at,
)
from repro.faults import FaultPlan
from repro.network.bandwidth import BandwidthTrace
from repro.network.topology import StarNetwork
from repro.obs import Tracer
from repro.obs.tracer import NULL_TRACER
from repro.repair.executor import (
    execute_plan,
    repair_single_chunk,
    repair_single_chunk_faulted,
)
from repro.repair.pipeline import ExecutionConfig
from repro.repair.telemetry import EVENT_PREFIXES
from repro.core.bandwidth_view import BandwidthSnapshot
from tests.recorded import Recorded, load, sha256

# Figure 3/4 bandwidths in *bytes/second* for convenience (values are small
# but only ratios matter to the fluid model).
FIG_UP = [980, 0, 750, 500, 150, 500, 500]
FIG_DOWN = [980, 0, 100, 130, 1000, 200, 900]


def fig_network():
    # Node 1 is the failed node; zero bandwidth keeps it unused.
    return StarNetwork.constant(FIG_UP, FIG_DOWN)


def simple_config(chunk=9000, slice_size=100, overhead=0.0):
    return ExecutionConfig(
        chunk_size=chunk, slice_size=slice_size, per_slice_overhead=overhead
    )


class TestExecutePlan:
    def test_pivot_repair_transfer_time_matches_bmin(self):
        config = simple_config()
        result = repair_single_chunk(
            PivotRepairPlanner(), fig_network(), 0, [2, 3, 4, 5, 6], 4,
            config=config,
        )
        # B_min = 450; tree depth 2 -> bytes/edge = 9000 + 100.
        assert result.bmin == pytest.approx(450)
        assert result.transfer_seconds == pytest.approx(9100 / 450)
        assert result.total_seconds == pytest.approx(
            result.planning_seconds + result.transfer_seconds
        )

    def test_rp_is_slower_than_pivot_on_figure3(self):
        config = simple_config()
        rp = repair_single_chunk(
            RPPlanner(), fig_network(), 0, [3, 4, 5, 6], 4, config=config
        )
        pivot = repair_single_chunk(
            PivotRepairPlanner(), fig_network(), 0, [2, 3, 4, 5, 6], 4,
            config=config,
        )
        assert rp.transfer_seconds > 2 * pivot.transfer_seconds

    def test_conventional_bulk_transfer(self):
        net = StarNetwork.constant([100, 100, 100], [100, 100, 100])
        snapshot = BandwidthSnapshot.from_network(net, 0.0)
        plan = ConventionalPlanner().plan(snapshot, 0, [1, 2], 2)
        result = execute_plan(plan, net, config=simple_config(chunk=1000))
        # Two 1000-byte chunks into down(0)=100 shared -> 20 s.
        assert result.transfer_seconds == pytest.approx(20.0)

    def test_ppr_rounds_are_sequential(self):
        net = StarNetwork.uniform(5, 100.0)
        snapshot = BandwidthSnapshot.from_network(net, 0.0)
        plan = PPRPlanner().plan(snapshot, 0, [1, 2, 3, 4], 4)
        result = execute_plan(plan, net, config=simple_config(chunk=1000))
        # Rounds: {2->1, 4->3} (10 s), {3->1} (10 s), {1->0} (10 s).
        assert result.transfer_seconds == pytest.approx(30.0)

    def test_overhead_added_to_pipelined_transfers(self):
        config = simple_config(overhead=0.01)  # 90 slices -> 0.9 s
        result = repair_single_chunk(
            PivotRepairPlanner(), fig_network(), 0, [2, 3, 4, 5, 6], 4,
            config=config,
        )
        base = 9100 / 450
        assert result.transfer_seconds == pytest.approx(base + 0.9)

    def test_bandwidth_change_during_transfer(self):
        # Uplink halves mid-transfer; the repair slows down accordingly.
        up = [BandwidthTrace([0, 10], [100, 50]), BandwidthTrace.constant(1000)]
        down = [BandwidthTrace.constant(1000), BandwidthTrace.constant(1000)]
        net = StarNetwork.from_traces(up, down)
        result = repair_single_chunk(
            RPPlanner(), net, 1, [0], 1,
            config=simple_config(chunk=1500, slice_size=1500),
        )
        # 10 s at 100 B/s, then 500 bytes at 50 B/s.
        assert result.transfer_seconds == pytest.approx(20.0)

    def test_planning_time_positive_and_recorded(self):
        result = repair_single_chunk(
            PivotRepairPlanner(), fig_network(), 0, [2, 3, 4, 5, 6], 4,
            config=simple_config(),
        )
        assert result.planning_seconds > 0
        assert result.scheme == "PivotRepair"
        assert result.plan is not None


#: ``"<planner>-<traced>"`` -> SHA-256 of ``json.dumps(telemetry,
#: sort_keys=True)`` of one 64 MiB (9,6) repair on a seeded TPC-DS
#: network, first recorded at commit ``e7f0db8`` — before ``obs.metrics``
#: got its unlabeled fast path and the networks their capacity rows.  A
#: PR that restructures the registry, ``run_counters`` or the merge in
#: ``MetricsRegistry.snapshot`` leaves these alone.
FIXTURE = Path(__file__).with_name("telemetry_identity.json")
TELEMETRY_RUNS = [
    (planner_class, traced)
    for planner_class in (PivotRepairPlanner, RPPlanner, PPRPlanner)
    for traced in (False, True)
]


def telemetry_scenario():
    trace = trace_generators.generate_trace(
        trace_generators.TPC_DS, 16, 240, seed=11
    )
    instant = congested_instants(trace, 1, seed=5)[0]
    requestor, survivors = stripe_nodes_at(trace, instant, 9, seed=3)
    return trace.to_network(floor=1e6), instant, requestor, survivors


def telemetry_of(scenario, planner_class, traced) -> dict:
    network, instant, requestor, survivors = scenario
    return repair_single_chunk(
        pin_planning(planner_class(), 0.0), network, requestor,
        survivors, 6, start_time=instant,
        tracer=Tracer() if traced else NULL_TRACER,
    ).telemetry


def _recorder(planner_class, traced):
    def record() -> Recorded:
        telemetry = telemetry_of(telemetry_scenario(), planner_class, traced)
        return Recorded(entry=sha256(telemetry), values=telemetry)
    return record


RECORDERS = {
    f"{planner_class.__name__}-{traced}": _recorder(planner_class, traced)
    for planner_class, traced in TELEMETRY_RUNS
}


class TestTelemetryIdentity:
    """Single-chunk telemetry, pinned across commits (full-node telemetry
    is under ``test_driver_identity.py``)."""

    @pytest.fixture(scope="class")
    def scenario(self):
        return telemetry_scenario()

    @pytest.mark.parametrize(
        "planner_class, traced", TELEMETRY_RUNS,
        ids=lambda value: getattr(value, "__name__", str(value)),
    )
    def test_telemetry_bytes_match_recorded(
        self, scenario, planner_class, traced
    ):
        telemetry = telemetry_of(scenario, planner_class, traced)
        assert (
            sha256(telemetry)
            == load(FIXTURE)[f"{planner_class.__name__}-{traced}"]
        )
        # What the digest covers, by name, and the order sort_keys hides.
        counters = telemetry["counters"]
        assert list(counters) == sorted(counters)
        assert list(telemetry)[:3] == ["counters", "gauges", "histograms"]
        assert list(telemetry["histograms"]["task_seconds"]) == [
            "count", "min", "max", "mean", "p50", "p90", "p95", "p99",
            "p99.9",
        ]
        events = [counters[f"{prefix}_events"] for prefix in EVENT_PREFIXES]
        assert len(events) == 13
        assert traced or not any(events)
        assert "families" not in telemetry
        for fold in ("bytes_up", "bytes_down"):
            assert telemetry[f"per_{fold}"] == {
                key.split("/")[1]: value
                for key, value in counters.items()
                if key.startswith(fold + "/")
            }


class TestFaultedWithoutFaults:
    """The faulted driver under no fault is the fault-free path: a
    one-stripe job of the master plans, moves and times the chunk as
    ``repair_single_chunk`` does, per-slice tail included."""

    CODE = RSCode(6, 4)

    @pytest.mark.parametrize("seed", [11, 12, 13])
    @pytest.mark.parametrize(
        "planner_class", [PivotRepairPlanner, RPPlanner],
        ids=lambda value: value.__name__,
    )
    def test_equals_repair_single_chunk(self, planner_class, seed):
        trace = trace_generators.generate_trace(
            trace_generators.TPC_DS, 12, 120, seed=seed
        )
        network = trace.to_network(floor=1e6)
        for instant in congested_instants(trace, 2, seed=seed):
            members, failed, requestor = stripe_members_at(
                trace, instant, self.CODE.n, seed
            )
            free = repair_single_chunk(
                pin_planning(planner_class(), 0.25), network, requestor,
                [node for node in members if node != failed], self.CODE.k,
                start_time=instant,
            )
            faulted = repair_single_chunk_faulted(
                pin_planning(planner_class(), 0.25), network, requestor,
                Stripe(0, self.CODE, members), failed, FaultPlan.none(),
                start_time=instant,
            )
            assert faulted.ok and faulted.attempts == 1
            for name in (
                "transfer_seconds", "bmin", "bytes_transferred",
                "planning_seconds",
            ):
                assert getattr(faulted, name) == getattr(free, name), name
            assert faulted.plan.tree.edges() == free.plan.tree.edges()


class TestMetrics:
    def test_repair_result_total(self):
        from repro.repair.metrics import RepairResult

        result = RepairResult(
            scheme="X", planning_seconds=1.0, transfer_seconds=2.0, bmin=5.0
        )
        assert result.total_seconds == 3.0

    def test_full_node_result_aggregates(self):
        from repro.repair.metrics import FullNodeResult, RepairResult

        tasks = [
            RepairResult("X", 0.0, 2.0, 1.0),
            RepairResult("X", 0.0, 4.0, 1.0),
        ]
        result = FullNodeResult(
            scheme="X", failed_node=3, total_seconds=10.0, task_results=tasks
        )
        assert result.chunks_repaired == 2
        assert result.mean_task_seconds == pytest.approx(3.0)
        assert result.repair_rate_chunks_per_second() == pytest.approx(0.2)

    def test_empty_full_node_result(self):
        from repro.repair.metrics import FullNodeResult

        result = FullNodeResult("X", 0, 0.0)
        assert result.mean_task_seconds == 0.0
        assert result.repair_rate_chunks_per_second() == 0.0
