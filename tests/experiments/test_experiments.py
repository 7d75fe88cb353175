"""Tests for the first-class experiment runners."""

import numpy as np
import pytest

from repro.exceptions import PlanningError, TraceError
from repro.experiments import (
    SCHEMES,
    CellResult,
    ExperimentSettings,
    congested_instants,
    make_planner,
    run_cell,
    run_figure5,
    run_figure7,
    stripe_nodes_at,
)
from repro.experiments import single_chunk
from repro.experiments.config import NODE_COUNT
from repro.experiments.sweeps import (
    fixed_network,
    run_chunk_size_sweep,
    run_slice_size_sweep,
)
from repro.core import PivotRepairPlanner
from repro.repair import ExecutionConfig, repair_single_chunk
from repro.traces import (
    TPC_DS,
    congested_seconds,
    generate_all,
    generate_trace,
)
from repro.traces.workload import WorkloadTrace


@pytest.fixture(scope="module")
def small_world():
    traces = generate_all(duration=600, seed=2)
    networks = {
        name: trace.to_network(floor=1e6) for name, trace in traces.items()
    }
    return traces, networks


class TestSettings:
    def test_defaults_match_paper(self):
        settings = ExperimentSettings()
        assert NODE_COUNT == 16
        assert (14, 10) in settings.codes

    def test_bad_values_rejected(self):
        with pytest.raises(PlanningError):
            ExperimentSettings(codes=[(4, 6)])
        with pytest.raises(PlanningError):
            ExperimentSettings(codes=[(15, 10)])


class TestHelpers:
    def test_make_planner_names(self):
        for scheme in SCHEMES:
            assert make_planner(scheme).name == scheme

    def test_make_planner_rejects_unknown(self):
        with pytest.raises(PlanningError):
            make_planner("magic")

    def test_congested_instants_sorted_and_congested(self, small_world):
        traces, _ = small_world
        trace = traces["TPC-H"]
        instants = congested_instants(trace, 5, seed=3)
        assert instants == sorted(instants)
        assert len(instants) == 5
        rates = trace.used_node_bandwidth() / trace.capacity
        for t in instants:
            assert (rates[:, int(t)] >= 0.9).any()

    def test_stripe_nodes_disjoint(self, small_world):
        traces, _ = small_world
        requestor, survivors = stripe_nodes_at(
            traces["TPC-DS"], 100.0, 9, seed=4
        )
        assert requestor not in survivors
        assert len(survivors) == 8

    def test_cell_result_overall(self):
        cell = CellResult(planning_seconds=1.0, transfer_seconds=2.0)
        assert cell.overall_seconds == 3.0


def whole_matrix_stripe_nodes_at(trace, instant, n, seed):
    """``stripe_nodes_at`` as it was: both matrices over the whole trace,
    then one column of each.  Kept as the oracle."""
    rng = np.random.default_rng(seed)
    members = sorted(
        rng.choice(trace.node_count, size=n, replace=False).tolist()
    )
    usage = trace.used_node_bandwidth()[:, int(instant)]
    failed = max(members, key=lambda node: usage[node])
    survivors = [node for node in members if node != failed]
    outside = [
        node for node in range(trace.node_count) if node not in members
    ]
    available = trace.available_node_bandwidth()[:, int(instant)]
    requestor = max(outside, key=lambda node: available[node])
    return requestor, survivors


class TestStripePlacementReadsAColumn:
    @pytest.mark.parametrize("workload", ["TPC-DS", "TPC-H", "SWIM"])
    @pytest.mark.parametrize("n", [6, 9, 12, 14])
    def test_same_requestor_and_survivors_as_the_whole_matrix(
        self, small_world, workload, n
    ):
        trace = small_world[0][workload]
        rng = np.random.default_rng(n)
        instants = [
            *congested_instants(trace, 10, seed=n),
            *rng.uniform(0, trace.sample_count, size=10).tolist(),
        ]
        assert len(instants) == 20
        for index, instant in enumerate(instants):
            assert stripe_nodes_at(
                trace, instant, n, seed=index
            ) == whole_matrix_stripe_nodes_at(trace, instant, n, seed=index)

    def test_an_instant_outside_the_trace_is_a_trace_error(self, small_world):
        """The whole-matrix formula let numpy wrap a negative instant to
        a second counted from the end and raised ``IndexError`` past the
        last sample; the window names both."""
        trace = small_world[0]["TPC-H"]
        for instant in (-1.0, float(trace.sample_count)):
            with pytest.raises(TraceError, match="out of range"):
                stripe_nodes_at(trace, instant, 6, seed=0)


class TestInstantsAreSeconds:
    def test_a_2s_trace_repairs_as_its_1s_twin(self):
        """A 2 s trace and its 1 s twin (each sample repeated) are the
        same foreground, so an instant sampled on the 2 s one must lay
        out and repair the same on both, at a congested sample.  Taken
        as seconds, the sample indices the instants used to be placed
        the stripe on another sample than the repair replayed: index 59
        replayed second 59, sample 29 of the 2 s trace, not congested."""
        base = generate_trace(TPC_DS, 16, 600, seed=0)
        two = WorkloadTrace(
            base.name, base.capacity, base.used_up, base.used_down,
            interval=2.0,
        )
        one = WorkloadTrace(
            base.name, base.capacity, np.repeat(base.used_up, 2, axis=1),
            np.repeat(base.used_down, 2, axis=1),
        )
        congested = congested_seconds(one, 0.9)
        networks = [trace.to_network(floor=1e6) for trace in (two, one)]
        instants = congested_instants(two, 5, seed=3)
        assert len(instants) == 5
        for index, instant in enumerate(instants):
            placed = [
                stripe_nodes_at(trace, instant, 6, seed=index)
                for trace in (two, one)
            ]
            assert placed[0] == placed[1], instant
            requestor, survivors = placed[0]
            seconds = [
                repair_single_chunk(
                    PivotRepairPlanner(), network, requestor, survivors, 4,
                    start_time=instant,
                ).transfer_seconds
                for network in networks
            ]
            assert seconds[0] == seconds[1], instant
            assert congested[int(instant)], instant


class TestRunners:
    def test_run_cell_returns_positive_timings(self, small_world, monkeypatch):
        monkeypatch.setattr(single_chunk, "INSTANTS_PER_CELL", 2)
        traces, networks = small_world
        cell = run_cell(
            traces["SWIM"], networks["SWIM"], 6, 4, "PivotRepair"
        )
        assert cell.planning_seconds > 0
        assert cell.transfer_seconds > 0

    def test_run_figure5_structure(self, small_world):
        traces, networks = small_world
        settings = ExperimentSettings(codes=[(6, 4)])
        results = run_figure5(traces, networks, settings)
        assert set(results) == set(traces)
        for by_code in results.values():
            assert set(by_code) == {(6, 4)}
            assert set(by_code[(6, 4)]) == set(SCHEMES)

    def test_run_figure7_structure(self, small_world):
        traces, networks = small_world
        settings = ExperimentSettings(codes=[(6, 4)])
        results = run_figure7(
            traces["TPC-DS"], networks["TPC-DS"], settings,
            config=ExecutionConfig(chunk_size=1_000_000),
            chunks=4,
        )
        row = results[(6, 4)]
        assert set(row) == {
            "RP", "PPT", "PivotRepair", "PivotRepair+strategy",
        }
        for result in row.values():
            assert result.chunks_repaired == 4


class TestSweeps:
    def test_fixed_network_shape(self):
        net = fixed_network()
        assert len(net) == 10

    def test_slice_sweep_flat(self):
        results = run_slice_size_sweep(slice_kib=[32, 512], chunk_mib=8)
        for scheme in SCHEMES:
            a = results[32][scheme]
            b = results[512][scheme]
            assert abs(a - b) < 0.3 * max(a, b)

    def test_chunk_sweep_monotone(self):
        results = run_chunk_size_sweep(chunk_mib=[8, 32])
        for scheme in SCHEMES:
            assert results[32][scheme] > results[8][scheme]
