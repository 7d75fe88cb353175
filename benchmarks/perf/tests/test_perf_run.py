"""The benchmark end to end in ``--quick`` mode, and its failure paths."""

import json
import subprocess
import sys

import numpy as np
import pytest

import harness
from conftest import PERF
from manifest import END_TO_END, PER_LAYER, WORKLOADS, contract_per_layer


@pytest.fixture(scope="module")
def quick_results(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf") / "quick.json"
    done = subprocess.run(
        [
            sys.executable, str(PERF / "run.py"), "--quick", "--trace",
            "--seed", "3", "--out", str(out),
        ],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(out.read_text()), done.stdout


def test_quick_emits_every_declared_metric(quick_results):
    results, printed = quick_results
    assert results["version"] == 1
    assert results["comparable"] is False
    assert set(results["workloads"]) == set(WORKLOADS)
    for name, entry in results["workloads"].items():
        assert entry["correct"] and entry["failed"] == 0, entry["failures"]
        expected = {
            metric for metric, spec in END_TO_END.items()
            if name in spec["workloads"]
        }
        assert set(entry["end_to_end"]) == expected, name
        assert set(entry["per_layer"]) == set(PER_LAYER), name
        for metric, row in entry["end_to_end"].items():
            assert row["unit"] == END_TO_END[metric]["unit"]
            if metric != "failed_share" and not metric.startswith("sim_slo"):
                assert row["value"] > 0, (name, metric)
        for metric in expected:
            assert metric in printed


def test_quick_ledger_is_zero_exactly_where_a_layer_is_bypassed(
    quick_results,
):
    layers = {
        name: {m: row["value"] for m, row in entry["per_layer"].items()}
        for name, entry in quick_results[0]["workloads"].items()
    }
    assert layers["single_chunk_sweep"]["baselines.plan.calls"] > 0
    assert layers["engine_storm"]["core.plan.calls"] == 0
    assert layers["lifetime_mc"]["network.simulator.steps"] == 0
    assert layers["lifetime_mc"]["lifetime.simulate.calls"] > 0
    assert layers["byte_repair"]["ec.encode.self_s"] > 0
    assert layers["hot_foreground"]["loadgen.pump.calls"] > 0
    assert layers["fleet_storm"]["obs.tracer.events"] > 0
    assert layers["fleet_storm"]["obs.critpath.tiling_err_max"] <= 1e-9
    for ledger in layers.values():
        assert 0 <= ledger["bench.unattributed_frac"] <= 1
        assert ledger["bench.calibration_s"] > 0


def one_line(trace):
    done = subprocess.run(
        [
            sys.executable, str(PERF / "run.py"), "--workload",
            "lifetime_mc", "--seed", "1", "--seconds", "1", "--trace",
            str(trace), "--quick",
        ],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] >= 1
    for row in line["metrics"].values():
        assert set(row) == {"value", "unit"}
    return {name: row["value"] for name, row in line["metrics"].items()}


def test_one_line_mode_prints_the_contract_object():
    untraced = one_line(0)
    assert set(untraced) == {"setup_s", "pass_wall_s", "peak_rss_mb"}
    assert all(value > 0 for value in untraced.values())
    # Traced: the ledger plus the end-to-end metrics that are not gated,
    # 0 where one does not apply to the workload.
    traced = one_line(1)
    assert set(traced) == set(contract_per_layer())
    assert traced["sim_years_per_s"] > 0
    assert traced["chunks_per_s"] == 0
    assert traced["lifetime.simulate.calls"] > 0


def test_wrappers_are_restored_after_a_traced_run():
    from repro.core.plan import RepairPlanner
    from repro.network.simulator import FluidSimulator

    advance_to = FluidSimulator.advance_to
    plan = RepairPlanner.plan
    record = harness.run_workload(
        "hot_foreground", seed=2, seconds=1.0, trace=True, quick=True,
        import_s=0.0,
    )
    assert record["correct"], record["failures"]
    assert record["per_layer"]["network.simulator.advance.calls"]["value"] > 0
    assert FluidSimulator.advance_to is advance_to
    assert RepairPlanner.plan is plan


def test_a_raise_in_the_traced_run_is_one_failed_operation(monkeypatch):
    from repro.lifetime.montecarlo import run_lifetime

    calls = []

    def flaky(*args, **kwargs):
        calls.append(1)
        # Quick mode has no warm-up: call 1 is the untraced pass, call 2
        # the traced one.
        if len(calls) == 2:
            raise RuntimeError("boom")
        return run_lifetime(*args, **kwargs)

    monkeypatch.setattr("repro.lifetime.montecarlo.run_lifetime", flaky)
    record = harness.run_workload(
        "lifetime_mc", seed=0, seconds=1.0, trace=True, quick=True,
        import_s=0.0,
    )
    assert record["correct"] is False and record["failed"] == 1
    assert "boom" in record["failures"][0]
    assert record["end_to_end"]["sim_years_per_s"]["value"] > 0
    assert set(record["per_layer"]) == set(PER_LAYER)


def test_a_flipped_byte_raises_failed_share(monkeypatch):
    from repro.cluster.master import Cluster

    rebuild = Cluster.rebuild_from_plan

    def corrupt(self, *args, **kwargs):
        payload = np.array(rebuild(self, *args, **kwargs), copy=True)
        payload[0] ^= 0xFF
        return payload

    monkeypatch.setattr(Cluster, "rebuild_from_plan", corrupt)
    record = harness.run_workload(
        "byte_repair", seed=0, seconds=1.0, trace=False, quick=True,
        import_s=0.0,
    )
    assert record["correct"] is False
    assert record["failed"] > 0
    assert record["end_to_end"]["failed_share"]["value"] > 0
    assert any("differs" in message for message in record["failures"])
