"""Names, counts, and agreement between the manifest and BENCHMARK.json."""

import json

from conftest import ROOT
from manifest import (
    END_TO_END,
    GATED,
    NAME_PATTERN,
    PER_LAYER,
    WORKLOADS,
    contract_per_layer,
)

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_names_match_the_contract_pattern():
    for name in (*WORKLOADS, *END_TO_END, *PER_LAYER):
        assert NAME_PATTERN.match(name), name


def test_counts_stay_within_the_contract():
    assert 2 <= len(WORKLOADS) <= 8
    assert len(WORKLOADS) == 7
    assert len(END_TO_END) == 16
    assert 1 <= len(contract_per_layer()) <= 128
    assert not set(END_TO_END) & set(PER_LAYER)


def test_every_metric_names_known_workloads():
    for name, spec in END_TO_END.items():
        assert set(spec["workloads"]) <= set(WORKLOADS), name
        assert spec["kind"] in ("host", "sim", "check"), name


def test_benchmark_json_has_exactly_the_contract_keys():
    assert set(CONTRACT) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert CONTRACT["paths"] == ["benchmarks/perf"]
    assert isinstance(CONTRACT["run_seconds"], int)
    assert 1 <= CONTRACT["run_seconds"] <= 60
    # 4 + 22 x workloads runs must fit the driver's 3420 s, set-up and
    # warm-up included (~2x the measured seconds on the sizing box).
    runs = 4 + 22 * len(CONTRACT["workloads"])
    assert runs * 2 * CONTRACT["run_seconds"] <= 3420


def test_benchmark_json_workloads_match_the_manifest():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(WORKLOADS)
    for entry in CONTRACT["workloads"]:
        assert set(entry) == {"name", "why"}
        assert entry["why"] == WORKLOADS[entry["name"]]["why"]
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
        # The contract has no other place for the pass count.
        assert ">=5 passes" in entry["why"]


def test_benchmark_json_metrics_match_the_manifest():
    gated = {m["name"]: m for m in CONTRACT["end_to_end"]}
    assert list(gated) == list(GATED)
    for name, entry in gated.items():
        spec = END_TO_END[name]
        # One bound per metric: the driver and compare.py read the same.
        assert entry == {
            "name": name, "unit": spec["unit"], "better": spec["better"],
            "bound": spec["bound"],
        }
        assert spec["kind"] == "host" and set(spec["workloads"]) == set(WORKLOADS)
        assert 0 < entry["bound"] <= 0.25
    assert gated["setup_s"]["unit"] == "s"
    assert gated["setup_s"]["better"] == "lower"
    assert gated["setup_s"]["bound"] == max(m["bound"] for m in gated.values())
    layers = {m["name"]: m for m in CONTRACT["per_layer"]}
    expected = contract_per_layer()
    assert list(layers) == list(expected)
    for name, entry in layers.items():
        assert entry == {"name": name, **expected[name]}
