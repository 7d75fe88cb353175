"""``scripts/rerecord.py`` checks what it claims to.

The script is the only writer of the recorded-value fixtures and its
``--check`` is a CI step; these tests run it on a two-entry subset (the
full run is the ``slow`` job's).
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

import tests.network.test_scale_suite as scale_suite

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "rerecord.py"
#: Two cheap entries of two fixtures: a seeded single-chunk repair's
#: telemetry digest and the 1024-node storm's floats.
SUBSET = [
    "--only", "tests/repair/telemetry_identity.json:RPPlanner-False",
    "--only", "*:storm-1024",
]


@pytest.fixture()
def rerecord(monkeypatch):
    # The script puts src/ and the repo root on sys.path itself.
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("rerecord", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_source_follows_the_protocol(rerecord):
    entries = list(rerecord._selected([]))
    assert {module.__name__ for module, *_ in entries} == set(
        rerecord.SOURCES
    )
    for module, key, name, recorder in entries:
        assert key.endswith(f":{name}")
        assert name in json.loads(module.FIXTURE.read_text()), name
        assert callable(recorder)


def test_check_passes_on_the_tree(rerecord, capsys):
    assert rerecord.main(["--check", *SUBSET]) == 0
    assert "0 of 2 recorded entries disagree" in capsys.readouterr().out


def test_check_fails_on_a_flipped_digit(
    rerecord, capsys, monkeypatch, tmp_path
):
    fixture = tmp_path / "scale_storm.json"
    text = scale_suite.FIXTURE.read_text()
    assert "247.637412361" in text
    fixture.write_text(text.replace("247.637412361", "247.637412351"))
    monkeypatch.setattr(scale_suite, "FIXTURE", fixture)
    assert rerecord.main(["--check", *SUBSET]) == 1
    out = capsys.readouterr().out
    assert "/end_time: 247.637412351 -> 247.637412361" in out
    assert "1 of 2 recorded entries disagree" in out
    # --check writes nothing.
    assert "247.637412351" in fixture.read_text()


def test_rerecord_rewrites_only_what_moved(rerecord, monkeypatch, tmp_path):
    fixture = tmp_path / "scale_storm.json"
    fixture.write_text(
        scale_suite.FIXTURE.read_text().replace("383504.822911", "1.5")
    )
    monkeypatch.setattr(scale_suite, "FIXTURE", fixture)
    assert rerecord.main(["--only", "*:storm-1024"]) == 0
    assert json.loads(fixture.read_text()) == json.loads(
        scale_suite.FIXTURE.read_text()
    )


def test_an_entry_no_recorder_produces_is_dropped(
    rerecord, capsys, monkeypatch, tmp_path
):
    fixture = tmp_path / "scale_storm.json"
    entries = json.loads(scale_suite.FIXTURE.read_text())
    fixture.write_text(json.dumps({**entries, "retired": [1.0]}))
    monkeypatch.setattr(scale_suite, "FIXTURE", fixture)
    assert rerecord.main(["--check", "--only", "*:storm-1024"]) == 1
    out = capsys.readouterr().out
    assert "scale_storm.json:retired: no recorder" in out
    assert "1 of 1 recorded entries disagree" in out
    assert "retired" in json.loads(fixture.read_text())
    assert rerecord.main(["--only", "*:storm-1024"]) == 0
    assert json.loads(fixture.read_text()) == entries


def test_drift_separates_float_noise_from_discrete_moves(
    rerecord, capsys, tmp_path
):
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    values = {"a:x": {"seconds": 2.0, "steps": 7, "tree": [1.0, "r3"]}}
    old.write_text(json.dumps(values))
    values["a:x"]["seconds"] = 2.0 * (1 + 1e-12)
    new.write_text(json.dumps(values))
    assert rerecord.main(["--drift", str(old), str(new)]) == 0
    assert "1 moved, max relative drift 1e-12" in capsys.readouterr().out
    # Just past the bound: a repair time that moved in the ninth digit.
    values["a:x"]["seconds"] = 2.0 * (1 + 2 * rerecord.BOUND)
    new.write_text(json.dumps(values))
    assert rerecord.main(["--drift", str(old), str(new)]) == 1
    assert "BEYOND 1e-09 /seconds: 2.0 -> " in capsys.readouterr().out
    values["a:x"]["seconds"] = 2.0
    # A residue of nearly equal times: listed, not counted as drift.
    values["a:x"]["residual"] = 0.0
    old.write_text(json.dumps(values))
    values["a:x"]["residual"] = 9e-16
    new.write_text(json.dumps(values))
    assert rerecord.main(["--drift", str(old), str(new)]) == 0
    assert "RESIDUE /residual: 0.0 -> 9e-16" in capsys.readouterr().out
    values["a:x"]["residual"] = 2 * rerecord.RESIDUE_FLOOR
    new.write_text(json.dumps(values))
    assert rerecord.main(["--drift", str(old), str(new)]) == 1
    assert "BEYOND 1e-09 /residual: 0.0 -> 2e-12" in capsys.readouterr().out
    values["a:x"]["residual"] = 9e-16
    values["a:x"]["steps"] = 8
    new.write_text(json.dumps(values))
    assert rerecord.main(["--drift", str(old), str(new)]) == 1
    assert "DISCRETE /steps: 7 -> 8" in capsys.readouterr().out
    values["a:x"]["steps"] = 7.0
    new.write_text(json.dumps(values))
    assert rerecord.main(["--drift", str(old), str(new)]) == 1
    assert "DISCRETE /steps: 7 -> 7.0" in capsys.readouterr().out
    values["a:x"]["tree"].append(0.5)
    new.write_text(json.dumps(values))
    assert rerecord.main(["--drift", str(old), str(new)]) == 1
    assert "SHAPE differs" in capsys.readouterr().out
