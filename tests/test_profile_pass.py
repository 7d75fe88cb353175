"""``scripts/profile_pass.py`` runs.

ROADMAP tells every perf PR to start from this script; these tests are
what executes it.  Smoke sizes: they are about the script, not the
workload it profiles.
"""

import functools
import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "profile_pass.py"
#: Cheapest workload to set up and to run, in time and in memory.
WORKLOAD = "lifetime_mc"


@pytest.fixture()
def profile_pass(monkeypatch):
    # The script puts src/ and benchmarks/perf/ on sys.path itself.
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("profile_pass", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setitem(
        module.REGISTRY, WORKLOAD,
        functools.partial(module.REGISTRY[WORKLOAD], quick=True),
    )
    return module


@pytest.mark.parametrize(
    "flags, profiled",
    [([], "run_pass"), (["--phase", "pass"], "run_pass"),
     (["--phase", "setup"], "setup")],
    ids=["default", "pass", "setup"],
)
def test_profiles_one_phase_and_prints_both_orderings(
    profile_pass, capsys, flags, profiled
):
    assert profile_pass.main(
        ["--workload", WORKLOAD, "--top", "5", *flags]
    ) == 0
    out = capsys.readouterr().out
    assert "Ordered by: cumulative time" in out
    assert "Ordered by: internal time" in out
    # The root of the profile is the phase asked for, and only that one.
    for phase in ("run_pass", "setup"):
        assert (f"({phase})" in out) == (phase == profiled)


def test_prints_self_time_by_module(profile_pass, capsys):
    assert profile_pass.main(["--workload", WORKLOAD, "--top", "5"]) == 0
    out = capsys.readouterr().out
    table = out[out.index("self time by module"):].splitlines()
    assert table[1].split() == ["self", "s", "share", "calls", "module"]
    rows = [line.split() for line in table[2:] if line.startswith(" ")]
    assert 1 <= len(rows) <= 5
    assert any(row[-1].startswith("repro.lifetime") for row in rows)
    shares = [float(row[1].rstrip("%")) for row in rows]
    assert shares == sorted(shares, reverse=True)


def test_module_of_names_files_by_module(profile_pass):
    root = profile_pass.ROOT
    module_of = profile_pass.module_of
    assert module_of(str(root / "src/repro/obs/metrics.py")) == (
        "repro.obs.metrics"
    )
    assert module_of(str(root / "benchmarks/perf/harness.py")) == "harness"
    assert module_of("~") == "<built-in>"
    assert module_of("/usr/lib/python3/heapq.py") == "<heapq>"


def test_census_tallies_small_solves_only(profile_pass):
    # a and b share down0 and each has a private uplink: one small
    # solve of 2 entities over 3 columns, 2 of them private.  c, alone
    # on its links, is a single-entity solve and is not counted.
    from repro.network.fairness import usage_from_edges
    from repro.network.topology import StarNetwork

    engine_class = profile_pass.IncrementalEngine
    solve = engine_class._solve
    engine = engine_class(StarNetwork.constant([100.0] * 5, [100.0] * 5))

    def run():
        for entity_id, edges in enumerate([[(1, 0)], [(2, 0)]]):
            engine.add_entity(entity_id, SimpleNamespace(
                usage=usage_from_edges(edges), max_rate=None, rate=0.0,
            ))
        engine.ensure(0.0)
        engine.add_entity(2, SimpleNamespace(
            usage=usage_from_edges([(3, 4)]), max_rate=None, rate=0.0,
        ))
        engine.ensure(0.0)

    assert profile_pass.census(run) == {
        "solves": 1, "entities": 2, "columns": 3, "private": 2,
    }
    assert engine.solves_by_tier == {"single": 1, "small": 1}
    # The wrapper is gone once the census returns.
    assert engine_class._solve is solve


@pytest.mark.parametrize(
    "phase, printed", [("pass", True), ("setup", False)], ids=["pass", "setup"]
)
def test_prints_the_census_of_the_warm_up_pass(
    profile_pass, capsys, phase, printed
):
    assert profile_pass.main(
        ["--workload", WORKLOAD, "--top", "5", "--phase", phase]
    ) == 0
    out = capsys.readouterr().out
    # lifetime_mc never reaches the fluid engine.
    line = "census of the warm-up pass: 0 small solves\n"
    assert (line in out) == printed
