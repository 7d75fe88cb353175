"""``scripts/profile_pass.py`` runs.

ROADMAP tells every perf PR to start from this script; these tests are
what executes it.  Smoke sizes: they are about the script, not the
workload it profiles.
"""

import functools
import importlib.util
import sys
from pathlib import Path

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
