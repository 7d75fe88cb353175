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
    assert profile_pass.main([WORKLOAD, "--top", "5", *flags]) == 0
    out = capsys.readouterr().out
    assert "Ordered by: cumulative time" in out
    assert "Ordered by: internal time" in out
    # The root of the profile is the phase asked for, and only that one.
    for phase in ("run_pass", "setup"):
        assert (f"({phase})" in out) == (phase == profiled)

