"""``scripts/reach.py`` as a gate: what only the tests reach is a decision.

A public name under ``src/`` that nothing under ``src/``,
``benchmarks/``, ``examples/`` or ``scripts/`` references is either an
oracle or generator the tests need, or an open ROADMAP item; each is in
:data:`ALLOWED` with its reason.  A new test-only name fails the gate,
and so does an allowed name that gains a driver (strike it here).
"""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "reach.py"

_ORACLE = "oracle: a closed form or exact reference the tests compare with"
_GENERATOR = "generator: test data, or a unit the tests build it in"

#: ``module:name`` -> why only the tests reach it.
ALLOWED = {
    "repro.core.scheduler:tree_similarity": _ORACLE,
    "repro.lifetime.mttdl:markov_mttdl": _ORACLE,
    "repro.network.fairness:allocate_edge_tasks": _ORACLE,
    "repro.repair.slicesim:slice_critical_path": _ORACLE,
    "repro.ec.chunk:join_slices": _GENERATOR,
    "repro.ec.chunk:random_chunk": _GENERATOR,
    "repro.ec.chunk:split_slices": _GENERATOR,
    "repro.ec.field:GF65536": _GENERATOR,
    "repro.network.scenario:random_scenario": _GENERATOR,
    "repro.units:GIB": _GENERATOR,
    "repro.repair.multichunk:execute_multi_chunk": (
        "ROADMAP item 12: the multi-chunk fallback, reached or removed"
    ),
    "repro.repair.multichunk:plan_multi_chunk": (
        "ROADMAP item 12: the multi-chunk fallback, reached or removed"
    ),
    "repro.faults.runner:adopt_full_node": (
        "ROADMAP item 7: its composed-fault generator is the driver"
    ),
}


def load_reach():
    spec = importlib.util.spec_from_file_location("reach", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_only_the_allowed_names_are_reached_only_from_tests():
    listed = load_reach().reach()
    assert len(listed) == len(set(listed))
    assert sorted(listed) == sorted(ALLOWED)


def test_a_test_only_name_is_found(tmp_path):
    # Without this, a scan that finds nothing would pass the gate.
    files = {
        "src/pkg/mod.py": "def used(): pass\n\n\ndef orphan(): pass\n",
        "src/pkg/__init__.py": "from pkg.mod import orphan, used\n",
        "tests/test_mod.py": "from pkg.mod import orphan, used\n",
        "benchmarks/bench.py": "from pkg.mod import used\n",
    }
    for name, text in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    assert load_reach().reach(root=tmp_path) == ["pkg.mod:orphan"]


def test_main_lists_and_exits_zero(capsys):
    assert load_reach().main() == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == (
        f"{len(ALLOWED)} public names under src/ are reached only from tests/"
    )
    assert sorted(out[:-1]) == sorted(ALLOWED)
