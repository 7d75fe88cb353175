"""``scripts/reach.py`` as a gate: what only the tests reach is a decision.

A public name under ``src/`` that nothing under ``src/``,
``benchmarks/``, ``examples/`` or ``scripts/`` references is either an
oracle or generator the tests need, or an open ROADMAP item; each is in
:data:`ALLOWED` with its reason.  A new test-only name fails the gate,
and so does an allowed name that gains a driver (strike it here).

Likewise a config dataclass field that no caller sets is a constant
waiting to happen, unless :data:`UNSET` says why it stays a field.
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


_RETRY = (
    "set through RetryPolicy.from_spec, by --retry-policy and by "
    "storm's RETRY_SPEC"
)
_HEALTH = (
    "hedging has no driver (ROADMAP Parked, --health); "
    "benchmarks/perf/layers.py wraps HealthMonitor.observe"
)

#: ``module:Class.field`` -> why no caller sets it and it stays a field.
UNSET = {
    **{
        f"repro.faults.policy:RetryPolicy.{name}": _RETRY
        for name in (
            "detection_timeout", "max_retries", "backoff_base",
            "backoff_factor", "max_backoff", "jitter", "jitter_seed",
        )
    },
    **{
        f"repro.resilience.health:HealthPolicy.{name}": _HEALTH
        for name in (
            "check_interval", "min_progress_ratio", "grace_checks",
            "max_hedges",
        )
    },
    "repro.core.scheduler:SchedulerConfig.max_concurrency": (
        "the recorded adaptive-tuned/none driver identity entry pins it; "
        "removing it needs a scripted re-record"
    ),
    "repro.repair.pipeline:ExecutionConfig.per_slice_overhead": (
        "tests set it to 0.0 for closed-form expectations"
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


def test_only_the_allowed_config_fields_are_set_by_no_caller():
    listed = load_reach().unset_fields()
    assert len(listed) == len(set(listed))
    assert sorted(listed) == sorted(UNSET)


def test_an_unset_config_field_is_found(tmp_path):
    # The second field is set only the way the CLI declares its flags.
    files = {
        "src/pkg/mod.py": (
            "from dataclasses import dataclass\n\n\n"
            "@dataclass\nclass ToyConfig:\n"
            "    unset: int = 0\n    flagged: int = 1\n"
        ),
        "src/pkg/cli.py": (
            "from pkg.mod import ToyConfig\n\n\n"
            "def build(parser):\n"
            "    add_config_args(parser, ToyConfig, \"flagged\")\n"
        ),
        "tests/test_mod.py": (
            "from pkg.mod import ToyConfig\n\nToyConfig(unset=2)\n"
        ),
    }
    for name, text in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    assert load_reach().unset_fields(root=tmp_path) == [
        "pkg.mod:ToyConfig.unset"
    ]


def test_main_lists_and_exits_zero(capsys):
    assert load_reach().main() == 0
    out = capsys.readouterr().out.splitlines()
    names = out.index(
        f"{len(ALLOWED)} public names under src/ are reached only from tests/"
    )
    assert sorted(out[:names]) == sorted(ALLOWED)
    assert out[-1] == (
        f"{len(UNSET)} config fields under src/ are set by no caller"
    )
    assert sorted(out[names + 1:-1]) == sorted(UNSET)
