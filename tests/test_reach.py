"""``scripts/reach.py`` as a gate: what only the tests reach is a decision.

A public name under ``src/`` that nothing under ``src/``,
``benchmarks/``, ``examples/`` or ``scripts/`` references is either an
oracle or generator the tests need, or an open ROADMAP item; each is in
:data:`ALLOWED` with its reason.  A new test-only name fails the gate,
and so does an allowed name that gains a driver (strike it here).

Likewise a config dataclass field that no caller sets is a constant
waiting to happen, unless :data:`UNSET` says why it stays a field; a
public method the tests reference and no reached code calls (reached
transitively: a caller counts only if something reached calls it) is
dead code or a test helper, unless :data:`METHODS` says why it stays;
and a defaulted parameter no caller passes is a constant waiting to
happen, unless :data:`UNPASSED` says why it stays a parameter.
"""

import functools
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "reach.py"

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
    "repro.faults.runner:adopt_full_node": (
        "ROADMAP item 7: its composed-fault generator is the driver"
    ),
}


_RETRY = (
    "set through RetryPolicy.from_spec, by --retry-policy and by "
    "storm's RETRY_SPEC"
)
_HEALTH = (
    "hedging goes (benchmarks/results/decision_hedging.txt, ROADMAP item "
    "22); benchmarks/perf/layers.py wraps HealthMonitor.observe, so the "
    "deletion waits for the benchmark change that drops that layer"
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


#: ``module:Class.method`` -> why only the tests reach it.
METHODS = {
    "repro.network.engine:IncrementalEngine.solves": (
        "runtime counter ROADMAP item 9 exports"
    ),
    "repro.cluster.master:Cluster.rebuild_slice_range": (
        "ROADMAP item 7: adopt_full_node calls it, and its composed-fault "
        "generator is the driver"
    ),
}

#: ``module:function.parameter`` -> why no caller passes it and it
#: stays a parameter.
UNPASSED = {
    "repro.cli:main.argv": (
        "the entry point: the console script passes none, tests pass argv"
    ),
    "repro.lifetime.mttdl:markov_mttdl.repair_streams": _ORACLE,
    **{
        f"repro.repair.slicesim:slice_critical_path.{name}": _ORACLE
        for name in ("config", "start_slice", "tracer", "parent_id")
    },
    "repro.repair.slicesim:simulate_slices.start_slice": (
        "the resumed run slice_critical_path(start_slice=) tiles; the "
        "tests compare the two"
    ),
    **{
        f"repro.network.scenario:random_scenario.{name}": _GENERATOR
        for name in ("node_count", "steps", "racked")
    },
    **{
        f"repro.network.scenario:replay.{name}": _GENERATOR
        for name in ("sample_interval", "network")
    },
    "repro.network.bandwidth:sample_grid.start": (
        "tests check the grid's floats and errors at any origin"
    ),
    "repro.repair.executor:repair_single_chunk_faulted.journal": (
        "the one-stripe journal and resume tests run through it and pin "
        "its journal to a one-stripe full-node repair's"
    ),
}


@functools.cache
def load_reach():
    spec = importlib.util.spec_from_file_location("reach", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def repo():
    """The repository, parsed once for every listing below."""
    return load_reach().Checkout(ROOT)


def planted(root, files):
    """A checkout of ``files`` (path -> text) written under ``root``."""
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return load_reach().Checkout(root)


def test_only_the_allowed_names_are_reached_only_from_tests(repo):
    listed = load_reach().reach(repo)
    assert len(listed) == len(set(listed))
    assert sorted(listed) == sorted(ALLOWED)


def test_a_test_only_name_is_found(tmp_path):
    # Without this, a scan that finds nothing would pass the gate.
    files = {
        "src/pkg/mod.py": "def used(): pass\n\n\ndef orphan(): pass\n",
        "src/pkg/__init__.py": "from pkg.mod import orphan, used\n",
        "tests/test_mod.py": "from pkg.mod import orphan, used\n",
        "benchmarks/bench.py": "from pkg.mod import used\n\nused()\n",
    }
    checkout = planted(tmp_path, files)
    assert load_reach().reach(checkout) == ["pkg.mod:orphan"]


def test_a_reexport_is_not_a_reach(tmp_path):
    # A module that imports a name without using it only passes it on.
    files = {
        "src/pkg/mod.py": "def orphan(): pass\n",
        "src/pkg/facade.py": (
            "from pkg.mod import orphan  # noqa: F401 - re-exported\n"
        ),
        "src/pkg/user.py": "from pkg.mod import orphan as o\n\no()\n",
        "tests/test_mod.py": "from pkg.facade import orphan\n",
    }
    used = planted(tmp_path / "used", files)
    assert load_reach().reach(used) == []
    unused = planted(
        tmp_path / "unused", {**files, "src/pkg/user.py": "x = 1\n"}
    )
    assert load_reach().reach(unused) == ["pkg.mod:orphan"]


def test_only_the_allowed_config_fields_are_set_by_no_caller(repo):
    listed = load_reach().unset_fields(repo)
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
    checkout = planted(tmp_path, files)
    assert load_reach().unset_fields(checkout) == [
        "pkg.mod:ToyConfig.unset"
    ]


def test_only_the_allowed_methods_are_reached_only_from_tests(repo):
    listed = load_reach().test_only_methods(repo)
    assert len(listed) == len(set(listed))
    assert sorted(listed) == sorted(METHODS)


def test_a_test_only_method_is_found(tmp_path):
    # One method only the tests call, one a benchmark calls, one its
    # own class calls; private methods are never listed.
    files = {
        "src/pkg/mod.py": (
            "class Toy:\n"
            "    def orphan(self): pass\n\n"
            "    def benched(self): pass\n\n"
            "    def helper(self): pass\n\n"
            "    def run(self):\n        self.helper()\n\n"
            "    def _private(self): pass\n"
        ),
        "src/pkg/cli.py": "from pkg.mod import Toy\n\nToy().run()\n",
        "tests/test_mod.py": (
            "from pkg.mod import Toy\n\n"
            "t = Toy()\nt.orphan()\nt.benched()\nt.helper()\n"
            "t._private()\n"
        ),
        "benchmarks/bench.py": "from pkg.mod import Toy\n\nToy().benched()\n",
    }
    checkout = planted(tmp_path, files)
    assert load_reach().test_only_methods(checkout) == [
        "pkg.mod:Toy.orphan"
    ]


def test_a_method_only_a_test_only_method_calls_is_found(tmp_path):
    # ``orphan`` calls ``inner``, ``loop_a`` and ``loop_b`` call each
    # other, ``run`` (reached from the CLI) calls ``kept``, and
    # ``__repr__`` (a dunder, run implicitly) calls ``shown``: the calls
    # of unreached code reach nothing.
    files = {
        "src/pkg/mod.py": (
            "class Toy:\n"
            "    def orphan(self):\n        self.inner()\n\n"
            "    def inner(self): pass\n\n"
            "    def loop_a(self):\n        self.loop_b()\n\n"
            "    def loop_b(self):\n        self.loop_a()\n\n"
            "    def run(self):\n        self.kept()\n\n"
            "    def kept(self): pass\n\n"
            "    def shown(self): pass\n\n"
            "    def __repr__(self):\n        return str(self.shown())\n"
        ),
        "src/pkg/cli.py": "from pkg.mod import Toy\n\nToy().run()\n",
        "tests/test_mod.py": (
            "from pkg.mod import Toy\n\n"
            "t = Toy()\nt.orphan()\nt.inner()\nt.loop_a()\nt.loop_b()\n"
            "t.kept()\nt.shown()\n"
        ),
    }
    checkout = planted(tmp_path, files)
    assert load_reach().test_only_methods(checkout) == [
        "pkg.mod:Toy.orphan", "pkg.mod:Toy.inner",
        "pkg.mod:Toy.loop_a", "pkg.mod:Toy.loop_b",
    ]


def test_only_the_allowed_parameters_are_passed_by_no_caller(repo):
    listed = load_reach().unpassed_parameters(repo)
    assert len(listed) == len(set(listed))
    assert sorted(listed) == sorted(UNPASSED)


def test_an_unpassed_parameter_is_found(tmp_path):
    # Passed by position, by keyword, through a class call, from a
    # benchmark, or as a value: only the tests' keyword is not a pass.
    files = {
        "src/pkg/mod.py": (
            "def f(a, by_position=1, by_keyword=2, unpassed=3): pass\n\n\n"
            "def handler(value=0): pass\n\n\n"
            "class Toy:\n"
            "    def __init__(self, size=1, spare=2): pass\n\n"
            "    def run(self, fast=False, slow=False): pass\n"
        ),
        "src/pkg/cli.py": (
            "from pkg.mod import Toy, f, handler\n\n"
            "f(0, 1, by_keyword=5)\nToy(3).run(slow=True)\n"
            "HANDLERS = {\"h\": handler}\n"
        ),
        "tests/test_mod.py": (
            "from pkg.mod import Toy, f\n\n"
            "f(0, unpassed=9)\nToy().run(fast=True)\n"
        ),
        "benchmarks/bench.py": "from pkg.mod import Toy\n\nToy(spare=0)\n",
    }
    checkout = planted(tmp_path, files)
    assert load_reach().unpassed_parameters(checkout) == [
        "pkg.mod:f.unpassed", "pkg.mod:Toy.run.fast",
    ]


def test_main_lists_and_exits_zero(repo, capsys, monkeypatch):
    reach = load_reach()
    monkeypatch.setattr(reach, "Checkout", lambda root: repo)
    assert reach.main() == 0
    out = capsys.readouterr().out.splitlines()
    start = 0
    for allowed, what in (
        (ALLOWED, "public names under src/ are reached only from tests/"),
        (UNSET, "config fields under src/ are set by no caller"),
        (METHODS, "public methods under src/ are reached only from tests/"),
        (UNPASSED, "defaulted parameters under src/ are passed by no caller"),
    ):
        count = out.index(f"{len(allowed)} {what}", start)
        assert sorted(out[start:count]) == sorted(allowed)
        start = count + 1
    assert start == len(out)
