"""``scripts/census.py`` as a gate: every function a driver does not
enter is listed in ``scripts/census.txt`` with a category and a reason.

The census itself runs every driver (about a minute and a half), so the
comparison with the committed listing is ``slow``; tier-1 runs the census
on a planted tree, so that a scan that finds nothing cannot pass, and
checks the committed listing's form.
"""

import ast
import functools
import importlib.util
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "census.py"


@functools.cache
def load_census():
    spec = importlib.util.spec_from_file_location("census", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.slow
def test_only_the_functions_census_txt_lists_are_entered_by_no_driver():
    census = load_census()
    problems = census.check(census.census(), census.read_listing())
    assert problems == [], "\n".join(problems)


PLANTED = {
    "src/repro/__init__.py": "",
    "src/repro/mod.py": (
        "import functools\n\n\n"
        "def used():\n    return 1\n\n\n"
        "def orphan():\n"
        "    def nested():\n        return 2\n\n"
        "    return nested()\n\n\n"
        "@functools.lru_cache(maxsize=None)\n"
        "def decorated():\n    return 3\n"
    ),
    "examples/run.py": (
        "from repro.mod import decorated, used\n\nused()\ndecorated()\n"
    ),
}


def test_a_function_no_driver_enters_is_listed(tmp_path):
    # ``decorated``'s code starts at its decorator's line, and ``nested``
    # is folded into the ``orphan`` around it.  With the hook off, every
    # function would be listed.
    for name, text in PLANTED.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    listed = load_census().census(
        tmp_path, [[sys.executable, "examples/run.py"]]
    )
    assert listed == [("repro.mod:orphan", 5)]


def test_a_failing_driver_stops_the_census(tmp_path):
    (tmp_path / "src" / "repro").mkdir(parents=True)
    with pytest.raises(SystemExit, match="exited 3"):
        load_census().census(
            tmp_path, [[sys.executable, "-c", "raise SystemExit(3)"]]
        )


def test_check_names_each_difference():
    census = load_census()
    kept = {
        "pkg.mod:gone": (3, "oracle", "why"),
        "pkg.mod:kept": (2, "protocol", "dunder"),
        "pkg.mod:odd": (1, "misc", "no such category"),
    }
    listed = [("pkg.mod:kept", 2), ("pkg.mod:new", 4), ("pkg.mod:odd", 1)]
    assert census.check(listed, kept) == [
        "+ pkg.mod:new (4 lines): no driver enters it and census.txt "
        "does not list it",
        "- pkg.mod:gone: census.txt lists it, but a driver enters it or "
        "it is gone",
        "? pkg.mod:odd: category 'misc' is not one of "
        + ", ".join(census.CATEGORIES),
    ]


def test_every_entry_has_one_category_and_a_reason():
    census = load_census()
    lines = [
        line for line in (ROOT / "scripts" / "census.txt")
        .read_text().splitlines()
        if line and not line.startswith("#")
    ]
    kept = census.read_listing()
    assert len(kept) == len(lines)
    assert list(kept) == sorted(kept)
    for name, (count, category, reason) in kept.items():
        assert re.fullmatch(r"repro(\.\w+)*:[\w.]+", name), name
        assert count > 0, name
        assert category in census.CATEGORIES, name
        assert reason.strip(), name


def test_each_cli_entry_names_a_test_cli_test():
    tree = ast.parse((ROOT / "tests" / "test_cli.py").read_text())
    tests = {
        f"{node.name}::{method.name}"
        for node in tree.body if isinstance(node, ast.ClassDef)
        for method in node.body if isinstance(method, ast.FunctionDef)
    }
    for name, (_, category, reason) in load_census().read_listing().items():
        if category == "cli":
            named = re.match(r"tests/test_cli\.py::(\w+::\w+)", reason)
            assert named and named[1] in tests, name
