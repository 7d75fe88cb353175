"""List the functions under ``src/repro`` that no driver enters.

    python scripts/census.py            # print the listing
    python scripts/census.py --check    # compare it with scripts/census.txt

``scripts/reach.py`` reads the code; this script runs it.  Each driver
runs in a copy of the tree (the paper benches rewrite
``benchmarks/results/``), with a ``sitecustomize`` module on
``PYTHONPATH`` that installs ``sys.setprofile`` and
``threading.setprofile`` in every driver process and keeps the ``call``
events of code under ``src/repro``, keyed by ``(co_filename,
co_firstlineno)``, until the process exits.  The drivers are:

* ``benchmarks/perf/run.py --quick``, once untraced and once with
  ``--trace`` (each workload runs in a subprocess of its own);
* ``tests/test_cli_identity.py``'s cases;
* every ``examples/*.py``;
* ``pytest benchmarks --ignore=benchmarks/perf --benchmark-disable``,
  less the ``bench_decision_*.py`` files: a decision bench runs the arm
  its rule may delete, so it is evidence about that code, not a driver
  of it.

A forked child keeps nothing: ``run_lifetime`` forks one worker per CPU,
and counting them would make the listing depend on the host.

``ast`` lists every ``def``; a decorated def starts at its first
decorator, as its code object does.  A def no driver entered is listed
as ``module:qualname`` with its line count; one nested inside a listed
function is folded into it.

``scripts/census.txt`` names every listed function with a category and
a reason (its header says which categories there are).  ``--check``
exits 1 with the per-name difference when the listing names other
functions than the file does, or when an entry's category is not one of
those; line counts are shown, not compared, so an edit inside a listed
function does not fail the check.  The drivers take about a minute and
a half on two CPUs; ``tests/test_census.py`` runs the check in the
``slow`` job.  Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LISTING = ROOT / "scripts" / "census.txt"
#: What a listed function may be kept as; anything else is deleted.
CATEGORIES = (
    "oracle", "generator", "error-path", "protocol", "cli", "worker",
    "item-7", "item-9", "item-22",
)
#: Left out of the copy the drivers run in.
NOT_COPIED = (".git", "__pycache__", ".pytest_cache", ".hypothesis",
              ".benchmarks")

HOOK = '''\
import atexit, os, sys, threading

_SRC = os.environ["CENSUS_SRC"]
_PID = os.getpid()
_entered = set()


def _hook(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if code.co_filename.startswith(_SRC):
            _entered.add((code.co_filename, code.co_firstlineno))


def _off():
    sys.setprofile(None)
    threading.setprofile(None)


def _dump():
    _off()
    if os.getpid() == _PID:
        out = os.path.join(os.environ["CENSUS_OUT"], "%d.txt" % _PID)
        with open(out, "w") as file:
            file.writelines("%s:%d\\n" % key for key in _entered)


sys.setprofile(_hook)
threading.setprofile(_hook)
os.register_at_fork(after_in_child=_off)
atexit.register(_dump)
'''


def drivers() -> list[list[str]]:
    """The driver commands, run from the root of the copied tree."""
    python = sys.executable
    quick = [python, "benchmarks/perf/run.py", "--quick", "--out"]
    pytest = [python, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
    return [
        [*quick, "quick.json"],
        [*quick, "quick-traced.json", "--trace"],
        [*pytest, "tests/test_cli_identity.py"],
        *(
            [python, f"examples/{path.name}"]
            for path in sorted((ROOT / "examples").glob("*.py"))
        ),
        [*pytest, "benchmarks", "--ignore=benchmarks/perf",
         "--ignore-glob=benchmarks/bench_decision_*.py",
         "--benchmark-disable"],
    ]


def entered(root: Path, commands: list[list[str]]) -> set[tuple[str, int]]:
    """``(path relative to src/, first line)`` of every function under
    ``src/repro`` that one of ``commands`` entered, run in a copy of the
    tree at ``root``."""
    with tempfile.TemporaryDirectory(prefix="census-") as scratch:
        scratch = Path(scratch)
        tree = scratch / "tree"
        shutil.copytree(root, tree, ignore=shutil.ignore_patterns(*NOT_COPIED))
        (scratch / "hook").mkdir()
        (scratch / "hook" / "sitecustomize.py").write_text(HOOK)
        (scratch / "out").mkdir()
        src = tree / "src"
        env = {
            **os.environ,
            "PYTHONPATH": os.pathsep.join(
                [str(scratch / "hook"), str(src)]
            ),
            "CENSUS_SRC": str(src / "repro") + os.sep,
            "CENSUS_OUT": str(scratch / "out"),
        }
        for command in commands:
            done = subprocess.run(
                command, cwd=tree, env=env, capture_output=True, text=True
            )
            if done.returncode != 0:
                raise SystemExit(
                    f"driver {' '.join(command)} exited {done.returncode}:\n"
                    + (done.stdout + done.stderr)[-4000:]
                )
        found = set()
        for dump in (scratch / "out").glob("*.txt"):
            for line in dump.read_text().splitlines():
                path, _, first = line.rpartition(":")
                found.add((Path(path).relative_to(src).as_posix(), int(first)))
        return found


def _defs(body, scope: str):
    """``(qualname, first line, line count, nested defs)`` of the defs
    directly in ``body`` and in the classes it holds."""
    for node in body:
        if isinstance(node, ast.ClassDef):
            yield from _defs(node.body, f"{scope}{node.name}.")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min(
                [node.lineno, *(d.lineno for d in node.decorator_list)]
            )
            yield (
                f"{scope}{node.name}", first, node.end_lineno - first + 1,
                node.body,
            )


def unentered(
    root: Path, found: set[tuple[str, int]]
) -> list[tuple[str, int]]:
    """``(module:qualname, line count)`` of every def under
    ``root/src/repro`` whose code ``found`` does not hold, sorted; a def
    inside a listed one is not listed again."""
    listed = []
    src = root / "src"
    for path in sorted((src / "repro").rglob("*.py")):
        relative = path.relative_to(src)
        module = ".".join(relative.with_suffix("").parts)
        todo = [(ast.parse(path.read_text()).body, "")]
        while todo:
            body, scope = todo.pop()
            for qualname, first, lines, inner in _defs(body, scope):
                if (relative.as_posix(), first) in found:
                    todo.append((inner, f"{qualname}."))
                else:
                    listed.append((f"{module}:{qualname}", lines))
    return sorted(listed)


def census(root: Path = ROOT, commands=None) -> list[tuple[str, int]]:
    """The listing: what ``commands`` (the drivers by default) leave
    unentered under ``root``."""
    return unentered(root, entered(root, commands or drivers()))


def read_listing(path: Path = LISTING) -> dict[str, tuple[int, str, str]]:
    """``scripts/census.txt``: name -> (line count, category, reason)."""
    kept = {}
    for line in path.read_text().splitlines():
        if line and not line.startswith("#"):
            name, lines, category, reason = line.split(None, 3)
            kept[name] = (int(lines), category, reason)
    return kept


def check(listed: list[tuple[str, int]], kept: dict) -> list[str]:
    """The differences between a listing and ``census.txt``'s entries."""
    now = dict(listed)
    problems = [
        f"+ {name} ({now[name]} lines): no driver enters it and "
        "census.txt does not list it"
        for name in sorted(now.keys() - kept.keys())
    ]
    problems += [
        f"- {name}: census.txt lists it, but a driver enters it or it is gone"
        for name in sorted(kept.keys() - now.keys())
    ]
    problems += [
        f"? {name}: category {category!r} is not one of "
        + ", ".join(CATEGORIES)
        for name, (_, category, _) in sorted(kept.items())
        if category not in CATEGORIES
    ]
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="exit 1 unless the listing names what scripts/census.txt names",
    )
    args = parser.parse_args(argv)
    listed = census()
    if not args.check:
        for name, lines in listed:
            print(f"{name} {lines}")
        print(f"{len(listed)} functions, {sum(n for _, n in listed)} lines, "
              "are entered by no driver")
        return 0
    problems = check(listed, read_listing())
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
