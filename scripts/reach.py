"""List the public names under src/ that only the tests reach.

    python scripts/reach.py

A public name is a top-level function, class or assigned variable,
not starting with ``_``, of a module under ``src/``.  It is listed when
some file under ``tests/`` references it and no module under ``src/``,
``benchmarks/``, ``examples/`` or ``scripts/`` does.  A reference is
an identifier a module's code reads: a loaded name, an attribute, or a
name imported ``from`` a module; docstrings and comments are not code.
Its own module counts (a helper only its module calls is reached), a
package's ``__init__.py`` does not: it only re-exports, so a name the
tests import through a package is still listed.

Matching is by bare name, so a name another module merely shares
hides it (a miss, never a false listing).  The exit status is 0
whatever it finds; ``tests/test_reach.py`` is the gate, pinning the
listing to the names it allows and why.  Standard library only.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: Trees whose references make a name reached outside the tests.
CALLERS = ("src", "benchmarks", "examples", "scripts")


def _modules(root: Path, tree: str):
    for path in sorted((root / tree).rglob("*.py")):
        if path.name != "__init__.py":
            yield path, ast.parse(path.read_text(), filename=str(path))


def _defined(module: ast.Module) -> list[str]:
    names = []
    for node in module.body:
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            names.extend(t.id for t in targets if isinstance(t, ast.Name))
    return [name for name in names if not name.startswith("_")]


def _referenced(module: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(module):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def reach(root: Path = ROOT) -> list[str]:
    """``module:name`` of every public name only ``tests/`` references,
    in the tree checked out at ``root``."""
    tests: set[str] = set()
    for _, module in _modules(root, "tests"):
        tests |= _referenced(module)
    reached: set[str] = set()
    for tree in CALLERS:
        for _, module in _modules(root, tree):
            reached |= _referenced(module)
    listed = []
    for path, module in _modules(root, "src"):
        relative = path.relative_to(root / "src").with_suffix("")
        dotted = ".".join(relative.parts)
        listed.extend(
            f"{dotted}:{name}"
            for name in _defined(module)
            if name in tests and name not in reached
        )
    return listed


def main() -> int:
    listed = reach()
    for entry in listed:
        print(entry)
    print(f"{len(listed)} public names under src/ are reached only from tests/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
