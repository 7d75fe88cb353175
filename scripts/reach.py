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
hides it (a miss, never a false listing).

It also lists the fields of ``src/``'s config dataclasses that no module
under those four trees sets.  A config dataclass is a ``@dataclass``
whose name ends in ``Config``, ``Policy``, ``Settings``, ``Profile`` or
``Spec``, or is ``FullNodeScenario``.  A caller sets a field when it
passes it by keyword or position to the class outside the class's own
body, by keyword to ``dataclasses.replace``, or as a string or keyword
argument of a call that names the class (the CLI declares its flags
that way).  Classes are matched by bare name, and a match that cannot
be resolved counts as set: ``Config(**mapping)`` sets every field, and
``replace(obj, **mapping)`` every field of every config class.  So the
scan may miss a field but never lists a set one.

The exit status is 0 whatever it finds; ``tests/test_reach.py`` is the
gate, pinning both listings to the entries it allows and why.
Standard library only.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: Trees whose references make a name reached outside the tests.
CALLERS = ("src", "benchmarks", "examples", "scripts")
#: Name endings (and whole names) of the config dataclasses.
CONFIG_SUFFIXES = ("Config", "Policy", "Settings", "Profile", "Spec")
CONFIG_NAMES = ("FullNodeScenario",)


def _modules(root: Path, tree: str, packages: bool = False):
    for path in sorted((root / tree).rglob("*.py")):
        if packages or path.name != "__init__.py":
            yield path, ast.parse(path.read_text(), filename=str(path))


def _dotted(root: Path, path: Path) -> str:
    relative = path.relative_to(root / "src").with_suffix("")
    return ".".join(relative.parts)


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
        dotted = _dotted(root, path)
        listed.extend(
            f"{dotted}:{name}"
            for name in _defined(module)
            if name in tests and name not in reached
        )
    return listed


def _configs(root: Path) -> dict[str, tuple[str, list[str]]]:
    """Config dataclass name -> (module, its fields in order)."""
    configs = {}
    for path, module in _modules(root, "src"):
        for node in module.body:
            if not (
                isinstance(node, ast.ClassDef)
                and (
                    node.name.endswith(CONFIG_SUFFIXES)
                    or node.name in CONFIG_NAMES
                )
                and any(
                    "dataclass" in ast.unparse(decorator)
                    for decorator in node.decorator_list
                )
            ):
                continue
            fields = [
                statement.target.id
                for statement in node.body
                if isinstance(statement, ast.AnnAssign)
                and isinstance(statement.target, ast.Name)
                and "ClassVar" not in ast.unparse(statement.annotation)
            ]
            configs[node.name] = (_dotted(root, path), fields)
    return configs


def _names(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


class _Setters(ast.NodeVisitor):
    """Collect, per config class, the fields a module's calls set."""

    def __init__(self, configs: dict[str, tuple[str, list[str]]]):
        self.configs = configs
        self.set: dict[str, set[str]] = {name: set() for name in configs}
        self.classes: list[str] = []

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.classes.append(node.name)
        self.generic_visit(node)
        self.classes.pop()

    def visit_Call(self, node: ast.Call) -> None:
        called = _names(node.func)
        if called in self.configs and called not in self.classes:
            self._construct(called, node)
        elif called == "replace":
            self._replace(node)
        for name in {_names(arg) for arg in node.args} | {
            _names(keyword.value) for keyword in node.keywords
        }:
            if name in self.configs:
                self.set[name].update(
                    arg.value for arg in node.args
                    if isinstance(arg, ast.Constant)
                    and isinstance(arg.value, str)
                )
                self.set[name].update(
                    keyword.arg for keyword in node.keywords if keyword.arg
                )
        self.generic_visit(node)

    def _construct(self, name: str, node: ast.Call) -> None:
        fields = self.configs[name][1]
        if any(isinstance(arg, ast.Starred) for arg in node.args) or any(
            keyword.arg is None for keyword in node.keywords
        ):
            self.set[name].update(fields)
            return
        self.set[name].update(fields[: len(node.args)])
        self.set[name].update(keyword.arg for keyword in node.keywords)

    def _replace(self, node: ast.Call) -> None:
        unpacked = any(keyword.arg is None for keyword in node.keywords)
        for config, (_, fields) in self.configs.items():
            self.set[config].update(
                fields if unpacked
                else (keyword.arg for keyword in node.keywords)
            )


def unset_fields(root: Path = ROOT) -> list[str]:
    """``module:Class.field`` of every config dataclass field under
    ``src/`` that no caller sets, in the tree checked out at ``root``."""
    configs = _configs(root)
    setters = _Setters(configs)
    for tree in CALLERS:
        for _, module in _modules(root, tree, packages=True):
            setters.visit(module)
    return [
        f"{dotted}:{name}.{field}"
        for name, (dotted, fields) in configs.items()
        for field in fields
        if field not in setters.set[name]
    ]


def main() -> int:
    listed = reach()
    for entry in listed:
        print(entry)
    print(f"{len(listed)} public names under src/ are reached only from tests/")
    unset = unset_fields()
    for entry in unset:
        print(entry)
    print(f"{len(unset)} config fields under src/ are set by no caller")
    return 0


if __name__ == "__main__":
    sys.exit(main())
