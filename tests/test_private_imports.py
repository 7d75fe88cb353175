"""No module under ``src/repro`` imports another module's private name.

A leading underscore says "only this module uses it"; a helper another
module needs is public there, named and documented as such.  Walks every
module with :mod:`ast`, so an import inside a function or under
``TYPE_CHECKING`` counts too, and relative imports are resolved.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def private_imports(source: str, module: str) -> list[str]:
    """``module: name`` of every ``_name`` that ``source``, the text of
    the dotted ``module``, imports from a repro module."""
    package = module.split(".")[:-1]  # ``__init__`` drops out too
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        base = node.module or ""
        if node.level:
            parent = package[: len(package) - node.level + 1]
            base = ".".join([*parent, base] if base else parent)
        if base != "repro" and not base.startswith("repro."):
            continue
        found += [
            f"{base}: {alias.name}"
            for alias in node.names
            if alias.name.startswith("_") and not alias.name.endswith("__")
        ]
    return found


def test_no_private_name_crosses_a_module():
    paths = sorted((SRC / "repro").rglob("*.py"))
    assert len(paths) > 50
    offenders = [
        f"{path.relative_to(SRC)} imports {name}"
        for path in paths
        for name in private_imports(
            path.read_text(),
            ".".join(path.relative_to(SRC).with_suffix("").parts),
        )
    ]
    assert offenders == []


def test_the_scan_sees_absolute_and_relative_imports():
    source = (
        "from repro.obs.critpath import _cap_at, build_spans\n"
        "def f():\n"
        "    from .metrics import _label_items\n"
        "    from ..core import _x\n"
        "from repro import __version__\n"
        "from collections import _private\n"
    )
    assert private_imports(source, "repro.obs.probe") == [
        "repro.obs.critpath: _cap_at",
        "repro.obs.metrics: _label_items",
        "repro.core: _x",
    ]
    assert private_imports(
        "from .critpath import _cap_at\n", "repro.obs.__init__"
    ) == ["repro.obs.critpath: _cap_at"]
