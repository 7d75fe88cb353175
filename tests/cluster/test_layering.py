"""The byte plane imports nothing that decides; one master decides.

``repro.cluster`` and ``repro.ec`` execute: they encode, store, and
rebuild a chunk through the plan they are handed.  Retry budgets, fault
plans, journals, client load, admission and the simulated network live
above them, and the dependency runs one way — the timing plane's results
are fed *to* the cluster (``repro.faults.runner``'s ``adopt_result`` and
``adopt_full_node``, which the chaos harness in ``tests/chaos_harness.py``
also goes through), never read by it.
Walks both packages with :mod:`ast`, so an import inside a function or
under ``TYPE_CHECKING`` counts too.

Nor does the cluster choose helpers or requestors of its own: every
chunk it rebuilds, one lost or several, goes through the plan a planner
hands it.

Above them, ``StripeRepairMaster`` repairs a chunk whether it is alone
or one of a failed node's: no class under ``src/`` subclasses it, so a
second dialect of naming, requestor choice or resume cannot come back.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

BYTE_PLANE = ("cluster", "ec")
FORBIDDEN = (
    "repair", "faults", "resilience", "loadgen", "controlplane", "network",
)
#: The rules that pick a repair's helpers or its requestor.
HELPER_CHOICE = ("best_uplinks", "choose_requestor")


def imported_packages(tree: ast.AST, module: str) -> set[str]:
    """``repro.<package>`` of every ``repro`` import in ``module``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parent = module.split(".")[: -node.level]
                base = ".".join([*parent, base] if base else parent)
            # ``from repro import faults`` names the package as an alias.
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return {
        ".".join(name.split(".")[:2])
        for name in names if name.startswith("repro.")
    }


def test_byte_plane_imports_no_deciding_package():
    forbidden = {f"repro.{package}" for package in FORBIDDEN}
    offenders = []
    scanned = 0
    for package in BYTE_PLANE:
        for path in sorted((SRC / package).rglob("*.py")):
            scanned += 1
            imported = imported_packages(
                ast.parse(path.read_text()), f"repro.{package}.{path.stem}"
            )
            offenders += [
                f"{path.relative_to(SRC)}: {name}"
                for name in sorted(imported & forbidden)
            ]
    assert scanned >= 8, "the scan found no byte plane to check"
    assert not offenders, (
        "the byte plane must not import the planes that decide:\n  "
        + "\n  ".join(offenders)
    )


def test_the_cluster_chooses_no_helpers():
    offenders = []
    paths = sorted((SRC / "cluster").rglob("*.py"))
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.alias):
                name = node.name.rsplit(".", 1)[-1]
            elif isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            if name in HELPER_CHOICE:
                offenders.append(
                    f"{path.relative_to(SRC)}:{node.lineno}: {name}"
                )
    assert len(paths) >= 3, "the scan found no cluster to check"
    assert not offenders, (
        "the cluster executes plans and chooses no helpers:\n  "
        + "\n  ".join(offenders)
    )


def test_the_repair_master_has_no_subclass():
    master = "StripeRepairMaster"
    defined, subclasses = [], []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ClassDef):
                continue
            if node.name == master:
                defined.append(path)
            bases = {
                getattr(base, "id", None) or getattr(base, "attr", None)
                for base in node.bases
            }
            if master in bases:
                subclasses.append(f"{path.relative_to(SRC)}: {node.name}")
    assert len(defined) == 1, "the scan found no repair master to check"
    assert not subclasses, (
        f"one {master} repairs every chunk; subclassed by:\n  "
        + "\n  ".join(subclasses)
    )
