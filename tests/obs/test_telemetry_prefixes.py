"""EVENT_PREFIXES and the tracer-emitting subsystems are the same set.

Walks the source tree with :mod:`ast` and collects the event-name prefix
of every ``tracer.instant(...)`` / ``tracer.begin(...)`` call.  When a
call passes a computed name (the fault injector builds names up front),
the module's dotted string literals stand in.  Both directions fail the
test: a prefix missing from :data:`repro.repair.telemetry.EVENT_PREFIXES`
(a new emitting subsystem cannot ship without a per-prefix counter), and
a listed prefix nothing emits (a removed subsystem cannot leave an
always-zero ``<prefix>_events`` counter in every run's telemetry).
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

from repro.repair.telemetry import EVENT_PREFIXES

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

_DOTTED = re.compile(r"^[a-z_]+\.[a-z_0-9]+$")


def _is_tracer_call(node: ast.Call) -> bool:
    func = node.func
    if not isinstance(func, ast.Attribute):
        return False
    if func.attr not in ("instant", "begin"):
        return False
    target = func.value
    if isinstance(target, ast.Name):
        return target.id == "tracer"
    if isinstance(target, ast.Attribute):
        return target.attr == "tracer"
    return False


def _dotted_literals(tree: ast.AST) -> set[str]:
    return {
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and _DOTTED.match(node.value)
    }


def emitted_prefixes(src: Path = SRC) -> dict[str, set[str]]:
    """Map of event-name prefix -> source files under ``src`` that emit
    it."""
    prefixes: dict[str, set[str]] = {}
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text())
        names: set[str] = set()
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and _is_tracer_call(node)):
                continue
            if not node.args:
                continue
            first = node.args[0]
            if isinstance(first, ast.Constant) and isinstance(
                first.value, str
            ):
                names.add(first.value)
            else:
                # Computed event name: every dotted literal in the
                # module is a candidate (e.g. the fault injector's
                # pre-built "fault.*" names).
                names.update(_dotted_literals(tree))
        for name in names:
            prefixes.setdefault(name.split(".", 1)[0], set()).add(
                str(path.relative_to(src))
            )
    return prefixes


def stale(listed, found) -> list[str]:
    """Listed prefixes nothing under the scanned tree emits."""
    return [prefix for prefix in listed if prefix not in found]


def test_scanner_sees_known_subsystems():
    found = emitted_prefixes()
    # Spot checks that the AST walk actually resolves real call sites.
    assert "governor" in found
    assert "flow" in found
    assert "fault" in found


def test_scanner_sees_causal_tracing_prefixes():
    found = emitted_prefixes()
    # Slice-level critical-path drill-down spans.
    assert "slice" in found
    assert any("slicesim" in path for path in found["slice"])
    # The critpath CLI stamps its report into the trace it analysed.
    assert "critpath" in found


def test_every_emitted_prefix_is_listed():
    found = emitted_prefixes()
    missing = {
        prefix: sorted(files)
        for prefix, files in found.items()
        if prefix not in EVENT_PREFIXES
    }
    assert not missing, (
        "tracer events are emitted with prefixes missing from "
        f"EVENT_PREFIXES: {missing} — add them to "
        "repro.repair.telemetry.EVENT_PREFIXES so per-prefix counters "
        "cover the new subsystem"
    )


def test_no_stale_prefixes():
    listed_only = stale(EVENT_PREFIXES, emitted_prefixes())
    assert not listed_only, (
        f"EVENT_PREFIXES lists prefixes nothing emits: {listed_only}"
    )


def test_a_stale_prefix_is_found(tmp_path):
    # A scan that finds nothing would pass the check above; on a tree
    # with one literal and one computed emitter, the one prefix listed
    # but never emitted is named.
    (tmp_path / "literal.py").write_text(
        'tracer.instant("alpha.tick", t=0.0)\n'
    )
    (tmp_path / "computed.py").write_text(
        'NAMES = {"crash": "beta.crash"}\n'
        "self.tracer.begin(NAMES[kind], t=0.0)\n"
    )
    found = emitted_prefixes(tmp_path)
    assert found == {"alpha": {"literal.py"}, "beta": {"computed.py"}}
    assert stale(("alpha", "beta", "gamma"), found) == ["gamma"]
