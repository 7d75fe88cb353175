"""EVENT_PREFIXES must cover every tracer-emitting subsystem.

Walks the source tree with :mod:`ast` and collects the event-name prefix
of every ``tracer.instant(...)`` / ``tracer.begin(...)`` call.  When a
call passes a computed name (the fault injector builds names up front),
the module's dotted string literals stand in.  Any prefix missing from
:data:`repro.repair.telemetry.EVENT_PREFIXES` fails the test, so a new
emitting subsystem cannot ship without a per-prefix counter.
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
    if func.attr not in ("instant", "begin", "link"):
        return False
    target = func.value
    if isinstance(target, ast.Name):
        return target.id == "tracer"
    if isinstance(target, ast.Attribute):
        return target.attr == "tracer"
    return False


def _is_link_call(node: ast.Call) -> bool:
    """``tracer.link(...)`` appends a ``span.link`` instant internally,
    so the emitted name never appears as a call argument."""
    return (
        isinstance(node.func, ast.Attribute) and node.func.attr == "link"
    )


def _dotted_literals(tree: ast.AST) -> set[str]:
    return {
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and _DOTTED.match(node.value)
    }


def emitted_prefixes() -> dict[str, set[str]]:
    """Map of event-name prefix -> source files that emit it."""
    prefixes: dict[str, set[str]] = {}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        names: set[str] = set()
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and _is_tracer_call(node)):
                continue
            if _is_link_call(node):
                names.add("span.link")
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
                str(path.relative_to(SRC))
            )
    return prefixes


def test_scanner_sees_known_subsystems():
    found = emitted_prefixes()
    # Spot checks that the AST walk actually resolves real call sites.
    assert "governor" in found
    assert "flow" in found
    assert "fault" in found


def test_scanner_sees_causal_tracing_prefixes():
    found = emitted_prefixes()
    # ``tracer.link`` calls (hedge adoption) emit span.link internally.
    assert "span" in found
    assert any("jobmaster" in path for path in found["span"])
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
    found = emitted_prefixes()
    stale = [prefix for prefix in EVENT_PREFIXES if prefix not in found]
    assert not stale, (
        f"EVENT_PREFIXES lists prefixes nothing emits: {stale}"
    )
