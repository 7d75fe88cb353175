"""List what under src/ only the tests reach, and what no caller sets.

    python scripts/reach.py

A public name is a top-level function, class or assigned variable,
not starting with ``_``, of a module under ``src/``.  It is listed when
some file under ``tests/`` references it and no module under ``src/``,
``benchmarks/``, ``examples/`` or ``scripts/`` does.  A reference is
an identifier a module's code reads: a loaded name or an attribute; a
name imported ``from`` a module is one in a test, and in a caller only
if that caller uses it (a re-export reaches nothing).  Docstrings and
comments are not code.
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

It lists the public methods of ``src/``'s top-level classes that
``tests/`` references and no reached code does.  A method is a function
in a class body whose name does not start with ``_``.  Reached code is
a fixpoint: it starts as ``benchmarks/``, ``examples/`` and
``scripts/``, the code of ``src/`` outside function bodies (module and
class bodies, decorators, defaults) and the bodies of dunder methods,
which run implicitly; and the body of every ``src/`` function whose
name reached code reads is reached too.  So a method only another
test-only method calls is listed, and so is a cycle of them.

And it lists the defaulted parameters of the functions and methods
under ``src/`` that no caller passes.  A call passes the parameters it
names by keyword, and as many leading ones as it has positional
arguments (``self`` or ``cls`` not counted).  Callees are matched by
bare name; calling a class calls the ``__init__`` of it and of its
bases, ``super().__init__`` those of the enclosing class's bases, and
``cls(...)`` those of the enclosing class's whole hierarchy.  A
``*args`` or ``**mapping`` argument passes every parameter, and so does
a function or class used as a value (a dict entry, a call argument, an
assignment: any read that is not called, subscripted or
attribute-accessed, and is no annotation, base class, ``except`` class
or ``isinstance`` class).  Dunder methods other than ``__init__`` are
called implicitly and are not scanned.

So every listing may miss an entry but never lists a used one.

The exit status is 0 whatever it finds; ``tests/test_reach.py`` is the
gate, pinning all four listings to the entries it allows and why.
Standard library only.
"""

from __future__ import annotations

import ast
import functools
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: Trees whose references make a name reached outside the tests.
CALLERS = ("src", "benchmarks", "examples", "scripts")
#: Name endings (and whole names) of the config dataclasses.
CONFIG_SUFFIXES = ("Config", "Policy", "Settings", "Profile", "Spec")
CONFIG_NAMES = ("FullNodeScenario",)


class Checkout:
    """The modules of the tree checked out at ``root``: each of its
    trees is parsed once, on first use, for every listing."""

    def __init__(self, root: Path):
        self.root = root
        self._parsed: dict[str, list[tuple[Path, ast.Module]]] = {}

    def modules(self, tree: str, packages: bool = False):
        if tree not in self._parsed:
            self._parsed[tree] = [
                (path, ast.parse(path.read_text(), filename=str(path)))
                for path in sorted((self.root / tree).rglob("*.py"))
            ]
        for path, module in self._parsed[tree]:
            if packages or path.name != "__init__.py":
                yield path, module

    def dotted(self, path: Path) -> str:
        relative = path.relative_to(self.root / "src").with_suffix("")
        return ".".join(relative.parts)

    @functools.cached_property
    def running(self) -> set[str]:
        """Identifiers that reached code reads: the fixpoint above."""
        reached: set[str] = set()
        bodies: dict[str, list[set[str]]] = {}
        for tree in CALLERS:
            for _, module in self.modules(tree):
                if tree != "src":
                    reached |= _referenced(module, reexports=False)
                    continue
                split = _Bodies(module)
                reached |= split.outside
                for name, body in split.functions:
                    bodies.setdefault(name, []).append(body)
        todo = [name for name in bodies if name in reached]
        while todo:
            for body in bodies.pop(todo.pop(), ()):
                new = body - reached
                reached |= new
                todo.extend(name for name in new if name in bodies)
        return reached

    @functools.cached_property
    def references(self) -> tuple[set[str], set[str]]:
        """(identifiers ``tests/`` reads, identifiers the callers read)."""
        tests: set[str] = set()
        for _, module in self.modules("tests"):
            tests |= _referenced(module)
        reached: set[str] = set()
        for tree in CALLERS:
            for _, module in self.modules(tree):
                reached |= _referenced(module, reexports=False)
        return tests, reached


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


def _referenced(module: ast.Module, reexports: bool = True) -> set[str]:
    """Identifiers ``module`` reads; with ``reexports`` false, a name
    imported ``from`` a module counts only if ``module`` uses it."""
    names = set()
    imported = {}
    for node in ast.walk(module):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                imported[alias.asname or alias.name] = alias.name
    names.update(
        name for bound, name in imported.items()
        if reexports or bound in names
    )
    return names


class _Bodies(ast.NodeVisitor):
    """Split the identifiers a module reads into those outside function
    bodies (``outside``, dunder bodies included) and, per other function,
    those its body reads (``functions``: name, identifiers).  A name
    imported ``as`` an alias reads the imported name too."""

    def __init__(self, module: ast.Module):
        self.aliases = {
            alias.asname: alias.name
            for node in ast.walk(module) if isinstance(node, ast.ImportFrom)
            for alias in node.names if alias.asname
        }
        self.outside: set[str] = set()
        self.functions: list[tuple[str, set[str]]] = []
        self.into = self.outside
        self.visit(module)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self.into.add(node.id)
            if node.id in self.aliases:
                self.into.add(self.aliases[node.id])

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self.into.add(node.attr)
        self.generic_visit(node)

    def visit_FunctionDef(self, node) -> None:
        if node.name.startswith("__") and node.name.endswith("__"):
            self.generic_visit(node)
            return
        # Decorators, defaults and annotations run where the def is.
        for part in (*node.decorator_list, node.args, node.returns):
            if part is not None:
                self.visit(part)
        outer, self.into = self.into, set()
        self.functions.append((node.name, self.into))
        for statement in node.body:
            self.visit(statement)
        self.into = outer

    visit_AsyncFunctionDef = visit_FunctionDef


def reach(checkout: Checkout) -> list[str]:
    """``module:name`` of every public name only ``tests/`` references."""
    tests, reached = checkout.references
    listed = []
    for path, module in checkout.modules("src"):
        dotted = checkout.dotted(path)
        listed.extend(
            f"{dotted}:{name}"
            for name in _defined(module)
            if name in tests and name not in reached
        )
    return listed


def _configs(checkout: Checkout) -> dict[str, tuple[str, list[str]]]:
    """Config dataclass name -> (module, its fields in order)."""
    configs = {}
    for path, module in checkout.modules("src"):
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
            configs[node.name] = (checkout.dotted(path), fields)
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


def unset_fields(checkout: Checkout) -> list[str]:
    """``module:Class.field`` of every config dataclass field under
    ``src/`` that no caller sets."""
    configs = _configs(checkout)
    setters = _Setters(configs)
    for tree in CALLERS:
        for _, module in checkout.modules(tree, packages=True):
            setters.visit(module)
    return [
        f"{dotted}:{name}.{field}"
        for name, (dotted, fields) in configs.items()
        for field in fields
        if field not in setters.set[name]
    ]


def test_only_methods(checkout: Checkout) -> list[str]:
    """``module:Class.method`` of every public method of a top-level
    ``src/`` class that ``tests/`` references and no reached code does."""
    tests, _ = checkout.references
    reached = checkout.running
    listed = []
    for path, module in checkout.modules("src"):
        dotted = checkout.dotted(path)
        listed.extend(
            f"{dotted}:{node.name}.{method.name}"
            for node in module.body if isinstance(node, ast.ClassDef)
            for method in node.body
            if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not method.name.startswith("_")
            and method.name in tests and method.name not in reached
        )
    return listed


class _Function:
    """A ``src/`` function with defaulted parameters; ``owner`` is the
    class whose body defines it, if any."""

    def __init__(self, name: str, node, owner: str | None, method: bool):
        arguments = node.args
        positional = [*arguments.posonlyargs, *arguments.args]
        if method:
            positional = positional[1:]
        self.name = name
        self.owner = owner
        self.positional = [argument.arg for argument in positional]
        first_default = len(positional) - len(arguments.defaults)
        self.defaulted = [
            argument.arg for argument in positional[first_default:]
        ] + [
            argument.arg
            for argument, default in zip(
                arguments.kwonlyargs, arguments.kw_defaults
            )
            if default is not None
        ]
        self.passed: set[str] = set()


class _Definitions(ast.NodeVisitor):
    """Collect the ``src/`` functions with defaulted parameters (by bare
    name) and each class's bases."""

    def __init__(self):
        self.functions: dict[str, list[_Function]] = {}
        self.bases: dict[str, set[str]] = {}
        self.dotted = ""
        self.scope: list[ast.AST] = []

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.bases.setdefault(node.name, set()).update(
            filter(None, map(_names, node.bases))
        )
        self.scope.append(node)
        self.generic_visit(node)
        self.scope.pop()

    def visit_FunctionDef(self, node) -> None:
        dunder = node.name.startswith("__") and node.name != "__init__"
        owner = None
        if self.scope and isinstance(self.scope[-1], ast.ClassDef):
            owner = self.scope[-1].name
        static = any(
            _names(decorator) == "staticmethod"
            for decorator in node.decorator_list
        )
        qualname = ".".join(scope.name for scope in [*self.scope, node])
        function = _Function(
            f"{self.dotted}:{qualname}", node, owner,
            method=owner is not None and not static,
        )
        if function.defaulted and not dunder:
            self.functions.setdefault(node.name, []).append(function)
        self.scope.append(node)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef


class _Passes(ast.NodeVisitor):
    """Mark, per ``src/`` function, the parameters a module passes."""

    def __init__(self, definitions: _Definitions):
        self.functions = definitions.functions
        self.bases = definitions.bases
        self.classes: list[str] = []
        self.quiet: set[int] = set()

    def _ancestors(self, name: str) -> set[str]:
        found, todo = set(), [name]
        while todo:
            current = todo.pop()
            if current not in found:
                found.add(current)
                todo.extend(self.bases.get(current, ()))
        return found

    def _inits(self, family: set[str]) -> list[_Function]:
        return [
            function for function in self.functions.get("__init__", [])
            if function.owner in family
        ]

    def _callees(self, node: ast.Call) -> list[_Function]:
        called = _names(node.func)
        if called == "cls" and self.classes:
            own = self.classes[-1]
            return self._inits(self._ancestors(own) | {
                name for name in self.bases if own in self._ancestors(name)
            })
        if (
            called == "__init__" and self.classes
            and isinstance(node.func.value, ast.Call)
            and _names(node.func.value.func) == "super"
        ):
            own = self.classes[-1]
            return self._inits(self._ancestors(own) - {own})
        if called in self.bases:
            return self._inits(self._ancestors(called))
        return self.functions.get(called, [])

    def _value(self, name: str | None) -> None:
        """``name`` is read without being called: whatever it names may
        be called with anything."""
        if name in self.bases:
            functions = self._inits(self._ancestors(name))
        else:
            functions = self.functions.get(name, [])
        for function in functions:
            function.passed.update(function.defaulted)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.quiet.update(map(id, node.bases))
        self.classes.append(node.name)
        self.generic_visit(node)
        self.classes.pop()

    def visit_FunctionDef(self, node) -> None:
        arguments = node.args
        for argument in (
            *arguments.posonlyargs, *arguments.args, *arguments.kwonlyargs,
            arguments.vararg, arguments.kwarg,
        ):
            if argument is not None and argument.annotation is not None:
                self.quiet.add(id(argument.annotation))
        if node.returns is not None:
            self.quiet.add(id(node.returns))
        self.generic_visit(node)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self.quiet.add(id(node.annotation))
        self.generic_visit(node)

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is not None:
            self.quiet.add(id(node.type))
            if isinstance(node.type, ast.Tuple):
                self.quiet.update(map(id, node.type.elts))
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self.quiet.add(id(node.value))
        if id(node) not in self.quiet:
            self._value(node.attr)
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        self.quiet.add(id(node.value))
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load) and id(node) not in self.quiet:
            self._value(node.id)

    def visit_Call(self, node: ast.Call) -> None:
        self.quiet.add(id(node.func))
        if _names(node.func) in ("isinstance", "issubclass"):
            self.quiet.update(map(id, node.args[1:]))
        unpacked = any(
            isinstance(arg, ast.Starred) for arg in node.args
        ) or any(keyword.arg is None for keyword in node.keywords)
        for function in self._callees(node):
            if unpacked:
                function.passed.update(function.defaulted)
            else:
                function.passed.update(function.positional[: len(node.args)])
                function.passed.update(
                    keyword.arg for keyword in node.keywords
                )
        self.generic_visit(node)


def unpassed_parameters(checkout: Checkout) -> list[str]:
    """``module:function.parameter`` of every defaulted parameter under
    ``src/`` that no caller passes."""
    definitions = _Definitions()
    for path, module in checkout.modules("src", packages=True):
        definitions.dotted = checkout.dotted(path)
        definitions.visit(module)
    passes = _Passes(definitions)
    for tree in CALLERS:
        for _, module in checkout.modules(tree, packages=True):
            passes.visit(module)
    return [
        f"{function.name}.{parameter}"
        for functions in definitions.functions.values()
        for function in functions
        for parameter in function.defaulted
        if parameter not in function.passed
    ]


def main() -> int:
    checkout = Checkout(ROOT)
    for listing, what in (
        (reach, "public names under src/ are reached only from tests/"),
        (unset_fields, "config fields under src/ are set by no caller"),
        (
            test_only_methods,
            "public methods under src/ are reached only from tests/",
        ),
        (
            unpassed_parameters,
            "defaulted parameters under src/ are passed by no caller",
        ),
    ):
        listed = listing(checkout)
        for entry in listed:
            print(entry)
        print(f"{len(listed)} {what}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
