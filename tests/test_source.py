"""Source hygiene: no package module imports a name it never uses, no
module-level private name goes unread, no function only forwards its
parameters to another call, and a record is a dataclass only to check its
fields."""
from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "nhtrack"
# __init__.py imports to re-export through __all__
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree: ast.Module, lines: list[str]) -> dict[str, int]:
    """Module-level imported name -> its line, skipping __future__ imports,
    star imports and lines marked `# noqa: F401`."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            if alias.name == "*" or "# noqa: F401" in lines[alias.lineno - 1]:
                continue
            bound = alias.asname or alias.name.split(".")[0]
            names[bound] = alias.lineno
    return names


def _used_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, string annotations included."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        for hint in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(hint, ast.Constant) and isinstance(hint.value, str):
                parsed = ast.parse(hint.value, mode="eval")
                used |= {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    imported = _imported_names(tree, source.splitlines())
    unused = sorted(
        f"{path.name}:{line} {name}"
        for name, line in imported.items()
        if name not in _used_names(tree)
    )
    assert not unused, f"unused imports: {', '.join(unused)}"


def _private_definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """Module-level private name (one leading underscore) -> the def, class
    or assignment statement that binds it."""
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        defs.update(
            (name, node)
            for name in names
            if name.startswith("_") and not name.startswith("__")
        )
    return defs


def _read_names(node: ast.AST) -> set[str]:
    """Names the statement reads: loaded names, attribute names and the
    names it imports."""
    read = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            read.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            read.add(sub.attr)
        elif isinstance(sub, ast.alias):
            read.add(sub.name)
    return read


def test_every_private_module_name_is_read():
    """A module-level _name that nothing in the package reads outside its
    own definition is dead code."""
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in SRC.glob("*.py")}
    # the names each top-level statement of the package reads
    reads = [(stmt, _read_names(stmt)) for tree in trees.values() for stmt in tree.body]
    dead = sorted(
        f"{module}:{node.lineno} {name}"
        for module, tree in trees.items()
        for name, node in _private_definitions(tree).items()
        if not any(name in names for stmt, names in reads if stmt is not node)
    )
    assert not dead, f"unread private names: {', '.join(dead)}"


def test_only_state_difference_wraps_an_angle():
    """geometry.state_difference owns the angle wrap: no other code in the
    package calls wrap_angle."""
    calls = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {
            id(sub)
            for node in tree.body
            if path.name == "geometry.py"
            and isinstance(node, ast.FunctionDef)
            and node.name == "state_difference"
            for sub in ast.walk(node)
        }
        calls += [
            f"{path.name}:{sub.lineno}"
            for sub in ast.walk(tree)
            if isinstance(sub, ast.Call)
            and "wrap_angle" in (getattr(sub.func, a, None) for a in ("id", "attr"))
            and id(sub) not in owner
        ]
    assert not calls, f"wrap_angle called outside state_difference: {', '.join(calls)}"


def test_only_drift_reads_the_model_jacobians():
    """geometry.drift owns the drift's derivatives: no other code in the
    package reads a model's christoffel_jac or potential_grad_jac, except
    cli.model_checks, which checks them against central differences."""
    owners = {("geometry.py", "drift"), ("cli.py", "model_checks")}
    reads = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owned = {
            id(sub)
            for node in tree.body
            if isinstance(node, ast.FunctionDef) and (path.name, node.name) in owners
            for sub in ast.walk(node)
        }
        reads += [
            f"{path.name}:{sub.lineno} {sub.attr}"
            for sub in ast.walk(tree)
            if isinstance(sub, ast.Attribute)
            and sub.attr in ("christoffel_jac", "potential_grad_jac")
            and id(sub) not in owned
        ]
    assert not reads, f"model Jacobian read outside geometry.drift: {', '.join(reads)}"


def test_only_the_process_entry_touches_the_collector():
    """cli.entry owns the process's GC state: no other code in the package
    imports gc or reads a gc attribute, so importing or calling the library
    never changes a caller's collector."""
    uses = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owned = {
            id(sub)
            for node in tree.body
            if path.name == "cli.py"
            and isinstance(node, ast.FunctionDef)
            and node.name == "entry"
            for sub in ast.walk(node)
        }
        uses += [
            f"{path.name}:{sub.lineno}"
            for sub in ast.walk(tree)
            if (
                isinstance(sub, ast.Import) and any(a.name == "gc" for a in sub.names)
                or isinstance(sub, ast.ImportFrom) and sub.module == "gc"
                or isinstance(sub, ast.Attribute) and getattr(sub.value, "id", None) == "gc"
            )
            and id(sub) not in owned
        ]
    assert not uses, f"gc used outside cli.entry: {', '.join(uses)}"


def _forwarded_call(node: ast.stmt) -> bool:
    """Whether a function's body, after an optional docstring, is one
    `return` of a call passing exactly its own parameters, in order."""
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return False
    body = node.body
    if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    if len(body) != 1 or not isinstance(body[0], ast.Return):
        return False
    call = body[0].value
    params = [a.arg for a in node.args.posonlyargs + node.args.args]
    return (
        isinstance(call, ast.Call)
        and not call.keywords
        and [getattr(a, "id", None) for a in call.args] == params
    )


def test_no_function_only_renames_another():
    """A module-level function that only forwards its own parameters to
    another call is an alias: call the target instead."""
    aliases = sorted(
        f"{path.name}:{node.lineno} {node.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if _forwarded_call(node)
    )
    assert not aliases, f"functions that only forward a call: {', '.join(aliases)}"


def test_every_dataclass_checks_its_fields():
    """A record is a dataclass only for its __post_init__ checks: one that
    checks nothing is a typing.NamedTuple, which refuses assignment too and
    costs a fraction of a frozen dataclass to create at import."""
    unchecked = sorted(
        f"{path.name}:{node.lineno} {node.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef)
        and any(
            "dataclass" in (getattr(d, "id", None), getattr(d, "attr", None))
            for d in (getattr(dec, "func", dec) for dec in node.decorator_list)
        )
        and not any(
            isinstance(stmt, ast.FunctionDef) and stmt.name == "__post_init__"
            for stmt in node.body
        )
    )
    assert not unchecked, f"dataclasses without __post_init__: {', '.join(unchecked)}"


RECORDS = [
    ("cli", "SystemBlock"), ("cli", "ProblemBlock"), ("cli", "SolverBlock"),
    ("cli", "OutputBlock"), ("cli", "CompareBlock"), ("cli", "ExperimentConfig"),
    ("pmp", "IterationRecord"), ("pmp", "ConvergenceReport"),
    ("pmp", "ShootingTrajectory"), ("pmp", "AbnormalReport"),
    ("varint", "RegularityReport"), ("varint", "DiagnosticSeries"),
]


@pytest.mark.parametrize("module, name", RECORDS, ids=[name for _, name in RECORDS])
def test_a_record_refuses_assignment(module, name):
    """The records that check nothing are NamedTuples, immutable like the
    frozen dataclasses they replace: every field refuses assignment."""
    cls = getattr(importlib.import_module(f"nhtrack.{module}"), name)
    assert issubclass(cls, tuple)
    record = cls(*[0] * len(cls._fields))
    for field in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, 1)
