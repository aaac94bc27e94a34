"""Source hygiene: no package module imports a name it never uses, no
module-level private name goes unread, no function only forwards its
parameters to another call, and a record is a dataclass only to check its
fields.  Dependencies: numpy is the only one, and neither the package nor
cli imports a solver route before its first use."""
from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "nhtrack"
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


def test_only_geometry_reads_the_model_jacobians():
    """Each model Jacobian has one owner in geometry, which turns it into a
    derivative of the dynamics: drift reads christoffel_jac and
    potential_grad_jac, frame_derivative reads rho_jac.  No other code in the
    package, and so no solver route, reads any of them, except
    cli.model_checks, which checks them against central differences."""
    owners = {"christoffel_jac": "drift", "potential_grad_jac": "drift",
              "rho_jac": "frame_derivative"}
    reads = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owned = {
            (id(sub), attr)
            for node in tree.body
            if isinstance(node, ast.FunctionDef)
            for attr, owner in owners.items()
            if (path.name, node.name) in {("geometry.py", owner), ("cli.py", "model_checks")}
            for sub in ast.walk(node)
        }
        reads += [
            f"{path.name}:{sub.lineno} {sub.attr}"
            for sub in ast.walk(tree)
            if isinstance(sub, ast.Attribute)
            and sub.attr in owners
            and (id(sub), sub.attr) not in owned
        ]
    assert not reads, f"model Jacobian read outside its geometry owner: {', '.join(reads)}"


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
    ("problem", "IterationRecord"), ("problem", "ConvergenceReport"),
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


def test_no_module_imports_click():
    """The command line is argparse: click is no dependency of the package."""
    imports = sorted(
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Import)
        and any(a.name.split(".")[0] == "click" for a in node.names)
        or isinstance(node, ast.ImportFrom)
        and (node.module or "").split(".")[0] == "click"
    )
    assert not imports, f"click imported at {', '.join(imports)}"


@pytest.mark.parametrize("route", ["pmp", "varint"])
@pytest.mark.parametrize("name", ["__init__.py", "cli.py"])
def test_package_and_cli_import_each_route_only_on_first_use(name, route):
    """A run never loads the route it does not run: neither the package nor
    cli imports pmp or varint when it is imported, only inside a function
    (or under `if TYPE_CHECKING:`, which never runs)."""
    tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
    deferred = {
        id(sub)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        or isinstance(node, ast.If) and ast.unparse(node.test).endswith("TYPE_CHECKING")
        for sub in ast.walk(node)
    }
    eager = [
        node.lineno
        for node in ast.walk(tree)
        if id(node) not in deferred
        and (
            isinstance(node, ast.ImportFrom)
            and (
                node.module in (route, f"nhtrack.{route}")
                or node.module in (None, "nhtrack")
                and any(a.name == route for a in node.names)
            )
            or isinstance(node, ast.Import)
            and any(a.name == f"nhtrack.{route}" for a in node.names)
        )
    ]
    assert not eager, f"{name} imports {route} at import time, line(s) {eager}"


def test_numpy_is_the_only_runtime_dependency():
    pyproject = (REPO / "pyproject.toml").read_text(encoding="utf-8")
    (deps,) = re.findall(r"^dependencies = \[(.*?)\]", pyproject, re.M | re.S)
    names = [re.match(r"[\w.-]+", dep).group() for dep in re.findall(r'"(.*?)"', deps)]
    assert names == ["numpy"], deps


def test_psi_variants_has_one_definition():
    """A route's choice list is defined once, in its route beside the
    settings that check it: PSI_VARIANTS in varint and CONTINUATIONS in
    pmp; cli leaves both to those settings."""
    for name, owner in (("PSI_VARIANTS", "varint.py"), ("CONTINUATIONS", "pmp.py")):
        definitions = [
            f"{path.name}:{node.lineno}"
            for path in sorted(SRC.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            and name in [
                getattr(t, "id", None)
                for t in (node.targets if isinstance(node, ast.Assign) else [node.target])
            ]
        ]
        assert [where.split(":")[0] for where in definitions] == [owner], definitions
