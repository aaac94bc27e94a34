"""The `nhtrack` process entry: `python -m nhtrack.cli` and the console
script go through `cli.entry`, which freezes the import-time heap before it
dispatches to `main`; in-process callers of `main` keep their GC state.
A fresh process loads only the route it runs: click never, `pmp` only
for a shooting command or a compare with a shooting side, `varint` only
for a variational command or `check`.  Each subprocess test runs one bundled config
(the particle is the benchmark's seed-0 `particle-shoot` instance), `check`
or `presets`, in about a second."""
from __future__ import annotations

import ast
import gc
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from conftest import invoke

from nhtrack import cli

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
PARTICLE = SRC / "nhtrack" / "configs" / "particle-case2.cfg"
SLEIGH = SRC / "nhtrack" / "configs" / "sleigh-paper51.cfg"
# the child inherits the BLAS thread count, so its solves round as ours do
ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
)


def _child(*argv: str) -> str:
    """Run python ARGV; returns its stdout once it exits 0."""
    done = subprocess.run(
        [sys.executable, *argv], cwd=REPO, env=ENV, capture_output=True,
        text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout


def _loaded(tmp_path: Path, *argv: str) -> tuple[set[str], str]:
    """Run `python -m nhtrack.cli ARGV` (through runpy, as -m does) in a
    fresh process; returns the modules loaded when it ended, read by an
    atexit hook after main's SystemExit, and its stdout."""
    record = tmp_path / "modules"
    code = textwrap.dedent(f"""\
        import atexit, pathlib, runpy, sys
        record = pathlib.Path({str(record)!r})
        atexit.register(lambda: record.write_text(" ".join(sys.modules)))
        runpy.run_module("nhtrack.cli", run_name="__main__")
    """)
    stdout = _child("-c", code, *argv)
    return set(record.read_text().split()), stdout


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_module_run_writes_the_in_process_artifacts(tmp_path):
    args = ["run", "--config", str(PARTICLE), "--out"]
    _child("-m", "nhtrack.cli", *args, str(tmp_path / "child"))
    result = invoke([*args, str(tmp_path / "inproc")])
    assert result.exit_code == 0, result.output
    child = _files(tmp_path / "child" / PARTICLE.stem)
    assert set(child) == {"trajectory.csv", "diagnostics.csv", "report.txt"}
    assert child == _files(tmp_path / "inproc" / PARTICLE.stem)


def test_main_block_freezes_the_import_time_heap(tmp_path):
    # runpy with run_name "__main__" is how `python -m` runs the module; the
    # atexit hook reads the freeze count after main's SystemExit
    count = tmp_path / "freeze_count"
    code = textwrap.dedent(f"""\
        import atexit, gc, pathlib, runpy
        count = pathlib.Path({str(count)!r})
        atexit.register(lambda: count.write_text(str(gc.get_freeze_count())))
        runpy.run_module("nhtrack.cli", run_name="__main__")
    """)
    _child("-c", code, "run", "--config", str(PARTICLE), "--out", str(tmp_path))
    assert int(count.read_text()) > 0, count.read_text()


def test_in_process_main_leaves_the_freeze_count_alone():
    before = gc.get_freeze_count()
    result = invoke(["presets"])
    assert result.exit_code == 0, result.output
    assert gc.get_freeze_count() == before


def test_console_script_is_the_main_block_entry():
    pyproject = (REPO / "pyproject.toml").read_text(encoding="utf-8")
    script = re.search(
        r'^\[project\.scripts\]\nnhtrack = "nhtrack\.cli:(\w+)"$', pyproject, re.M
    )
    assert script, "no nhtrack console script on nhtrack.cli"
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    (block,) = [
        node for node in tree.body
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
    ]
    (call,) = block.body
    assert ast.unparse(call) == f"{script.group(1)}()"
    assert getattr(cli, script.group(1)) is cli.entry


def test_shooting_child_loads_neither_varint_nor_click(tmp_path):
    modules, _ = _loaded(
        tmp_path, "run", "--config", str(PARTICLE), "--out", str(tmp_path / "out")
    )
    assert "nhtrack.pmp" in modules
    assert "nhtrack.varint" not in modules
    assert not [name for name in modules if name.split(".")[0] == "click"]


@pytest.mark.parametrize("command", ["run", "compare"])
def test_variational_child_loads_varint_and_writes_the_in_process_artifacts(
    tmp_path, command
):
    args = [command, "--config", str(SLEIGH), "--out"]
    modules, _ = _loaded(tmp_path, *args, str(tmp_path / "child"))
    assert "nhtrack.varint" in modules
    assert "nhtrack.pmp" not in modules
    result = invoke([*args, str(tmp_path / "inproc")])
    assert result.exit_code == 0, result.output
    child = _files(tmp_path / "child" / SLEIGH.stem)
    assert "report.txt" in child
    assert child == _files(tmp_path / "inproc" / SLEIGH.stem)


@pytest.mark.parametrize("argv", [["check"], ["presets"]])
def test_fresh_child_prints_the_in_process_output(tmp_path, argv):
    # a fresh process has not imported varint, as this one has: `check`
    # must bind regularity_check itself; neither command loads pmp
    modules, stdout = _loaded(tmp_path, *argv)
    assert "nhtrack.pmp" not in modules
    result = invoke(argv)
    assert result.exit_code == 0, result.output
    assert stdout == result.output


def test_replacements_set_before_first_use_are_the_ones_a_run_calls(tmp_path):
    """bench/trace.py replaces cli.solve_del and cli.diagnostics; binding
    varint's names into cli on the route's first use leaves a name that is
    already bound alone."""
    calls = tmp_path / "calls"
    code = textwrap.dedent(f"""\
        import pathlib, sys
        from nhtrack import cli, varint
        assert "solve_del" not in vars(cli) and "diagnostics" not in vars(cli)
        calls = []
        def solve_del(*args, **kwargs):
            calls.append("solve_del")
            return varint.solve_del(*args, **kwargs)
        def diagnostics(*args, **kwargs):
            calls.append("diagnostics")
            return varint.diagnostics(*args, **kwargs)
        cli.solve_del, cli.diagnostics = solve_del, diagnostics
        try:
            cli.main(sys.argv[1:])
        finally:
            pathlib.Path({str(calls)!r}).write_text(" ".join(calls))
    """)
    _child("-c", code, "run", "--config", str(SLEIGH), "--out", str(tmp_path))
    assert calls.read_text() == "solve_del diagnostics"


def test_shooting_replacements_set_before_first_use_are_the_ones_compare_calls(
    tmp_path
):
    """bench/trace.py replaces cli.solve_shooting and cli.trajectory_cost;
    compare's shooting side, bound on its first use, calls the replacements."""
    config = tmp_path / "sleigh-pmp.cfg"
    config.write_text(SLEIGH.read_text() + "\n[compare]\npmp = yes\n")
    calls = tmp_path / "calls"
    code = textwrap.dedent(f"""\
        import pathlib, sys
        from nhtrack import cli, pmp
        assert "solve_shooting" not in vars(cli)
        assert "trajectory_cost" not in vars(cli)
        calls = []
        def solve_shooting(*args, **kwargs):
            calls.append("solve_shooting")
            return pmp.solve_shooting(*args, **kwargs)
        def trajectory_cost(*args, **kwargs):
            calls.append("trajectory_cost")
            return pmp.trajectory_cost(*args, **kwargs)
        cli.solve_shooting, cli.trajectory_cost = solve_shooting, trajectory_cost
        try:
            cli.main(sys.argv[1:])
        finally:
            pathlib.Path({str(calls)!r}).write_text(" ".join(calls))
    """)
    _child("-c", code, "compare", "--config", str(config), "--out", str(tmp_path))
    assert calls.read_text() == "solve_shooting trajectory_cost"


def test_lazy_names_resolve_on_read():
    """The package's route names and cli's route bindings are served on
    first read (PEP 562), and the package never binds them; a route's entry
    check is cli's only, and any other missing name is still an
    AttributeError."""
    import nhtrack
    from nhtrack import pmp, varint

    assert len(nhtrack.__all__) == 50
    assert all(getattr(nhtrack, name) is not None for name in nhtrack.__all__)
    assert not set(vars(nhtrack)) & set(nhtrack._ROUTES)
    assert nhtrack.solve_del is varint.solve_del
    assert nhtrack.solve_shooting is pmp.solve_shooting
    assert cli.regularity_check is varint.regularity_check
    assert cli.trajectory_cost is pmp.trajectory_cost
    assert cli.check_del is varint.check_del
    with pytest.raises(AttributeError):
        nhtrack.check_del
    for module in (nhtrack, cli):
        with pytest.raises(AttributeError):
            getattr(module, "no_such_name")
