"""The `nhtrack` process entry: `python -m nhtrack.cli` and the console
script go through `cli.entry`, which freezes the import-time heap before it
dispatches to `main`; in-process callers of `main` keep their GC state.
Each subprocess test solves the bundled particle config (the benchmark's
seed-0 `particle-shoot` instance) once, in well under a second."""
from __future__ import annotations

import ast
import gc
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

from click.testing import CliRunner

from nhtrack import cli
from nhtrack.cli import main

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
PARTICLE = SRC / "nhtrack" / "configs" / "particle-case2.cfg"
# the child inherits the BLAS thread count, so its solves round as ours do
ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
)


def _child(*argv: str) -> None:
    done = subprocess.run(
        [sys.executable, *argv], cwd=REPO, env=ENV, capture_output=True,
        text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_module_run_writes_the_in_process_artifacts(tmp_path):
    args = ["run", "--config", str(PARTICLE), "--out"]
    _child("-m", "nhtrack.cli", *args, str(tmp_path / "child"))
    result = CliRunner().invoke(main, [*args, str(tmp_path / "inproc")])
    assert result.exit_code == 0, result.output
    child = _files(tmp_path / "child" / PARTICLE.stem)
    assert set(child) == {"trajectory.csv", "diagnostics.csv", "report.txt"}
    assert child == _files(tmp_path / "inproc" / PARTICLE.stem)


def test_main_block_freezes_the_import_time_heap(tmp_path):
    # runpy with run_name "__main__" is how `python -m` runs the module; the
    # atexit hook reads the freeze count after click's SystemExit
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
    result = CliRunner().invoke(main, ["presets"])
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
