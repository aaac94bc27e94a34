"""The README's examples run: its config with `nhtrack run`, its library
snippet as Python."""
from __future__ import annotations

import re
from pathlib import Path

from conftest import invoke

README = Path(__file__).resolve().parents[1] / "README.md"


def _block(lang: str) -> str:
    """The README's one fenced code block in this language."""
    blocks = re.findall(rf"^```{lang}\n(.*?)^```", README.read_text("utf-8"), re.M | re.S)
    assert len(blocks) == 1, f"expected one {lang} block, found {len(blocks)}"
    return blocks[0]


def test_readme_config_runs_with_the_variational_newton_defaults(tmp_path):
    config = tmp_path / "readme.cfg"
    config.write_text(_block("ini"), encoding="utf-8")
    result = invoke(
        ["run", "--config", str(config), "--out", str(tmp_path / "out")]
    )
    assert result.exit_code == 0, result.output
    report = (tmp_path / "out" / "readme" / "report.txt").read_text("utf-8")
    assert "newton_tol = 1e-10\n" in report and "max_iters = 100\n" in report


def test_readme_library_example_converges():
    namespace: dict = {}
    exec(compile(_block("python"), str(README), "exec"), namespace)
    assert namespace["shoot_report"].converged
    assert namespace["del_report"].converged
