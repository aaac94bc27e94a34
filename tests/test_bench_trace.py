"""The outside-in tracer `bench/trace.py` wraps functions by their module
names (`cli.dynamics_rhs`, `cli.rk4_step`, `varint.del_residual`, ...).  These
tests run it on tiny configs so that a refactor that drops or renames one of
those names fails here, not only in a traced benchmark run."""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]

PROBLEM = """\
[system]
preset = particle

[problem]
reference = analytic
q_base = 0.0 2.0 0.0
q_slope = 0.0 0.0 0.0
v_base = 0.0 0.0
v_slope = 0.0 0.0
initial_q = {q0}
initial_v = 0.0 0.0
horizon_T = 1.0
epsilon = 2.0
terminal_mode = {terminal}

[solver]
{solver}

[output]
precision = 17
"""

# the variational equilibrium: the initial guess already solves it
EQUILIBRIUM = PROBLEM.format(
    q0="0.0 2.0 0.0", terminal="hard",
    solver="method = variational\nnewton_tol = 1e-10\nsteps = 4",
)
# a short shooting solve from a start off the (resting) reference
SHOOTING = PROBLEM.format(
    q0="0.2 1.8 0.0", terminal="mayer",
    solver="method = pmp-shooting\nsteps = 20",
)


def _trace(tmp_path: Path, command: str, config_text: str) -> dict:
    config = tmp_path / "tiny.cfg"
    config.write_text(config_text, encoding="utf-8")
    record = tmp_path / f"trace-{command}.json"
    done = subprocess.run(
        [sys.executable, "bench/trace.py", str(record), command,
         "--config", str(config), "--out", str(tmp_path / command)],
        cwd=REPO, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    data = json.loads(record.read_text(encoding="utf-8"))
    assert data["exit_code"] == 0, done.stdout + done.stderr
    return data["metrics"]


@pytest.mark.parametrize("command", ["run", "compare"])
def test_traces_the_variational_route(tmp_path, command):
    metrics = _trace(tmp_path, command, EQUILIBRIUM)
    assert metrics["varint.del_residual.calls"] > 0
    assert metrics["systems.calls"] > 0


def test_traces_the_shooting_route(tmp_path):
    metrics = _trace(tmp_path, "run", SHOOTING)
    assert metrics["pmp.field.calls"] > 0
    assert metrics["pmp.final_iters"] > 0
