"""Seeded instance generator: turns a workload name and a seed into the one
config file the program receives.

Seed 0 uses the bundled configs (for `particle-del`, the documented variant
of `particle-case2.cfg`).  Seed s > 0 adds
`numpy.random.default_rng(s).uniform(-0.05, 0.05)` to every component of
`initial_q` and then of `initial_v`, drawn in that order.  Timed runs
measure the seed-0 instances; `survey.py` runs the jittered ones.
"""
from __future__ import annotations

import configparser
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CONFIG_DIR = Path("src") / "nhtrack" / "configs"
JITTER = 0.05


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # nhtrack subcommand: "run" or "compare"
    bundled: str  # file name under src/nhtrack/configs
    overrides: tuple[tuple[str, str, str], ...]  # (section, key, value)


WORKLOADS = {
    w.name: w
    for w in (
        # PMP shooting with horizon continuation: pmp's packed field,
        # ode.rk4_step and the systems callables do almost all the work
        Workload("particle-shoot", "run", "particle-case2.cfg", ()),
        # the variational route on a 400-step grid with the bordered Schur
        # path and full Newton steps, on the same model and start
        Workload(
            "particle-del", "run", "particle-case2.cfg",
            (
                ("problem", "terminal_mode", "hard"),
                ("solver", "method", "variational"),
                ("solver", "steps", "400"),
                ("solver", "enforce_first_interval", "yes"),
                ("solver", "newton_tol", "1e-10"),
                ("solver", "max_iters", "100"),
            ),
        ),
        # the paper's sleigh benchmark: varint at N = 50 and 100 with line
        # search, control re-integration and the rollout reference
        Workload("sleigh-compare", "compare", "sleigh-paper51.cfg", ()),
    )
}


def _jitter(values: str, offsets: np.ndarray) -> str:
    base = [float(tok) for tok in values.split()]
    return " ".join(repr(float(x + d)) for x, d in zip(base, offsets))


def config_text(workload: Workload, seed: int, root: Path = Path(".")) -> str:
    """Text of the config the program receives for (workload, seed)."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    source = (root / CONFIG_DIR / workload.bundled).read_text(encoding="utf-8")
    if seed == 0 and not workload.overrides:
        return source
    parser = configparser.ConfigParser()
    parser.read_string(source)
    for section, key, value in workload.overrides:
        parser[section][key] = value
    if seed > 0:
        rng = np.random.default_rng(seed)
        prob = parser["problem"]
        for key in ("initial_q", "initial_v"):
            size = len(prob[key].split())
            prob[key] = _jitter(prob[key], rng.uniform(-JITTER, JITTER, size))
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def write_config(workload: Workload, seed: int, directory: Path,
                 root: Path = Path(".")) -> Path:
    """Write the instance config into directory under the bundled file name,
    so the artifacts land in <out>/<bundled stem>/."""
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / workload.bundled
    path.write_text(config_text(workload, seed, root), encoding="utf-8")
    return path
