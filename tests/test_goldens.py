"""The benchmark's seed-0 instances, run through the CLI, still produce the
recorded golden artifacts and pass the benchmark's report checks, so an
artifact drift shows in the test suite and not only in a benchmark run.
Reads `bench/instances.py`, `bench/checks.py` and `bench/goldens/`; takes
a few seconds."""
from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest
from conftest import invoke

from nhtrack.cli import parse_config

REPO = Path(__file__).resolve().parents[1]


def _bench_module(name: str):
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", REPO / "bench" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


instances = _bench_module("instances")
checks = _bench_module("checks")


@pytest.mark.parametrize("name", sorted(instances.WORKLOADS))
def test_seed_zero_instance_matches_goldens(tmp_path, name):
    workload = instances.WORKLOADS[name]
    config = instances.write_config(workload, 0, tmp_path / "cfg", root=REPO)
    out = tmp_path / "out"
    result = invoke(
        [workload.command, "--config", str(config), "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    artifacts = out / config.stem
    report = (artifacts / "report.txt").read_text(encoding="utf-8")
    newton_tol = parse_config(config).solver.newton_tol
    assert checks.check_report(name, report, newton_tol) == []
    problems, _ = checks.check_goldens(name, artifacts)
    assert problems == []
