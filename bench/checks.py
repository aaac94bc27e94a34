"""Output checks for one CLI run.  A run fails when its exit code is not 0
or any check here fails; the failures feed `failed_share`.

Seed-0 CSVs are also compared with goldens recorded from the program as of
the commit that added the benchmark, within GOLDEN_TOL.  Byte-identity with
the goldens is reported as information only: a change of arithmetic that
keeps every value within the tolerance passes.
"""
from __future__ import annotations

import re
from pathlib import Path

import numpy as np

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"
# |a - b| <= GOLDEN_TOL * (1 + |b|) per CSV value; looser than the 1e-8
# costate agreement the roadmap promises, so a converged costate that moves
# within that promise still passes.
GOLDEN_TOL = 1e-6
HALVING_RATIO = (3.0, 5.0)  # acceptance test_07's second-order bound
DEL_RESIDUAL_TOL = 1e-10


SUMMARY = re.compile(
    r"^(iterations: .*|residual 2-norm: .*|solve at N = .*|"
    r"h-halving discrepancy ratio: .*)$", re.MULTILINE)


def report_summary(report: str) -> list[str]:
    """The report lines that say how hard the instance was."""
    return SUMMARY.findall(report)


def _number(report: str, pattern: str) -> float | None:
    match = re.search(pattern, report, re.MULTILINE)
    return float(match.group(1)) if match else None


def check_report(workload: str, report: str, newton_tol: float) -> list[str]:
    """Problems found in a report.txt; empty when the run is correct."""
    problems = []
    if workload == "sleigh-compare":
        solves = re.findall(r"^solve at N = (\d+): converged (yes|no)", report,
                            re.MULTILINE)
        if len(solves) != 2 or any(flag != "yes" for _, flag in solves):
            problems.append(f"not every solve converged: {solves}")
        ratio = _number(report, r"^h-halving discrepancy ratio: (\S+)$")
        low, high = HALVING_RATIO
        if ratio is None or not low <= ratio <= high:
            problems.append(f"h-halving ratio {ratio} outside [{low}, {high}]")
        return problems

    if not re.search(r"^converged: yes$", report, re.MULTILINE):
        problems.append("report does not say converged: yes")
    residual = _number(report, r"^residual 2-norm: (\S+)$")
    limit = newton_tol if workload == "particle-shoot" else DEL_RESIDUAL_TOL
    if residual is None or residual > limit:
        problems.append(f"residual {residual} above {limit:g}")
    if workload == "particle-del" and not re.search(
        r"^final node equals reference endpoint: yes$", report, re.MULTILINE
    ):
        problems.append("final node does not equal the reference endpoint")
    return problems


def _read_csv(path: Path) -> tuple[str, np.ndarray]:
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    values = np.array([[float(x) for x in row.split(",")] for row in rows])
    return header, values


def check_goldens(workload: str, artifacts: Path) -> tuple[list[str], bool]:
    """Compare the seed-0 CSVs with the goldens.  Returns the problems and
    whether every golden file (CSVs and report) is byte-identical."""
    problems, identical = [], True
    for golden in sorted((GOLDEN_DIR / workload).iterdir()):
        produced = artifacts / golden.name
        if not produced.is_file():
            problems.append(f"missing artifact {golden.name}")
            identical = False
            continue
        identical = identical and produced.read_bytes() == golden.read_bytes()
        if golden.suffix != ".csv":
            continue
        head_g, want = _read_csv(golden)
        head_p, got = _read_csv(produced)
        if head_g != head_p or want.shape != got.shape:
            problems.append(f"{golden.name}: header or shape differs from golden")
            continue
        worst = float(np.max(np.abs(got - want) / (1.0 + np.abs(want)), initial=0.0))
        if not worst <= GOLDEN_TOL:
            problems.append(f"{golden.name}: differs from golden by {worst:.3e}")
    return problems, identical
