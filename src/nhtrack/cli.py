"""Experiment orchestration: plain-text configs in, bit-stable CSV and
report artifacts out.

A config is an INI file with [system], [problem], [solver], [output] and an
optional [compare] section; `nhtrack presets` lists the bundled ones and
`parse_config` documents the schema by construction.  Artifacts land in
<out>/<config-stem>/: `run` writes trajectory.csv, diagnostics.csv and
report.txt; `compare` writes compare.csv and report.txt.  Exit codes: 0 on
convergence, 2 when the solver fails to converge or fails numerically
(artifacts are still written), 1 on configuration or usage errors, among
them an unknown section or key.
"""
from __future__ import annotations

import configparser
from dataclasses import dataclass, fields
from importlib import resources
from pathlib import Path

import click
import numpy as np

from .geometry import (
    AdmissibleState,
    SystemModel,
    constraint_residual,
    dynamics_rhs,
    restricted_energy,
)
from .ode import IntegrationError, TimeGrid, integrate, rk4_step
from .pmp import (
    AnalyticReference,
    FlowDivergedError,
    RolloutReference,
    ShootingSettings,
    SingularJacobianError,
    TrackingProblem,
    running_cost,
    solve_shooting,
    trajectory_cost,
)
from .systems import available_systems, resolve_system
from .varint import (
    DelSettings,
    DiscreteTrajectory,
    GUESS_MODES,
    PSI_VARIANTS,
    RegularityError,
    diagnostics,
    regularity_check,
    solve_del,
)

METHODS = ("pmp-shooting", "variational")
CONTINUATIONS = ("none", "horizon", "terminal-weight")

# numerical failures of a solve: reported with exit code 2, artifacts written
SOLVER_FAILURES = (
    FlowDivergedError,
    IntegrationError,
    ArithmeticError,
    RegularityError,
    SingularJacobianError,
)


class ConfigError(ValueError):
    """A config file that cannot be turned into a runnable experiment."""


# ---------------------------------------------------------------------------
# configuration schema


@dataclass(frozen=True)
class SystemBlock:
    preset: str = "particle"
    mass_m: float | None = None
    inertia_J: float | None = None
    offset_a: float | None = None


@dataclass(frozen=True)
class ProblemBlock:
    reference: str = "analytic"
    q_base: tuple[float, ...] | None = None
    q_slope: tuple[float, ...] | None = None
    v_base: tuple[float, ...] | None = None
    v_slope: tuple[float, ...] | None = None
    rollout_q: tuple[float, ...] | None = None
    rollout_v: tuple[float, ...] | None = None
    rollout_step: float = 1e-3
    initial_q: tuple[float, ...] = ()
    initial_v: tuple[float, ...] = ()
    horizon_T: float = 1.0
    epsilon: float = 1.0
    omega: float = 1.0
    lambda0: float = 1.0
    terminal_mode: str = "mayer"
    state_weight: float = 1.0


@dataclass(frozen=True)
class SolverBlock:
    method: str = "pmp-shooting"
    newton_tol: float = 1e-8
    max_iters: int = 50
    steps: int | None = None
    continuation: str = "none"
    continuation_stages: int = 4
    psi_variant: str = "midpoint"
    enforce_first_interval: bool = False
    initial_guess_mode: str = "linear-interpolation"


@dataclass(frozen=True)
class OutputBlock:
    directory: str | None = None
    precision: int = 17


@dataclass(frozen=True)
class CompareBlock:
    pmp: bool = False
    pmp_steps: int | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    system: SystemBlock
    problem: ProblemBlock
    solver: SolverBlock
    output: OutputBlock
    compare: CompareBlock


# config section -> the block whose field names are its keys
SECTIONS = {
    "system": SystemBlock,
    "problem": ProblemBlock,
    "solver": SolverBlock,
    "output": OutputBlock,
    "compare": CompareBlock,
}


def _floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split())
    except ValueError as exc:
        raise ConfigError(f"expected whitespace-separated floats, got {text!r}") from exc


def _get(section, key, cast, default):
    if key not in section:
        return default
    raw = section[key].strip()
    if cast is bool:
        lowered = raw.lower()
        if lowered in ("yes", "true", "1", "on"):
            return True
        if lowered in ("no", "false", "0", "off"):
            return False
        raise ConfigError(f"{key}: expected a yes/no value, got {raw!r}")
    if cast is tuple:
        return _floats(raw)
    try:
        return cast(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: cannot parse {raw!r} as {cast.__name__}") from exc


def parse_config(path: str | Path) -> ExperimentConfig:
    """Read and validate an experiment config file."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file not found: {path}")

    for required in ("system", "problem", "solver"):
        if required not in parser:
            raise ConfigError(f"missing [{required}] section in {path}")
    for section in parser.sections():
        if section not in SECTIONS:
            raise ConfigError(
                f"unknown section [{section}] in {path}; "
                f"known: {', '.join(SECTIONS)}"
            )
        known = {parser.optionxform(f.name) for f in fields(SECTIONS[section])}
        unknown = sorted(set(parser[section]) - known)
        if unknown:
            raise ConfigError(
                f"unknown key(s) in [{section}] of {path}: {', '.join(unknown)}"
            )

    sys_sec = parser["system"]
    system = SystemBlock(
        preset=_get(sys_sec, "preset", str, "particle"),
        mass_m=_get(sys_sec, "mass_m", float, None),
        inertia_J=_get(sys_sec, "inertia_J", float, None),
        offset_a=_get(sys_sec, "offset_a", float, None),
    )
    params_given = any(
        value is not None
        for value in (system.mass_m, system.inertia_J, system.offset_a)
    )
    if params_given and system.preset != "sleigh:custom":
        raise ConfigError(
            "mass_m/inertia_J/offset_a apply to preset sleigh:custom only; "
            f"preset {system.preset!r} carries its own parameters"
        )
    try:
        resolve_system(
            system.preset,
            mass_m=system.mass_m,
            inertia_J=system.inertia_J,
            offset_a=system.offset_a,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    prob_sec = parser["problem"]
    problem = ProblemBlock(
        reference=_get(prob_sec, "reference", str, "analytic"),
        q_base=_get(prob_sec, "q_base", tuple, None),
        q_slope=_get(prob_sec, "q_slope", tuple, None),
        v_base=_get(prob_sec, "v_base", tuple, None),
        v_slope=_get(prob_sec, "v_slope", tuple, None),
        rollout_q=_get(prob_sec, "rollout_q", tuple, None),
        rollout_v=_get(prob_sec, "rollout_v", tuple, None),
        rollout_step=_get(prob_sec, "rollout_step", float, 1e-3),
        initial_q=_get(prob_sec, "initial_q", tuple, ()),
        initial_v=_get(prob_sec, "initial_v", tuple, ()),
        horizon_T=_get(prob_sec, "horizon_T", float, 1.0),
        epsilon=_get(prob_sec, "epsilon", float, 1.0),
        omega=_get(prob_sec, "omega", float, 1.0),
        lambda0=_get(prob_sec, "lambda0", float, 1.0),
        terminal_mode=_get(prob_sec, "terminal_mode", str, "mayer"),
        state_weight=_get(prob_sec, "state_weight", float, 1.0),
    )
    if problem.epsilon <= 0:
        raise ConfigError(
            "epsilon must be positive: epsilon = 0 is the singular tracking "
            "problem, which this toolkit excludes (the control-effort weight "
            "is what keeps the one-step and shooting systems nonsingular)"
        )
    if problem.reference not in ("analytic", "rollout"):
        raise ConfigError(
            f"reference must be 'analytic' or 'rollout', got {problem.reference!r}"
        )
    if problem.reference == "analytic":
        missing = [
            key
            for key in ("q_base", "q_slope", "v_base", "v_slope")
            if getattr(problem, key) is None
        ]
        if missing:
            raise ConfigError(f"analytic reference needs {', '.join(missing)}")
    else:
        missing = [
            key for key in ("rollout_q", "rollout_v") if getattr(problem, key) is None
        ]
        if missing:
            raise ConfigError(f"rollout reference needs {', '.join(missing)}")
    if not problem.initial_q or not problem.initial_v:
        raise ConfigError("problem needs initial_q and initial_v")

    sol_sec = parser["solver"]
    solver = SolverBlock(
        method=_get(sol_sec, "method", str, "pmp-shooting"),
        newton_tol=_get(sol_sec, "newton_tol", float, 1e-8),
        max_iters=_get(sol_sec, "max_iters", int, 50),
        steps=_get(sol_sec, "steps", int, None),
        continuation=_get(sol_sec, "continuation", str, "none"),
        continuation_stages=_get(sol_sec, "continuation_stages", int, 4),
        psi_variant=_get(sol_sec, "psi_variant", str, "midpoint"),
        enforce_first_interval=_get(sol_sec, "enforce_first_interval", bool, False),
        initial_guess_mode=_get(
            sol_sec, "initial_guess_mode", str, "linear-interpolation"
        ),
    )
    if solver.method not in METHODS:
        raise ConfigError(f"method must be one of {METHODS}, got {solver.method!r}")
    if solver.continuation not in CONTINUATIONS:
        raise ConfigError(
            f"continuation must be one of {CONTINUATIONS}, got {solver.continuation!r}"
        )
    if solver.psi_variant not in PSI_VARIANTS:
        raise ConfigError(
            f"psi_variant must be one of {PSI_VARIANTS}, got {solver.psi_variant!r}"
        )
    if solver.initial_guess_mode not in GUESS_MODES:
        raise ConfigError(
            f"initial_guess_mode must be one of {GUESS_MODES}, "
            f"got {solver.initial_guess_mode!r}"
        )
    if solver.method == "variational" and solver.steps is None:
        raise ConfigError("variational solver needs an explicit steps count")

    out_sec = parser["output"] if "output" in parser else {}
    output = OutputBlock(
        directory=_get(out_sec, "directory", str, None),
        precision=_get(out_sec, "precision", int, 17),
    )
    if not 1 <= output.precision <= 17:
        raise ConfigError(f"precision must be in [1, 17], got {output.precision}")

    cmp_sec = parser["compare"] if "compare" in parser else {}
    compare = CompareBlock(
        pmp=_get(cmp_sec, "pmp", bool, False),
        pmp_steps=_get(cmp_sec, "pmp_steps", int, None),
    )

    return ExperimentConfig(
        system=system, problem=problem, solver=solver, output=output, compare=compare
    )


def _fmt_vec(values) -> str:
    return " ".join(repr(float(x)) for x in values)


def config_text(cfg: ExperimentConfig) -> str:
    """Canonical text form of a parsed config; parsing it again reproduces
    the same ExperimentConfig (the round-trip the report relies on)."""
    lines = ["[system]", f"preset = {cfg.system.preset}"]
    for key in ("mass_m", "inertia_J", "offset_a"):
        value = getattr(cfg.system, key)
        if value is not None:
            lines.append(f"{key} = {value!r}")

    lines += ["", "[problem]", f"reference = {cfg.problem.reference}"]
    if cfg.problem.reference == "analytic":
        for key in ("q_base", "q_slope", "v_base", "v_slope"):
            lines.append(f"{key} = {_fmt_vec(getattr(cfg.problem, key))}")
    else:
        lines.append(f"rollout_q = {_fmt_vec(cfg.problem.rollout_q)}")
        lines.append(f"rollout_v = {_fmt_vec(cfg.problem.rollout_v)}")
        lines.append(f"rollout_step = {cfg.problem.rollout_step!r}")
    lines.append(f"initial_q = {_fmt_vec(cfg.problem.initial_q)}")
    lines.append(f"initial_v = {_fmt_vec(cfg.problem.initial_v)}")
    for key in ("horizon_T", "epsilon", "omega", "lambda0", "state_weight"):
        lines.append(f"{key} = {getattr(cfg.problem, key)!r}")
    lines.append(f"terminal_mode = {cfg.problem.terminal_mode}")

    lines += ["", "[solver]", f"method = {cfg.solver.method}"]
    lines.append(f"newton_tol = {cfg.solver.newton_tol!r}")
    lines.append(f"max_iters = {cfg.solver.max_iters}")
    if cfg.solver.steps is not None:
        lines.append(f"steps = {cfg.solver.steps}")
    if cfg.solver.method == "pmp-shooting":
        lines.append(f"continuation = {cfg.solver.continuation}")
        lines.append(f"continuation_stages = {cfg.solver.continuation_stages}")
    else:
        lines.append(f"psi_variant = {cfg.solver.psi_variant}")
        enforce = "yes" if cfg.solver.enforce_first_interval else "no"
        lines.append(f"enforce_first_interval = {enforce}")
        lines.append(f"initial_guess_mode = {cfg.solver.initial_guess_mode}")

    lines += ["", "[output]"]
    if cfg.output.directory is not None:
        lines.append(f"directory = {cfg.output.directory}")
    lines.append(f"precision = {cfg.output.precision}")

    if cfg.compare.pmp or cfg.compare.pmp_steps is not None:
        lines += ["", "[compare]"]
        lines.append(f"pmp = {'yes' if cfg.compare.pmp else 'no'}")
        if cfg.compare.pmp_steps is not None:
            lines.append(f"pmp_steps = {cfg.compare.pmp_steps}")

    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# config -> library objects


def build_model(cfg: ExperimentConfig) -> SystemModel:
    return resolve_system(
        cfg.system.preset,
        mass_m=cfg.system.mass_m,
        inertia_J=cfg.system.inertia_J,
        offset_a=cfg.system.offset_a,
    )


def build_problem(cfg: ExperimentConfig, model: SystemModel) -> TrackingProblem:
    blk = cfg.problem
    if blk.reference == "analytic":
        vectors = ("q_base", "q_slope", "v_base", "v_slope")
    else:
        vectors = ("rollout_q", "rollout_v")
    for key in vectors + ("initial_q", "initial_v"):
        size = model.n if "q" in key else model.rank  # q or v vector
        got = len(getattr(blk, key))
        if got != size:
            raise ConfigError(
                f"{key} needs {size} entries for system {cfg.system.preset}, "
                f"got {got}"
            )
    if blk.reference == "analytic":
        reference = AnalyticReference(
            q_base=blk.q_base, q_slope=blk.q_slope,
            v_base=blk.v_base, v_slope=blk.v_slope,
        )
    else:
        reference = RolloutReference(
            model=model,
            start=AdmissibleState(q=blk.rollout_q, v=blk.rollout_v),
            horizon=blk.horizon_T,
            step=blk.rollout_step,
        )
    return TrackingProblem(
        reference=reference,
        horizon_T=blk.horizon_T,
        epsilon=blk.epsilon,
        omega=blk.omega,
        initial_state=AdmissibleState(q=blk.initial_q, v=blk.initial_v),
        lambda0=blk.lambda0,
        terminal_mode=blk.terminal_mode,
        state_weight=blk.state_weight,
    )


def _build(cfg: ExperimentConfig) -> tuple[
    SystemModel, TrackingProblem, ShootingSettings | DelSettings, TimeGrid | None
]:
    """Model, problem, solver settings and grid of a config.

    The grid spans the horizon in `steps` intervals (None when steps is
    unset).  A value the library rejects while building them, such as a
    negative omega or a zero continuation_stages, becomes a ConfigError.
    """
    blk = cfg.solver
    try:
        model = build_model(cfg)
        problem = build_problem(cfg, model)
        grid = (
            TimeGrid(0.0, problem.horizon_T, blk.steps)
            if blk.steps is not None
            else None
        )
        if blk.method == "pmp-shooting":
            settings = ShootingSettings(
                newton_tol=blk.newton_tol,
                max_iters=blk.max_iters,
                inner_grid=grid,
                continuation=blk.continuation,
                continuation_stages=blk.continuation_stages,
            )
        else:
            settings = DelSettings(
                newton_tol=blk.newton_tol,
                max_iters=blk.max_iters,
                psi_variant=blk.psi_variant,
                enforce_first_interval=blk.enforce_first_interval,
                initial_guess_mode=blk.initial_guess_mode,
            )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return model, problem, settings, grid


# ---------------------------------------------------------------------------
# artifact writers


def _fmt(value: float, precision: int) -> str:
    return format(float(value), f".{precision}g")


def _write_csv(path: Path, header: list[str], rows, precision: int) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(x, precision) for x in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_report(out_dir: Path, report_lines: list[str]) -> None:
    (out_dir / "report.txt").write_text(
        "\n".join(report_lines) + "\n", encoding="utf-8"
    )


def _solver_failure(
    out_dir: Path,
    csv_headers: dict[str, list[str]],
    report_lines: list[str],
    exc: Exception,
    precision: int,
) -> int:
    """Write header-only CSVs and a report naming the failure; exit code 2."""
    for name, header in csv_headers.items():
        _write_csv(out_dir / name, header, [], precision)
    report_lines += ["[convergence]", f"solver failure: {exc}", "exit code: 2"]
    _write_report(out_dir, report_lines)
    return 2


def _iteration_log(report) -> list[str]:
    lines = []
    for rec in report.records:
        lines.append(
            f"iter {rec.iteration}: residual {rec.residual_norm:.6e} "
            f"(step scale {rec.damping:g})"
        )
    lines.append(f"converged: {'yes' if report.converged else 'no'}")
    lines.append(f"iterations: {report.iterations}")
    lines.append(f"residual 2-norm: {report.residual_norm:.6e}")
    lines.append(f"message: {report.message}")
    return lines


def run_experiment(cfg: ExperimentConfig, out_dir: Path) -> int:
    """Solve one config and write trajectory.csv, diagnostics.csv and
    report.txt into out_dir.  Returns the process exit code."""
    model, problem, settings, grid = _build(cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    precision = cfg.output.precision
    n, kr = model.n, model.rank
    q_cols = [f"q{i + 1}" for i in range(n)]
    v_cols = [f"v{i + 1}" for i in range(kr)]
    u_cols = [f"u{i + 1}" for i in range(kr)]
    lam_cols = [f"lam{i + 1}" for i in range(n)]
    diag_header = ["t", "cost", "action", "energy", "constraint_residual"]
    report_lines = [
        "nhtrack run report",
        f"system: {cfg.system.preset}",
        f"method: {cfg.solver.method}",
        "",
        "[configuration echo]",
        config_text(cfg).rstrip(),
        "",
    ]

    if cfg.solver.method == "pmp-shooting":
        traj_header = ["t"] + q_cols + v_cols + u_cols + lam_cols + [
            f"mu{i + 1}" for i in range(kr)
        ]
        try:
            _, traj, report = solve_shooting(model, problem, None, settings)
        except SOLVER_FAILURES as exc:
            return _solver_failure(
                out_dir,
                {"trajectory.csv": traj_header, "diagnostics.csv": diag_header},
                report_lines, exc, precision,
            )

        rows = [
            np.concatenate(
                ([traj.times[i]], traj.q[i], traj.v[i], traj.u[i], traj.lam[i],
                 traj.mu[i])
            )
            for i in range(len(traj.times))
        ]
        _write_csv(out_dir / "trajectory.csv", traj_header, rows, precision)

        cost = np.array([
            problem.lambda0
            * running_cost(
                model, problem, float(traj.times[i]),
                AdmissibleState(q=traj.q[i], v=traj.v[i]), traj.u[i],
            )
            for i in range(len(traj.times))
        ])
        dt = np.diff(traj.times)
        action = np.concatenate(
            ([0.0], np.cumsum(0.5 * dt * (cost[:-1] + cost[1:])))
        )
        energy = np.array([
            restricted_energy(model, AdmissibleState(q=traj.q[i], v=traj.v[i]))
            for i in range(len(traj.times))
        ])
        qdot = np.gradient(traj.q, traj.times, axis=0)
        cres = np.array([
            np.max(np.abs(constraint_residual(model, traj.q[i], qdot[i])))
            for i in range(len(traj.times))
        ])
        diag_rows = np.column_stack([traj.times, cost, action, energy, cres])
        _write_csv(out_dir / "diagnostics.csv", diag_header, diag_rows, precision)

        terminal = problem.reference(problem.horizon_T)
        term_err = float(
            np.linalg.norm(
                np.concatenate([traj.q[-1] - terminal.q, traj.v[-1] - terminal.v])
            )
        )
        report_lines += [
            "[artifacts]",
            f"trajectory.csv columns: {','.join(traj_header)}",
            "diagnostics.csv columns: t,cost,action,energy,constraint_residual",
            "  action: cumulative trapezoid of the running cost",
            "  constraint_residual: annihilator applied to a finite-difference qdot",
            "",
            "[convergence]",
            *_iteration_log(report),
            f"terminal tracking error |gamma(T) - gamma_r(T)|: {term_err:.6e}",
            f"total cost (Simpson): {trajectory_cost(model, problem, traj):.12g}",
        ]
        code = 0 if report.converged else 2

    else:
        traj_header = ["t"] + q_cols + v_cols + u_cols + lam_cols
        try:
            traj, report = solve_del(model, problem, grid, settings)
        except SOLVER_FAILURES as exc:
            return _solver_failure(
                out_dir,
                {"trajectory.csv": traj_header, "diagnostics.csv": diag_header},
                report_lines, exc, precision,
            )

        steps = traj.steps
        rows = []
        for k in range(steps + 1):
            u_k = traj.controls[min(k, steps - 1)]
            if k == 0:
                lam_k = (
                    traj.lambda_zero
                    if traj.lambda_zero is not None
                    else np.zeros(n)
                )
            elif k < steps:
                lam_k = traj.multipliers[k - 1]
            else:
                lam_k = np.zeros(n)
            rows.append(
                np.concatenate(([traj.times[k]], traj.q[k], traj.v[k], u_k, lam_k))
            )
        _write_csv(out_dir / "trajectory.csv", traj_header, rows, precision)

        series = diagnostics(model, problem, traj, psi_variant=settings.psi_variant)
        diag_rows = np.column_stack([
            series.times, series.cost, series.action, series.energy,
            series.constraint_residual,
        ])
        _write_csv(out_dir / "diagnostics.csv", diag_header, diag_rows, precision)

        terminal = problem.reference(problem.horizon_T)
        term_err = float(
            np.linalg.norm(
                np.concatenate([traj.q[-1] - terminal.q, traj.v[-1] - terminal.v])
            )
        )
        exact = bool(
            np.array_equal(traj.q[-1], np.asarray(terminal.q, float))
            and np.array_equal(traj.v[-1], np.asarray(terminal.v, float))
        )
        report_lines += [
            "[artifacts]",
            f"trajectory.csv columns: {','.join(traj_header)}",
            "  u row k: control on the interval [t_k, t_k+h] (last node reuses",
            "  the final interval); lam row k: multiplier of that interval",
            "  (zeros where no multiplier is attached)",
            "diagnostics.csv columns: t,cost,action,energy,constraint_residual",
            "",
            "[convergence]",
            *_iteration_log(report),
            f"terminal tracking error |gamma(T) - gamma_r(T)|: {term_err:.6e}",
            f"final node equals reference endpoint: {'yes' if exact else 'no'}",
            f"discrete action: {float(series.action[-1]):.12g}",
        ]
        code = 0 if report.converged else 2

    report_lines.append(f"exit code: {code}")
    _write_report(out_dir, report_lines)
    return code


# ---------------------------------------------------------------------------
# compare pipeline


def _reintegrate_from_first_enforced(
    model: SystemModel, traj: DiscreteTrajectory, substeps: int = 100
) -> np.ndarray:
    """RK4 re-integration of the recovered piecewise-constant controls at
    step h/substeps, started at node 1 (the first node whose outgoing
    interval carries a constraint under the default multiplier convention).
    Returns states at nodes 1..N as rows (q, v)."""
    n = model.n
    y = np.concatenate([traj.q[1], traj.v[1]])
    states = [y.copy()]
    h_sub = traj.h / substeps
    for j in range(1, traj.steps):
        u_j = traj.controls[j]

        def field(t, y_):
            qdot, vdot = dynamics_rhs(
                model, AdmissibleState(q=y_[:n], v=y_[n:]), u_j
            )
            return np.concatenate([qdot, vdot])

        t_j = float(traj.times[j])
        for s in range(substeps):
            y = rk4_step(field, t_j + s * h_sub, y, h_sub)
        states.append(y.copy())
    return np.asarray(states)


def _endpoint_discrepancy(model: SystemModel, traj: DiscreteTrajectory) -> float:
    reint = _reintegrate_from_first_enforced(model, traj)
    solved = np.concatenate([traj.q[-1], traj.v[-1]])
    return float(np.max(np.abs(reint[-1] - solved)))


def compare_experiment(cfg: ExperimentConfig, out_dir: Path) -> int:
    """Variational solve, control re-integration, h-halving discrepancy
    ratio, optional cross-method cost check; writes compare.csv and
    report.txt.  Returns the process exit code."""
    if cfg.solver.method != "variational":
        raise ConfigError("compare needs a variational solver config")
    model, problem, settings, grid = _build(cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    precision = cfg.output.precision
    n, kr = model.n, model.rank
    report_lines = [
        "nhtrack compare report",
        f"system: {cfg.system.preset}",
        "",
        "[configuration echo]",
        config_text(cfg).rstrip(),
        "",
        "[comparison]",
        "re-integration: RK4 at h/100 from node 1, piecewise-constant",
        "per-interval controls",
    ]

    header = (
        ["t"]
        + [f"q{i + 1}_solve" for i in range(n)]
        + [f"v{i + 1}_solve" for i in range(kr)]
        + ["energy_solve"]
        + [f"q{i + 1}_reint" for i in range(n)]
        + [f"v{i + 1}_reint" for i in range(kr)]
        + ["energy_reint"]
    )
    base_steps = grid.steps
    results = {}
    all_converged = True
    for steps in (base_steps, 2 * base_steps):
        try:
            traj, report = solve_del(
                model, problem, TimeGrid(0.0, problem.horizon_T, steps), settings
            )
        except SOLVER_FAILURES as exc:
            return _solver_failure(
                out_dir, {"compare.csv": header}, report_lines, exc, precision
            )
        results[steps] = traj
        all_converged = all_converged and report.converged
        report_lines.append(
            f"solve at N = {steps}: converged {'yes' if report.converged else 'no'}"
            f" in {report.iterations} iterations, residual "
            f"{report.residual_norm:.6e}"
        )

    traj = results[base_steps]
    reint = _reintegrate_from_first_enforced(model, traj)
    rows = []
    for idx in range(len(reint)):
        k = idx + 1
        solve_state = AdmissibleState(q=traj.q[k], v=traj.v[k])
        reint_state = AdmissibleState(q=reint[idx, :n], v=reint[idx, n:])
        rows.append(
            np.concatenate((
                [traj.times[k]],
                traj.q[k], traj.v[k], [restricted_energy(model, solve_state)],
                reint[idx, :n], reint[idx, n:],
                [restricted_energy(model, reint_state)],
            ))
        )
    _write_csv(out_dir / "compare.csv", header, rows, precision)

    disc_h = _endpoint_discrepancy(model, results[base_steps])
    disc_h2 = _endpoint_discrepancy(model, results[2 * base_steps])
    report_lines += [
        f"endpoint discrepancy at N = {base_steps}: {disc_h:.6e}",
        f"endpoint discrepancy at N = {2 * base_steps}: {disc_h2:.6e}",
    ]
    if disc_h2 > 0:
        report_lines.append(f"h-halving discrepancy ratio: {disc_h / disc_h2:.6f}")
    else:
        report_lines.append(
            "h-halving discrepancy ratio: n/a (both discrepancies at rounding level)"
        )

    if cfg.compare.pmp:
        series = diagnostics(model, problem, traj, psi_variant=settings.psi_variant)
        j_var = float(series.action[-1])
        pmp_steps = cfg.compare.pmp_steps or max(
            2, round(problem.horizon_T / 0.01)
        )
        pmp_settings = ShootingSettings(
            inner_grid=TimeGrid(0.0, problem.horizon_T, pmp_steps),
            continuation=(
                "terminal-weight" if problem.terminal_mode == "hard" else "horizon"
            ),
        )
        try:
            _, pmp_traj, pmp_report = solve_shooting(
                model, problem, None, pmp_settings
            )
        except SOLVER_FAILURES as exc:
            # compare.csv already holds the variational series
            return _solver_failure(out_dir, {}, report_lines, exc, precision)
        all_converged = all_converged and pmp_report.converged
        j_pmp = trajectory_cost(model, problem, pmp_traj)
        rel = abs(j_var - j_pmp) / max(abs(j_pmp), 1e-30)
        report_lines += [
            "",
            "[cross-method]",
            f"shooting: converged {'yes' if pmp_report.converged else 'no'} "
            f"in {pmp_report.iterations} iterations",
            f"variational cost (discrete action): {j_var:.12g}",
            f"shooting cost (Simpson running-cost integral): {j_pmp:.12g}",
            f"relative difference: {rel:.6e}",
        ]

    code = 0 if all_converged else 2
    report_lines.append(f"exit code: {code}")
    _write_report(out_dir, report_lines)
    return code


# ---------------------------------------------------------------------------
# model invariant suite (check subcommand)


def model_checks(name: str, seed: int = 0) -> list[tuple[str, bool, str]]:
    """Quick structural invariants of one system preset: frame shape and
    rank, Christoffel index symmetry, exactness of the Christoffel Jacobian,
    energy conservation of the uncontrolled flow, integrator order on that
    flow, and one-step regularity at unit control weight."""
    model = resolve_system(name)
    rng = np.random.default_rng(seed)
    results = []

    ranks = []
    for _ in range(10):
        q = rng.normal(size=model.n)
        rho = model.rho(q)
        ranks.append(
            rho.shape == (model.n, model.rank)
            and np.linalg.matrix_rank(rho) == model.rank
        )
    results.append(("frame shape and full column rank", all(ranks), "10 random q"))

    shape = []
    jac = []
    kr = model.rank
    for _ in range(10):
        q = rng.normal(size=model.n)
        gamma = model.christoffel(q)
        shape.append(gamma.shape == (kr, kr, kr) and np.all(np.isfinite(gamma)))
        step = 1e-6
        fd = np.empty((kr, kr, kr, model.n))
        for i in range(model.n):
            dq = np.zeros(model.n)
            dq[i] = step
            fd[..., i] = (model.christoffel(q + dq) - model.christoffel(q - dq)) / (
                2 * step
            )
        jac.append(np.max(np.abs(model.christoffel_jac(q) - fd)) <= 1e-6)
    results.append(("Christoffel coefficients finite with shape (k,k,k)",
                    all(shape), "10 random q"))
    results.append(("Christoffel Jacobian matches finite differences", all(jac), "1e-6"))

    start = AdmissibleState(
        q=rng.normal(size=model.n), v=1.0 + rng.uniform(size=model.rank)
    )
    zero_u = np.zeros(model.rank)

    def field(t, y):
        state = AdmissibleState(q=y[:model.n], v=y[model.n:])
        qdot, vdot = dynamics_rhs(model, state, zero_u)
        return np.concatenate([qdot, vdot])

    y0 = np.concatenate([start.q, start.v])
    e0 = restricted_energy(model, start)
    endpoints = {}
    for steps in (50, 100, 1600):
        _, ys = integrate(field, y0, TimeGrid(0.0, 2.0, steps))
        endpoints[steps] = ys[-1]
    drift = abs(
        restricted_energy(
            model,
            AdmissibleState(q=endpoints[1600][:model.n], v=endpoints[1600][model.n:]),
        )
        - e0
    )
    results.append(
        ("uncontrolled flow conserves restricted energy", drift <= 1e-9,
         f"drift {drift:.2e} over T = 2")
    )
    err_h = np.max(np.abs(endpoints[50] - endpoints[1600]))
    err_h2 = np.max(np.abs(endpoints[100] - endpoints[1600]))
    ratio = err_h / err_h2 if err_h2 > 0 else np.inf
    results.append(
        ("integrator error shrinks at least 8x under halving", ratio >= 8.0,
         f"ratio {ratio:.1f} against a 16x-finer reference")
    )

    reference = AnalyticReference(
        q_base=np.zeros(model.n), q_slope=np.zeros(model.n),
        v_base=np.zeros(model.rank), v_slope=np.zeros(model.rank),
    )
    problem = TrackingProblem(
        reference=reference, horizon_T=1.0, epsilon=1.0, omega=1.0,
        initial_state=AdmissibleState(
            q=np.zeros(model.n), v=np.zeros(model.rank)
        ),
        terminal_mode="hard",
    )
    regular = []
    for _ in range(10):
        node_k = AdmissibleState(q=rng.normal(size=model.n), v=rng.normal(size=model.rank))
        node_k1 = AdmissibleState(q=rng.normal(size=model.n), v=rng.normal(size=model.rank))
        regular.append(regularity_check(model, problem, node_k, node_k1, 0.1).nonsingular)
    results.append(
        ("one-step matrix nonsingular at epsilon = 1", all(regular), "10 random pairs")
    )
    return results


# ---------------------------------------------------------------------------
# command group


@click.group()
def main():
    """Optimal trajectory tracking for nonholonomic systems."""


def _config_stem(path: str) -> str:
    return Path(path).stem


def _resolve_out(cfg: ExperimentConfig, out: str | None, stem: str) -> Path:
    base = out or cfg.output.directory or "out"
    return Path(base) / stem


@main.command()
@click.option(
    "--config", "configs", multiple=True, required=True,
    type=click.Path(exists=True, dir_okay=False),
    help="Experiment config file; repeatable.",
)
@click.option("--out", default=None, type=click.Path(file_okay=False),
              help="Artifact root (default: config's output.directory or ./out).")
def run(configs, out):
    """Solve each config and write trajectory/diagnostics/report artifacts."""
    try:
        parsed = [(path, parse_config(path)) for path in configs]
    except ConfigError as exc:
        raise click.ClickException(str(exc))

    worst = 0
    for path, cfg in parsed:
        target = _resolve_out(cfg, out, _config_stem(path))
        try:
            code = run_experiment(cfg, target)
        except ConfigError as exc:
            raise click.ClickException(f"{path}: {exc}")
        status = "converged" if code == 0 else "did not converge"
        click.echo(f"{path}: {status}; artifacts in {target}")
        worst = max(worst, code)
    raise SystemExit(worst)


@main.command()
@click.option(
    "--config", "config_path", required=True,
    type=click.Path(exists=True, dir_okay=False),
    help="Variational experiment config.",
)
@click.option("--out", default=None, type=click.Path(file_okay=False),
              help="Artifact root (default: config's output.directory or ./out).")
def compare(config_path, out):
    """Re-integrate recovered controls and report the h-halving ratio."""
    try:
        cfg = parse_config(config_path)
        target = _resolve_out(cfg, out, _config_stem(config_path))
        code = compare_experiment(cfg, target)
    except ConfigError as exc:
        raise click.ClickException(str(exc))
    status = "ok" if code == 0 else "nonconvergence"
    click.echo(f"{config_path}: {status}; artifacts in {target}")
    raise SystemExit(code)


@main.command()
@click.option("--system", "system_name", default="all", show_default=True,
              help="Preset to check, or 'all'.")
@click.option("--seed", default=0, show_default=True, type=int,
              help="Seed for the randomized probes.")
def check(system_name, seed):
    """Run the structural invariant suite on a system preset."""
    if system_name == "all":
        # sleigh:custom is a parameterized template, not a runnable preset
        names = [n for n in available_systems() if n != "sleigh:custom"]
    else:
        names = [system_name]
    failed = 0
    for name in names:
        try:
            results = model_checks(name, seed=seed)
        except ValueError as exc:
            raise click.ClickException(str(exc))
        click.echo(f"[{name}]")
        for label, ok, detail in results:
            click.echo(f"  {'PASS' if ok else 'FAIL'} {label} ({detail})")
            failed += 0 if ok else 1
    raise SystemExit(0 if failed == 0 else 2)


@main.command()
def presets():
    """List bundled system presets and experiment configs."""
    click.echo("systems:")
    for name in available_systems():
        click.echo(f"  {name}")
    click.echo("configs:")
    config_dir = resources.files("nhtrack") / "configs"
    for entry in sorted(config_dir.iterdir(), key=lambda e: e.name):
        if not entry.name.endswith(".cfg"):
            continue
        first = entry.read_text(encoding="utf-8").splitlines()[0]
        note = first.lstrip("# ") if first.startswith("#") else ""
        click.echo(f"  {entry.name}: {note}" if note else f"  {entry.name}")


if __name__ == "__main__":
    main()
