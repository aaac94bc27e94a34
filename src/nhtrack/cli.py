"""Experiment orchestration: plain-text configs in, bit-stable CSV and
report artifacts out.

A config is an INI file with [system], [problem], [solver], [output] and an
optional [compare] section; `nhtrack presets` lists the bundled ones.  The
block dataclasses below are the schema: each field is a key of its
section, with the field's type and default.  Artifacts land in
<out>/<config-stem>/: `run` writes trajectory.csv, diagnostics.csv and
report.txt; `compare` writes compare.csv and report.txt.  Exit codes: 0 on
convergence, 2 when the solver fails to converge or fails numerically
(artifacts are still written), 1 on configuration or usage errors, among
them an unknown section or key.
"""
from __future__ import annotations

import configparser
import types
import typing
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
    CONTINUATIONS,
    AnalyticReference,
    FlowDivergedError,
    RolloutReference,
    ShootingSettings,
    SingularJacobianError,
    TrackingProblem,
    check_shooting,
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
    check_del,
    diagnostics,
    regularity_check,
    solve_del,
)

METHODS = ("pmp-shooting", "variational")

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


# fixed-choice keys and their allowed values; a reference kind names the
# vector keys it needs
REFERENCE_VECTORS = {
    "analytic": ("q_base", "q_slope", "v_base", "v_slope"),
    "rollout": ("rollout_q", "rollout_v"),
}
CHOICES = {
    "reference": tuple(REFERENCE_VECTORS),
    "method": METHODS,
    "continuation": CONTINUATIONS,
    "psi_variant": PSI_VARIANTS,
    "initial_guess_mode": GUESS_MODES,
}


def _parse_value(key: str, raw: str, hint):
    """Cast one config value to the type of its block field (X | None
    casts as X)."""
    if isinstance(hint, types.UnionType):
        hint = next(arg for arg in typing.get_args(hint) if arg is not type(None))
    cast = typing.get_origin(hint) or hint
    raw = raw.strip()
    if cast is bool:
        lowered = raw.lower()
        if lowered in ("yes", "true", "1", "on"):
            return True
        if lowered in ("no", "false", "0", "off"):
            return False
        raise ConfigError(f"{key}: expected a yes/no value, got {raw!r}")
    try:
        value = tuple(float(tok) for tok in raw.split()) if cast is tuple else cast(raw)
    except ValueError as exc:
        kind = "whitespace-separated floats" if cast is tuple else cast.__name__
        raise ConfigError(f"{key}: cannot parse {raw!r} as {kind}") from exc
    if key in CHOICES and value not in CHOICES[key]:
        raise ConfigError(f"{key} must be one of {CHOICES[key]}, got {value!r}")
    return value


def _parse_block(parser: configparser.ConfigParser, name: str, path: str | Path):
    """One section as its block: each key typed by its field, each absent
    key left at its field default."""
    block = SECTIONS[name]
    section = parser[name] if name in parser else {}
    known = {parser.optionxform(f.name) for f in fields(block)}
    unknown = sorted(set(section) - known)
    if unknown:
        raise ConfigError(
            f"unknown key(s) in [{name}] of {path}: {', '.join(unknown)}"
        )
    hints = typing.get_type_hints(block)
    return block(**{
        f.name: _parse_value(f.name, section[f.name], hints[f.name])
        for f in fields(block)
        if f.name in section
    })


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
    blocks = {name: _parse_block(parser, name, path) for name in SECTIONS}
    cfg = ExperimentConfig(**blocks)

    system, problem = cfg.system, cfg.problem
    params = (system.mass_m, system.inertia_J, system.offset_a)
    if system.preset != "sleigh:custom" and params != (None, None, None):
        raise ConfigError(
            "mass_m/inertia_J/offset_a apply to preset sleigh:custom only; "
            f"preset {system.preset!r} carries its own parameters"
        )
    try:
        build_model(cfg)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if problem.epsilon <= 0:
        raise ConfigError(
            "epsilon must be positive: epsilon = 0 is the singular tracking "
            "problem, which this toolkit excludes (the control-effort weight "
            "is what keeps the one-step and shooting systems nonsingular)"
        )
    missing = [
        key for key in REFERENCE_VECTORS[problem.reference]
        if getattr(problem, key) is None
    ]
    if missing:
        raise ConfigError(f"{problem.reference} reference needs {', '.join(missing)}")
    if not problem.initial_q or not problem.initial_v:
        raise ConfigError("problem needs initial_q and initial_v")
    if cfg.solver.method == "variational" and cfg.solver.steps is None:
        raise ConfigError("variational solver needs an explicit steps count")
    if not 1 <= cfg.output.precision <= 17:
        raise ConfigError(f"precision must be in [1, 17], got {cfg.output.precision}")
    if cfg.compare.pmp_steps is not None and cfg.compare.pmp_steps <= 0:
        raise ConfigError(f"pmp_steps must be positive, got {cfg.compare.pmp_steps}")
    return cfg


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
    for key in REFERENCE_VECTORS[cfg.problem.reference]:
        lines.append(f"{key} = {_fmt_vec(getattr(cfg.problem, key))}")
    if cfg.problem.reference == "rollout":
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
    for key in REFERENCE_VECTORS[blk.reference] + ("initial_q", "initial_v"):
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
    unset).  A value the library rejects while building them or at the
    solver's entry checks, such as a negative omega, a zero
    continuation_stages or a Mayer problem on the variational route,
    becomes a ConfigError.
    """
    blk = cfg.solver
    try:
        model = build_model(cfg)
        problem = build_problem(cfg, model)
        grid = (None if blk.steps is None
                else TimeGrid(0.0, problem.horizon_T, blk.steps))
        if blk.method == "pmp-shooting":
            settings = ShootingSettings(
                newton_tol=blk.newton_tol,
                max_iters=blk.max_iters,
                inner_grid=grid,
                continuation=blk.continuation,
                continuation_stages=blk.continuation_stages,
            )
            check_shooting(problem, settings)
        else:
            settings = DelSettings(
                newton_tol=blk.newton_tol,
                max_iters=blk.max_iters,
                psi_variant=blk.psi_variant,
                enforce_first_interval=blk.enforce_first_interval,
                initial_guess_mode=blk.initial_guess_mode,
            )
            check_del(problem, grid)
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


# per route: the notes under the trajectory.csv and the diagnostics.csv
# column lines of the run report
ARTIFACT_NOTES = {
    "pmp-shooting": ([], [
        "  action: cumulative trapezoid of the running cost",
        "  constraint_residual: annihilator applied to a finite-difference qdot",
    ]),
    "variational": ([
        "  u row k: control on the interval [t_k, t_k+h] (last node reuses",
        "  the final interval); lam row k: multiplier of that interval",
        "  (zeros where no multiplier is attached)",
    ], []),
}


def _shooting_route(model, problem, settings, grid, terminal):
    """Shooting adapter of run_experiment: solve_shooting (its grid rides in
    settings), then (report, trajectory, trajectory rows, diagnostics rows,
    closing report lines)."""
    _, traj, report = solve_shooting(model, problem, None, settings)
    states = [AdmissibleState(q=q, v=v) for q, v in zip(traj.q, traj.v)]
    cost = np.array([
        problem.lambda0 * running_cost(model, problem, float(t), state, u)
        for t, state, u in zip(traj.times, states, traj.u)
    ])
    dt = np.diff(traj.times)
    action = np.concatenate(([0.0], np.cumsum(0.5 * dt * (cost[:-1] + cost[1:]))))
    energy = [restricted_energy(model, state) for state in states]
    qdot = np.gradient(traj.q, traj.times, axis=0)
    cres = [
        np.max(np.abs(constraint_residual(model, q, qd)))
        for q, qd in zip(traj.q, qdot)
    ]
    rows = np.column_stack([traj.times, traj.q, traj.v, traj.u, traj.lam, traj.mu])
    diag_rows = np.column_stack([traj.times, cost, action, energy, cres])
    closing = [f"total cost (Simpson): {trajectory_cost(model, problem, traj):.12g}"]
    return report, traj, rows, diag_rows, closing


def _del_route(model, problem, settings, grid, terminal):
    """Variational adapter of run_experiment: solve_del on grid, then the
    same five results as _shooting_route; the closing lines say whether the
    final node equals terminal, the reference endpoint."""
    traj, report = solve_del(model, problem, grid, settings)
    steps = traj.steps
    lam = np.zeros((steps + 1, model.n))  # no multiplier at the last node
    if traj.lambda_zero is not None:
        lam[0] = traj.lambda_zero
    lam[1:steps] = traj.multipliers
    u = traj.controls[np.minimum(np.arange(steps + 1), steps - 1)]
    rows = np.column_stack([traj.times, traj.q, traj.v, u, lam])
    series = diagnostics(model, problem, traj, psi_variant=settings.psi_variant)
    diag_rows = np.column_stack([
        series.times, series.cost, series.action, series.energy,
        series.constraint_residual,
    ])
    exact = np.array_equal(traj.q[-1], terminal.q) and np.array_equal(
        traj.v[-1], terminal.v
    )
    closing = [
        f"final node equals reference endpoint: {'yes' if exact else 'no'}",
        f"discrete action: {float(series.action[-1]):.12g}",
    ]
    return report, traj, rows, diag_rows, closing


def run_experiment(cfg: ExperimentConfig, out_dir: Path) -> int:
    """Solve one config and write trajectory.csv, diagnostics.csv and
    report.txt into out_dir.  Returns the process exit code."""
    model, problem, settings, grid = _build(cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    precision = cfg.output.precision
    n, kr = model.n, model.rank
    method = cfg.solver.method
    traj_header = (
        ["t"] + [f"q{i + 1}" for i in range(n)] + [f"v{i + 1}" for i in range(kr)]
        + [f"u{i + 1}" for i in range(kr)] + [f"lam{i + 1}" for i in range(n)]
        + ([f"mu{i + 1}" for i in range(kr)] if method == "pmp-shooting" else [])
    )
    diag_header = ["t", "cost", "action", "energy", "constraint_residual"]
    report_lines = [
        "nhtrack run report",
        f"system: {cfg.system.preset}",
        f"method: {method}",
        "",
        "[configuration echo]",
        config_text(cfg).rstrip(),
        "",
    ]
    terminal = problem.reference(problem.horizon_T)
    route = _shooting_route if method == "pmp-shooting" else _del_route
    try:
        report, traj, rows, diag_rows, closing = route(
            model, problem, settings, grid, terminal
        )
    except SOLVER_FAILURES as exc:
        return _solver_failure(
            out_dir,
            {"trajectory.csv": traj_header, "diagnostics.csv": diag_header},
            report_lines, exc, precision,
        )

    _write_csv(out_dir / "trajectory.csv", traj_header, rows, precision)
    _write_csv(out_dir / "diagnostics.csv", diag_header, diag_rows, precision)
    gap = np.concatenate([traj.q[-1] - terminal.q, traj.v[-1] - terminal.v])
    traj_notes, diag_notes = ARTIFACT_NOTES[method]
    code = 0 if report.converged else 2
    report_lines += [
        "[artifacts]",
        f"trajectory.csv columns: {','.join(traj_header)}",
        *traj_notes,
        f"diagnostics.csv columns: {','.join(diag_header)}",
        *diag_notes,
        "",
        "[convergence]",
        *_iteration_log(report),
        f"terminal tracking error |gamma(T) - gamma_r(T)|: {np.linalg.norm(gap):.6e}",
        *closing,
        f"exit code: {code}",
    ]
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


def _endpoint_discrepancy(
    model: SystemModel, traj: DiscreteTrajectory, reint: np.ndarray | None = None
) -> float:
    """Max-norm gap between the solved final node and the re-integrated one;
    reint, when given, is traj's re-integrated series."""
    if reint is None:
        reint = _reintegrate_from_first_enforced(model, traj)
    solved = np.concatenate([traj.q[-1], traj.v[-1]])
    return float(np.max(np.abs(reint[-1] - solved)))


def _cross_method_settings(
    cfg: ExperimentConfig, problem: TrackingProblem
) -> ShootingSettings:
    """Shooting settings of compare's cross-method check: pmp_steps
    intervals (default h = 0.01, at least 2), and terminal-weight
    continuation, since compare's variational problem pins its endpoint."""
    steps = cfg.compare.pmp_steps
    if steps is None:
        steps = max(2, round(problem.horizon_T / 0.01))
    return ShootingSettings(
        inner_grid=TimeGrid(0.0, problem.horizon_T, steps),
        continuation="terminal-weight",
    )


def compare_experiment(cfg: ExperimentConfig, out_dir: Path) -> int:
    """Variational solve, control re-integration, h-halving discrepancy
    ratio, optional cross-method cost check; writes compare.csv and
    report.txt.  Returns the process exit code."""
    if cfg.solver.method != "variational":
        raise ConfigError("compare needs a variational solver config")
    model, problem, settings, grid = _build(cfg)
    pmp_settings = _cross_method_settings(cfg, problem) if cfg.compare.pmp else None
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

    def energy(y):
        return restricted_energy(model, AdmissibleState(q=y[:n], v=y[n:]))

    solved = np.column_stack([traj.q, traj.v])[1:]  # nodes 1..N, like reint
    rows = [
        np.concatenate(([t], y, [energy(y)], r, [energy(r)]))
        for t, y, r in zip(traj.times[1:], solved, reint)
    ]
    _write_csv(out_dir / "compare.csv", header, rows, precision)

    disc_h = _endpoint_discrepancy(model, traj, reint)
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

    if pmp_settings is not None:
        series = diagnostics(model, problem, traj, psi_variant=settings.psi_variant)
        j_var = float(series.action[-1])
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
