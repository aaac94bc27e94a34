"""Experiment orchestration: plain-text configs in, bit-stable CSV and
report artifacts out.

A config is an INI file with [system], [problem], [solver], [output] and an
optional [compare] section; `nhtrack presets` lists the bundled ones.  The
block NamedTuples below are the schema: each field is a key of its
section, with the field's type and default.  A key that the config's route
does not read (_unread) must be absent or at its default; the report's
echo (config_text) lists every other set key.  Artifacts land in
<out>/<config-stem>/: `run` writes trajectory.csv, diagnostics.csv and
report.txt; `compare` writes compare.csv and report.txt.  Exit codes: 0 on
convergence, 2 when the solver fails to converge or fails numerically (every
numerical failure is an ArithmeticError; artifacts are still written), 1 on
configuration or usage errors (a missing config file, an unknown section,
key, command or option) and on an artifact directory that cannot be created.
"""
from __future__ import annotations

import argparse
import configparser
import itertools
import math
import sys
import types
import typing
from pathlib import Path

import numpy as np

from .geometry import (
    AdmissibleState,
    SystemModel,
    _state_field,
    constraint_residual,
    restricted_energy,
)
from .geometry import dynamics_rhs  # noqa: F401  (wrapped by bench/trace.py)
from .ode import IntegrationError, TimeGrid, integrate, rk4_step
from . import _ROUTES, _from_route
from .problem import (
    CONTINUATIONS,
    PSI_VARIANTS,
    ROLLOUT_STEP,
    AnalyticReference,
    RolloutReference,
    TrackingProblem,
    running_cost,
)
from .systems import available_systems, resolve_system

if typing.TYPE_CHECKING:
    from .pmp import ShootingSettings
    from .varint import DelSettings, DiscreteTrajectory

METHODS = ("pmp-shooting", "variational")


def _route(name: str):
    """Bind name, a solver route's (nhtrack._ROUTES), here on its first use
    and return its binding, so that a process imports only the route it
    runs.  A name already bound (a wrapper of bench/trace.py, a test's
    monkeypatch) stays."""
    return globals().setdefault(name, _from_route(name))


def __getattr__(name: str):  # PEP 562: a route's name read from outside
    if name not in _ROUTES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return _route(name)


class ConfigError(ValueError):
    """A config file that cannot be turned into a runnable experiment."""


# ---------------------------------------------------------------------------
# configuration schema


class SystemBlock(typing.NamedTuple):
    """The [system] section: the model preset and its parameters."""

    preset: str = "particle"
    mass_m: float | None = None
    inertia_J: float | None = None
    offset_a: float | None = None


class ProblemBlock(typing.NamedTuple):
    """The [problem] section: reference, initial state, horizon and weights."""

    reference: str = "analytic"
    q_base: tuple[float, ...] | None = None
    q_slope: tuple[float, ...] | None = None
    v_base: tuple[float, ...] | None = None
    v_slope: tuple[float, ...] | None = None
    rollout_q: tuple[float, ...] | None = None
    rollout_v: tuple[float, ...] | None = None
    rollout_step: float = ROLLOUT_STEP
    initial_q: tuple[float, ...] = ()
    initial_v: tuple[float, ...] = ()
    horizon_T: float = 1.0
    epsilon: float = 1.0
    omega: float = 1.0
    lambda0: float = 1.0
    state_weight: float = 1.0
    terminal_mode: str = "mayer"


class SolverBlock(typing.NamedTuple):
    """The [solver] section: the method and its Newton and grid settings."""

    method: str = "pmp-shooting"
    # unset: the method's settings default, filled in by parse_config
    newton_tol: float | None = None
    max_iters: int | None = None
    steps: int | None = None
    continuation: str = "none"
    continuation_stages: int = 4
    psi_variant: str = "midpoint"
    enforce_first_interval: bool = False


class OutputBlock(typing.NamedTuple):
    """The [output] section: artifact root and CSV float precision."""

    directory: str | None = None
    precision: int = 17


class CompareBlock(typing.NamedTuple):
    """The [compare] section: the optional shooting side of `compare`."""

    pmp: bool = False
    pmp_steps: int | None = None


class ExperimentConfig(typing.NamedTuple):
    """A whole config file: one block per INI section."""

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
}


def _parse_value(key: str, raw: str, hint):
    """Cast one config value to the type of its block field (X | None
    casts as X); a float or vector value must be finite."""
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
    if cast in (float, tuple) and not np.all(np.isfinite(value)):
        raise ConfigError(f"{key}: {raw!r} is not finite")
    if key in CHOICES and value not in CHOICES[key]:
        raise ConfigError(f"{key} must be one of {CHOICES[key]}, got {value!r}")
    return value


def _parse_block(parser: configparser.ConfigParser, name: str):
    """One section as its block: each key typed by its field, each absent
    key left at its field default."""
    block = SECTIONS[name]
    section = parser[name] if name in parser else {}
    known = {parser.optionxform(key) for key in block._fields}
    unknown = sorted(set(section) - known)
    if unknown:
        raise ConfigError(f"unknown key(s) in [{name}]: {', '.join(unknown)}")
    hints = typing.get_type_hints(block)
    return block(**{
        key: _parse_value(key, section[key], hints[key])
        for key in block._fields
        if key in section
    })


def parse_config(path: str | Path) -> ExperimentConfig:
    """Read and validate an experiment config file."""
    # no interpolation: a % in a value is an ordinary character
    parser = configparser.ConfigParser(interpolation=None)
    # opened here, not by parser.read, which skips a file it cannot open
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle)
    # one line each, without the path, which the caller prints before it
    except FileNotFoundError:
        raise ConfigError("config file not found") from None
    except IsADirectoryError:
        raise ConfigError("config file is a directory") from None
    except OSError as exc:
        raise ConfigError(f"config file cannot be read: {exc.strerror}") from None
    except configparser.Error as exc:  # its text spans lines and names the file
        if isinstance(exc, configparser.MissingSectionHeaderError):
            lineno, what = exc.lineno, "comes before any [section] header"
        elif isinstance(exc, configparser.ParsingError):
            lineno, what = exc.errors[0][0], f"cannot parse {exc.errors[0][1]}"
        else:  # a repeated section or option
            lineno, what = exc.lineno, str(exc).partition("]: ")[2]
        raise ConfigError(f"malformed config file, line {lineno}: {what}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file is not UTF-8: {exc}") from exc

    for required in ("system", "problem", "solver"):
        if required not in parser:
            raise ConfigError(f"missing [{required}] section")
    for section in parser.sections():
        if section not in SECTIONS:
            raise ConfigError(
                f"unknown section [{section}]; known: {', '.join(SECTIONS)}"
            )
    blocks = {name: _parse_block(parser, name) for name in SECTIONS}
    for (section, key), setting in _unread(ExperimentConfig(**blocks)).items():
        if getattr(blocks[section], key) != SECTIONS[section]._field_defaults[key]:
            raise ConfigError(f"{key} is not read by {setting}")
    solver = blocks["solver"]
    defaults = _route("ShootingSettings" if solver.method == "pmp-shooting"
                      else "DelSettings")
    blocks["solver"] = solver._replace(**{
        key: getattr(defaults, key) for key in ("newton_tol", "max_iters")
        if getattr(solver, key) is None
    })
    cfg = ExperimentConfig(**blocks)

    problem = cfg.problem
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
    if problem.rollout_step <= 0:
        raise ConfigError(f"rollout_step must be positive, got {problem.rollout_step}")
    if cfg.compare.pmp_steps is not None and cfg.compare.pmp_steps <= 0:
        raise ConfigError(f"pmp_steps must be positive, got {cfg.compare.pmp_steps}")
    return cfg


def _unread(cfg: ExperimentConfig) -> dict[tuple[str, str], str]:
    """Each (section, key) that cfg's route does not read, mapped to the
    setting that leaves it unread, such as ("solver", "continuation_stages")
    -> "continuation none".  parse_config refuses such a key set away from
    its default, and config_text leaves it out."""
    problem, solver = cfg.problem, cfg.solver
    rules = [
        ("problem", f"reference {problem.reference}",
         REFERENCE_VECTORS["rollout"] + ("rollout_step",)
         if problem.reference == "analytic" else REFERENCE_VECTORS["analytic"]),
        ("solver", "continuation none",
         ("continuation_stages",) if solver.continuation == "none" else ()),
        # after the ladder's rule: on the variational route the method is
        # what leaves continuation_stages unread
        ("solver", f"method {solver.method}",
         ("psi_variant", "enforce_first_interval") if solver.method == "pmp-shooting"
         else ("continuation", "continuation_stages")),
        ("compare", "pmp no", () if cfg.compare.pmp else ("pmp_steps",)),
    ]
    return {(section, key): setting
            for section, setting, keys in rules for key in keys}


def _fmt(value) -> str:
    """One config value as parse_config reads it back."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, str):
        return value
    if isinstance(value, tuple):
        return " ".join(repr(float(x)) for x in value)
    return repr(value)


def config_text(cfg: ExperimentConfig) -> str:
    """Canonical text form of a parsed config: each section's set keys (not
    None), in block field order, except those _unread names; the [compare]
    section only with pmp = yes.  Parsing the text again reproduces the
    same ExperimentConfig (the round-trip the report relies on)."""
    unread = _unread(cfg)
    lines = []
    for section, block in cfg._asdict().items():
        if section == "compare" and not block.pmp:
            continue
        lines += ["", f"[{section}]"] + [
            f"{key} = {_fmt(value)}" for key, value in block._asdict().items()
            if value is not None and (section, key) not in unread
        ]
    return "\n".join(lines[1:]) + "\n"


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
        try:
            reference = RolloutReference(
                model=model,
                start=AdmissibleState(q=blk.rollout_q, v=blk.rollout_v),
                horizon=blk.horizon_T,
                step=blk.rollout_step,
            )
        except IntegrationError as exc:
            raise ConfigError(f"rollout reference: {exc}") from exc
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
    continuation_stages, a rollout reference that overflows or a Mayer
    problem on the variational route, becomes a ConfigError.
    """
    blk = cfg.solver
    try:
        model = build_model(cfg)
        problem = build_problem(cfg, model)
        grid = (None if blk.steps is None
                else TimeGrid(0.0, problem.horizon_T, blk.steps))
        if blk.method == "pmp-shooting":
            settings = _route("ShootingSettings")(
                newton_tol=blk.newton_tol,
                max_iters=blk.max_iters,
                inner_grid=grid,
                continuation=blk.continuation,
                continuation_stages=blk.continuation_stages,
            )
            _route("check_shooting")(problem, settings)
        else:
            settings = _route("DelSettings")(
                newton_tol=blk.newton_tol,
                max_iters=blk.max_iters,
                psi_variant=blk.psi_variant,
                enforce_first_interval=blk.enforce_first_interval,
            )
            _route("check_del")(problem, grid)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return model, problem, settings, grid


# ---------------------------------------------------------------------------
# artifact writers


def _write_csv(path: Path, header: list[str], rows, precision: int) -> None:
    """One line per row of the float array rows (may be empty), each value
    as format(value, f".{precision}g") spells it."""
    line = ",".join([f"%.{precision}g"] * len(header))
    lines = [",".join(header)]
    lines += [line % tuple(row.tolist()) for row in np.asarray(rows, dtype=float)]
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
    _, traj, report = _route("solve_shooting")(model, problem, None, settings)
    states = AdmissibleState(q=traj.q, v=traj.v)
    cost = running_cost(model, problem, traj.times, states, traj.u)
    dt = np.diff(traj.times)
    action = np.concatenate(([0.0], np.cumsum(0.5 * dt * (cost[:-1] + cost[1:]))))
    energy = restricted_energy(model, states)
    qdot = np.gradient(traj.q, traj.times, axis=0)
    cres = np.max(np.abs(constraint_residual(model, traj.q, qdot)), axis=-1)
    rows = np.column_stack([traj.times, traj.q, traj.v, traj.u, traj.lam, traj.mu])
    diag_rows = np.column_stack([traj.times, cost, action, energy, cres])
    total = _route("trajectory_cost")(model, problem, traj)
    closing = [f"running-cost integral (Simpson): {total:.12g}"]
    return report, traj, rows, diag_rows, closing


def _del_route(model, problem, settings, grid, terminal):
    """Variational adapter of run_experiment: solve_del on grid, then the
    same five results as _shooting_route; the closing lines say whether the
    final node equals terminal, the reference endpoint."""
    traj, report = _route("solve_del")(model, problem, grid, settings)
    steps = traj.steps
    lam = np.zeros((steps + 1, model.n))  # no multiplier at the last node
    if traj.lambda_zero is not None:
        lam[0] = traj.lambda_zero
    lam[1:steps] = traj.multipliers
    u = traj.controls[np.minimum(np.arange(steps + 1), steps - 1)]
    rows = np.column_stack([traj.times, traj.q, traj.v, u, lam])
    series = _route("diagnostics")(
        model, problem, traj, psi_variant=settings.psi_variant)
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
    except ArithmeticError as exc:
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

# Largest RK4 step of the control re-integration, on intervals of
# h >= SQRT_STEP_BELOW_H; shorter ones take
# REINTEGRATION_STEP * sqrt(h / SQRT_STEP_BELOW_H).  RK4's error goes as
# step^4 and the midpoint scheme's as h^2, so their ratio then stays at its
# h = SQRT_STEP_BELOW_H value (at the full step it grows to 9.4e-6 on the
# bundled particle at h = 0.01).  Step doubling (Hairer, Norsett & Wanner,
# Solving ODEs I, II.4): RK4 at this step and at half of it agree within 1e-9
# and within 1e-6 of the endpoint discrepancy compare measures, the midpoint
# scheme's own error, on both built-ins (tests/test_cli.py checks this).
REINTEGRATION_STEP = ROLLOUT_STEP
SQRT_STEP_BELOW_H = 0.05


def _substeps(h: float) -> int:
    """RK4 steps per interval of length h in the control re-integration: the
    smallest m with h / m within the step above, up to a rounding guard, so
    that h = 0.07 takes 7 although 0.07 / 0.01 is 7.000000000000001."""
    step = REINTEGRATION_STEP * min(1.0, math.sqrt(h / SQRT_STEP_BELOW_H))
    return max(1, math.ceil(h / step - 1e-9))


def _reintegrate_from_first_enforced(
    model: SystemModel, *trajs: DiscreteTrajectory
) -> list[np.ndarray]:
    """RK4 re-integration of each trajectory's recovered piecewise-constant
    controls, each interval h split into _substeps(h) steps, started at the
    first node whose outgoing interval carries a constraint: node 0 when the
    first interval was enforced (lambda_zero is set), else node 1.  Returns,
    per trajectory, the states from that node to node N as rows (q, v).

    The trajectories advance as one stack through T substeps, T the most
    any row has.  A row of c substeps joins late: for its first T - c it
    keeps its first node, at step 0 and its first interval's control, so it
    evaluates the field only where its own first substep does.  Each row
    thus equals its own single-trajectory run bit for bit.  A non-finite
    stage raises IntegrationError at the earliest failing row's own time."""
    firsts = np.array([0 if traj.lambda_zero is not None else 1 for traj in trajs])
    subs = np.array([_substeps(traj.h) for traj in trajs])
    h_sub = np.array([traj.h for traj in trajs]) / subs
    counts = (np.array([traj.steps for traj in trajs]) - firsts) * subs
    T = counts.max()
    waits = T - counts
    h = np.where(np.arange(T)[:, None] < waits, 0.0, h_sub)[..., None]
    u = np.stack([
        np.pad(np.repeat(traj.controls[k:], m, axis=0), ((wait, 0), (0, 0)), "edge")
        for traj, k, m, wait in zip(trajs, firsts, subs, waits)
    ], axis=1)
    # ys[j, r]: row r after substep j, ys[0] its first node
    ys = np.empty((T + 1, len(trajs), model.n + model.rank))
    ys[0] = [np.concatenate([traj.q[k], traj.v[k]]) for traj, k in zip(trajs, firsts)]
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(T):
            # the field is autonomous, so the stack steps a local clock
            try:
                step = rk4_step(_state_field(model, u[j]), 0.0, ys[j], h[j])
            except IntegrationError as exc:
                # each row's time at its own substep; a waiting row's first
                own = np.maximum(j - waits, 0)
                nodes = [traj.times[k] for traj, k in zip(trajs, firsts + own // subs)]
                t = (np.array(nodes) + own % subs * h_sub)[exc.rows]
                raise IntegrationError(exc.stage, float(t.min())) from exc
            # a waiting row keeps its node: a zero step turns a -0.0 into 0.0
            ys[j + 1] = np.where(h[j] > 0, step, ys[j])
    return [ys[wait::m, r] for r, (wait, m) in enumerate(zip(waits, subs))]


def _endpoint_discrepancy(
    model: SystemModel, traj: DiscreteTrajectory, reint: np.ndarray | None = None
) -> float:
    """Max-norm gap between the solved final node and the re-integrated one;
    reint, when given, is traj's re-integrated series."""
    if reint is None:
        (reint,) = _reintegrate_from_first_enforced(model, traj)
    solved = np.concatenate([traj.q[-1], traj.v[-1]])
    return float(np.max(np.abs(reint[-1] - solved)))


def _cross_method_settings(
    cfg: ExperimentConfig, problem: TrackingProblem
) -> ShootingSettings:
    """Shooting settings of compare's cross-method check: pmp_steps
    intervals (unset: the shooting solver's default grid, h = 0.01) and no
    continuation; the segmented solve reaches the pinned endpoint of
    compare's variational problem from a zero costate."""
    steps = cfg.compare.pmp_steps
    return _route("ShootingSettings")(
        inner_grid=None if steps is None else TimeGrid(0.0, problem.horizon_T, steps),
        continuation="none",
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
    first = 0 if settings.enforce_first_interval else 1
    report_lines = [
        "nhtrack compare report",
        f"system: {cfg.system.preset}",
        "",
        "[configuration echo]",
        config_text(cfg).rstrip(),
        "",
        "[comparison]",
        "re-integration: RK4 at "
        + " and ".join(
            f"h/{_substeps(problem.horizon_T / steps)} (N = {steps})"
            for steps in (grid.steps, 2 * grid.steps)
        )
        + f" from node {first}, piecewise-constant per-interval controls",
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
    try:
        coarse = None
        for steps in (base_steps, 2 * base_steps):
            # the 2N solve starts from the prolonged N solution when that
            # converged, else from the straight line
            traj, report = _route("solve_del")(
                model, problem, TimeGrid(0.0, problem.horizon_T, steps), settings,
                coarse=coarse,
            )
            results[steps] = traj
            all_converged = all_converged and report.converged
            coarse = traj if report.converged else None
            report_lines.append(
                f"solve at N = {steps}: converged "
                f"{'yes' if report.converged else 'no'} in {report.iterations} "
                f"iterations, residual {report.residual_norm:.6e}"
            )
        traj, traj2 = results[base_steps], results[2 * base_steps]
        reint, reint2 = _reintegrate_from_first_enforced(model, traj, traj2)
        disc_h = _endpoint_discrepancy(model, traj, reint)
        disc_h2 = _endpoint_discrepancy(model, traj2, reint2)
    except ArithmeticError as exc:
        return _solver_failure(
            out_dir, {"compare.csv": header}, report_lines, exc, precision
        )

    # nodes first..N of the solve, like reint
    solved = AdmissibleState(q=traj.q[first:], v=traj.v[first:])
    reint_states = AdmissibleState(q=reint[:, :n], v=reint[:, n:])
    rows = np.column_stack([
        traj.times[first:], solved.q, solved.v, restricted_energy(model, solved),
        reint, restricted_energy(model, reint_states),
    ])
    _write_csv(out_dir / "compare.csv", header, rows, precision)
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
        series = _route("diagnostics")(
            model, problem, traj, psi_variant=settings.psi_variant)
        j_var = float(series.action[-1])
        try:
            _, pmp_traj, pmp_report = _route("solve_shooting")(
                model, problem, None, pmp_settings
            )
        except ArithmeticError as exc:
            # compare.csv already holds the variational series
            return _solver_failure(out_dir, {}, report_lines, exc, precision)
        all_converged = all_converged and pmp_report.converged
        j_pmp = _route("trajectory_cost")(model, problem, pmp_traj)
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


def _stacked_q_check(
    model: SystemModel, rng: np.random.Generator
) -> tuple[str, bool, str]:
    """Each callable on a (5, n) batch of q returns its five single-point
    results, stacked, each of the documented shape."""
    n, m, k = model.n, model.corank, model.rank
    shapes = {
        "rho": (n, k), "rho_jac": (n, k, n), "christoffel": (k, k, k),
        "christoffel_jac": (k, k, k, n), "metric_d": (k, k),
        "potential_grad": (k,), "potential_grad_jac": (k, n),
        "annihilator": (m, n),
    }
    qs = rng.normal(size=(5, n))
    failed = []
    for name, shape in shapes.items():
        fn = getattr(model, name)
        try:
            rows = [np.asarray(fn(q), dtype=float) for q in qs]
            batch = np.asarray(fn(qs), dtype=float)
        except (ValueError, IndexError, TypeError):
            failed.append(name)
            continue
        ok = (
            all(row.shape == shape for row in rows)
            and batch.shape == (5,) + shape
            and np.allclose(batch, rows, rtol=1e-12, atol=1e-12)
        )
        if not ok:
            failed.append(name)
    detail = "5 random q" if not failed else f"fails: {', '.join(failed)}"
    return "callables accept stacked q", not failed, detail


def _matches_central_differences(
    fn: typing.Callable, jac: typing.Callable, q: np.ndarray
) -> bool:
    """jac(q)[..., j] within 1e-6 of central differences of fn in q^j, step 1e-6."""
    eye = 1e-6 * np.eye(q.size)
    fd = np.stack([(fn(q + dq) - fn(q - dq)) / 2e-6 for dq in eye], axis=-1)
    return bool(np.max(np.abs(jac(q) - fd)) <= 1e-6)


def model_checks(
    system: str | SystemModel, seed: int = 0
) -> list[tuple[str, bool, str]]:
    """Quick structural invariants of one system preset (or model): frame
    shape and rank, finite Christoffel coefficients, energy conservation of
    the uncontrolled flow, integrator order on that flow, one-step
    regularity at unit control weight, that every callable accepts a stack
    of configurations q of shape (..., n), and, point by point, exactness of
    the Christoffel, frame and potential Jacobians and that the annihilator
    vanishes on the frame."""
    model = resolve_system(system) if isinstance(system, str) else system
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
    kr = model.rank
    for _ in range(10):
        gamma = model.christoffel(rng.normal(size=model.n))
        shape.append(gamma.shape == (kr, kr, kr) and np.all(np.isfinite(gamma)))
    results.append(("Christoffel coefficients finite with shape (k,k,k)",
                    all(shape), "10 random q"))

    start = AdmissibleState(
        q=rng.normal(size=model.n), v=1.0 + rng.uniform(size=model.rank)
    )
    field = _state_field(model, np.zeros(model.rank))
    endpoints = {}
    for steps in (50, 100, 1600):
        _, ys = integrate(field, start.as_vector(), TimeGrid(0.0, 2.0, steps))
        endpoints[steps] = ys[-1]
    end = AdmissibleState(q=endpoints[1600][:model.n], v=endpoints[1600][model.n:])
    drift = abs(restricted_energy(model, end) - restricted_energy(model, start))
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
    regularity_check = _route("regularity_check")
    for _ in range(10):
        node_k = AdmissibleState(q=rng.normal(size=model.n), v=rng.normal(size=model.rank))
        node_k1 = AdmissibleState(q=rng.normal(size=model.n), v=rng.normal(size=model.rank))
        regular.append(regularity_check(model, problem, node_k, node_k1, 0.1).nonsingular)
    results.append(
        ("one-step matrix nonsingular at epsilon = 1", all(regular), "10 random pairs")
    )
    results.append(_stacked_q_check(model, rng))

    qs = rng.normal(size=(10, model.n))
    for label, fn, jac in (
        ("Christoffel Jacobian", model.christoffel, model.christoffel_jac),
        ("frame Jacobian", model.rho, model.rho_jac),
        ("potential-gradient Jacobian", model.potential_grad, model.potential_grad_jac),
    ):
        exact = all(_matches_central_differences(fn, jac, q) for q in qs)
        results.append((f"{label} matches finite differences", exact, "1e-6"))
    gap = max(np.max(np.abs(model.annihilator(q) @ model.rho(q))) for q in qs)
    results.append(
        ("annihilator vanishes on the frame", gap <= 1e-12, f"max {gap:.1e}")
    )
    return results


# ---------------------------------------------------------------------------
# command line


def _resolve_out(cfg: ExperimentConfig, out: str | None, stem: str) -> Path:
    base = out or cfg.output.directory or "out"
    return Path(base) / stem


def run(configs: list[str], out: str | None) -> int:
    """Solve each config and write trajectory/diagnostics/report artifacts.

    A config that fails to parse or build, or whose artifacts cannot be
    written, prints its error and the rest still run; the exit code is 1
    if any config failed so, else the worst solver code.  Two configs that
    would write to the same artifact directory are rejected, exit code 1,
    before any of them runs."""
    worst, failed = 0, False
    jobs, targets = [], {}
    for path in configs:
        try:
            cfg = parse_config(path)
        except ConfigError as exc:
            print(f"Error: {path}: {exc}", file=sys.stderr)
            failed = True
            continue
        target = _resolve_out(cfg, out, Path(path).stem)
        key = target.resolve()
        if key in targets:
            print(
                f"Error: {targets[key]} and {path} both write to {target}; "
                "give them distinct file names or output directories",
                file=sys.stderr,
            )
            return 1
        targets[key] = path
        jobs.append((path, cfg, target))
    for path, cfg, target in jobs:
        try:
            code = run_experiment(cfg, target)
        except (ConfigError, OSError) as exc:
            print(f"Error: {path}: {exc}", file=sys.stderr)
            failed = True
            continue
        status = "converged" if code == 0 else "did not converge"
        print(f"{path}: {status}; artifacts in {target}", flush=True)
        worst = max(worst, code)
    return 1 if failed else worst


def compare(config_path: str, out: str | None) -> int:
    """Re-integrate recovered controls and report the h-halving ratio."""
    try:
        cfg = parse_config(config_path)
        target = _resolve_out(cfg, out, Path(config_path).stem)
        code = compare_experiment(cfg, target)
    except (ConfigError, OSError) as exc:
        print(f"Error: {config_path}: {exc}", file=sys.stderr)
        return 1
    status = "ok" if code == 0 else "nonconvergence"
    print(f"{config_path}: {status}; artifacts in {target}")
    return code


def check(system_name: str, seed: int) -> int:
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
            print(f"Error: {exc}", file=sys.stderr)
            return 1
        print(f"[{name}]")
        for label, ok, detail in results:
            print(f"  {'PASS' if ok else 'FAIL'} {label} ({detail})")
            failed += 0 if ok else 1
    return 0 if failed == 0 else 2


def presets() -> None:
    """List bundled system presets and experiment configs."""
    from importlib import resources

    print("systems:")
    for name in available_systems():
        print(f"  {name}")
    print("configs:")
    config_dir = resources.files("nhtrack") / "configs"
    for entry in sorted(config_dir.iterdir(), key=lambda e: e.name):
        if not entry.name.endswith(".cfg"):
            continue
        # the leading comment block, joined into one line
        lines = entry.read_text(encoding="utf-8").splitlines()
        header = itertools.takewhile(lambda line: line.startswith("#"), lines)
        note = " ".join(line.lstrip("# ") for line in header)
        print(f"  {entry.name}: {note}" if note else f"  {entry.name}")


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, like config errors (2 is a failed solve)."""

    def error(self, message: str) -> typing.NoReturn:
        print(f"Error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _seed(text: str) -> int:
    """check's --seed: an int of at least 0, as numpy's default_rng needs."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {seed}")
    return seed


def main(args: list[str] | None = None, prog_name: str | None = None):
    """Optimal trajectory tracking for nonholonomic systems."""
    parser = _Parser(prog=prog_name, description=main.__doc__, allow_abbrev=False)
    commands = parser.add_subparsers(metavar="COMMAND", required=True)
    config = dict(required=True, metavar="FILE")
    out = dict(metavar="DIR",
               help="Artifact root (default: config's output.directory or ./out).")
    for command, options in (
        (run, {"--config": dict(config, dest="configs", action="append",
                                help="Experiment config file; repeatable."),
               "--out": out}),
        (compare, {"--config": dict(config, dest="config_path",
                                    help="Variational experiment config."),
                   "--out": out}),
        (check, {"--system": dict(dest="system_name", default="all", metavar="NAME",
                                  help="Preset to check, or 'all' (default: all)."),
                 "--seed": dict(type=_seed, default=0,
                                help="Seed for the randomized probes (default: 0).")}),
        (presets, {}),
    ):
        sub = commands.add_parser(command.__name__, help=command.__doc__.split("\n")[0],
                                  description=command.__doc__, allow_abbrev=False)
        sub.set_defaults(command=command)
        for flag, kwargs in options.items():
            sub.add_argument(flag, **kwargs)
    opts = vars(parser.parse_args(args))
    raise SystemExit(opts.pop("command")(**opts))


def entry():
    """The `nhtrack` process: `main` with the import-time heap frozen.

    cli and every module it imports are loaded by now, but neither solver
    route: a command imports its route after the freeze, on the route's
    first use (_route).  No run collects the frozen object graph, so
    gc.freeze() moves it out of the collector's reach; the exit-time
    collections then skip it instead of tearing it down.  Only a
    process about to end may do this, so in-process callers of `main` (the
    tests' invoke helper, bench/trace.py) keep their own GC state."""
    import gc

    gc.freeze()
    main(prog_name="nhtrack")


if __name__ == "__main__":
    entry()
