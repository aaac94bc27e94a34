"""Microbenchmarks of the public functions of each layer at fixed inputs.

    python3 bench/micro.py

Run from the repository root.  Inputs come from the bundled configs through
the public `cli.parse_config`, `cli.build_model` and `cli.build_problem`:

- systems: one `christoffel` call of the particle at its start q;
- geometry: one `dynamics_rhs` call of the sleigh at its start, u = 0;
- pmp: one `shooting_residual`, i.e. one 400-step RK4 flow of the packed
  state-costate field at zero costate on particle-case2 (a finite-difference
  shooting Jacobian costs 6 of these flows);
- pmp: one `RolloutReference` build of the sleigh reference (5000 RK4 steps);
- varint: one `del_residual` at the sleigh N = 50 linear-interpolation guess;
- varint: one `diagnostics` pass over that same guess.

The block-Thomas solve, the interval Hessian assembly and the line-search
trial are private to `varint.solve_del`; they get numbers once the program
records its own spans.  Each figure is the median of 7 samples of a loop
sized to take about 0.2 s.
"""
from __future__ import annotations

import json
import os
import statistics
import sys
import time
from pathlib import Path

SAMPLES = 7
TARGET_S = 0.2


def per_call(fn) -> float:
    """Median seconds per call of fn over SAMPLES timed loops."""
    fn()
    number, elapsed = 1, 0.0
    while True:
        start = time.perf_counter()
        for _ in range(number):
            fn()
        elapsed = time.perf_counter() - start
        if elapsed >= TARGET_S / 4 or number >= 1 << 20:
            break
        number *= 4
    number = max(1, round(number * TARGET_S / max(elapsed, 1e-9)))
    samples = []
    for _ in range(SAMPLES):
        start = time.perf_counter()
        for _ in range(number):
            fn()
        samples.append((time.perf_counter() - start) / number)
    return statistics.median(samples)


def cases(root: Path) -> dict[str, tuple[str, object]]:
    import numpy as np

    from nhtrack import cli, pmp, varint
    from nhtrack.geometry import AdmissibleState, dynamics_rhs
    from nhtrack.ode import TimeGrid

    configs = root / "src" / "nhtrack" / "configs"
    p_cfg = cli.parse_config(configs / "particle-case2.cfg")
    p_model = cli.build_model(p_cfg)
    p_problem = cli.build_problem(p_cfg, p_model)
    s_cfg = cli.parse_config(configs / "sleigh-paper51.cfg")
    s_model = cli.build_model(s_cfg)
    s_problem = cli.build_problem(s_cfg, s_model)

    q_particle = p_problem.initial_state.q
    start = s_problem.initial_state
    zero_u = np.zeros(s_model.rank)
    shooting = pmp.ShootingSettings(
        inner_grid=TimeGrid(0.0, p_problem.horizon_T, p_cfg.solver.steps))
    zero_costate = pmp.Costate.zero(p_model)
    rollout = s_cfg.problem

    steps = s_cfg.solver.steps
    grid = TimeGrid(0.0, s_problem.horizon_T, steps)
    end = s_problem.reference(s_problem.horizon_T)
    s = np.linspace(0.0, 1.0, steps + 1)[:, None]
    guess = varint.DiscreteTrajectory(
        h=grid.h, times=grid.times(),
        q=(1 - s) * start.q + s * end.q, v=(1 - s) * start.v + s * end.v,
        multipliers=np.zeros((steps - 1, s_model.n)),
        controls=np.zeros((steps, s_model.rank)),
    )
    settings = varint.DelSettings(psi_variant=s_cfg.solver.psi_variant)

    return {
        "systems.christoffel": (
            "us", lambda: p_model.christoffel(q_particle)),
        "geometry.dynamics_rhs": (
            "us", lambda: dynamics_rhs(s_model, start, zero_u)),
        "pmp.shooting_residual": (
            "ms", lambda: pmp.shooting_residual(
                p_model, p_problem, zero_costate, shooting)),
        "pmp.RolloutReference": (
            "ms", lambda: pmp.RolloutReference(
                model=s_model,
                start=AdmissibleState(q=rollout.rollout_q, v=rollout.rollout_v),
                horizon=rollout.horizon_T, step=rollout.rollout_step)),
        "varint.del_residual": (
            "ms", lambda: varint.del_residual(s_model, s_problem, guess, settings)),
        "varint.diagnostics": (
            "ms", lambda: varint.diagnostics(
                s_model, s_problem, guess, psi_variant=settings.psi_variant)),
    }


def main() -> int:
    root = Path.cwd()
    if not (root / "src" / "nhtrack" / "cli.py").is_file():
        print("bench/micro.py: run it from the root of an nhtrack checkout",
              file=sys.stderr)
        return 2
    # pin BLAS threads as the CLI children are pinned, before numpy loads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(root / "src"))
    scale = {"us": 1e6, "ms": 1e3}
    results = {}
    for name, (unit, fn) in cases(root).items():
        value = per_call(fn) * scale[unit]
        results[name] = {"value": value, "unit": f"{unit}/call"}
        print(f"{name:24s} {value:10.3f} {unit}/call")
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
