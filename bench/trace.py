"""Outside-in tracer for one `nhtrack` CLI invocation.

Runs the CLI in this process after wrapping, from outside the package, the
public functions and callables where one layer calls the next:

- `cli.parse_config`, `cli.build_model`, `cli.build_problem`,
  `cli.run_experiment` and `cli.compare_experiment` (layer `cli`);
- the `SystemModel` callables returned by `cli.build_model`, swapped in with
  `dataclasses.replace` (layer `systems`);
- `TrackingProblem.reference`, swapped in by `cli.build_problem`, the
  `RolloutReference` constructor as `cli` bound it, `cli.solve_shooting`
  and the cost functions `cli` calls (layer `pmp`);
- `rk4_step` under each name a caller bound at import (`pmp.rk4_step`,
  `cli.rk4_step`, `ode.rk4_step`), together with the vector field each
  call receives (layer `ode`, fields in the caller's layer);
- `pmp.dynamics_rhs` and `cli.dynamics_rhs` (layer `geometry`);
- `cli.solve_del`, `cli.diagnostics` and `varint.del_residual` (`varint`).

Every wrapper adds to a per-name record [calls, total seconds, self
seconds]; self time is the wrapped call's duration minus the time its
wrapped children took.  The coarse spans (everything but the hot leaves)
are also kept as individual records (name, start, end, parent) and written
out with the totals at the end.  Wrappers pass arguments and results
through untouched, so the artifacts are byte-identical to an untraced run.

Usage (from the repository root, with src on the import path):

    python bench/trace.py OUT.json run --config X.cfg --out DIR
"""
from __future__ import annotations

import dataclasses
import json
import os
import sys
import time
from pathlib import Path

MODEL_CALLABLES = (
    "rho", "rho_jac", "christoffel", "christoffel_jac", "metric_d",
    "potential_grad", "annihilator",
)


class Tracer:
    """Per-name call counters and timers, coarse spans and solver counts."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}
        self.spans: list[tuple[str, float, float, int]] = []
        self.open_spans: dict[str, int] = {}
        self.values: dict[str, float] = {"pmp.flows": 0, "pmp.final_iters": 0,
                                         "varint.newton_iters": 0}
        self._child = [0.0]  # child-time accumulators of the open calls
        self._span_stack = [-1]  # indices into self.spans of the open spans
        self._fields: dict[object, object] = {}

    def wrap(self, name: str, fn, span: bool = False, on_result=None):
        """Time every call of fn under name; span=True also keeps a span
        record per call and tracks that the span is open."""
        rec = self.stats.setdefault(name, [0, 0.0, 0.0])
        child = self._child
        clock = time.perf_counter

        if not span:
            def timed(*args, **kwargs):
                child.append(0.0)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    inner = child.pop()
                    child[-1] += elapsed
                    rec[0] += 1
                    rec[1] += elapsed
                    rec[2] += elapsed - inner
            return timed

        spans, stack, open_spans = self.spans, self._span_stack, self.open_spans

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append((name, 0.0, 0.0, stack[-1]))
            stack.append(index)
            open_spans[name] = open_spans.get(name, 0) + 1
            child.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                inner = child.pop()
                child[-1] += elapsed
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - inner
                open_spans[name] -= 1
                stack.pop()
                spans[index] = (name, start, end, spans[index][3])
            if on_result is not None:
                on_result(result)
            return result
        return traced

    def wrap_rk4(self, caller: str, rk4_step, field_name: str):
        """Wrap one import-time binding of rk4_step; the field each call
        receives is timed under field_name.  A call at t = 0 inside
        solve_shooting starts one shooting flow."""
        fields = self._fields
        values, open_spans = self.values, self.open_spans

        def step(f, t, y, h):
            timed_f = fields.get(f)
            if timed_f is None:
                timed_f = fields[f] = self.wrap(field_name, f)
            if caller == "pmp" and t == 0.0 and open_spans.get("pmp.solve_shooting"):
                values["pmp.flows"] += 1
            return rk4_step(timed_f, t, y, h)
        return self.wrap(f"ode.rk4_step[{caller}]", step)

    def add_iterations(self, key: str, report) -> None:
        self.values[key] += report.iterations


def install(tracer: Tracer) -> None:
    """Install every wrapper on the imported nhtrack modules."""
    from nhtrack import cli, ode, pmp, varint

    def timed_model(model):
        return dataclasses.replace(model, **{
            name: tracer.wrap(f"systems.{name}", getattr(model, name))
            for name in MODEL_CALLABLES
            if getattr(model, name) is not None
        })

    def timed_problem(problem):
        return dataclasses.replace(
            problem, reference=tracer.wrap("pmp.reference", problem.reference)
        )

    build_model, build_problem = cli.build_model, cli.build_problem
    cli.build_model = tracer.wrap(
        "cli.build_model", lambda cfg: timed_model(build_model(cfg)), span=True)
    cli.build_problem = tracer.wrap(
        "cli.build_problem",
        lambda cfg, model: timed_problem(build_problem(cfg, model)), span=True)
    for name in ("parse_config", "run_experiment", "compare_experiment"):
        setattr(cli, name, tracer.wrap(f"cli.{name}", getattr(cli, name), span=True))

    cli.RolloutReference = tracer.wrap(
        "pmp.RolloutReference", cli.RolloutReference, span=True)
    cli.solve_shooting = tracer.wrap(
        "pmp.solve_shooting", cli.solve_shooting, span=True,
        on_result=lambda out: tracer.add_iterations("pmp.final_iters", out[2]))
    for name in ("running_cost", "trajectory_cost"):
        setattr(cli, name, tracer.wrap("pmp.cost", getattr(cli, name)))
    for name in ("restricted_energy", "constraint_residual"):
        setattr(cli, name, tracer.wrap("geometry.invariants", getattr(cli, name)))

    pmp.rk4_step = tracer.wrap_rk4("pmp", pmp.rk4_step, "pmp.field")
    cli.rk4_step = tracer.wrap_rk4("cli", cli.rk4_step, "cli.field")
    ode.rk4_step = tracer.wrap_rk4("ode", ode.rk4_step, "ode.integrate.field")
    for module in (pmp, cli):
        module.dynamics_rhs = tracer.wrap(
            f"geometry.dynamics_rhs[{module.__name__.rsplit('.', 1)[1]}]",
            module.dynamics_rhs)

    cli.solve_del = tracer.wrap(
        "varint.solve_del", cli.solve_del, span=True,
        on_result=lambda out: tracer.add_iterations("varint.newton_iters", out[1]))
    cli.diagnostics = tracer.wrap("varint.diagnostics", cli.diagnostics, span=True)
    varint.del_residual = tracer.wrap("varint.del_residual", varint.del_residual)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics from the traced totals."""
    stats = tracer.stats

    def calls(*names):
        return sum(stats[n][0] for n in names if n in stats)

    def total(*names):
        return sum((stats[n][1] for n in names if n in stats), 0.0)

    def self_s(*names):
        return sum((stats[n][2] for n in names if n in stats), 0.0)

    systems = [n for n in stats if n.startswith("systems.")]
    rk4 = [n for n in stats if n.startswith("ode.rk4_step[")]
    rhs = [n for n in stats if n.startswith("geometry.dynamics_rhs[")]
    experiments = ("cli.run_experiment", "cli.compare_experiment")
    residuals = calls("varint.del_residual")
    trials = residuals - calls("varint.solve_del")
    iters = tracer.values["varint.newton_iters"]
    return {
        "systems.calls": calls(*systems),
        "systems.self_s": self_s(*systems),
        **{f"systems.{name}.calls": calls(f"systems.{name}")
           for name in ("christoffel", "potential_grad", "rho", "christoffel_jac")},
        "pmp.solve_shooting.s": total("pmp.solve_shooting"),
        "pmp.solve_shooting.self_s": self_s("pmp.solve_shooting"),
        "pmp.field.calls": calls("pmp.field"),
        "pmp.field.self_s": self_s("pmp.field"),
        "pmp.flows": tracer.values["pmp.flows"],
        "pmp.final_iters": tracer.values["pmp.final_iters"],
        "pmp.reference.calls": calls("pmp.reference"),
        "pmp.reference.self_s": self_s("pmp.reference"),
        "pmp.rollout_build_s": total("pmp.RolloutReference"),
        "ode.rk4_step.calls": calls(*rk4),
        "ode.rk4_step.self_s": self_s(*rk4),
        "geometry.dynamics_rhs.calls": calls(*rhs),
        "geometry.dynamics_rhs.self_s": self_s(*rhs),
        "varint.solve_del.s": total("varint.solve_del"),
        "varint.solve_del.self_s": self_s("varint.solve_del"),
        "varint.newton_iters": iters,
        "varint.del_residual.calls": residuals,
        "varint.del_residual.self_s": self_s("varint.del_residual"),
        "varint.step_accept_ratio": iters / trials if trials > 0 else 0.0,
        "varint.diagnostics.s": total("varint.diagnostics"),
        "cli.parse_config_s": total("cli.parse_config"),
        "cli.build_problem_s": total("cli.build_problem"),
        "cli.reintegrate_s": total("ode.rk4_step[cli]"),
        "cli.artifacts.self_s": self_s(*experiments),
    }


def main(argv: list[str]) -> int:
    out_json, cli_args = Path(argv[0]), argv[1:]
    sys.path.insert(0, str(Path("src").resolve()))
    from nhtrack import cli

    tracer = Tracer()
    install(tracer)
    start = time.perf_counter()
    try:
        cli.main(cli_args, prog_name="nhtrack")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    else:
        code = 0
    wall = time.perf_counter() - start
    record = {
        "exit_code": code,
        "wall_s": wall,
        "trace_id": f"{os.getpid()}-{start:.6f}",
        "metrics": layer_metrics(tracer),
        "totals": {name: {"calls": c, "total_s": t, "self_s": s}
                   for name, (c, t, s) in sorted(tracer.stats.items())},
        "spans": [{"name": n, "start": s, "end": e, "parent": p}
                  for n, s, e, p in tracer.spans],
    }
    out_json.write_text(json.dumps(record, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
