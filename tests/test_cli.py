"""Command-line layer: config parsing and canonical echo, artifact layout
and byte stability, exit-code contract, the compare pipeline, and the
structural check suite."""
from __future__ import annotations

import configparser
import dataclasses
import math
import re
import textwrap
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import invoke

from nhtrack import cli, pmp
from nhtrack.cli import (
    CompareBlock,
    ConfigError,
    ExperimentConfig,
    OutputBlock,
    ProblemBlock,
    SolverBlock,
    SystemBlock,
    compare_experiment,
    config_text,
    model_checks,
    parse_config,
    run_experiment,
)
from nhtrack.pmp import (
    FlowDivergedError,
    RolloutReference,
    ShootingSettings,
    SingularJacobianError,
)
from nhtrack.problem import AnalyticReference, TrackingProblem
from nhtrack.systems import SleighParams, particle_model, resolve_system
from nhtrack.ode import IntegrationError
from nhtrack.varint import DelSettings, DiscreteTrajectory, RegularityError

BUNDLED = Path(__file__).resolve().parents[1] / "src" / "nhtrack" / "configs"


def write_cfg(tmp_path: Path, name: str, body: str) -> Path:
    path = tmp_path / name
    path.write_text(textwrap.dedent(body), encoding="utf-8")
    return path


def equilibrium_cfg(tmp_path: Path, **extra_solver) -> Path:
    solver_lines = "\n".join(f"{k} = {v}" for k, v in extra_solver.items())
    return write_cfg(
        tmp_path, "equilibrium.cfg",
        f"""\
        [system]
        preset = particle

        [problem]
        reference = analytic
        q_base = 0.0 2.0 0.0
        q_slope = 0.0 0.0 0.0
        v_base = 0.0 0.0
        v_slope = 0.0 0.0
        initial_q = 0.0 2.0 0.0
        initial_v = 0.0 0.0
        horizon_T = 1.0
        epsilon = 2.0
        terminal_mode = hard

        [solver]
        method = variational
        newton_tol = 1e-10
        steps = 4
        {solver_lines}

        [output]
        precision = 17
        """,
    )


class TestParsing:
    def test_bundled_configs_parse_and_round_trip(self, tmp_path):
        for name in ("particle-case2.cfg", "sleigh-paper51.cfg"):
            cfg = parse_config(BUNDLED / name)
            echoed = write_cfg(tmp_path, f"echo-{name}", config_text(cfg))
            assert parse_config(echoed) == cfg

    @pytest.mark.parametrize(
        "path", sorted(BUNDLED.glob("*.cfg")), ids=lambda path: path.name
    )
    def test_bundled_config_sets_no_key_its_route_ignores(self, path):
        parser = configparser.ConfigParser(interpolation=None)
        parser.read(path, encoding="utf-8")
        keys = {(name, key) for name in parser.sections() for key in parser[name]}
        assert keys & set(cli._unread(parse_config(path))) == set()

    @pytest.mark.parametrize("name, expected", [
        ("particle-case2.cfg", """\
            [system]
            preset = particle

            [problem]
            reference = analytic
            q_base = 1.0 0.0 1.0
            q_slope = 0.0 0.0 1.0
            v_base = 0.0 1.0
            v_slope = 0.0 0.0
            initial_q = 0.5 0.2 0.7
            initial_v = 0.5 0.4
            horizon_T = 4.0
            epsilon = 7.0
            omega = 1.0
            lambda0 = 1.0
            state_weight = 1.0
            terminal_mode = mayer

            [solver]
            method = pmp-shooting
            newton_tol = 1e-08
            max_iters = 50
            steps = 400
            continuation = none

            [output]
            precision = 17
            """),
        ("sleigh-paper51.cfg", """\
            [system]
            preset = sleigh:custom
            mass_m = 1.0
            inertia_J = 4.0
            offset_a = 0.2

            [problem]
            reference = rollout
            rollout_q = 0.0 0.5 0.0
            rollout_v = 0.3333333333333333 1.0
            rollout_step = 0.01
            initial_q = 0.0 0.0 4.1887902047863905
            initial_v = 0.25 1.0
            horizon_T = 5.0
            epsilon = 1.0
            omega = 1.0
            lambda0 = 1.0
            state_weight = 1.0
            terminal_mode = hard

            [solver]
            method = variational
            newton_tol = 1e-10
            max_iters = 100
            steps = 50
            psi_variant = midpoint
            enforce_first_interval = no

            [output]
            precision = 17
            """),
    ])
    def test_echo_layout_of_the_bundled_configs(self, name, expected):
        """The echo's key order is the block field order, and every
        report.txt carries it: a reordered field would move them all."""
        assert config_text(parse_config(BUNDLED / name)) == textwrap.dedent(expected)

    def test_echo_leaves_out_continuation_stages_without_a_ladder(self, tmp_path):
        cfg = parse_config(BUNDLED / "particle-case2.cfg")
        assert cfg.solver.continuation == "none"
        assert "continuation_stages" not in config_text(cfg)
        ladder = cfg._replace(solver=cfg.solver._replace(continuation="horizon"))
        echo = config_text(ladder)
        assert "continuation_stages = 4\n" in echo
        assert parse_config(write_cfg(tmp_path, "ladder.cfg", echo)) == ladder
        # the same rule for compare's pmp_steps, which only pmp = yes reads
        off = cfg._replace(compare=CompareBlock(pmp=False, pmp_steps=50))
        assert "pmp_steps" not in config_text(off)
        on = cfg._replace(compare=CompareBlock(pmp=True, pmp_steps=50))
        assert "[compare]\npmp = yes\npmp_steps = 50\n" in config_text(on)

    def test_echo_is_idempotent(self, tmp_path):
        cfg = parse_config(BUNDLED / "sleigh-paper51.cfg")
        once = config_text(cfg)
        echoed = write_cfg(tmp_path, "echo.cfg", once)
        assert config_text(parse_config(echoed)) == once

    def test_missing_file(self):
        # the caller names the file, so the message does not
        with pytest.raises(ConfigError, match="^config file not found$"):
            parse_config("/nonexistent/path.cfg")

    def test_a_path_that_cannot_be_opened_is_named_for_what_it_is(self, tmp_path):
        """parse_config opens the file itself, so a path that exists but
        cannot be read is not reported as a missing file."""
        with pytest.raises(ConfigError, match="^config file is a directory$"):
            parse_config(tmp_path)
        (tmp_path / "file").write_text("", encoding="utf-8")
        with pytest.raises(
            ConfigError, match="^config file cannot be read: Not a directory$"
        ):
            parse_config(tmp_path / "file" / "run.cfg")

    def test_missing_section(self, tmp_path):
        path = write_cfg(tmp_path, "bad.cfg", "[system]\npreset = particle\n")
        with pytest.raises(ConfigError, match=r"missing \[problem\]"):
            parse_config(path)

    def test_epsilon_zero_cites_singular_exclusion(self, tmp_path):
        path = write_cfg(
            tmp_path, "eps0.cfg",
            """\
            [system]
            preset = particle
            [problem]
            reference = analytic
            q_base = 0 0 0
            q_slope = 0 0 0
            v_base = 0 0
            v_slope = 0 0
            initial_q = 0 0 0
            initial_v = 0 0
            epsilon = 0
            [solver]
            method = pmp-shooting
            """,
        )
        with pytest.raises(ConfigError, match="singular"):
            cli._build(parse_config(path))

    def test_rejects_parameters_on_fixed_presets(self, tmp_path):
        path = write_cfg(
            tmp_path, "fixed.cfg",
            """\
            [system]
            preset = particle
            mass_m = 2.0
            [problem]
            reference = analytic
            q_base = 0 0 0
            q_slope = 0 0 0
            v_base = 0 0
            v_slope = 0 0
            initial_q = 0 0 0
            initial_v = 0 0
            [solver]
            method = pmp-shooting
            """,
        )
        cfg = parse_config(path)
        with pytest.raises(ConfigError, match="sleigh:custom only"):
            cli._build(cfg)

    def test_unknown_key_is_named(self, tmp_path):
        text = equilibrium_cfg(tmp_path).read_text()
        path = write_cfg(
            tmp_path, "typo.cfg", text.replace("epsilon = 2.0", "epsilonn = 0.5")
        )
        with pytest.raises(ConfigError, match=r"\[problem\].*epsilonn"):
            parse_config(path)

    def test_unknown_section_is_named(self, tmp_path):
        text = equilibrium_cfg(tmp_path).read_text()
        path = write_cfg(tmp_path, "extra.cfg", text + "\n[plot]\nstyle = dots\n")
        with pytest.raises(ConfigError, match=r"unknown section \[plot\]"):
            parse_config(path)

    def test_variational_needs_steps(self, tmp_path):
        path = write_cfg(
            tmp_path, "nosteps.cfg",
            """\
            [system]
            preset = particle
            [problem]
            reference = analytic
            q_base = 0 0 0
            q_slope = 0 0 0
            v_base = 0 0
            v_slope = 0 0
            initial_q = 0 0 0
            initial_v = 0 0
            [solver]
            method = variational
            """,
        )
        with pytest.raises(ConfigError, match="steps"):
            parse_config(path)

    def test_bad_enum_values(self, tmp_path):
        base = """\
            [system]
            preset = particle
            [problem]
            reference = {reference}
            q_base = 0 0 0
            q_slope = 0 0 0
            v_base = 0 0
            v_slope = 0 0
            initial_q = 0 0 0
            initial_v = 0 0
            [solver]
            {solver}
            """
        # cli's own choices fail the parse; a route's fail its settings,
        # built by _build on a config whose method reads the key
        for key, value, solver in (
            ("reference", "spline", ()),
            ("method", "collocation", ()),
            ("continuation", "arclength", ()),
            ("psi_variant", "trapezoid", ("method = variational", "steps = 10")),
        ):
            if key != "reference":
                solver += (f"{key} = {value}",)
            text = base.format(
                reference=value if key == "reference" else "analytic",
                solver="\n            ".join(solver),
            )
            path = write_cfg(tmp_path, f"{key}.cfg", text)
            with pytest.raises(ConfigError, match=rf"^{key} must be one of .*{value}"):
                cli._build(parse_config(path))

    def test_required_keys_only_parse_to_block_defaults(self, tmp_path):
        path = write_cfg(
            tmp_path, "minimal.cfg",
            """\
            [system]
            [problem]
            q_base = 1 2 3
            q_slope = 0 0 1
            v_base = 0 1
            v_slope = 0 0
            initial_q = 0.5 0.2 0.7
            initial_v = 0.5 0.4
            [solver]
            """,
        )
        problem = ProblemBlock(
            q_base=(1.0, 2.0, 3.0), q_slope=(0.0, 0.0, 1.0),
            v_base=(0.0, 1.0), v_slope=(0.0, 0.0),
            initial_q=(0.5, 0.2, 0.7), initial_v=(0.5, 0.4),
        )
        assert parse_config(path) == ExperimentConfig(
            system=SystemBlock(), problem=problem,
            solver=SolverBlock(newton_tol=1e-8, max_iters=50),
            output=OutputBlock(), compare=CompareBlock(),
        )

    def test_unset_newton_keys_take_the_variational_defaults(self, tmp_path):
        """A variational config without newton_tol and max_iters solves,
        and echoes, with DelSettings' defaults, not the shooting ones."""
        path = write_cfg(
            tmp_path, "variational.cfg",
            """\
            [system]
            [problem]
            q_base = 1 2 3
            q_slope = 0 0 1
            v_base = 0 1
            v_slope = 0 0
            initial_q = 0.5 0.2 0.7
            initial_v = 0.5 0.4
            terminal_mode = hard
            [solver]
            method = variational
            steps = 4
            """,
        )
        cfg = parse_config(path)
        assert (cfg.solver.newton_tol, cfg.solver.max_iters) == (1e-10, 100)
        echo = config_text(cfg)
        assert "newton_tol = 1e-10\n" in echo and "max_iters = 100\n" in echo
        echoed = write_cfg(tmp_path, "echo.cfg", echo)
        assert parse_config(echoed) == cfg

    @pytest.mark.parametrize("settings", [ShootingSettings, DelSettings])
    def test_every_solver_setting_is_a_config_key(self, settings):
        """A settings field no [solver] key reaches is a knob without a
        caller; inner_grid is the one exception, which steps sets."""
        keys = set(SolverBlock._fields) | {"inner_grid"}
        fields = {f.name for f in dataclasses.fields(settings)}
        assert fields <= keys, sorted(fields - keys)

    @pytest.mark.parametrize("section, records", [
        ("system", [SleighParams]),
        ("problem", [AnalyticReference, TrackingProblem]),
        ("solver", [ShootingSettings, DelSettings]),
    ])
    def test_a_config_key_sets_the_library_field_of_its_name(self, section, records):
        """cli builds each record from the keys named like its fields, so a
        key that is neither such a field nor one that cli reads itself
        (cli.CLI_KEYS) would be accepted and never read, as a renamed
        library field with a default would leave its key."""
        fields = {f.name for record in records for f in dataclasses.fields(record)}
        keys = set(cli.SECTIONS[section]._fields)
        unread = keys - set(cli.CLI_KEYS) - fields
        assert not unread, sorted(unread)
        known = {key for block in cli.SECTIONS.values() for key in block._fields}
        assert set(cli.CLI_KEYS) <= known

    @pytest.mark.parametrize(
        "old, new",
        [("newton_tol = 1e-10", "newton_tol = nan"),
         ("initial_q = 0.0 2.0 0.0", "initial_q = 0 nan 0")],
    )
    def test_nonfinite_numbers_are_named(self, tmp_path, old, new):
        text = equilibrium_cfg(tmp_path).read_text()
        path = write_cfg(tmp_path, "nan.cfg", text.replace(old, new))
        key = new.split(" = ")[0]
        with pytest.raises(ConfigError, match=rf"^{key}: .* is not finite"):
            parse_config(path)

    @pytest.mark.parametrize("text, message", [
        ("[system]\npreset = particle\npreset = sleigh\n",
         "line 3: option 'preset' in section 'system' already exists"),
        ("[system]\n[system]\n", "line 2: section 'system' already exists"),
        ("preset = particle\n[system]\n", "line 1: comes before any [section] header"),
        ("[system]\npreset particle\n", "line 2: cannot parse 'preset particle\\n'"),
    ], ids=["repeated-option", "repeated-section", "no-section", "no-delimiter"])
    def test_malformed_file_is_named(self, tmp_path, text, message):
        """configparser's own text spans lines and names the file; the
        Error line names it once, with a one-line message after it."""
        path = write_cfg(tmp_path, "malformed.cfg", text)
        message = f"malformed config file, {message}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config(path)
        result = invoke(["run", "--config", str(path), "--out", str(tmp_path)])
        assert result.exit_code == 1
        assert result.output == f"Error: {path}: {message}\n"

    def test_percent_in_a_value_is_literal(self, tmp_path):
        text = equilibrium_cfg(tmp_path).read_text()
        path = write_cfg(
            tmp_path, "percent.cfg",
            text.replace("precision = 17", "precision = 17\ndirectory = runs%1"),
        )
        assert parse_config(path).output.directory == "runs%1"


class TestRunCommand:
    def test_sleigh_bundled_run(self, tmp_path):
        result = invoke(
            ["run", "--config", str(BUNDLED / "sleigh-paper51.cfg"),
             "--out", str(tmp_path)],
        )
        assert result.exit_code == 0, result.output
        out = tmp_path / "sleigh-paper51"
        assert (out / "trajectory.csv").exists()
        assert (out / "diagnostics.csv").exists()
        report = (out / "report.txt").read_text()
        assert "final node equals reference endpoint: yes" in report
        assert "converged: yes" in report

        header = (out / "trajectory.csv").read_text().splitlines()[0]
        assert header == "t,q1,q2,q3,v1,v2,u1,u2,lam1,lam2,lam3"
        diag_header = (out / "diagnostics.csv").read_text().splitlines()[0]
        assert diag_header == "t,cost,action,energy,constraint_residual"

    def test_particle_bundled_run_reports_terminal_error(self, tmp_path):
        result = invoke(
            ["run", "--config", str(BUNDLED / "particle-case2.cfg"),
             "--out", str(tmp_path)],
        )
        assert result.exit_code == 0, result.output
        report = (tmp_path / "particle-case2" / "report.txt").read_text()
        assert "terminal tracking error" in report
        header = (
            tmp_path / "particle-case2" / "trajectory.csv"
        ).read_text().splitlines()[0]
        assert header == "t,q1,q2,q3,v1,v2,u1,u2,lam1,lam2,lam3,mu1,mu2"

    def test_particle_bundled_config_converges_without_a_ladder(
        self, tmp_path, monkeypatch
    ):
        """particle-case2.cfg runs without a ladder: one segmented Newton
        solve from a zero costate, within a budget, to the initial costate
        of the horizon ladder's solve within 1e-8."""
        budget = 5.0
        cfg = parse_config(BUNDLED / "particle-case2.cfg")
        assert cfg.solver.continuation == "none"
        horizons = []  # of each Newton solve
        newton_shoot = pmp._newton_shoot

        def counted(model, problem, *args):
            horizons.append(problem.horizon_T)
            return newton_shoot(model, problem, *args)

        monkeypatch.setattr(pmp, "_newton_shoot", counted)
        t0 = time.perf_counter()
        assert run_experiment(cfg, tmp_path / "none") == 0
        assert time.perf_counter() - t0 < budget
        assert horizons == [4.0]
        ladder = cfg._replace(solver=cfg.solver._replace(continuation="horizon"))
        assert run_experiment(ladder, tmp_path / "ladder") == 0
        assert horizons == [4.0, 1.0, 2.0, 3.0, 4.0]

        def costate_at_0(out):
            row = (out / "trajectory.csv").read_text().splitlines()[1]
            return np.array([float(x) for x in row.split(",")])[8:]

        np.testing.assert_allclose(
            costate_at_0(tmp_path / "none"), costate_at_0(tmp_path / "ladder"),
            rtol=0, atol=1e-8,
        )

    @pytest.mark.parametrize(
        "horizon, epsilon", [(4.0, 3e-4), (12.0, 0.01), (12.0, 1e-3)]
    )
    def test_hard_terminal_particle_shoots_at_a_small_control_weight(
        self, tmp_path, horizon, epsilon
    ):
        """The bundled particle pinned at T (terminal_mode = hard, 100 steps
        per time unit, max_iters = 20) converges by `run` from a zero
        costate at control weights where 25 segments failed (no convergence
        in 20 iterations, or a start point whose flow diverged), within
        1.35 s: half of what the T = 12, epsilon = 1e-3 solve took with a
        dense Newton step on 300 segments."""
        text = (BUNDLED / "particle-case2.cfg").read_text(encoding="utf-8")
        for key, value in [("horizon_T", horizon), ("epsilon", epsilon),
                           ("terminal_mode", "hard"), ("steps", round(100 * horizon)),
                           ("max_iters", 20)]:
            text = re.sub(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
        path = tmp_path / "hard.cfg"
        path.write_text(text, encoding="utf-8")
        t0 = time.perf_counter()
        result = invoke(["run", "--config", str(path), "--out", str(tmp_path)])
        elapsed = time.perf_counter() - t0
        assert result.exit_code == 0, result.output
        report = (tmp_path / "hard" / "report.txt").read_text(encoding="utf-8")
        assert "converged: yes" in report and "continuation = none" in report
        assert elapsed < 1.35, f"T = {horizon:g}, epsilon = {epsilon:g}: {elapsed:.2f} s"

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = parse_config(BUNDLED / "sleigh-paper51.cfg")
        first = tmp_path / "a"
        second = tmp_path / "b"
        assert run_experiment(cfg, first) == 0
        assert run_experiment(cfg, second) == 0
        for name in ("trajectory.csv", "diagnostics.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_csv_precision_round_trips(self, tmp_path):
        cfg = parse_config(BUNDLED / "sleigh-paper51.cfg")
        out = tmp_path / "run"
        run_experiment(cfg, out)
        lines = (out / "trajectory.csv").read_text().splitlines()
        parsed = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])

        from nhtrack.cli import build_model, build_problem
        from nhtrack.ode import TimeGrid
        from nhtrack.varint import DelSettings, solve_del

        model = build_model(cfg)
        problem = build_problem(cfg, model)
        traj, _ = solve_del(
            model, problem, TimeGrid(0.0, 5.0, 50),
            DelSettings(newton_tol=cfg.solver.newton_tol,
                        max_iters=cfg.solver.max_iters),
        )
        assert np.array_equal(parsed[:, 1:4], traj.q)
        assert np.array_equal(parsed[:, 4:6], traj.v)

    @pytest.mark.parametrize("precision", range(1, 18))
    def test_csv_values_are_spelled_by_format(self, tmp_path, precision):
        rng = np.random.default_rng(precision)
        special = [
            0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308,
            math.inf, -math.inf, math.nan, 1.0, -1.5, 0.1, 1e16, 123456789.0,
        ]
        scales = 10.0 ** rng.integers(-300, 300, 13)
        rows = np.vstack([special, rng.normal(size=13) * scales])
        header = [f"c{j}" for j in range(13)]
        cli._write_csv(tmp_path / "x.csv", header, rows, precision)
        expected = [",".join(header)] + [
            ",".join(format(float(x), f".{precision}g") for x in row) for row in rows
        ]
        assert (tmp_path / "x.csv").read_text() == "\n".join(expected) + "\n"

    def test_epsilon_zero_exits_one(self, tmp_path):
        path = write_cfg(
            tmp_path, "eps0.cfg",
            """\
            [system]
            preset = particle
            [problem]
            reference = analytic
            q_base = 0 0 0
            q_slope = 0 0 0
            v_base = 0 0
            v_slope = 0 0
            initial_q = 0 0 0
            initial_v = 0 0
            epsilon = 0
            [solver]
            method = pmp-shooting
            """,
        )
        result = invoke(["run", "--config", str(path)])
        assert result.exit_code == 1
        assert "singular" in result.output

    @pytest.mark.parametrize(
        "config, line, key",
        [
            pytest.param("particle-case2", "omega = -1.0", "omega",
                         id="omega = -1.0-omega"),
            pytest.param("particle-case2", "continuation_stages = 0",
                         "continuation_stages",
                         id="continuation_stages = 0-continuation_stages"),
            pytest.param("particle-case2", "initial_q = 0.5 0.2", "initial_q",
                         id="initial_q = 0.5 0.2-initial_q"),
            ("particle-case2", "continuation = terminal-weight", "continuation"),
            ("sleigh-paper51", "terminal_mode = mayer", "terminal_mode"),
            ("sleigh-paper51", "steps = 1", "steps"),
            pytest.param("sleigh-paper51", "[compare]\npmp = yes\npmp_steps = -3",
                         "pmp_steps", id="sleigh-paper51-pmp_steps = -3-pmp_steps"),
            pytest.param("sleigh-paper51", "[compare]\npmp = yes\npmp_steps = 0",
                         "pmp_steps", id="sleigh-paper51-pmp_steps = 0-pmp_steps"),
            ("sleigh-paper51", "enforce_first_interval = maybe",
             "enforce_first_interval"),
            ("sleigh-paper51", "reference = analytic", "reference"),
            ("particle-case2", "epsilon = abc", "epsilon"),
            ("particle-case2", "initial_q =", "initial_q"),
            ("particle-case2", "precision = 18", "precision"),
            ("particle-case2", "preset = sleigh:nosuch", "preset"),
        ],
    )
    def test_rejected_value_exits_one_without_artifacts(
        self, tmp_path, config, line, key
    ):
        text = (BUNDLED / f"{config}.cfg").read_text()
        lines = [
            line if old.startswith(f"{key} =") else old
            for old in text.splitlines()
        ]
        if line not in lines:  # a key the bundled config leaves out
            lines.append(line)
        path = write_cfg(tmp_path, "bad.cfg", "\n".join(lines) + "\n")
        result = invoke(
            ["run", "--config", str(path), "--out", str(tmp_path / "out")]
        )
        assert result.exit_code == 1, result.output
        assert key in result.output
        assert isinstance(result.exception, SystemExit)
        assert not (tmp_path / "out").exists()

    def test_nonconvergence_exits_two_with_artifacts(self, tmp_path):
        cfg_path = write_cfg(
            tmp_path, "hopeless.cfg",
            """\
            [system]
            preset = sleigh:paper-5.1

            [problem]
            reference = rollout
            rollout_q = 0.0 0.5 0.0
            rollout_v = 0.3333333333333333 1.0
            initial_q = 0.0 0.0 4.1887902047863905
            initial_v = 0.25 1.0
            horizon_T = 5.0
            epsilon = 1.0
            terminal_mode = hard

            [solver]
            method = variational
            steps = 50
            max_iters = 1
            newton_tol = 1e-10
            """,
        )
        result = invoke(
            ["run", "--config", str(cfg_path), "--out", str(tmp_path)]
        )
        assert result.exit_code == 2
        out = tmp_path / "hopeless"
        assert (out / "trajectory.csv").exists()
        assert (out / "diagnostics.csv").exists()
        assert "converged: no" in (out / "report.txt").read_text()

    def test_runs_multiple_configs(self, tmp_path):
        first = equilibrium_cfg(tmp_path)
        second = write_cfg(
            tmp_path, "second.cfg",
            (BUNDLED / "sleigh-paper51.cfg").read_text(),
        )
        result = invoke(
            ["run", "--config", str(first), "--config", str(second),
             "--out", str(tmp_path / "multi")],
        )
        assert result.exit_code == 0, result.output
        assert (tmp_path / "multi" / "equilibrium" / "trajectory.csv").exists()
        assert (tmp_path / "multi" / "second" / "trajectory.csv").exists()

    def test_config_error_skips_only_that_config(self, tmp_path):
        bad = write_cfg(
            tmp_path, "bad.cfg",
            equilibrium_cfg(tmp_path).read_text().replace(
                "epsilon = 2.0", "epsilon = 2.0\nomega = -1.0"
            ),
        )
        good = equilibrium_cfg(tmp_path)
        result = invoke(
            ["run", "--config", str(bad), "--config", str(good),
             "--out", str(tmp_path / "multi")],
        )
        assert result.exit_code == 1, result.output
        assert f"Error: {bad}: " in result.output
        assert "omega" in result.output
        assert isinstance(result.exception, SystemExit)
        assert not (tmp_path / "multi" / "bad").exists()
        for name in ("trajectory.csv", "diagnostics.csv", "report.txt"):
            assert (tmp_path / "multi" / "equilibrium" / name).exists()

    def test_malformed_config_skips_only_that_config(self, tmp_path):
        """A file configparser cannot read (here a duplicate key) is a
        config error like any other: the bundled config after it still
        runs."""
        bad = write_cfg(
            tmp_path, "dup.cfg", "[system]\npreset = particle\npreset = sleigh\n"
        )
        result = invoke(
            ["run", "--config", str(bad),
             "--config", str(BUNDLED / "particle-case2.cfg"),
             "--out", str(tmp_path / "multi")],
        )
        assert result.exit_code == 1, result.output
        assert f"Error: {bad}: " in result.output
        assert isinstance(result.exception, SystemExit)
        for name in ("trajectory.csv", "diagnostics.csv", "report.txt"):
            assert (tmp_path / "multi" / "particle-case2" / name).exists()

    def test_same_stem_configs_are_rejected(self, tmp_path):
        """Two configs bound for one artifact directory stop the command
        before either runs."""
        text = equilibrium_cfg(tmp_path).read_text()
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        first = write_cfg(tmp_path / "a", "x.cfg", text)
        second = write_cfg(tmp_path / "b", "x.cfg", text)
        result = invoke(
            ["run", "--config", str(first), "--config", str(second),
             "--out", str(tmp_path / "multi")],
        )
        assert result.exit_code == 1, result.output
        errors = [line for line in result.output.splitlines()
                  if line.startswith("Error:")]
        assert len(errors) == 1
        assert str(first) in errors[0] and str(second) in errors[0]
        assert isinstance(result.exception, SystemExit)
        assert not (tmp_path / "multi").exists()


    def test_unwritable_artifact_directory_skips_only_that_config(self, tmp_path):
        """A file where the first config's artifact directory goes is an
        error of that config, exit 1: the config after it still runs."""
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / "particle-case2").write_text("in the way\n")
        good = equilibrium_cfg(tmp_path)
        result = invoke(
            ["run", "--config", str(BUNDLED / "particle-case2.cfg"),
             "--config", str(good), "--out", str(tmp_path / "out")],
        )
        assert result.exit_code == 1, result.output
        assert f"Error: {BUNDLED / 'particle-case2.cfg'}: " in result.output
        assert isinstance(result.exception, SystemExit)
        for name in ("trajectory.csv", "diagnostics.csv", "report.txt"):
            assert (tmp_path / "out" / "equilibrium" / name).exists()

    def test_config_that_is_not_utf8_skips_only_that_config(self, tmp_path):
        """A config file with a Latin-1 byte is an error naming that file,
        exit 1: the config after it still runs."""
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(b"# caf\xe9\n[system]\npreset = particle\n")
        good = equilibrium_cfg(tmp_path)
        result = invoke(
            ["run", "--config", str(bad), "--config", str(good),
             "--out", str(tmp_path / "out")],
        )
        assert result.exit_code == 1, result.output
        errors = [line for line in result.output.splitlines()
                  if line.startswith("Error:")]
        assert len(errors) == 1 and "not UTF-8" in errors[0]
        assert str(bad) in errors[0]
        assert isinstance(result.exception, SystemExit)
        for name in ("trajectory.csv", "diagnostics.csv", "report.txt"):
            assert (tmp_path / "out" / "equilibrium" / name).exists()

    @pytest.mark.parametrize(
        "solver, error, config",
        [
            ("solve_del", RegularityError("singular block"), "equilibrium"),
            ("solve_shooting", SingularJacobianError(), "particle-case2"),
            ("solve_shooting", FlowDivergedError(0.5), "particle-case2"),
            ("solve_del", IntegrationError(2, 0.5), "equilibrium"),
            ("solve_shooting", OverflowError("math range error"), "particle-case2"),
        ],
    )
    def test_numerical_failure_exits_two_with_artifacts(
        self, tmp_path, monkeypatch, solver, error, config
    ):
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, solver, fail)
        if config == "equilibrium":
            path = equilibrium_cfg(tmp_path)
        else:
            path = BUNDLED / f"{config}.cfg"
        result = invoke(
            ["run", "--config", str(path), "--out", str(tmp_path / "out")]
        )
        assert result.exit_code == 2, result.output
        out = tmp_path / "out" / config
        assert (out / "trajectory.csv").exists()
        assert (out / "diagnostics.csv").exists()
        assert f"solver failure: {error}" in (out / "report.txt").read_text()


class TestCompareCommand:
    def test_zero_control_series_identical(self, tmp_path):
        cfg = parse_config(equilibrium_cfg(tmp_path))
        out = tmp_path / "cmp"
        assert compare_experiment(cfg, out) == 0
        lines = (out / "compare.csv").read_text().splitlines()
        header = lines[0].split(",")
        rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        solve_cols = [i for i, name in enumerate(header) if name.endswith("_solve")]
        reint_cols = [i for i, name in enumerate(header) if name.endswith("_reint")]
        assert np.array_equal(rows[:, solve_cols], rows[:, reint_cols])
        report = (out / "report.txt").read_text()
        assert "rounding level" in report

    def test_cross_method_cost_block(self, tmp_path):
        cfg_path = write_cfg(
            tmp_path, "mild.cfg",
            """\
            [system]
            preset = particle

            [problem]
            reference = analytic
            q_base = 0.0 0.5 0.0
            q_slope = 0.0 0.3 0.0
            v_base = 0.3 0.0
            v_slope = 0.0 0.0
            initial_q = 0.0 0.5 0.0
            initial_v = 0.3 0.0
            horizon_T = 1.0
            epsilon = 1.0
            terminal_mode = hard

            [solver]
            method = variational
            newton_tol = 1e-10
            steps = 10

            [compare]
            pmp = yes
            pmp_steps = 100
            """,
        )
        result = invoke(
            ["compare", "--config", str(cfg_path), "--out", str(tmp_path)]
        )
        assert result.exit_code == 0, result.output
        report = (tmp_path / "mild" / "report.txt").read_text()
        assert "[cross-method]" in report
        assert "variational cost" in report
        assert "shooting cost" in report

    @pytest.mark.parametrize("pmp_steps, rel", [(None, 1e-8), (101, 1e-4)])
    def test_sleigh_cross_method_shooting_needs_no_ladder(
        self, tmp_path, pmp_steps, rel
    ):
        """compare with pmp = yes on the bundled sleigh config: the shooting
        side, with no continuation, converges within a budget to the cost
        the terminal-weight ladder reached (17.9084170474, the branch with
        theta(T) = 0.734 + 2 pi).  101 steps, a prime, cut into uneven
        segments, converge too, to that cost within the coarser grid's
        error."""
        budget = 30.0
        cfg = parse_config(BUNDLED / "sleigh-paper51.cfg")
        cfg = cfg._replace(compare=CompareBlock(pmp=True, pmp_steps=pmp_steps))
        t0 = time.perf_counter()
        compare_experiment(cfg, tmp_path / "out")
        assert time.perf_counter() - t0 < budget
        report = (tmp_path / "out" / "report.txt").read_text()
        assert re.search(r"^shooting: converged yes in \d+ iterations$", report, re.M)
        cost = float(re.search(
            r"^shooting cost \(Simpson running-cost integral\): (\S+)$", report, re.M
        ).group(1))
        assert cost == pytest.approx(17.9084170474, rel=rel)

    def test_enforced_first_interval_reintegrates_from_node_zero(self, tmp_path):
        """With interval 0 enforced the re-integration starts at node 0, so
        compare.csv holds all N + 1 nodes and its first row starts both
        series from the same state."""
        cfg_path = write_cfg(
            tmp_path, "enforced.cfg",
            """\
            [system]
            preset = particle

            [problem]
            reference = analytic
            q_base = 0.0 0.5 0.0
            q_slope = 0.0 0.3 0.0
            v_base = 0.3 0.0
            v_slope = 0.0 0.0
            initial_q = 0.0 0.5 0.0
            initial_v = 0.3 0.0
            horizon_T = 1.0
            epsilon = 1.0
            terminal_mode = hard

            [solver]
            method = variational
            newton_tol = 1e-10
            steps = 10
            enforce_first_interval = yes
            """,
        )
        assert compare_experiment(parse_config(cfg_path), tmp_path / "cmp") == 0
        report = (tmp_path / "cmp" / "report.txt").read_text()
        assert (
            "re-integration: RK4 at h/10 (N = 10) and h/5 (N = 20) from node 0, "
            "piecewise-constant per-interval controls\n" in report
        )
        lines = (tmp_path / "cmp" / "compare.csv").read_text().splitlines()
        assert len(lines) == 1 + 11
        header = lines[0].split(",")
        first = np.array([float(x) for x in lines[1].split(",")])
        solve_cols = [i for i, name in enumerate(header) if name.endswith("_solve")]
        reint_cols = [i for i, name in enumerate(header) if name.endswith("_reint")]
        assert first[0] == 0.0
        assert np.array_equal(first[solve_cols], first[reint_cols])

    def test_numerical_failure_exits_two_with_artifacts(self, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise RegularityError("singular block")

        monkeypatch.setattr(cli, "solve_del", fail)
        path = equilibrium_cfg(tmp_path)
        result = invoke(
            ["compare", "--config", str(path), "--out", str(tmp_path / "out")]
        )
        assert result.exit_code == 2, result.output
        out = tmp_path / "out" / "equilibrium"
        assert (out / "compare.csv").exists()
        assert "solver failure: singular block" in (out / "report.txt").read_text()

    def test_shooting_failure_keeps_the_variational_series(
        self, tmp_path, monkeypatch
    ):
        """With pmp = yes, a shooting solve that fails numerically exits 2
        after the variational side: compare.csv keeps its 50 rows and the
        report ends naming the failure."""
        def fail(*args, **kwargs):
            raise FlowDivergedError(0.5)

        monkeypatch.setattr(cli, "solve_shooting", fail)
        path = write_cfg(
            tmp_path, "sleigh-pmp.cfg",
            (BUNDLED / "sleigh-paper51.cfg").read_text() + "\n[compare]\npmp = yes\n",
        )
        result = invoke(
            ["compare", "--config", str(path), "--out", str(tmp_path / "out")]
        )
        assert result.exit_code == 2, result.output
        out = tmp_path / "out" / "sleigh-pmp"
        assert len((out / "compare.csv").read_text().splitlines()) == 1 + 50
        report = (out / "report.txt").read_text().splitlines()
        assert report[-2:] == [f"solver failure: {FlowDivergedError(0.5)}",
                               "exit code: 2"]

    def test_nonfinite_reintegration_exits_two_with_artifacts(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(
            cli, "_state_field", lambda model, u: lambda t, y: np.full_like(y, np.nan)
        )
        path = equilibrium_cfg(tmp_path)
        result = invoke(
            ["compare", "--config", str(path), "--out", str(tmp_path / "out")]
        )
        assert result.exit_code == 2, result.output
        out = tmp_path / "out" / "equilibrium"
        assert len((out / "compare.csv").read_text().splitlines()) == 1
        report = (out / "report.txt").read_text()
        assert "solver failure: non-finite value in RK4 stage 1" in report

    def test_reintegration_fails_quietly_on_blow_up(self, monkeypatch):
        # y' = y^2 from y = 1 blows up at t = 1, inside the second interval
        monkeypatch.setattr(cli, "_state_field", lambda model, u: lambda t, y: y**2)
        model = particle_model()
        traj = DiscreteTrajectory(
            h=0.5, times=[0.0, 0.5, 1.0, 1.5],
            q=np.ones((4, model.n)), v=np.ones((4, model.rank)),
            multipliers=np.zeros((2, model.corank)),
            controls=np.zeros((3, model.rank)),
            lambda_zero=np.zeros(model.corank),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationError):
                cli._reintegrate_from_first_enforced(model, traj)

    @pytest.mark.parametrize("h, substeps", [
        # the bundled sleigh at N = 50 and 100; 0.07 / 0.01, which rounds
        # to 7.000000000000001; the particle-del instance at 400 steps, where
        # the step shrinks with sqrt(h)
        (5.0 / 50, 10), (5.0 / 100, 5), (0.07, 7), (4.0 / 400, 3),
    ])
    def test_reintegration_substeps(self, h, substeps):
        assert cli._substeps(h) == substeps

    @pytest.mark.parametrize("config, problem_keys, solver_keys", [
        ("sleigh-paper51", {}, {"steps": 50}),
        ("sleigh-paper51", {}, {"steps": 100}),
        # the particle-del benchmark instance on a 40-step grid, and on its
        # own 400 steps
        ("particle-case2", {"terminal_mode": "hard"}, {
            "method": "variational", "steps": 40, "enforce_first_interval": True,
            "newton_tol": 1e-10, "max_iters": 100,
        }),
        ("particle-case2", {"terminal_mode": "hard"}, {
            "method": "variational", "steps": 400, "enforce_first_interval": True,
            "newton_tol": 1e-10, "max_iters": 100,
        }),
    ])
    def test_reintegration_substeps_pass_step_doubling(
        self, monkeypatch, config, problem_keys, solver_keys
    ):
        """Step doubling (Hairer, Norsett & Wanner, Solving ODEs I, II.4):
        the re-integration at REINTEGRATION_STEP and at half of it agree
        within 1e-9, and within 1e-6 of the endpoint discrepancy that
        compare measures, so the RK4 error stays far below the midpoint
        scheme's own.  A stiffer system fails here instead of quietly
        moving compare's figures."""
        cfg = parse_config(BUNDLED / f"{config}.cfg")
        cfg = cfg._replace(
            problem=cfg.problem._replace(**problem_keys),
            solver=cfg.solver._replace(**solver_keys),
        )
        model, problem, settings, grid = cli._build(cfg)
        traj, report = cli.solve_del(model, problem, grid, settings)
        assert report.converged
        substeps = cli._substeps(traj.h)
        (reint,) = cli._reintegrate_from_first_enforced(model, traj)
        discrepancy = cli._endpoint_discrepancy(model, traj, reint)
        monkeypatch.setattr(cli, "REINTEGRATION_STEP", cli.REINTEGRATION_STEP / 2)
        assert cli._substeps(traj.h) >= 2 * substeps - 1
        (doubled,) = cli._reintegrate_from_first_enforced(model, traj)
        gap = np.max(np.abs(doubled - reint))
        # a zero gap would mean the halved step was never taken
        assert 0 < gap < 1e-9
        assert gap < 1e-6 * discrepancy

    def test_jittered_sleigh_seeds_converge_warm(self, tmp_path):
        """Within a 10 s budget, the bundled sleigh with jittered starts
        (bench/instances.py's rule: default_rng(seed).uniform(-0.05, 0.05)
        added to initial_q, then to initial_v) converges at N = 50 and
        N = 100 and halves its discrepancy at second order.  From the
        straight line, seeds 2 and 3 stall at N = 100; compare starts that
        solve from the prolonged N = 50 solution."""
        budget = 10.0
        t0 = time.perf_counter()
        base = parse_config(BUNDLED / "sleigh-paper51.cfg")
        for seed in (2, 3):
            rng = np.random.default_rng(seed)
            jittered = {}
            for key in ("initial_q", "initial_v"):
                values = np.asarray(getattr(base.problem, key))
                jittered[key] = tuple(
                    (values + rng.uniform(-0.05, 0.05, values.size)).tolist()
                )
            cfg = base._replace(problem=base.problem._replace(**jittered))
            out = tmp_path / f"seed-{seed}"
            assert compare_experiment(cfg, out) == 0
            report = (out / "report.txt").read_text()
            solves = re.findall(r"^solve at N = (\d+): converged (\w+)", report, re.M)
            assert solves == [("50", "yes"), ("100", "yes")]
            ratio = float(re.search(
                r"^h-halving discrepancy ratio: (\S+)$", report, re.M
            ).group(1))
            assert 3.0 <= ratio <= 5.0
        assert time.perf_counter() - t0 < budget

    def test_reintegrates_each_grid_once(self, tmp_path, monkeypatch):
        """compare re-integrates the N and 2N solutions in one call."""
        steps = []
        reintegrate = cli._reintegrate_from_first_enforced

        def counted(model, *trajs):
            steps.append([traj.steps for traj in trajs])
            return reintegrate(model, *trajs)

        monkeypatch.setattr(cli, "_reintegrate_from_first_enforced", counted)
        cfg = parse_config(equilibrium_cfg(tmp_path))
        assert compare_experiment(cfg, tmp_path / "cmp") == 0
        assert steps == [[4, 8]]

    @pytest.mark.parametrize("config, problem_keys, solver_keys, first", [
        ("sleigh-paper51", {}, {}, 1),
        # the particle-del benchmark instance on 40 and 80 steps
        ("particle-case2", {"terminal_mode": "hard"}, {
            "method": "variational", "steps": 40, "enforce_first_interval": True,
            "newton_tol": 1e-10, "max_iters": 100,
        }, 0),
        # the CI particle-del instance, 400 and 800 steps: 1200 and 1600
        # substeps, so the N row waits 400 substeps before it joins
        ("particle-case2", {"terminal_mode": "hard"}, {
            "method": "variational", "steps": 400, "enforce_first_interval": True,
            "newton_tol": 1e-10, "max_iters": 100,
        }, 0),
    ])
    def test_stacked_reintegration_rows_equal_single_runs(
        self, config, problem_keys, solver_keys, first
    ):
        """The N and 2N solutions re-integrated as one stack give, row by
        row, the same bits as each re-integrated alone, through the common
        intervals and the longer one's tail."""
        cfg = parse_config(BUNDLED / f"{config}.cfg")
        cfg = cfg._replace(
            problem=cfg.problem._replace(**problem_keys),
            solver=cfg.solver._replace(**solver_keys),
        )
        model, problem, settings, grid = cli._build(cfg)
        trajs = []
        for steps in (grid.steps, 2 * grid.steps):
            traj, report = cli.solve_del(
                model, problem, dataclasses.replace(grid, steps=steps), settings
            )
            assert report.converged
            trajs.append(traj)
        stacked = cli._reintegrate_from_first_enforced(model, *trajs)
        for traj, rows in zip(trajs, stacked):
            (alone,) = cli._reintegrate_from_first_enforced(model, traj)
            assert rows.shape == (traj.steps + 1 - first, model.n + model.rank)
            assert np.array_equal(rows, alone)

    @pytest.mark.parametrize("rows, failing, window", [
        # the short row ends at t = 0.5; the long one blows up after t = 1,
        # in the intervals it runs alone
        ([(2, 0.25, 1.0), (4, 0.5, 1.0)], 1, (1.0, 2.0)),
        # a quiet first row (blow-up at t = 10) and a second row that blows
        # up in the intervals the two share
        ([(4, 0.5, 0.1), (2, 0.75, 1.0)], 1, (0.75, 1.5)),
        # the second row overflows at its first stage, while it waits to join
        ([(4, 0.5, 0.1), (2, 0.75, 1e200)], 1, (0.0, 0.75)),
    ], ids=["longer-tail", "common-interval", "waiting-row"])
    def test_blow_up_names_the_failing_rows_time(
        self, monkeypatch, rows, failing, window
    ):
        """y' = y^2 from y = y0 blows up at t = 1/y0.  The stacked
        re-integration fails at the failing row's own time, with the same
        message as that row's single run."""
        monkeypatch.setattr(cli, "_state_field", lambda model, u: lambda t, y: y**2)
        model = particle_model()

        def constant(steps, h, y0):
            return DiscreteTrajectory(
                h=h, times=h * np.arange(steps + 1),
                q=np.full((steps + 1, model.n), y0),
                v=np.full((steps + 1, model.rank), y0),
                multipliers=np.zeros((steps - 1, model.corank)),
                controls=np.zeros((steps, model.rank)),
                lambda_zero=np.zeros(model.corank),
            )

        trajs = [constant(*row) for row in rows]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationError) as alone:
                cli._reintegrate_from_first_enforced(model, trajs[failing])
            with pytest.raises(IntegrationError) as stacked:
                cli._reintegrate_from_first_enforced(model, *trajs)
        assert window[0] <= stacked.value.t < window[1]
        assert stacked.value.t == alone.value.t
        assert str(stacked.value) == str(alone.value)

    def test_a_waiting_row_keeps_its_first_node_bit_for_bit(self, monkeypatch):
        """The shorter row waits 50 substeps to join.  Its first node, -0.0
        in every entry, comes back with the sign bit its single run keeps,
        although a zero step from it returns 0.0."""
        monkeypatch.setattr(cli, "_state_field", lambda model, u: lambda t, y: y**2)
        model = particle_model()
        trajs = [
            DiscreteTrajectory(
                h=h, times=h * np.arange(steps + 1),
                q=np.full((steps + 1, model.n), -0.0),
                v=np.full((steps + 1, model.rank), -0.0),
                multipliers=np.zeros((steps - 1, model.corank)),
                controls=np.zeros((steps, model.rank)),
                lambda_zero=np.zeros(model.corank),
            )
            for steps, h in ((4, 0.5), (2, 0.75))
        ]
        _, waiting = cli._reintegrate_from_first_enforced(model, *trajs)
        (alone,) = cli._reintegrate_from_first_enforced(model, trajs[1])
        assert np.signbit(alone[0]).all()
        assert waiting.tobytes() == alone.tobytes()

    def test_rejects_shooting_config(self, tmp_path):
        result = invoke(
            ["compare", "--config", str(BUNDLED / "particle-case2.cfg"),
             "--out", str(tmp_path)],
        )
        assert result.exit_code == 1
        assert "variational" in result.output

    def test_unwritable_artifact_directory_exits_one(self, tmp_path):
        cfg = equilibrium_cfg(tmp_path)
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / "equilibrium").write_text("in the way\n")
        result = invoke(
            ["compare", "--config", str(cfg), "--out", str(tmp_path / "out")]
        )
        assert result.exit_code == 1, result.output
        assert f"Error: {cfg}: " in result.output
        assert isinstance(result.exception, SystemExit)


def _bundled_with(
    tmp_path: Path, stem: str, *edits: tuple[str, str], name: str | None = None
) -> Path:
    """The bundled config stem with each (old, new) edit made once, written
    as name.cfg (default: stem.cfg)."""
    text = (BUNDLED / f"{stem}.cfg").read_text()
    for old, new in edits:
        assert text.count(old) == 1
        text = text.replace(old, new)
    return write_cfg(tmp_path, f"{name or stem}.cfg", text)


def _bundled_sleigh_with(tmp_path: Path, old: str, new: str) -> Path:
    return _bundled_with(tmp_path, "sleigh-paper51", (old, new), name="sleigh")


@pytest.mark.parametrize("command", ["run", "compare"])
def test_overflowing_rollout_reference_exits_one(tmp_path, command):
    """A rollout reference whose flow overflows is a config error naming
    the rollout reference, not an IntegrationError traceback."""
    path = _bundled_sleigh_with(
        tmp_path, "rollout_v = 0.3333333333333333 1.0", "rollout_v = 1e200 1e200"
    )
    result = invoke(
        [command, "--config", str(path), "--out", str(tmp_path / "out")]
    )
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    errors = [line for line in result.output.splitlines()
              if line.startswith("Error:")]
    assert len(errors) == 1 and "rollout reference" in errors[0]
    assert not (tmp_path / "out").exists()


SLEIGH_HORIZON = ("sleigh-paper51", [("horizon_T = 5.0\n", "horizon_T = 1e308\n")],
                  "horizon_T")
SLEIGH_OFFSET = ("sleigh-paper51", [("offset_a = 0.2\n", "offset_a = 1e308\n")],
                 "offset_a")
SLEIGH_STEPS = ("sleigh-paper51", [("steps = 50\n", "steps = 1000000000\n")], "steps")


@pytest.mark.parametrize("command, stem, edits, key", [
    # the step count of RolloutReference
    pytest.param("run", *SLEIGH_HORIZON, id="run-sleigh-horizon"),
    pytest.param("compare", *SLEIGH_HORIZON, id="compare-sleigh-horizon"),
    # SleighParams
    pytest.param("run", *SLEIGH_OFFSET, id="run-sleigh-offset"),
    pytest.param("compare", *SLEIGH_OFFSET, id="compare-sleigh-offset"),
    # the shooting solver's default grid
    pytest.param("run", "particle-case2", [("horizon_T = 4.0\n", "horizon_T = 1e308\n"),
                                           ("steps = 400\n", "")],
                 "horizon_T", id="run-particle-horizon"),
    # a rollout grid of 5e12 steps, refused before it is allocated
    pytest.param("run", "sleigh-paper51", [("rollout_step = 0.01\n",
                                            "rollout_step = 1e-12\n")],
                 "rollout_step", id="run-sleigh-rollout-step"),
    # solver grids above ode.MAX_STEPS: the given one on either route, the
    # 2N one of compare, the cross-method one and the shooting default
    pytest.param("run", "particle-case2", [("steps = 400\n", "steps = 1000000000\n")],
                 "steps", id="run-particle-steps"),
    pytest.param("run", *SLEIGH_STEPS, id="run-sleigh-steps"),
    pytest.param("compare", *SLEIGH_STEPS, id="compare-sleigh-steps"),
    pytest.param("compare", "sleigh-paper51", [("steps = 50\n", "steps = 600000\n")],
                 "steps", id="compare-sleigh-doubled-steps"),
    pytest.param("compare", "sleigh-paper51", [
        ("precision = 17\n",
         "precision = 17\n[compare]\npmp = yes\npmp_steps = 1000000000\n"),
    ], "pmp_steps", id="compare-sleigh-pmp-steps"),
    pytest.param("run", "particle-case2", [("horizon_T = 4.0\n", "horizon_T = 1e7\n"),
                                           ("steps = 400\n", "")],
                 "horizon_T", id="run-particle-default-grid"),
    pytest.param("compare", "particle-case2", [
        ("horizon_T = 4.0\n", "horizon_T = 1e5\n"),
        ("terminal_mode = mayer\n", "terminal_mode = hard\n"),
        ("method = pmp-shooting\n", "method = variational\n"),
        ("precision = 17\n", "precision = 17\n[compare]\npmp = yes\n"),
    ], "horizon_T", id="compare-particle-pmp-default-grid"),
])
def test_build_time_overflow_exits_one(tmp_path, command, stem, edits, key):
    """A value the model, problem or grid cannot be built from (a count or
    parameter that overflows, a rollout grid too large to allocate, or a
    solver grid of more than ode.MAX_STEPS steps) is a config error: one
    Error: line naming the key, exit code 1, no traceback and no artifact
    directory."""
    path = _bundled_with(tmp_path, stem, *edits)
    result = invoke([command, "--config", str(path), "--out", str(tmp_path / "out")])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    lines = result.output.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"Error: {path}: "), result.output
    assert key in lines[0], result.output
    assert not (tmp_path / "out").exists()


def test_given_shooting_grid_skips_the_default(tmp_path):
    """With its own steps, a horizon whose default grid count would
    overflow solves on the given grid: the flow diverges, a solver failure
    with exit code 2 and header-only artifacts."""
    path = _bundled_with(
        tmp_path, "particle-case2", ("horizon_T = 4.0\n", "horizon_T = 1e308\n")
    )
    result = invoke(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    out = tmp_path / "out" / "particle-case2"
    assert result.output.splitlines() == [
        f"{path}: did not converge; artifacts in {out}"
    ]
    for name in ("trajectory.csv", "diagnostics.csv"):
        assert len((out / name).read_text().splitlines()) == 1
    report = (out / "report.txt").read_text().splitlines()
    assert report[-2].startswith(
        "solver failure: state-costate flow diverged near t = 0"
    ), report[-2]
    assert report[-1] == "exit code: 2"


@pytest.mark.parametrize(
    "command, csvs", [("run", ["diagnostics.csv", "trajectory.csv"]),
                      ("compare", ["compare.csv"])],
)
def test_overflowing_newton_matrix_is_a_quiet_solver_failure(tmp_path, command, csvs):
    """At epsilon = 1e308 the variational Newton matrix overflows while the
    residual stays finite: the correction raises ArithmeticError, so the
    command exits 2 with header-only CSVs and a report naming the failure,
    and prints no RuntimeWarning (the suite would raise it)."""
    path = _bundled_sleigh_with(tmp_path, "epsilon = 1.0\n", "epsilon = 1e308\n")
    result = invoke(
        [command, "--config", str(path), "--out", str(tmp_path / "out")]
    )
    assert result.exit_code == 2, result.output
    assert result.output.splitlines() == [
        f"{path}: {'did not converge' if command == 'run' else 'nonconvergence'}; "
        f"artifacts in {tmp_path / 'out' / 'sleigh'}"
    ]
    out = tmp_path / "out" / "sleigh"
    for name in csvs:
        assert len((out / name).read_text().splitlines()) == 1
    report = (out / "report.txt").read_text().splitlines()
    assert report[-2:] == [
        "solver failure: non-finite discrete Euler-Lagrange Jacobian", "exit code: 2"
    ]


@pytest.mark.parametrize("bundled, key, value, setting", [
    ("sleigh-paper51.cfg", "continuation_stages", "0", "method variational"),
    ("sleigh-paper51.cfg", "continuation", "horizon", "method variational"),
    ("particle-case2.cfg", "psi_variant", "difference-quotient", "method pmp-shooting"),
    ("particle-case2.cfg", "enforce_first_interval", "yes", "method pmp-shooting"),
    ("particle-case2.cfg", "continuation_stages", "9", "continuation none"),
    ("particle-case2.cfg", "rollout_q", "0 0 0", "reference analytic"),
    ("particle-case2.cfg", "rollout_v", "0 0", "reference analytic"),
    ("particle-case2.cfg", "rollout_step", "0.005", "reference analytic"),
    ("sleigh-paper51.cfg", "q_base", "0 0 0", "reference rollout"),
    ("sleigh-paper51.cfg", "v_slope", "0 0", "reference rollout"),
    ("sleigh-paper51.cfg", "pmp_steps", "50", "pmp no"),
    ("sleigh-paper51.cfg", "pmp", "yes", "command run"),
    ("particle-case2.cfg", "pmp", "yes", "command run"),
])
def test_a_solver_key_of_the_other_method_is_a_config_error(
    tmp_path, bundled, key, value, setting
):
    """A key that this config's route does not read (the other method's
    [solver] key, a ladder key without a ladder, the other reference's
    [problem] key, pmp_steps without pmp = yes, any [compare] key on `run`),
    set away from its default, is a config error naming the key and the
    setting that leaves it unread."""
    section = next(name for name, block in cli.SECTIONS.items() if key in block._fields)
    text = (BUNDLED / bundled).read_text()
    if f"[{section}]\n" not in text:
        text += f"\n[{section}]\n"
    path = write_cfg(tmp_path, bundled, text.replace(
        f"[{section}]\n", f"[{section}]\n{key} = {value}\n"))
    result = invoke(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    errors = [line for line in result.output.splitlines()
              if line.startswith("Error:")]
    assert errors == [f"Error: {path}: {key} is not read by {setting}"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("bundled, key", [
    ("particle-case2.cfg", "q_slope"),
    ("sleigh-paper51.cfg", "rollout_v"),
    ("particle-case2.cfg", "initial_v"),
])
def test_a_missing_vector_is_a_config_error(tmp_path, bundled, key):
    """A vector that the config's reference or initial state needs, left
    out, is one config error naming the key, before any artifact exists."""
    text = (BUNDLED / bundled).read_text()
    lines = [line for line in text.splitlines() if not line.startswith(f"{key} =")]
    assert len(lines) == len(text.splitlines()) - 1
    path = write_cfg(tmp_path, bundled, "\n".join(lines) + "\n")
    result = invoke(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert result.exit_code == 1, result.output
    errors = [line for line in result.output.splitlines()
              if line.startswith("Error:")]
    assert len(errors) == 1 and key in errors[0], errors
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value", [
    ("continuation", "none"), ("continuation_stages", "4"),
])
def test_the_other_methods_key_at_its_default_is_accepted(tmp_path, key, value):
    path = _bundled_sleigh_with(tmp_path, "[solver]\n", f"[solver]\n{key} = {value}\n")
    assert parse_config(path) == parse_config(BUNDLED / "sleigh-paper51.cfg")


@pytest.mark.parametrize("method", ["pmp-shooting", "variational"])
def test_diagnostics_cost_integrates_to_the_action_at_lambda0_two(tmp_path, method):
    """diagnostics.csv's cost column is the lambda0-weighted running cost on
    both routes, so at lambda0 = 2 its trapezoid integral is the action
    column's last value: exactly on the shooting route, whose action is
    that trapezoid, and within the midpoint scheme's discretisation error
    for the variational route's discrete action (the particle-del
    instance).  The shooting report's Simpson line is the same integral."""
    text = (BUNDLED / "particle-case2.cfg").read_text()
    edits = [("lambda0 = 1.0\n", "lambda0 = 2.0\n")]
    if method == "variational":
        edits += [
            ("terminal_mode = mayer", "terminal_mode = hard"),
            ("method = pmp-shooting",
             "method = variational\nenforce_first_interval = yes"),
            ("newton_tol = 1e-08", "newton_tol = 1e-10"),
            ("max_iters = 50", "max_iters = 100"),
        ]
    for old, new in edits:
        assert text.count(old) == 1
        text = text.replace(old, new)
    path = write_cfg(tmp_path, "weighted.cfg", text)
    result = invoke(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert result.exit_code == 0, result.output
    out = tmp_path / "out" / "weighted"
    t, cost, action = np.loadtxt(
        out / "diagnostics.csv", delimiter=",", skiprows=1, usecols=(0, 1, 2),
        unpack=True,
    )
    integral = float(np.sum(0.5 * np.diff(t) * (cost[:-1] + cost[1:])))
    if method == "variational":
        assert integral == pytest.approx(action[-1], rel=1e-2)
        return
    assert integral == pytest.approx(action[-1], rel=1e-12)
    simpson = float(re.search(
        r"^running-cost integral \(Simpson\): (\S+)$",
        (out / "report.txt").read_text(), re.M,
    ).group(1))
    assert simpson == pytest.approx(integral, rel=1e-3)


@pytest.mark.parametrize("value", ["0", "-1"])
def test_nonpositive_rollout_step_is_an_error_naming_the_key(tmp_path, value):
    path = _bundled_sleigh_with(
        tmp_path, "rollout_step = 0.01", f"rollout_step = {value}"
    )
    result = invoke(
        ["run", "--config", str(path), "--out", str(tmp_path / "out")]
    )
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    errors = [line for line in result.output.splitlines()
              if line.startswith("Error:")]
    assert errors == [
        f"Error: {path}: rollout reference (horizon_T = 5.0, rollout_step = "
        f"{float(value)}): step must be positive and finite, got {float(value)}"
    ]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "compare"])
def test_retired_initial_guess_mode_is_an_unknown_key(tmp_path, command):
    """The variational route has one initial guess; the key that chose
    between two is gone and now fails like any unknown key."""
    path = _bundled_sleigh_with(
        tmp_path, "[solver]\n", "[solver]\ninitial_guess_mode = linear-interpolation\n"
    )
    result = invoke(
        [command, "--config", str(path), "--out", str(tmp_path / "out")]
    )
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert "unknown key(s) in [solver]" in result.output
    assert "initial_guess_mode" in result.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, problem", [
    (["run", "--config", "{tmp}/absent.cfg"], "config file not found"),
    (["compare", "--config", "{tmp}/absent.cfg"], "config file not found"),
    (["run", "--config", "{tmp}"], "config file is a directory"),
    (["run", "--config", "{particle}", "--out", "{tmp}/file"], "Not a directory"),
    (["run"], "required: --config"),
    (["compare", "--out", "{tmp}"], "required: --config"),
    (["solve", "--config", "{particle}"], "invalid choice: 'solve'"),
    ([], "required: COMMAND"),
    (["run", "--config", "{particle}", "--outdir", "{tmp}"], "unrecognized"),
    (["check", "--seed", "x"], "invalid int value: 'x'"),
    (["check", "--seed", "-1"], "--seed"),
], ids=[
    "absent-config", "compare-absent-config", "config-directory", "out-file",
    "no-config", "compare-no-config", "unknown-command", "no-command",
    "unknown-option", "bad-seed", "negative-seed",
])
def test_usage_error_exits_one_with_one_error_line(
    tmp_path, monkeypatch, capsys, argv, problem
):
    """A usage error is a configuration error, exit code 1, not 2 (a solve
    that failed): one Error: line on stderr naming the problem, nothing on
    stdout and no artifact directory, not even the default ./out."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "file").write_text("", encoding="utf-8")
    particle = BUNDLED / "particle-case2.cfg"
    args = [arg.format(tmp=tmp_path, particle=particle) for arg in argv]
    with pytest.raises(SystemExit) as exit_:
        cli.main(args, prog_name="nhtrack")
    assert exit_.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("Error: ") and problem in line, line
    assert [p.name for p in tmp_path.iterdir()] == ["file"]


@pytest.mark.parametrize("argv", [
    ["--help"], ["run", "--help"], ["compare", "--help"], ["check", "--help"],
    ["presets", "--help"],
])
def test_help_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        cli.main(argv, prog_name="nhtrack")
    assert exit_.value.code == 0
    usage = " ".join(["usage: nhtrack", *argv[:-1]])
    assert capsys.readouterr().out.lower().startswith(usage + " ")


def test_rollout_step_passes_step_doubling():
    """Step doubling on the bundled sleigh config's rollout reference: built
    at its rollout_step and at half that step, it agrees within 1e-12 at 401
    times on [0, 5], the bound the compare re-integration meets."""
    cfg = parse_config(BUNDLED / "sleigh-paper51.cfg")
    assert cfg.problem.horizon_T == 5.0
    halved = cfg._replace(problem=cfg.problem._replace(
        rollout_step=cfg.problem.rollout_step / 2
    ))
    times = np.linspace(0.0, 5.0, 401)
    coarse = cli._build(cfg)[1].reference(times)
    fine = cli._build(halved)[1].reference(times)
    gap = max(np.max(np.abs(fine.q - coarse.q)), np.max(np.abs(fine.v - coarse.v)))
    assert gap < 1e-12


def test_rollout_reference_passes_step_doubling_at_its_nodes_and_midpoints():
    """The bundled sleigh reference and a RolloutReference at half its
    rollout_step agree within 1e-12 at every node of the reference's grid,
    horizon / rollout_step intervals, and at the midpoint of every
    interval."""
    cfg = parse_config(BUNDLED / "sleigh-paper51.cfg")
    reference = cli._build(cfg)[1].reference
    halved = RolloutReference(
        reference.model, reference.start, reference.horizon,
        step=cfg.problem.rollout_step / 2,
    )
    steps = math.ceil(reference.horizon / cfg.problem.rollout_step)
    h = reference.horizon / steps
    nodes = h * np.arange(steps + 1)
    midpoints = h * (np.arange(steps) + 0.5)
    for times in (nodes, midpoints):
        coarse, fine = reference(times), halved(times)
        gap = max(np.max(np.abs(fine.q - coarse.q)), np.max(np.abs(fine.v - coarse.v)))
        assert gap <= 1e-12


class TestCheckAndPresets:
    @pytest.mark.parametrize(
        "args, presets",
        [
            (["check"], ["particle", "sleigh:paper-5.1"]),
            (["check", "--system", "sleigh", "--seed", "3"], ["sleigh"]),
        ],
        ids=["all", "sleigh-seed-3"],
    )
    def test_check_all_passes(self, args, presets):
        result = invoke(args)
        assert result.exit_code == 0, result.output
        assert "FAIL" not in result.output
        for preset in presets:
            assert f"[{preset}]" in result.output
        assert result.output.count("  PASS ") == 10 * len(presets)
        # the Jacobian table follows the stacked-q check
        assert result.output.index("stacked q") < result.output.index(
            "Christoffel Jacobian"
        )

    def test_check_unknown_system(self):
        result = invoke(["check", "--system", "unicycle"])
        assert result.exit_code == 1

    def test_model_checks_structure(self):
        results = model_checks("particle", seed=3)
        assert len(results) >= 5
        assert all(ok for _, ok, _ in results)

    @pytest.mark.parametrize("preset", ["particle", "sleigh:paper-5.1"])
    def test_presets_accept_stacked_q(self, preset):
        results = {label: ok for label, ok, _ in model_checks(preset)}
        assert results["callables accept stacked q"]

    def test_per_point_model_fails_the_stacked_q_check(self):
        """A model whose callables index q as one point (q[1] a scalar) passes
        the other checks but fails the stacked-q one, naming its callables."""
        base = particle_model()

        def rho(q):
            return np.array([[0.0, -q[1]], [1.0, 0.0], [0.0, 1.0]])

        def christoffel(q):
            gamma = np.zeros((2, 2, 2))
            gamma[1, 0, 1] = q[1] / (1.0 + q[1] * q[1])
            return gamma

        def christoffel_jac(q):
            jac = np.zeros((2, 2, 2, 3))
            jac[1, 0, 1, 1] = (1.0 - q[1] * q[1]) / (1.0 + q[1] * q[1]) ** 2
            return jac

        per_point = dataclasses.replace(
            base, rho=rho, christoffel=christoffel,
            christoffel_jac=christoffel_jac,
            potential_grad=lambda q: np.zeros(2),
        )
        results = {label: (ok, detail) for label, ok, detail in model_checks(per_point)}
        ok, detail = results.pop("callables accept stacked q")
        assert not ok
        assert detail.startswith("fails: ")
        assert set(detail.removeprefix("fails: ").split(", ")) == {
            "rho", "christoffel", "christoffel_jac", "potential_grad",
        }
        assert all(ok for ok, _ in results.values())

    @pytest.mark.parametrize(
        "callable_name, broken, label",
        [
            ("rho_jac", lambda f: lambda q: 1.5 * f(q),
             "frame Jacobian matches finite differences"),
            ("annihilator", lambda f: lambda q: f(q) + 0.3,
             "annihilator vanishes on the frame"),
            ("potential_grad_jac", lambda f: lambda q: np.ones_like(f(q)),
             "potential-gradient Jacobian matches finite differences"),
        ],
        ids=["rho_jac", "annihilator", "potential_grad_jac"],
    )
    @pytest.mark.parametrize("preset", ["particle", "sleigh:paper-5.1"])
    def test_a_wrong_derived_callable_fails_exactly_its_check(
        self, preset, callable_name, broken, label
    ):
        """A frame Jacobian scaled by 1.5, an annihilator shifted by 0.3 or a
        potential-gradient Jacobian of ones passes every other check and
        fails the one that compares it with what it is derived from."""
        base = resolve_system(preset)
        model = dataclasses.replace(
            base, **{callable_name: broken(getattr(base, callable_name))}
        )
        failed = [name for name, ok, _ in model_checks(model) if not ok]
        assert failed == [label]

    def test_presets_lists_systems_and_configs(self):
        result = invoke(["presets"])
        assert result.exit_code == 0
        assert "particle" in result.output
        assert "sleigh:custom" in result.output
        # each config's leading comment block, joined into one line
        assert (
            "  particle-case2.cfg: Flat-particle tracking, soft terminal weight: "
            "the hard benchmark instance with the start displaced well off the "
            "reference line. Multiple shooting solves it from a zero costate, so "
            "it runs without a continuation ladder.\n"
        ) in result.output
        assert (
            "  sleigh-paper51.cfg: Sleigh tracking of an uncontrolled rollout "
            "with pinned endpoints, solved by the constrained midpoint "
            "variational integrator (h = 0.1, N = 50).\n"
        ) in result.output
