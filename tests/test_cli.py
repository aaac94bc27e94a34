"""Command-line layer: config parsing and canonical echo, artifact layout
and byte stability, exit-code contract, the compare pipeline, and the
structural check suite."""
from __future__ import annotations

import textwrap
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from nhtrack import cli
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
    main,
    model_checks,
    parse_config,
    run_experiment,
)
from nhtrack.pmp import SingularJacobianError
from nhtrack.varint import RegularityError

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

    def test_echo_is_idempotent(self, tmp_path):
        cfg = parse_config(BUNDLED / "sleigh-paper51.cfg")
        once = config_text(cfg)
        echoed = write_cfg(tmp_path, "echo.cfg", once)
        assert config_text(parse_config(echoed)) == once

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            parse_config("/nonexistent/path.cfg")

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
            parse_config(path)

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
        with pytest.raises(ConfigError, match="sleigh:custom only"):
            parse_config(path)

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
        for key, value in (
            ("reference", "spline"),
            ("method", "collocation"),
            ("continuation", "arclength"),
            ("psi_variant", "trapezoid"),
            ("initial_guess_mode", "zeros"),
        ):
            text = base.format(
                reference=value if key == "reference" else "analytic",
                solver="" if key == "reference" else f"{key} = {value}",
            )
            path = write_cfg(tmp_path, f"{key}.cfg", text)
            with pytest.raises(ConfigError, match=rf"^{key} must be one of .*{value}"):
                parse_config(path)

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
            system=SystemBlock(), problem=problem, solver=SolverBlock(),
            output=OutputBlock(), compare=CompareBlock(),
        )


class TestRunCommand:
    def test_sleigh_bundled_run(self, tmp_path):
        runner = CliRunner()
        result = runner.invoke(
            main,
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
        runner = CliRunner()
        result = runner.invoke(
            main,
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
        runner = CliRunner()
        result = runner.invoke(main, ["run", "--config", str(path)])
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
        result = CliRunner().invoke(
            main, ["run", "--config", str(path), "--out", str(tmp_path / "out")]
        )
        assert result.exit_code == 1, result.output
        assert key in result.output
        assert "Traceback" not in result.output
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
        runner = CliRunner()
        result = runner.invoke(
            main, ["run", "--config", str(cfg_path), "--out", str(tmp_path)]
        )
        assert result.exit_code == 2
        out = tmp_path / "hopeless"
        assert (out / "trajectory.csv").exists()
        assert (out / "diagnostics.csv").exists()
        assert "converged: no" in (out / "report.txt").read_text()

    def test_jobs_runs_multiple_configs(self, tmp_path):
        first = equilibrium_cfg(tmp_path)
        second = write_cfg(
            tmp_path, "second.cfg",
            (BUNDLED / "sleigh-paper51.cfg").read_text(),
        )
        runner = CliRunner()
        result = runner.invoke(
            main,
            ["run", "--config", str(first), "--config", str(second),
             "--out", str(tmp_path / "multi")],
        )
        assert result.exit_code == 0, result.output
        assert (tmp_path / "multi" / "equilibrium" / "trajectory.csv").exists()
        assert (tmp_path / "multi" / "second" / "trajectory.csv").exists()


    @pytest.mark.parametrize(
        "solver, error, config",
        [
            ("solve_del", RegularityError("singular block"), "equilibrium"),
            ("solve_shooting", SingularJacobianError(1e15), "particle-case2"),
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
        result = CliRunner().invoke(
            main, ["run", "--config", str(path), "--out", str(tmp_path / "out")]
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
        runner = CliRunner()
        result = runner.invoke(
            main, ["compare", "--config", str(cfg_path), "--out", str(tmp_path)]
        )
        assert result.exit_code == 0, result.output
        report = (tmp_path / "mild" / "report.txt").read_text()
        assert "[cross-method]" in report
        assert "variational cost" in report
        assert "shooting cost" in report

    def test_numerical_failure_exits_two_with_artifacts(self, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise RegularityError("singular block")

        monkeypatch.setattr(cli, "solve_del", fail)
        path = equilibrium_cfg(tmp_path)
        result = CliRunner().invoke(
            main, ["compare", "--config", str(path), "--out", str(tmp_path / "out")]
        )
        assert result.exit_code == 2, result.output
        out = tmp_path / "out" / "equilibrium"
        assert (out / "compare.csv").exists()
        assert "solver failure: singular block" in (out / "report.txt").read_text()

    def test_reintegrates_each_grid_once(self, tmp_path, monkeypatch):
        steps = []
        reintegrate = cli._reintegrate_from_first_enforced

        def counted(model, traj, *args):
            steps.append(traj.steps)
            return reintegrate(model, traj, *args)

        monkeypatch.setattr(cli, "_reintegrate_from_first_enforced", counted)
        cfg = parse_config(equilibrium_cfg(tmp_path))
        assert compare_experiment(cfg, tmp_path / "cmp") == 0
        assert steps == [4, 8]

    def test_rejects_shooting_config(self, tmp_path):
        runner = CliRunner()
        result = runner.invoke(
            main,
            ["compare", "--config", str(BUNDLED / "particle-case2.cfg"),
             "--out", str(tmp_path)],
        )
        assert result.exit_code == 1
        assert "variational" in result.output


class TestCheckAndPresets:
    def test_check_all_passes(self):
        runner = CliRunner()
        result = runner.invoke(main, ["check"])
        assert result.exit_code == 0, result.output
        assert "FAIL" not in result.output
        assert "[particle]" in result.output
        assert "[sleigh:paper-5.1]" in result.output

    def test_check_unknown_system(self):
        runner = CliRunner()
        result = runner.invoke(main, ["check", "--system", "unicycle"])
        assert result.exit_code == 1

    def test_model_checks_structure(self):
        results = model_checks("particle", seed=3)
        assert len(results) >= 5
        assert all(ok for _, ok, _ in results)

    def test_presets_lists_systems_and_configs(self):
        runner = CliRunner()
        result = runner.invoke(main, ["presets"])
        assert result.exit_code == 0
        assert "particle" in result.output
        assert "sleigh:custom" in result.output
        assert "particle-case2.cfg" in result.output
        assert "sleigh-paper51.cfg" in result.output
