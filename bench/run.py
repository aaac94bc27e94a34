"""Benchmark of the `nhtrack` CLI: one workload, one seed, one run.

    python3 bench/run.py --workload particle-shoot --seed 1 --seconds 20 --trace 0

Run from the repository root.  Each measured run of the program is a fresh
child process, `python -m nhtrack.cli <run|compare> --config <instance>
--out <empty dir>` with `src` on PYTHONPATH (the package need not be
installed), OpenBLAS pinned to one thread, one child at a time, on one
core that the parent shares to sample the core's speed (see SpeedProbe).

--trace 0 times the untraced CLI for about --seconds (two children at
least, and none expected to end after it) and prints the end-to-end
metrics; --trace 1 runs untraced/traced pairs (see bench/trace.py) for
--seconds and prints the per-layer metrics.  --workload all runs every
workload in turn.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  See bench/README.md.
"""
from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from checks import (  # noqa: E402
    GOLDEN_TOL, check_goldens, check_report, report_summary,
)
from instances import WORKLOADS, Workload, write_config  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 5
MIN_CHILDREN = 2  # timed CLI children per run, however long they take
# Timed and traced runs measure the seed-0 instance whatever --seed is: the
# jitter changes the work of every workload, by 7-16% on some particle-shoot
# seeds, and stalls half the sleigh seeds (bench/README.md; survey.py runs
# the jittered instances).
TIMED_INSTANCE = 0
RUN_DEADLINE_S = 170.0  # children still running then are killed and fail
BLAS_THREADS = "1"
SETUP_CODE = (
    "import sys\n"
    "from nhtrack.cli import build_model, build_problem, parse_config\n"
    "cfg = parse_config(sys.argv[1])\n"
    "build_problem(cfg, build_model(cfg))\n"
)
# Runs argv[2:] and writes its exit code and peak RSS (KiB) to argv[1].  A
# process's ru_maxrss starts at the RSS high-water mark of the process that
# launched it, and the benchmark's own can exceed the CLI's, so the CLI is
# launched from this small interpreter instead.
LAUNCH_CODE = (
    "import os, sys\n"
    "pid = os.posix_spawn(sys.argv[2], sys.argv[2:], os.environ)\n"
    "_, status, usage = os.wait4(pid, 0)\n"
    "with open(sys.argv[1], 'w') as f:\n"
    "    f.write(f'{os.waitstatus_to_exitcode(status)} {usage.ru_maxrss}')\n"
)
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "ok_share": "share"}
# per-layer metrics that are non-zero on every workload go into the JSON;
# bench/README.md explains why the idle-capable times are printed only
PER_LAYER_UNITS = {
    "systems.calls": "count", "systems.self_s": "s",
    "systems.christoffel.calls": "count", "systems.potential_grad.calls": "count",
    "systems.rho.calls": "count", "systems.christoffel_jac.calls": "count",
    "pmp.field.calls": "count", "pmp.flows": "count", "pmp.final_iters": "count",
    "pmp.reference.calls": "count", "pmp.reference.self_s": "s",
    "ode.rk4_step.calls": "count", "geometry.dynamics_rhs.calls": "count",
    "varint.newton_iters": "count", "varint.del_residual.calls": "count",
    "varint.step_accept_ratio": "ratio",
    "cli.parse_config_s": "s", "cli.build_problem_s": "s",
    "cli.artifacts.self_s": "s", "cli.artifact_bytes": "bytes",
    "cli.trace_overhead_s": "s",
}


class Child(NamedTuple):
    """One finished child: exit code, raw wall seconds, wall seconds at the
    reference core speed (see SpeedProbe) and peak RSS in MB."""
    code: int
    wall_s: float
    quiet_s: float
    rss_mb: float


class SpeedProbe:
    """Samples the speed of the core a child runs on, while it runs.

    The benchmark's host shares its cores with other machines, and a core
    runs this kind of code at full speed or at about half of it, switching
    every few tens of milliseconds; which share of a child's life falls into
    the slow phases moves its wall time by up to a factor of two.  So the
    parent shares the child's core: every PERIOD_S it wakes, runs a fixed
    loop of small numpy operations (like the program's own inner loops)
    and times it.  The child runs at nice 19, so it seldom interrupts a
    probe.  A child's quiet time is its wall time less the probes' time,
    times the mean of REFERENCE_S / (probe time): the wall time it would
    have had at the reference speed all along.
    """

    PERIOD_S = 0.025
    REPS = 120
    # one probe on an unloaded core of the 2-core Xeon VM the benchmark
    # was written on; a constant, so quiet times of two commits compare
    REFERENCE_S = 7.0e-4
    _M = np.array([[0.9, 0.1, 0.0, 0.2], [0.0, 0.8, 0.3, 0.0],
                   [0.1, 0.0, 0.7, 0.1], [0.0, 0.2, 0.0, 0.9]])

    @classmethod
    def sample(cls) -> float:
        start = time.perf_counter()
        v = np.ones(4)
        acc = 0.0
        for i in range(cls.REPS):
            v = cls._M @ v
            v = v / np.sqrt(v @ v) + 0.001 * np.sin(v)
            acc += float(v[0]) * 0.5 + i % 7
        return time.perf_counter() - start


class Runner:
    """Launches the children of one benchmark run inside a scratch dir, one
    at a time, all on one core shared with the speed probe."""

    def __init__(self, root: Path, workdir: Path, deadline: float) -> None:
        self.root = root
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(
            os.environ,
            PYTHONPATH=str(root / "src"),
            OPENBLAS_NUM_THREADS=BLAS_THREADS,
            OMP_NUM_THREADS=BLAS_THREADS,
            MKL_NUM_THREADS=BLAS_THREADS,
        )
        self.count = 0
        # children inherit the pin, so probe and child share one core
        self.core = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {self.core})

    def spawn(self, argv: list[str], own_rss: bool = False) -> Child:
        """Run one child to completion, probing its core's speed meanwhile.
        A child still running at the deadline is killed, with anything it
        started.  With own_rss the child goes through LAUNCH_CODE, so that
        its peak RSS is its own; otherwise the peak RSS reads 0."""
        self.count += 1
        log = self.workdir / f"child{self.count}.log"
        launched = self.workdir / f"child{self.count}.rss"
        if own_rss:
            argv = [sys.executable, "-I", "-S", "-c", LAUNCH_CODE,
                    str(launched), *argv]
        probes = []
        with open(log, "wb") as sink:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=sink,
                                    stderr=subprocess.STDOUT, process_group=0)
            try:
                try:
                    os.setpriority(os.PRIO_PROCESS, proc.pid, 19)
                except ProcessLookupError:  # already gone; wait4 reaps it
                    pass
                while True:
                    pid, status, _ = os.wait4(proc.pid, os.WNOHANG)
                    if pid:
                        break
                    if time.monotonic() >= self.deadline:
                        _kill_group(proc.pid)
                    time.sleep(SpeedProbe.PERIOD_S)
                    probes.append(SpeedProbe.sample())
            except BaseException:  # interrupted: leave no child behind
                _kill_group(proc.pid)
                proc.wait()
                raise
            wall = time.perf_counter() - start
        code, rss_kib = os.waitstatus_to_exitcode(status), 0
        if own_rss:
            if launched.is_file():  # absent if the launcher itself was killed
                code, rss_kib = map(int, launched.read_text().split())
        quiet = wall
        if probes:
            speed = statistics.fmean(SpeedProbe.REFERENCE_S / p for p in probes)
            quiet = (wall - math.fsum(probes)) * speed
        return Child(code, wall, quiet, rss_kib / 1024.0)

    def cli_argv(self, workload: Workload, config: Path, out: Path) -> list[str]:
        return [sys.executable, "-m", "nhtrack.cli", workload.command,
                "--config", str(config), "--out", str(out)]


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def artifacts_dir(out_root: Path, workload: Workload) -> Path:
    return out_root / Path(workload.bundled).stem


def check_run(workload: Workload, seed: int, code: int, artifacts: Path,
              newton_tol: float) -> tuple[list[str], bool | None]:
    """Problems of one finished child, and (seed 0 only) whether its
    artifacts are byte-identical to the goldens."""
    problems = [] if code == 0 else [f"exit code {code}"]
    report = artifacts / "report.txt"
    if not report.is_file():
        return problems + ["no report.txt"], None
    problems += check_report(workload.name, report.read_text(encoding="utf-8"),
                             newton_tol)
    identical = None
    if seed == 0:
        golden_problems, identical = check_goldens(workload.name, artifacts)
        problems += golden_problems
    return problems, identical


def _trace_name(workload: Workload, seed: int) -> str:
    return f"trace-{workload.name}-s{seed}.json"


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def _high_percentile(samples: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it."""
    n = len(samples)
    if n < 11:
        return None
    pct = math.floor(100.0 * (n - 10) / n)
    ordered = sorted(samples)
    return pct, ordered[min(n - 1, math.ceil(pct / 100.0 * n) - 1)]


def newton_tol_of(config: Path) -> float:
    parser = configparser.ConfigParser()
    parser.read(config)
    return float(parser["solver"].get("newton_tol", "1e-8"))


def measure(runner: Runner, workload: Workload, seed: int, config: Path,
            seconds: float) -> dict:
    """--trace 0: set-up time, then untraced children for `seconds`."""
    setup_argv = [sys.executable, "-c", SETUP_CODE, str(config)]
    runner.spawn(setup_argv)  # warm-up: byte-compiles and fills the page cache
    setups = []
    for _ in range(SETUP_REPEATS):
        child = runner.spawn(setup_argv)
        if child.code != 0:
            raise RuntimeError(f"set-up child exited with {child.code}")
        setups.append(child.quiet_s)

    tol = newton_tol_of(config)
    walls, raw, rss, failures, identical, summary = [], [], [], [], [], []
    start = time.perf_counter()
    # at least MIN_CHILDREN; no child that would end well past `seconds`
    while (len(walls) < MIN_CHILDREN or time.perf_counter() - start
           + statistics.median(raw) <= seconds):
        out = runner.workdir / f"out{len(walls)}"
        child = runner.spawn(runner.cli_argv(workload, config, out),
                             own_rss=True)
        problems, same = check_run(workload, seed, child.code,
                                   artifacts_dir(out, workload), tol)
        report = artifacts_dir(out, workload) / "report.txt"
        if not walls and report.is_file():
            summary = report_summary(report.read_text(encoding="utf-8"))
        walls.append(child.quiet_s)
        raw.append(child.wall_s)
        rss.append(child.rss_mb)
        failures.append(problems)
        identical.append(same)
        shutil.rmtree(out, ignore_errors=True)
        if time.monotonic() >= runner.deadline:
            break
    return {"setups": setups, "walls": walls, "raw": raw, "rss": rss,
            "failures": failures, "identical": identical, "summary": summary}


def trace(runner: Runner, workload: Workload, seed: int, config: Path,
          seconds: float) -> dict:
    """--trace 1: untraced/traced pairs for `seconds`."""
    tol = newton_tol_of(config)
    records, overheads, failures, sizes = [], [], [], []
    start = time.perf_counter()
    while not records or time.perf_counter() - start < seconds:
        pair = runner.workdir / f"pair{len(records)}"
        plain, traced = pair / "plain", pair / "traced"
        plain_dir = artifacts_dir(plain, workload)
        plain_child = runner.spawn(runner.cli_argv(workload, config, plain))
        code_p = plain_child.code
        record_path = pair / "trace.json"
        traced_child = runner.spawn(
            [sys.executable, str(BENCH_DIR / "trace.py"), str(record_path)]
            + runner.cli_argv(workload, config, traced)[3:]
        )
        code_t = traced_child.code
        problems, _ = check_run(workload, seed, code_p, plain_dir, tol)
        if record_path.is_file():
            record = json.loads(record_path.read_text(encoding="utf-8"))
            shutil.copyfile(record_path, runner.workdir.parent / _trace_name(
                workload, seed))
            problems += [f"traced: {p}" for p in check_run(
                workload, seed, record["exit_code"],
                artifacts_dir(traced, workload), tol)[0]]
            if code_t != 0:
                problems.append(f"tracer exited with {code_t}")
            try:
                if _files(plain_dir) != _files(artifacts_dir(traced, workload)):
                    problems.append("traced artifacts differ from untraced ones")
            except FileNotFoundError:
                problems.append("missing artifact directory")
            records.append(record)
        else:
            problems.append(f"tracer wrote no record (exit {code_t})")
            records.append(None)
        sizes.append(sum(p.stat().st_size for p in plain_dir.iterdir())
                     if plain_dir.is_dir() else 0)
        overheads.append(traced_child.quiet_s - plain_child.quiet_s)
        failures.append(problems)
        shutil.rmtree(pair, ignore_errors=True)
        if time.monotonic() >= runner.deadline:
            break
    return {"records": records, "overheads": overheads, "failures": failures,
            "sizes": sizes}


def end_to_end(result: dict) -> dict[str, float]:
    walls, failures = result["walls"], result["failures"]
    failed = sum(1 for p in failures if p)
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(result["setups"]),
        "peak_rss_mb": statistics.median(result["rss"]),
        "ok_share": 1.0 - failed / len(walls),
    }


def per_layer(result: dict) -> dict[str, float]:
    records = [r for r in result["records"] if r is not None]
    if not records:
        return {}
    def median(values):  # a count stays a whole number
        values = list(values)
        if all(isinstance(v, int) for v in values):
            return statistics.median_low(values)
        return statistics.median(values)

    names = records[0]["metrics"]
    metrics = {name: median(r["metrics"][name] for r in records)
               for name in names}
    metrics["cli.artifact_bytes"] = median(result["sizes"])
    metrics["cli.trace_overhead_s"] = statistics.median(result["overheads"])
    return metrics


def print_end_to_end(label: str, result: dict, metrics: dict) -> None:
    walls, failures = result["walls"], result["failures"]
    failed = sum(1 for p in failures if p)
    high = _high_percentile(walls)
    high_text = (f"p{high[0]} {high[1]:.4f} s" if high
                 else "p-high n/a (needs 11 samples)")
    print(f"{label}: {len(walls)} runs; first run: "
          f"{'; '.join(result['summary'])}")
    print(f"  wall_s       {metrics['wall_s']:.4f} s median, {high_text}, "
          f"samples {len(walls)}: {' '.join(f'{w:.3f}' for w in walls)}")
    print(f"  raw wall     {statistics.median(result['raw']):.4f} s median "
          f"(information): {' '.join(f'{w:.3f}' for w in result['raw'])}")
    print(f"  setup_s      {metrics['setup_s']:.4f} s median of "
          f"{len(result['setups'])}")
    print(f"  peak_rss_mb  {metrics['peak_rss_mb']:.2f} MB median")
    print(f"  failed_share {failed / len(walls):.4f} ({failed} of {len(walls)})")
    for i, problems in enumerate(failures):
        for problem in problems:
            print(f"  run {i} failed check: {problem}")
    same = [s for s in result["identical"] if s is not None]
    if same:
        print(f"  goldens: checked at tolerance {GOLDEN_TOL:g}; byte-identical: "
              f"{'yes' if all(same) else 'no'} (information)")


def print_per_layer(label: str, result: dict, metrics: dict,
                    record: str) -> None:
    print(f"{label}: {len(result['records'])} traced runs; spans and totals "
          f"of the last in {record}")
    for key in sorted(metrics):
        value = metrics[key]
        text = f"{value:.6f}" if isinstance(value, float) else str(value)
        print(f"  {key:32s} {text}")
    for i, problems in enumerate(result["failures"]):
        for problem in problems:
            print(f"  pair {i} failed check: {problem}")


def environment() -> list[str]:
    blas = "unknown"
    config = getattr(np, "__config__", None)
    info = getattr(config, "CONFIG", {}) if config else {}
    try:
        dep = info["Build Dependencies"]["blas"]
        blas = f"{dep['name']} {dep.get('version', '')}".strip()
    except (KeyError, TypeError):
        pass
    return [
        f"python {platform.python_version()}, numpy {np.__version__}, "
        f"blas {blas}, cores {os.cpu_count()}",
        f"OPENBLAS_NUM_THREADS={BLAS_THREADS} (also OMP/MKL) in every child",
        f"launch: {Path(sys.executable).name} -m nhtrack.cli with "
        "PYTHONPATH=src, one child at a time",
    ]


def run_one(root: Path, name: str, seed: int, seconds: float, traced: bool,
            deadline: float) -> tuple[int, int, dict]:
    workload = WORKLOADS[name]
    workdir = root / ".bench_runs" / f"{name}-s{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        instance = TIMED_INSTANCE
        label = f"[{name}] seed {seed}, instance seed {instance}"
        config = write_config(workload, instance, workdir, root)
        runner = Runner(root, workdir, deadline)
        if traced:
            result = trace(runner, workload, instance, config, seconds)
            metrics = per_layer(result)
            print_per_layer(label, result, metrics,
                            f".bench_runs/{_trace_name(workload, instance)}")
            metrics = {k: (metrics.get(k, 0), u) for k, u in PER_LAYER_UNITS.items()}
        else:
            result = measure(runner, workload, instance, config, seconds)
            metrics = end_to_end(result)
            print_end_to_end(label, result, metrics)
            metrics = {k: (metrics[k], u) for k, u in END_TO_END_UNITS.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failures = result["failures"]
    return len(failures), sum(1 for p in failures if p), metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    # a terminated benchmark still kills and reaps its child (see spawn)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    if not (root / "src" / "nhtrack" / "cli.py").is_file():
        print("bench/run.py: no src/nhtrack/cli.py here; run it from the root "
              "of an nhtrack checkout", file=sys.stderr)
        return 2

    for line in environment():
        print(line)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + RUN_DEADLINE_S * len(names)
    attempted = failed = 0
    metrics: dict[str, dict] = {}
    for name in names:
        done, bad, found = run_one(root, name, args.seed, args.seconds,
                                   bool(args.trace), deadline)
        attempted += done
        failed += bad
        prefix = "" if len(names) == 1 else f"{name}."
        for key, (value, unit) in found.items():
            metrics[prefix + key] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
