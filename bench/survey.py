"""Outcome survey of the seeded instances: one untraced CLI run per workload
and seed, with the jitter applied to every workload, the sleigh included.

    python3 bench/survey.py            # seeds 0 1 2 3
    python3 bench/survey.py 4 5 6 7

Run from the repository root.  Timed runs use the seed-0 instances, partly
because jittered sleigh instances are known to stall (see bench/README.md);
this survey is where that defect shows.  A stalled
`compare` takes one to two and a half minutes.
"""
from __future__ import annotations

import json
import shutil
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from checks import report_summary  # noqa: E402
from instances import WORKLOADS, write_config  # noqa: E402
from run import Runner, artifacts_dir, check_run, newton_tol_of  # noqa: E402


def main(argv: list[str]) -> int:
    seeds = [int(s) for s in argv] or [0, 1, 2, 3]
    root = Path.cwd()
    scratch = root / ".bench_runs" / "survey"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    runner = Runner(root, scratch, deadline=time.monotonic() + 3600.0 * len(seeds))
    outcomes = []
    try:
        for workload in WORKLOADS.values():
            for seed in seeds:
                case = scratch / f"{workload.name}-{seed}"
                config = write_config(workload, seed, case, root)
                out = case / "out"
                child = runner.spawn(runner.cli_argv(workload, config, out))
                code, wall = child.code, child.wall_s
                problems, _ = check_run(workload, seed, code,
                                        artifacts_dir(out, workload),
                                        newton_tol_of(config))
                report = artifacts_dir(out, workload) / "report.txt"
                summary = report_summary(report.read_text(encoding="utf-8")
                                         if report.is_file() else "")
                outcomes.append({"workload": workload.name, "seed": seed,
                                 "exit_code": code, "wall_s": round(wall, 2),
                                 "ok": not problems, "problems": problems,
                                 "summary": summary})
                print(f"{workload.name} seed {seed}: exit {code}, {wall:.1f} s, "
                      f"{'ok' if not problems else 'FAILED'}; "
                      f"{'; '.join(summary)}", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(outcomes))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
