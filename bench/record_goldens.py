"""Re-record the seed-0 goldens in bench/goldens/<workload>/ from the
program in this checkout.  Run from the repository root:

    python3 bench/record_goldens.py

Only re-record when a change is meant to alter the artifacts, and say so
in CHANGES.md: the goldens are what the output checks hold the CLI to.
"""
from __future__ import annotations

import shutil
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from checks import GOLDEN_DIR  # noqa: E402
from instances import WORKLOADS, write_config  # noqa: E402
from run import Runner  # noqa: E402


def main() -> int:
    root = Path.cwd()
    scratch = root / ".bench_runs" / "goldens"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    runner = Runner(root, scratch, deadline=time.monotonic() + 3600.0)
    try:
        for workload in WORKLOADS.values():
            config = write_config(workload, 0, scratch / workload.name, root)
            out = scratch / workload.name / "out"
            child = runner.spawn(runner.cli_argv(workload, config, out))
            if child.code != 0:
                raise subprocess.CalledProcessError(child.code, workload.name)
            target = GOLDEN_DIR / workload.name
            shutil.rmtree(target, ignore_errors=True)
            shutil.copytree(out / Path(workload.bundled).stem, target)
            print(f"{workload.name}: {child.wall_s:.2f} s, goldens in {target}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
