"""pacope benchmark: one command, three workloads, end-to-end or per-layer.

    python3 benchmarks/run.py --workload known_sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
Each workload runs in fresh processes started here, so set-up time and peak
memory belong to that workload alone:

    * ``prepare`` writes the workload's inputs (``calibrate_large`` only);
    * with ``--trace 0``, ``SETUP_SAMPLES - 1`` processes each time set-up
      (``import pacope`` plus one warm-up op) and one more also measures the
      closed op loop; ``setup_s`` is the median of the set-up times;
    * with ``--trace 1``, one process measures per-layer metrics.

The last line of standard output is the result object; the line before it
holds the run's record (environment, digests, checks). Both are also written
to ``.bench_out/<workload>-s<seed>/result-trace<0|1>.json``. The exit code
is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import SIZES, WORKLOADS  # noqa: E402

SETUP_SAMPLES = 3
DEADLINE_S = 175.0


def loadavg() -> float | None:
    try:
        return float(Path("/proc/loadavg").read_text().split()[0])
    except (OSError, ValueError, IndexError):
        return None


def worker(mode: str, args, workdir: Path, deadline: float) -> dict:
    """Run one fresh worker process to completion and return its record."""
    cmd = [sys.executable, str(HERE / "worker.py"), mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--size", args.size, "--workdir", str(workdir)]
    timeout = deadline - monotonic()
    if timeout <= 0:
        raise TimeoutError(f"no time left to start the {mode} process")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{mode} process exited {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="input size; 'tiny' is for the benchmark's own tests")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "pacope" / "__init__.py").is_file():
        print(f"error: no pacope sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = monotonic() + DEADLINE_S
    workdir = ROOT / ".bench_out" / f"{args.workload}-s{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": args.size,
              "environment": {"cpu_count": os.cpu_count(), "python": platform.python_version()},
              "loadavg_before": loadavg()}
    try:
        if hasattr(WORKLOADS[args.workload], "prepare"):
            worker("prepare", args, workdir, deadline)
        if args.trace:
            main_run = worker("trace", args, workdir, deadline)
            setups = []
        else:
            setups = [worker("setup", args, workdir, deadline)
                      for _ in range(SETUP_SAMPLES - 1)]
            main_run = worker("measure", args, workdir, deadline)
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for name in ("logged.csv", "heldout.npy", "config.txt"):
            (workdir / name).unlink(missing_ok=True)
    record["loadavg_after"] = loadavg()

    metrics = dict(main_run["metrics"])
    setup_times = [r["setup_s"] for r in setups] + [main_run["setup_s"]]
    problems = [p for r in setups for p in r["problems"]] + main_run["problems"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setup_times), "unit": "s"}
    failed = main_run["failed"] + sum(r["failed"] for r in setups)
    attempted = main_run["attempted"] + sum(r["attempted"] for r in setups)
    record["environment"].update(main_run["versions"])
    record.update(setup_s_samples=setup_times, problems=problems,
                  error_rate=failed / attempted, **main_run["detail"])
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (workdir / f"result-trace{args.trace}.json").write_text(
        json.dumps({"record": record, "result": result}, indent=1) + "\n")
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
