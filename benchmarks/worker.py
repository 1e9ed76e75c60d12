"""One fresh benchmark process, started by ``run.py``.

Modes:

    prepare  write the workload's input files (untimed)
    setup    import pacope and run one untimed warm-up op; report the time
    measure  setup, then the closed op loop with tracing off
    trace    setup, then the op loop with each op run once untraced and
             once traced; report per-layer metrics

The last line of standard output is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from tracer import Tracer, layer_metrics
from workloads import SIZES, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
MAX_PROBLEMS = 20


def import_pacope():
    """Import the package from this checkout's ``src/`` and nowhere else."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import pacope

    if not Path(pacope.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"pacope was imported from {pacope.__file__}, not from {src}")
    return pacope


def run_ops(sides, seconds: float, min_ops: int) -> tuple[list[list[float]], int, list[str]]:
    """Closed loop: the next op starts when the previous one (and its check) ends.

    ``sides`` is a list of ``(workload, tracer or None)``. Each op index runs
    once per side, alternating which side goes first, so that a traced and an
    untraced side see the same inputs under the same machine conditions.
    """
    times: list[list[float]] = [[] for _ in sides]
    failed = 0
    problems: list[str] = []
    start = perf_counter()
    i = 0
    while i < min_ops or perf_counter() - start < seconds:
        order = range(len(sides)) if i % 2 == 0 else reversed(range(len(sides)))
        for k in order:
            workload, tracer = sides[k]
            scope = tracer.active(i) if tracer is not None else contextlib.nullcontext()
            t0 = perf_counter()
            try:
                with scope:
                    result = workload.op(i)
            except Exception as exc:  # a raising op is a failed op, not a crashed run
                times[k].append(perf_counter() - t0)
                failed += 1
                problems.append(f"op {i}: {type(exc).__name__}: {exc}")
                continue
            times[k].append(perf_counter() - t0)
            op_problems = workload.check(i, result)
            if op_problems:
                failed += 1
                problems += [f"op {i}: {p}" for p in op_problems]
        i += 1
    return times, failed, problems


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten ops beyond it, and its rank.

    With fewer than 20 ops no such percentile reaches the median. The 90th
    percentile (between the two slowest ops at 11 ops) is reported instead,
    which one stray slow op cannot move on its own.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n < 20:
        return statistics.quantiles(ordered, n=10, method="inclusive")[-1], 90.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("prepare", "setup", "measure", "trace"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args()
    cls = WORKLOADS[args.workload]
    size = SIZES[args.size]

    t0 = perf_counter()
    pacope = import_pacope()
    if args.mode == "prepare":
        cls.prepare(pacope, args.seed, size, args.workdir)
        print(json.dumps({"mode": "prepare"}))
        return 0
    workload = cls(pacope, args.seed, size, args.workdir)
    workload.warmup()
    setup_s = perf_counter() - t0
    setup_problems = workload.after_setup()

    import numpy
    import scipy

    out = {
        "mode": args.mode,
        "setup_s": setup_s,
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if args.mode == "setup":
        out.update(attempted=1, failed=int(bool(setup_problems)), problems=setup_problems)
        print(json.dumps(out))
        return 0

    min_ops = size.fixed_ops[args.workload]
    if args.mode == "measure":
        (times,), failed, problems = run_ops([(workload, None)], args.seconds, min_ops)
        runs = [workload]
        t_val, t_pct = tail(times)
        metrics = {
            "ops_per_s": (len(times) / sum(times), "1/s"),
            "op_s_p50": (statistics.median(times), "s"),
            "op_s_tail": (t_val, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "interval_length": (workload.interval_length(), "reward"),
        }
        detail = {"ops": len(times), "tail_percentile": t_pct, "op_times": times}
    else:
        traced = cls(pacope, args.seed, size, args.workdir)
        floor = pacope.DEFAULT_ENV.target_variance * (1.0 + pacope.BenchConfig().policy_margin)
        tracer = Tracer(variance_floor=floor)
        tracer.install(pacope)
        (plain, times), failed, problems = run_ops(
            [(workload, None), (traced, tracer)], args.seconds, min_ops)
        tracer.write(args.workdir / "spans.jsonl")
        runs = [workload, traced]
        metrics, shares = layer_metrics(tracer.spans, times)
        metrics["trace.overhead_ratio"] = (sum(plain) / sum(times), "ratio")
        detail = {
            "ops_traced": len(times), "spans": len(tracer.spans), "layer_share": shares,
            "missing_hooks": tracer.missing_hooks, "count_errors": tracer.count_errors,
        }
        times = plain + times

    run_problems: list[str] = list(setup_problems)
    for run in runs:
        p, d = run.finish()
        run_problems += p
        detail.setdefault("checks", []).append(d)
    if len({d.get("digest") for d in detail["checks"]}) > 1:
        run_problems.append("digest with tracing on differs from the digest with tracing off")
    if run_problems:
        failed = len(times)
    out.update(
        attempted=len(times),
        failed=failed,
        problems=(run_problems + problems)[:MAX_PROBLEMS],
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        detail=detail,
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
