"""Command-line benchmark driver.

Subcommands::

    simulate   one seeded trial, prints the trial report
    figure1    band-frequency sweep and its frequency-bound check
               -> figure1.csv, figure1_trials.csv, panels, bounds.csv
               (exits 1 when a bound fails)
    figure2    method comparison   -> figure2.csv, panels
    theorem4   oracle-interval convergence -> theorem4.csv
    calibrate  fit a predictor from a logged-data CSV, dump it to a file
    predict    load a predictor file and print the interval at a context
               (``empty`` where the interval is empty)

Flags: every subcommand but ``predict`` takes ``--seed`` and ``--config FILE``
(flat ``key=value`` lines; CLI flags win); ``figure1`` and ``figure2`` add
``--out DIR``, ``--jobs`` and ``--runs``; ``theorem4`` adds
``--out DIR`` and ``--jobs`` (its run count is the config key
``theorem4_runs``). Tables are CSV with fixed headers; each figure panel also
gets a plot-data CSV with ``x,y,yerr`` columns so any external plotter can
render it.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .bench import (
    AggregateTable,
    BenchConfig,
    TrialReport,
    bounds_table,
    figure1_trials_table,
    run_figure1,
    run_figure2,
    run_theorem4_convergence,
    simulate_trial,
)
from .behavior import pacopp_unknown
from .calibrate import CalibratedPredictor, pacopp_known
from .core import GaussianLinearPolicy, child_rng, load_csv


def _read_config_file(path: str) -> dict[str, str]:
    mapping: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}: line {lineno}: expected key=value")
        key, _, value = line.partition("=")
        mapping[key.strip()] = value.strip()
    return mapping


def _build_config(args) -> BenchConfig:
    mapping = _read_config_file(args.config) if args.config else {}
    config = BenchConfig.from_mapping(mapping)
    overrides = {}
    if getattr(args, "runs", None) is not None:
        overrides["runs"] = args.runs
    if getattr(args, "n", None) is not None:
        overrides["n"] = args.n
    if getattr(args, "jobs", None) is not None:
        overrides["n_jobs"] = args.jobs
    return replace(config, **overrides) if overrides else config


def _parse_policy_spec(spec: str) -> GaussianLinearPolicy:
    """Parse ``gaussian:slope=0.25,intercept=0,variance=1`` (slope may be
    space-separated for vector contexts)."""
    kind, _, body = spec.partition(":")
    if kind.strip() != "gaussian":
        raise ValueError(f"unsupported policy kind: {kind!r}")
    fields = {}
    for item in body.split(","):
        if not item.strip():
            continue
        key, _, value = item.partition("=")
        fields[key.strip()] = value.strip()
    missing = {"slope", "variance"} - fields.keys()
    if missing:
        raise ValueError(f"policy spec missing fields: {sorted(missing)}")
    slope = np.array([float(v) for v in fields["slope"].split()])
    intercept = float(fields.get("intercept", "0"))
    return GaussianLinearPolicy(slope, intercept, float(fields["variance"]))


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_panel(path: Path, xs, ys, yerrs) -> None:
    AggregateTable(("x", "y", "yerr"), tuple(zip(xs, ys, yerrs))).write_csv(path)


def _print_report(report: TrialReport) -> None:
    for key, value in asdict(report).items():
        print(f"{key}={value}")


def _cmd_simulate(args) -> int:
    config = _build_config(args)
    report = simulate_trial(config, args.seed, algo=args.algo)
    _print_report(report)
    return 0


def _cmd_figure1(args) -> int:
    config = _build_config(args)
    if not 0.0 < config.delta_eps < config.epsilon:  # the bound check's condition, before the sweep
        raise ValueError("delta_eps must lie in (0, epsilon)")
    out = _out_dir(args)
    table = run_figure1(config, args.seed)
    table.write_csv(out / "figure1.csv")
    figure1_trials_table(table).write_csv(out / "figure1_trials.csv")
    # Left panel: band frequency against n at the configured band half-width.
    panel_de = config.delta_eps if config.delta_eps in config.delta_eps_grid \
        else config.delta_eps_grid[0]
    left = [r for r in table.rows if r[1] == panel_de]
    _write_panel(out / "figure1_panel_left.csv",
                 [r[0] for r in left], [r[3] for r in left], [r[4] for r in left])
    # Right panel: band frequency against the half-width at the anchor n.
    panel_n = config.n if config.n in config.n_grid else config.n_grid[-1]
    right = [r for r in table.rows if r[0] == panel_n]
    _write_panel(out / "figure1_panel_right.csv",
                 [r[1] for r in right], [r[3] for r in right], [r[4] for r in right])
    print(f"wrote {out / 'figure1.csv'} ({len(table.rows)} rows)")
    bounds = bounds_table(config, table)
    bounds.write_csv(out / "bounds.csv")
    for n, freq, lower, upper, vacuous, passed in bounds.rows:
        tag = "pass" if passed else "FAIL"
        note = " (vacuous)" if vacuous else ""
        print(f"n={n}: freq={freq:.4f} in [{lower:.4f}, {upper:.4f}] -> {tag}{note}")
    return 0 if all(row[5] for row in bounds.rows) else 1


def _figure2_panel_rows(table: AggregateTable, deltas):
    labels, covs, cov_errs, lens, len_errs = [], [], [], [], []
    methods = [("COPP", None), ("COPP-RS", None)] + [("PACOPP", delta) for delta in deltas]
    for method, delta in methods:
        rows = [
            r for r in table.rows
            if r[0] == method and (delta is None or r[1] == delta)
        ]
        coverage = np.array([r[3] for r in rows])
        length = np.array([r[4] for r in rows])
        finite = np.isfinite(length)
        labels.append(method if delta is None else f"PAC-{delta}")
        covs.append(float(np.mean(coverage)))
        cov_errs.append(float(np.std(coverage) / math.sqrt(len(coverage))))
        lens.append(float(np.mean(length[finite])) if finite.any() else math.inf)
        len_errs.append(
            float(np.std(length[finite]) / math.sqrt(finite.sum())) if finite.any() else 0.0
        )
    return labels, covs, cov_errs, lens, len_errs


def _cmd_figure2(args) -> int:
    config = _build_config(args)
    out = _out_dir(args)
    table = run_figure2(config, args.seed)
    table.write_csv(out / "figure2.csv")
    labels, covs, cov_errs, lens, len_errs = _figure2_panel_rows(table, config.figure2_deltas)
    xs = list(range(1, len(labels) + 1))
    _write_panel(out / "figure2_panel_coverage.csv", xs, covs, cov_errs)
    _write_panel(out / "figure2_panel_length.csv", xs, lens, len_errs)
    print("method order:", ", ".join(f"{x}={lab}" for x, lab in zip(xs, labels)))
    print(f"wrote {out / 'figure2.csv'} ({len(table.rows)} rows)")
    return 0


def _cmd_theorem4(args) -> int:
    config = _build_config(args)
    out = _out_dir(args)
    table = run_theorem4_convergence(config, args.seed)
    table.write_csv(out / "theorem4.csv")
    for n, runs, n_trivial, median in table.rows:
        print(f"n={n}: median symmetric difference {median:.4f} "
              f"({runs} runs, {n_trivial} trivial)")
    return 0


def _cmd_calibrate(args) -> int:
    config = _build_config(args)
    data = load_csv(args.data)
    pe = _parse_policy_spec(args.pe)
    params = config.pac_params()
    rng = child_rng(args.seed, 0)
    if args.pb is not None:
        pb = _parse_policy_spec(args.pb)
        predictor = pacopp_known(data, pb, pe, params, rng)
    else:
        predictor = pacopp_unknown(data, pe, params, rng)
    Path(args.model).write_text(predictor.dump())
    d = predictor.diagnostics
    print(f"calibrated on {len(data)} rows: accepted={d.n_rs} m={d.m_cal} "
          f"k={d.k} threshold={predictor.threshold} trivial={int(d.trivial)}")
    print(f"wrote {args.model}")
    return 0


def _cmd_predict(args) -> int:
    predictor = CalibratedPredictor.load(Path(args.model).read_text())
    s = np.array([float(v) for v in args.s.split()])
    interval = predictor.predict(s)
    print("empty" if interval is None else f"({interval.lo}, {interval.hi})")
    return 0


def _add_common(
    parser: argparse.ArgumentParser, *, sweep: bool = False, runs: bool = False
) -> None:
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument("--config", type=str, default=None, help="flat key=value config file")
    if sweep:
        parser.add_argument("--out", type=str, default=".", help="output directory")
        parser.add_argument("--jobs", type=int, default=None, help="parallel worker count")
    if runs:
        parser.add_argument("--runs", type=int, default=None, help="number of seeded runs")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pacope",
        description="PAC prediction intervals for off-policy reward evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one trial and print its report")
    _add_common(p)
    p.add_argument("--n", type=int, default=None, help="logged sample size")
    p.add_argument("--algo", choices=("known", "unknown"), default="known")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("figure1", help="band-frequency sweep and its frequency-bound check")
    _add_common(p, sweep=True, runs=True)
    p.set_defaults(fn=_cmd_figure1)

    p = sub.add_parser("figure2", help="method comparison at fixed n")
    _add_common(p, sweep=True, runs=True)
    p.set_defaults(fn=_cmd_figure2)

    p = sub.add_parser("theorem4", help="oracle-interval convergence trend")
    _add_common(p, sweep=True)
    p.set_defaults(fn=_cmd_theorem4)

    p = sub.add_parser("calibrate", help="fit a predictor from logged CSV data")
    _add_common(p)
    p.add_argument("--data", required=True, help="logged dataset CSV (s,a,r)")
    p.add_argument("--pe", required=True, help="target policy spec")
    p.add_argument("--pb", default=None, help="behavior policy spec (omit to estimate)")
    p.add_argument("--model", default="predictor.txt", help="output predictor file")
    p.set_defaults(fn=_cmd_calibrate)

    p = sub.add_parser("predict", help="evaluate a dumped predictor at a context")
    p.add_argument("--model", required=True, help="predictor file from calibrate")
    p.add_argument("--s", required=True, help="context value(s), space-separated")
    p.set_defaults(fn=_cmd_predict)

    return parser


def cli(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(cli())


if __name__ == "__main__":
    main()
