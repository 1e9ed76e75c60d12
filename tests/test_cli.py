import csv
import importlib
import math
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

import pacope
from pacope.calibrate import CalibratedPredictor, CalibrationDiagnostics, calibrate_split
from pacope.cli import cli
from pacope.core import PacParams, child_rng, save_csv
from pacope.quantile import QuantilePairModel
from pacope.rejection import RsDataset, RsSplit
from pacope.synthenv import sample_logged
from test_bench import fake_figure1

FAST_CONFIG = """
runs=3
n=300
epochs=120
policy_epochs=150
n_grid=150,300
delta_eps_grid=0.05,1.0
copp_mc_samples=6
theorem4_n_grid=150,300
theorem4_runs=2
"""


@pytest.fixture()
def fast_config(tmp_path):
    path = tmp_path / "config.txt"
    path.write_text(FAST_CONFIG)
    return str(path)


def test_unknown_flag_returns_nonzero():
    assert cli(["simulate", "--bogus"]) != 0


def test_figure2_takes_no_test_point_flag():
    # Figure 2 draws no test set, so it has no test-point count to set.
    assert cli(["figure2", "--tests", "100"]) != 0


@pytest.mark.parametrize(("command", "flag"), [
    ("simulate", "--out"), ("simulate", "--jobs"), ("simulate", "--runs"),
    ("theorem4", "--runs"), ("calibrate", "--out"), ("calibrate", "--jobs"),
])
def test_subcommand_rejects_flag_it_does_not_read(capsys, command, flag):
    argv = [command, flag, "1"]
    if command == "calibrate":
        argv += ["--data", "logged.csv", "--pe", "gaussian:slope=0.25,variance=1"]
    assert cli(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_unknown_command_returns_nonzero():
    assert cli(["frobnicate"]) != 0


def test_simulate_prints_report(capsys, fast_config):
    assert cli(["simulate", "--seed", "1", "--n", "2000", "--config", fast_config]) == 0
    out = capsys.readouterr().out
    fields = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert 0.0 <= float(fields["miscoverage"]) <= 1.0
    assert math.isfinite(float(fields["mean_length"]))


def test_figure2_outputs_are_byte_identical(tmp_path, fast_config):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli(["figure2", "--runs", "3", "--seed", "7", "--config", fast_config,
                "--out", str(out1)]) == 0
    assert cli(["figure2", "--runs", "3", "--seed", "7", "--config", fast_config,
                "--out", str(out2)]) == 0
    for name in ("figure2.csv", "figure2_panel_coverage.csv", "figure2_panel_length.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_figure2_jobs_flag_keeps_bytes(tmp_path, fast_config):
    serial, parallel = tmp_path / "j1", tmp_path / "j2"
    for jobs, out in (("1", serial), ("2", parallel)):
        assert cli(["figure2", "--runs", "4", "--jobs", jobs, "--seed", "7",
                    "--config", fast_config, "--out", str(out)]) == 0
    assert (serial / "figure2.csv").read_bytes() == (parallel / "figure2.csv").read_bytes()


def test_figure2_panels_follow_configured_deltas(tmp_path, capsys):
    config = tmp_path / "config.txt"
    config.write_text(FAST_CONFIG + "figure2_deltas=0.2,0.05\n")
    out = tmp_path / "out"
    assert cli(["figure2", "--runs", "3", "--seed", "7", "--config", str(config),
                "--out", str(out)]) == 0
    assert "3=PAC-0.2, 4=PAC-0.05" in capsys.readouterr().out
    for name in ("figure2_panel_coverage.csv", "figure2_panel_length.csv"):
        with open(out / name, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["x"] for row in rows] == ["1", "2", "3", "4"]
        assert not any(math.isnan(float(row["y"])) for row in rows)


def test_figure1_and_bounds_and_theorem4_write_tables(tmp_path, fast_config):
    out = tmp_path / "out"
    assert cli(["figure1", "--seed", "3", "--config", fast_config, "--out", str(out)]) == 0
    assert (out / "figure1.csv").exists()
    assert (out / "figure1_trials.csv").exists()
    assert (out / "figure1_panel_left.csv").read_text().splitlines()[0] == "x,y,yerr"
    header = (out / "bounds.csv").read_text().splitlines()[0]
    assert header == "n,freq,lower,upper,vacuous,pass"
    assert cli(["theorem4", "--seed", "3", "--config", fast_config, "--out", str(out)]) == 0
    assert (out / "theorem4.csv").exists()


def test_figure1_jobs_flag_keeps_bounds_bytes(tmp_path, fast_config):
    serial, parallel = tmp_path / "j1", tmp_path / "j2"
    for jobs, out in (("1", serial), ("2", parallel)):
        assert cli(["figure1", "--runs", "4", "--jobs", jobs, "--seed", "7",
                    "--config", fast_config, "--out", str(out)]) == 0
    assert (serial / "bounds.csv").read_bytes() == (parallel / "bounds.csv").read_bytes()


def test_figure1_runs_each_known_trial_once(tmp_path, fast_config, monkeypatch):
    bench = importlib.import_module("pacope.bench")
    calls = []

    def counting(args):
        calls.append(args[2:])
        return known_trial(args)

    known_trial = bench._known_trial
    monkeypatch.setattr(bench, "_known_trial", counting)
    assert cli(["figure1", "--seed", "3", "--config", fast_config, "--out", str(tmp_path)]) == 0
    assert calls == [(n, run) for n in (150, 300) for run in range(3)]


def test_figure1_exits_1_on_a_failed_bound(tmp_path, capsys, monkeypatch):
    # Every fabricated trial misses at n = 10^7, where both sides of the bound are informative.
    path = tmp_path / "config.txt"
    path.write_text("n_grid=10000000\n")
    monkeypatch.setattr(importlib.import_module("pacope.cli"), "run_figure1",
                        lambda config, seed: fake_figure1(config, config.runs))
    out = tmp_path / "out"
    assert cli(["figure1", "--runs", "200", "--config", str(path), "--out", str(out)]) == 1
    printed = capsys.readouterr().out
    assert "n=10000000: freq=0.0000" in printed and printed.endswith("-> FAIL\n")
    assert (out / "bounds.csv").read_text().splitlines()[1].endswith(",0,0")


def test_figure1_rejects_delta_eps_before_the_sweep(tmp_path, capsys, monkeypatch):
    def no_trial(args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(importlib.import_module("pacope.bench"), "_known_trial", no_trial)
    path = tmp_path / "config.txt"
    path.write_text(FAST_CONFIG + "delta_eps=0.3\n")
    out = tmp_path / "out"
    assert cli(["figure1", "--config", str(path), "--out", str(out)]) == 2
    assert "delta_eps must lie in (0, epsilon)" in capsys.readouterr().err
    assert not out.exists()


def test_bounds_subcommand_is_gone(capsys):
    # figure1 writes bounds.csv from its own trials.
    assert cli(["bounds", "--runs", "3"]) == 2
    assert "invalid choice: 'bounds'" in capsys.readouterr().err


def test_calibrate_then_predict_round_trip(tmp_path, fast_config):
    data = sample_logged(600, child_rng(21))
    csv_path = tmp_path / "logged.csv"
    save_csv(data, str(csv_path))
    model_path = tmp_path / "predictor.txt"
    rc = cli([
        "calibrate", "--data", str(csv_path),
        "--pe", "gaussian:slope=0.25,intercept=0,variance=1",
        "--pb", "gaussian:slope=0.25,intercept=0,variance=4",
        "--model", str(model_path), "--seed", "5", "--config", fast_config,
    ])
    assert rc == 0
    predictor = CalibratedPredictor.load(model_path.read_text())
    assert math.isfinite(predictor.threshold)


@pytest.mark.parametrize("known", [True, False])
def test_calibrate_and_predict_load_no_scipy(tmp_path, fast_config, known):
    # A fresh process imports the package, calibrates, reloads and predicts:
    # neither scipy.special nor the process pool may be imported on the way.
    csv_path = tmp_path / "logged.csv"
    save_csv(sample_logged(600, child_rng(24)), str(csv_path))
    pb = ["--pb", "gaussian:slope=0.25,intercept=0,variance=4"] if known else []
    argv = ["calibrate", "--data", str(csv_path), "--pe", "gaussian:slope=0.25,intercept=0,variance=1",
            *pb, "--model", str(tmp_path / "p.txt"), "--seed", "5", "--config", fast_config]
    script = textwrap.dedent(f"""
        import sys
        from pathlib import Path
        import numpy as np
        import pacope
        from pacope.cli import cli
        assert cli({argv!r}) == 0
        predictor = pacope.CalibratedPredictor.load(Path({str(tmp_path / "p.txt")!r}).read_text())
        predictor.interval_batch(np.linspace(-2.0, 2.0, 5).reshape(-1, 1))
        assert cli(["predict", "--model", {str(tmp_path / "p.txt")!r}, "--s", "0.5"]) == 0
        loaded = [name for name in ("scipy.special", "concurrent.futures.process") if name in sys.modules]
        assert not loaded, loaded
    """)
    src = str(Path(pacope.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_calibrate_reports_trivial_at_cutoff_minus_one(tmp_path, capsys):
    # 30 rows leave a calibration half too small for any cutoff at the defaults.
    csv_path = tmp_path / "logged.csv"
    save_csv(sample_logged(30, child_rng(1)), str(csv_path))
    rc = cli([
        "calibrate", "--data", str(csv_path),
        "--pe", "gaussian:slope=0.25,intercept=0,variance=1",
        "--pb", "gaussian:slope=0.25,intercept=0,variance=4",
        "--model", str(tmp_path / "p.txt"),
    ])
    assert rc == 0
    assert "k=-1 threshold=inf trivial=1" in capsys.readouterr().out
    assert cli(["predict", "--model", str(tmp_path / "p.txt"), "--s", "0.5"]) == 0
    assert capsys.readouterr().out == "(-inf, inf)\n"


def test_calibrate_estimates_behavior_policy_when_omitted(tmp_path, fast_config, capsys):
    data = sample_logged(600, child_rng(22))
    csv_path = tmp_path / "logged.csv"
    save_csv(data, str(csv_path))
    model_path = tmp_path / "predictor.txt"
    rc = cli([
        "calibrate", "--data", str(csv_path),
        "--pe", "gaussian:slope=0.25,intercept=0,variance=1",
        "--model", str(model_path), "--seed", "5", "--config", fast_config,
    ])
    assert rc == 0
    assert "calibrated" in capsys.readouterr().out


@pytest.mark.parametrize("known", [False, True])
def test_calibrate_header_only_csv_keeps_context_dimension(tmp_path, capsys, known):
    csv_path = tmp_path / "empty.csv"
    csv_path.write_text("s1,s2,a,r\n")
    model_path = tmp_path / "predictor.txt"
    argv = ["calibrate", "--data", str(csv_path),
            "--pe", "gaussian:slope=0.25 0.1,intercept=0,variance=1", "--model", str(model_path)]
    if known:
        argv += ["--pb", "gaussian:slope=0.25 0.1,intercept=0,variance=4"]
    assert cli(argv) == 0
    capsys.readouterr()
    assert cli(["predict", "--model", str(model_path), "--s", "0.5 0.7"]) == 0
    assert capsys.readouterr().out.strip() == "(-inf, inf)"


ONE_D_PE = ["--pe", "gaussian:slope=0.25,variance=1"]


@pytest.mark.parametrize("policies, text", [
    (["--pe", "gaussian:slope=0.25 0.1,variance=1"], None),
    (["--pe", "gaussian:slope=,variance=1"], None),
    (ONE_D_PE + ["--pb", "gaussian:slope=0.25 0.1,variance=4"], None),
    (ONE_D_PE + ["--pb", "gaussian:slope=0.25,variance=4"], "s1,s2,a,r\n"),
    (ONE_D_PE, "s1,s2,a,r\n"),
    (ONE_D_PE, "s1,s2,a,r\n0.1,0.2,0.3,0.4\n0.5,0.6,0.7,0.8\n"),
], ids=["pe", "pe-empty-slope", "pb", "header-only-known", "header-only", "two-rows"])
def test_calibrate_policy_of_wrong_dimension_reports_error(tmp_path, capsys, policies, text):
    # A 1-d CSV with a policy of another dimension used to exit 2 with
    # numpy's matmul message; a 2-d CSV too small to fit on used to exit 0.
    csv_path = tmp_path / "logged.csv"
    if text is None:
        save_csv(sample_logged(200, child_rng(25)), str(csv_path))
    else:
        csv_path.write_text(text)
    model_path = tmp_path / "predictor.txt"
    assert cli(["calibrate", "--data", str(csv_path), *policies, "--model", str(model_path)]) == 2
    err = capsys.readouterr().err
    assert "dimension" in err and "matmul" not in err
    assert not model_path.exists()


def test_policy_margin_config_key_reports_error(tmp_path, capsys):
    # The variance-clamp margin is a constant, not a config key.
    csv_path = tmp_path / "logged.csv"
    save_csv(sample_logged(200, child_rng(26)), str(csv_path))
    path = tmp_path / "config.txt"
    path.write_text("policy_margin=0.1\n")
    argv = ["calibrate", "--data", str(csv_path), "--pe", "gaussian:slope=0.25,variance=1",
            "--model", str(tmp_path / "predictor.txt"), "--config", str(path)]
    assert cli(argv) == 2
    assert "unknown config key: policy_margin" in capsys.readouterr().err


@pytest.mark.parametrize("header, body, line", [
    ("s{big},a,r", "0,0,0", 1),
    ("s,a,r", "0,0,0\n{big},0,0\nnan,0,0", 3),
], ids=["header", "body"])
def test_calibrate_oversized_field_reports_line(tmp_path, capsys, header, body, line):
    # The NaN row sends the body through the row-by-row reader, which stops
    # at the oversized field first.
    big = "1" * (csv.field_size_limit() + 1)
    csv_path = tmp_path / "big.csv"
    csv_path.write_text(f"{header}\n{body}\n".format(big=big))
    argv = ["calibrate", "--data", str(csv_path),
            "--pe", "gaussian:slope=0.25,intercept=0,variance=1",
            "--model", str(tmp_path / "predictor.txt")]
    assert cli(argv) == 2
    err = capsys.readouterr().err
    assert f"line {line}: field larger than field limit" in err


def test_predict_prints_interval(tmp_path, capsys):
    data = sample_logged(600, child_rng(23))
    from pacope.calibrate import pacopp_known
    from pacope.synthenv import DEFAULT_ENV

    predictor = pacopp_known(
        data, DEFAULT_ENV.behavior_policy(), DEFAULT_ENV.target_policy(),
        PacParams(0.2, 0.1, 0.5), child_rng(23, 1),
    )
    path = tmp_path / "p.txt"
    path.write_text(predictor.dump())
    assert cli(["predict", "--model", str(path), "--s", "0.5"]) == 0
    out = capsys.readouterr().out.strip()
    lo, hi = out.strip("()").split(", ")
    iv = predictor.predict(0.5)
    assert float(lo) == iv.lo and float(hi) == iv.hi


def _crossing_predictor(tmp_path, threshold=-0.5, k=0):
    # Threshold -0.5 on a band whose lines cross near s = 28: empty at s = 1000.
    model = QuantilePairModel(np.array([-4.9, 1.49]), np.array([5.23, 1.13]))
    diag = CalibrationDiagnostics(n_rs=20, m_cal=10, k=k, tie_flag=False, weight_violations=0, bound=2.0)
    predictor = CalibratedPredictor(model, threshold, PacParams(0.2, 0.5, 0.5), diag)
    path = tmp_path / "p.txt"
    path.write_text(predictor.dump())
    return predictor, path


def test_predict_prints_empty_interval(tmp_path, capsys):
    predictor, path = _crossing_predictor(tmp_path)
    assert cli(["predict", "--model", str(path), "--s", "1000"]) == 0
    assert capsys.readouterr().out.strip() == "empty"
    assert cli(["predict", "--model", str(path), "--s", "0"]) == 0
    iv = predictor.predict(0.0)
    assert capsys.readouterr().out.strip() == f"({iv.lo}, {iv.hi})"


def test_predict_rejects_nan_context(tmp_path, capsys):
    _, path = _crossing_predictor(tmp_path)
    assert cli(["predict", "--model", str(path), "--s", "nan"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "NaN" in captured.err


@pytest.mark.parametrize(("s", "message"), [
    ("inf", "NaN or infinite"), ("-inf", "NaN or infinite"), ("1e308", "overflows"),
])
def test_predict_rejects_non_finite_context_or_interval(tmp_path, capsys, s, message):
    # Finite threshold: an infinite context, or one whose band overflows, has no interval.
    _, path = _crossing_predictor(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli(["predict", "--model", str(path), f"--s={s}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def _trivial_predictor():
    """The predictor of an empty split: no model, an infinite threshold."""
    empty = RsDataset.empty(1)
    return calibrate_split(RsSplit(empty, empty, violations=0, bound=1.0), PacParams(0.2, 0.1, 0.5))


def test_predict_trivial_model_prints_infinite_interval(tmp_path, capsys):
    predictor = _trivial_predictor()
    path = tmp_path / "trivial.txt"
    path.write_text(predictor.dump())
    assert cli(["predict", "--model", str(path), "--s", "0.0"]) == 0
    assert capsys.readouterr().out.strip() == "(-inf, inf)"


def test_predict_trivial_prints_whole_line_where_band_overflows(tmp_path, capsys):
    # k = -1 on the crossing band: the whole line, although the band is infinite at 1e308.
    _, path = _crossing_predictor(tmp_path, math.inf, k=-1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli(["predict", "--model", str(path), "--s", "1e308"]) == 0
    assert capsys.readouterr().out.strip() == "(-inf, inf)"


def test_predict_rejects_context_of_wrong_dimension(tmp_path, capsys):
    predictor = _trivial_predictor()
    path = tmp_path / "p.txt"
    path.write_text(predictor.dump())
    assert cli(["predict", "--model", str(path), "--s", "0.5 0.7"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "dimension" in captured.err


@pytest.mark.parametrize("keep", [0, 3, 10, -1])
def test_predict_rejects_truncated_predictor_file(tmp_path, capsys, keep):
    text = _trivial_predictor().dump()
    path = tmp_path / "p.txt"
    path.write_text("\n".join(text.splitlines()[:keep]) + "\n")
    assert cli(["predict", "--model", str(path), "--s", "0.5"]) == 2
    assert "predictor file" in capsys.readouterr().err


def test_predict_rejects_malformed_predictor_field(tmp_path, capsys):
    text = _trivial_predictor().dump()
    path = tmp_path / "p.txt"
    path.write_text(text.replace("m_cal=0", "m_cal=zero"))
    assert cli(["predict", "--model", str(path), "--s", "0.5"]) == 2
    assert "m_cal" in capsys.readouterr().err


def _fitted_predictor_text():
    model = QuantilePairModel(np.array([-1.0, 0.5]), np.array([1.0, 0.5]))
    diag = CalibrationDiagnostics(n_rs=20, m_cal=10, k=0, tie_flag=False, weight_violations=0, bound=2.0)
    return CalibratedPredictor(model, 0.5, PacParams(0.2, 0.1, 0.5), diag).dump()


@pytest.mark.parametrize("trivial, old, new", [
    (False, "threshold=0.5", "threshold=nan"),
    (True, "threshold=inf", "threshold=-inf"),
    (False, "w_lo=-1.0 0.5", "w_lo=-1.0 nan"),
    (False, "w_up=1.0 0.5", "w_up=1.0 inf"),
    (False, "threshold=0.5", "threshold=0.5\nthreshold=0.25"),
    (False, "bound=2.0", "bound=2.0\nextra=1"),
    (False, "w_up=1.0 0.5", "w_up=1.0 0.5 0.25"),
], ids=["nan-threshold", "minus-inf-threshold", "nan-weight", "inf-weight",
        "repeated-key", "unknown-key", "unequal-weights"])
def test_predict_rejects_invalid_predictor_file(tmp_path, capsys, trivial, old, new):
    if trivial:
        text = _trivial_predictor().dump()
    else:
        text = _fitted_predictor_text()
    assert old in text
    path = tmp_path / "p.txt"
    path.write_text(text.replace(old, new))
    assert cli(["predict", "--model", str(path), "--s", "0.5"]) == 2
    assert "predictor file" in capsys.readouterr().err


@pytest.mark.parametrize("old, new", [
    ("k=0", "k=10"),
    ("k=0", "k=-2"),
    ("n_rs=20", "n_rs=3"),
    ("m_cal=10", "m_cal=-1"),
], ids=["k-not-below-m-cal", "k-below-minus-one",
        "m-cal-above-n-rs", "negative-m-cal"])
def test_predict_rejects_inconsistent_diagnostics(tmp_path, capsys, old, new):
    text = _fitted_predictor_text()
    assert f"\n{old}\n" in text
    edited = text.replace(f"\n{old}\n", f"\n{new}\n")
    with pytest.raises(ValueError, match="predictor file: diagnostics"):
        CalibratedPredictor.load(edited)
    path = tmp_path / "p.txt"
    path.write_text(edited)
    assert cli(["predict", "--model", str(path), "--s", "0.5"]) == 2
    assert "predictor file" in capsys.readouterr().err


def test_bad_config_key_reports_error(tmp_path, capsys):
    path = tmp_path / "config.txt"
    path.write_text("not_a_key=3\n")
    assert cli(["simulate", "--config", str(path)]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["theorem4_contexts=250", "weight_error_mc=100000"])
def test_removed_monte_carlo_keys_report_error(tmp_path, capsys, line):
    # Theorem 4's measure and the weight error are exact: nothing to draw.
    path = tmp_path / "config.txt"
    path.write_text(FAST_CONFIG + line + "\n")
    assert cli(["theorem4", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert f"unknown config key: {line.split('=')[0]}" in capsys.readouterr().err


@pytest.mark.parametrize(("command", "line", "message"), [
    ("figure1", "n_grid=", "n_grid must be non-empty"),
    ("figure1", "delta_eps_grid=", "delta_eps_grid must be non-empty"),
    ("figure2", "figure2_deltas=", "figure2_deltas must be non-empty"),
    ("figure1", "n_grid=0", "n_grid entries must be >= 1"),
    ("theorem4", "theorem4_n_grid=", "theorem4_n_grid must be non-empty"),
    ("theorem4", "theorem4_n_grid=0", "theorem4_n_grid entries must be >= 1"),
    # Entries that give no valid row: no band frequency at delta_eps <= 0,
    # no PacParams at a figure-2 delta outside (0, 1).
    ("figure1", "delta_eps_grid=-0.1,0,0.05", "delta_eps_grid entries must be > 0"),
    ("figure1", "delta_eps_grid=0.05,nan", "delta_eps_grid entries must be > 0"),
    ("figure2", "figure2_deltas=0.1,1.5", "figure2_deltas entries must lie in (0, 1)"),
    ("figure2", "figure2_deltas=0,0.1", "figure2_deltas entries must lie in (0, 1)"),
])
def test_empty_grid_or_zero_n_reports_error(tmp_path, capsys, command, line, message):
    path = tmp_path / "config.txt"
    path.write_text(FAST_CONFIG + line + "\n")
    assert cli([command, "--config", str(path), "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_reports_error(tmp_path, capsys, jobs):
    # A worker count below one used to run serially and exit 0.
    path = tmp_path / "config.txt"
    path.write_text(FAST_CONFIG)
    args = ["figure2", "--config", str(path), "--out", str(tmp_path), "--runs", "2", "--jobs", jobs]
    assert cli(args) == 2
    assert "n_jobs must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "figure2.csv").exists()


def test_bad_policy_spec_reports_error(tmp_path, capsys):
    data = sample_logged(50, child_rng(24))
    csv_path = tmp_path / "logged.csv"
    save_csv(data, str(csv_path))
    assert cli(["calibrate", "--data", str(csv_path), "--pe", "uniform:a=1"]) == 2
