import csv
import math

import numpy as np
import pytest

from pacope.calibrate import CalibratedPredictor, CalibrationDiagnostics, _trivial_predictor
from pacope.cli import cli
from pacope.core import PacParams, child_rng, save_csv
from pacope.quantile import QuantilePairModel
from pacope.synthenv import sample_logged

FAST_CONFIG = """
runs=3
test_points=400
n=300
epochs=120
policy_epochs=150
n_grid=150,300
delta_eps_grid=0.05,1.0
copp_mc_samples=6
copp_grid_size=30
length_subsample=10
theorem4_n_grid=150,300
theorem4_runs=2
theorem4_contexts=30
"""


@pytest.fixture()
def fast_config(tmp_path):
    path = tmp_path / "config.txt"
    path.write_text(FAST_CONFIG)
    return str(path)


def test_unknown_flag_returns_nonzero():
    assert cli(["simulate", "--bogus"]) != 0


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
    assert cli(["bounds", "--seed", "3", "--config", fast_config, "--out", str(out)]) == 0
    header = (out / "bounds.csv").read_text().splitlines()[0]
    assert header == "n,freq,lower,upper,vacuous,pass"
    assert cli(["theorem4", "--seed", "3", "--config", fast_config, "--out", str(out)]) == 0
    assert (out / "theorem4.csv").exists()


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
            "--pe", "gaussian:slope=0.25,intercept=0,variance=1", "--model", str(model_path)]
    if known:
        argv += ["--pb", "gaussian:slope=0.25,intercept=0,variance=4"]
    assert cli(argv) == 0
    capsys.readouterr()
    assert cli(["predict", "--model", str(model_path), "--s", "0.5 0.7"]) == 0
    assert capsys.readouterr().out.strip() == "(-inf, inf)"


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


def _crossing_predictor(tmp_path):
    # Threshold -0.5 on a band whose lines cross near s = 28: empty at s = 1000.
    model = QuantilePairModel(np.array([-4.9, 1.49]), np.array([5.23, 1.13]), (0.1, 0.9))
    diag = CalibrationDiagnostics(20, 10, 0, False, 0, False, 2.0)
    predictor = CalibratedPredictor(model, -0.5, PacParams(0.2, 0.5, 0.5), diag)
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


def test_predict_trivial_model_prints_infinite_interval(tmp_path, capsys):
    predictor = _trivial_predictor(PacParams(0.2, 0.1, 0.5), 1, 0, 0, 0, 1.0)
    path = tmp_path / "trivial.txt"
    path.write_text(predictor.dump())
    assert cli(["predict", "--model", str(path), "--s", "0.0"]) == 0
    assert capsys.readouterr().out.strip() == "(-inf, inf)"


def test_predict_rejects_context_of_wrong_dimension(tmp_path, capsys):
    predictor = _trivial_predictor(PacParams(0.2, 0.1, 0.5), 1, 0, 0, 0, 1.0)
    path = tmp_path / "p.txt"
    path.write_text(predictor.dump())
    assert cli(["predict", "--model", str(path), "--s", "0.5 0.7"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "dimension" in captured.err


@pytest.mark.parametrize("keep", [0, 3, 10, -1])
def test_predict_rejects_truncated_predictor_file(tmp_path, capsys, keep):
    text = _trivial_predictor(PacParams(0.2, 0.1, 0.5), 1, 0, 0, 0, 1.0).dump()
    path = tmp_path / "p.txt"
    path.write_text("\n".join(text.splitlines()[:keep]) + "\n")
    assert cli(["predict", "--model", str(path), "--s", "0.5"]) == 2
    assert "predictor file" in capsys.readouterr().err


def test_predict_rejects_malformed_predictor_field(tmp_path, capsys):
    text = _trivial_predictor(PacParams(0.2, 0.1, 0.5), 1, 0, 0, 0, 1.0).dump()
    path = tmp_path / "p.txt"
    path.write_text(text.replace("m_cal=0", "m_cal=zero"))
    assert cli(["predict", "--model", str(path), "--s", "0.5"]) == 2
    assert "m_cal" in capsys.readouterr().err


@pytest.mark.parametrize("old, new", [
    ("model.kind=affine", "model.kind=mlp"),
    ("model.up.0.values=0.0 0.0",
     "model.up.0.values=0.0 0.0\nmodel.lo.1.shape=2\nmodel.lo.1.values=0.0 0.0"),
    ("model.up.0.shape=2\nmodel.up.0.values=0.0 0.0",
     "model.up.0.shape=3\nmodel.up.0.values=0.0 0.0 0.0"),
], ids=["mlp-kind", "extra-parameter", "shape-mismatch"])
def test_predict_rejects_model_it_cannot_build(tmp_path, capsys, old, new):
    text = _trivial_predictor(PacParams(0.2, 0.1, 0.5), 1, 0, 0, 0, 1.0).dump()
    assert old in text
    path = tmp_path / "p.txt"
    path.write_text(text.replace(old, new))
    assert cli(["predict", "--model", str(path), "--s", "0.5"]) == 2
    assert "predictor file" in capsys.readouterr().err


def _fitted_predictor_text():
    model = QuantilePairModel(np.array([-1.0, 0.5]), np.array([1.0, 0.5]), (0.1, 0.9))
    diag = CalibrationDiagnostics(20, 10, 0, False, 0, False, 2.0)
    return CalibratedPredictor(model, 0.5, PacParams(0.2, 0.1, 0.5), diag).dump()


@pytest.mark.parametrize("trivial, old, new", [
    (False, "threshold=0.5", "threshold=nan"),
    (True, "threshold=inf", "threshold=-inf"),
    (False, "model.lo.0.values=-1.0 0.5", "model.lo.0.values=-1.0 nan"),
    (False, "model.up.0.values=1.0 0.5", "model.up.0.values=1.0 inf"),
    (False, "threshold=0.5", "threshold=0.5\nthreshold=0.25"),
    (False, "bound=2.0", "bound=2.0\nextra=1"),
    (False, "model.eps_lo=0.1", "model.eps_lo=0.2"),
    (False, "model.eps_up=0.9", "model.eps_up=0.8"),
], ids=["nan-threshold", "minus-inf-threshold", "nan-weight", "inf-weight",
        "repeated-key", "unknown-key", "model-eps-lo", "model-eps-up"])
def test_predict_rejects_invalid_predictor_file(tmp_path, capsys, trivial, old, new):
    if trivial:
        text = _trivial_predictor(PacParams(0.2, 0.1, 0.5), 1, 0, 0, 0, 1.0).dump()
    else:
        text = _fitted_predictor_text()
    assert old in text
    path = tmp_path / "p.txt"
    path.write_text(text.replace(old, new))
    assert cli(["predict", "--model", str(path), "--s", "0.5"]) == 2
    assert "predictor file" in capsys.readouterr().err


def test_bad_config_key_reports_error(tmp_path, capsys):
    path = tmp_path / "config.txt"
    path.write_text("not_a_key=3\n")
    assert cli(["simulate", "--config", str(path)]) == 2
    assert "error" in capsys.readouterr().err


def test_bad_policy_spec_reports_error(tmp_path, capsys):
    data = sample_logged(50, child_rng(24))
    csv_path = tmp_path / "logged.csv"
    save_csv(data, str(csv_path))
    assert cli(["calibrate", "--data", str(csv_path), "--pe", "uniform:a=1"]) == 2
