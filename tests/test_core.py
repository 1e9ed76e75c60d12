import math
import os
import tempfile
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pacope import core
from pacope.core import (
    GaussianLinearPolicy,
    LoggedDataset,
    PacParams,
    PredictionInterval,
    ceil_scaled,
    child_rng,
    load_csv,
    save_csv,
    split_dataset,
)


def _dataset(n, seed=0):
    rng = np.random.default_rng(seed)
    return LoggedDataset(rng.normal(size=(n, 1)), rng.normal(size=n), rng.normal(size=n))


class TestPacParams:
    def test_symmetric_defaults(self):
        p = PacParams(0.2, 0.1)
        assert p.eps_lo == pytest.approx(0.1, abs=1e-15)
        assert p.eps_up == pytest.approx(0.9, abs=1e-15)
        assert abs((p.eps_up - p.eps_lo) - 0.8) <= 1e-12

    @pytest.mark.parametrize("kwargs", [
        dict(epsilon=0.0, delta=0.1),
        dict(epsilon=1.0, delta=0.1),
        dict(epsilon=0.2, delta=0.0),
        dict(epsilon=0.2, delta=1.0),
        dict(epsilon=0.2, delta=0.1, gamma=0.0),
    ])
    def test_invalid_params_raise(self, kwargs):
        with pytest.raises(ValueError):
            PacParams(**kwargs)


class TestSplitDataset:
    def test_even_split(self):
        train, cal = split_dataset(_dataset(10), 0.5)
        assert len(train) == 5 and len(cal) == 5

    def test_ceil_goes_to_calibration(self):
        train, cal = split_dataset(_dataset(3), 0.5)
        assert len(train) == 1 and len(cal) == 2

    def test_empty_dataset(self):
        train, cal = split_dataset(LoggedDataset.empty(), 0.3)
        assert len(train) == 0 and len(cal) == 0

    def test_calibration_is_tail_in_order(self):
        d = _dataset(7)
        train, cal = split_dataset(d, 0.4)
        assert np.array_equal(train.rewards, d.rewards[:4])
        assert np.array_equal(cal.rewards, d.rewards[4:])

    def test_exhaustive_ceil_rule(self):
        # |cal| must equal ceil(gamma n) for the decimal gamma, all n <= 1000.
        for n in range(0, 1001):
            d = LoggedDataset(np.zeros((n, 1)), np.zeros(n), np.zeros(n))
            for tenths in range(1, 10):
                gamma = tenths / 10
                expected = int(math.ceil(Fraction(tenths, 10) * n))
                _, cal = split_dataset(d, gamma)
                assert len(cal) == expected, (n, gamma)

    def test_gamma_domain(self):
        with pytest.raises(ValueError):
            split_dataset(_dataset(5), 0.0)
        with pytest.raises(ValueError):
            split_dataset(_dataset(5), 1.0)


class TestCeilScaled:
    def test_decimal_levels_snap(self):
        assert ceil_scaled(0.8 * 10) == 8
        assert ceil_scaled(0.1 * 999) == 100
        assert ceil_scaled(8.2 - 1e-12) == 9
        assert ceil_scaled(8.001) == 9


class TestCsvRoundTrip:
    def test_single_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("s,a,r\n0.1,0.2,0.3\n")
        d = load_csv(str(path))
        assert len(d) == 1
        assert d.contexts[0, 0] == 0.1 and d.actions[0] == 0.2 and d.rewards[0] == 0.3

    def test_empty_data_section(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("s,a,r\n")
        assert len(load_csv(str(path))) == 0

    def test_nan_field_names_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("s,a,r\n0.0,0.0,0.0\n0.1,NaN,0.3\n")
        with pytest.raises(ValueError, match="line 3"):
            load_csv(str(path))

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("s,a,r\n0.1,0.2\n")
        with pytest.raises(ValueError, match="line 2"):
            load_csv(str(path))

    def test_non_numeric_field(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("s,a,r\nfoo,0.2,0.3\n")
        with pytest.raises(ValueError, match="line 2"):
            load_csv(str(path))

    def test_bad_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,y,z\n")
        with pytest.raises(ValueError, match="header"):
            load_csv(str(path))

    def test_vector_contexts(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("s1,s2,a,r\n1.0,2.0,3.0,4.0\n")
        d = load_csv(str(path))
        assert d.context_dim == 2
        assert np.array_equal(d.contexts[0], [1.0, 2.0])

    def test_round_trip_full_precision(self, tmp_path):
        d = _dataset(25, seed=3)
        path = tmp_path / "d.csv"
        save_csv(d, str(path))
        back = load_csv(str(path))
        assert np.array_equal(back.contexts, d.contexts)
        assert np.array_equal(back.actions, d.actions)
        assert np.array_equal(back.rewards, d.rewards)

    def test_header_only_keeps_dimension(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("s1,s2,s3,a,r\n")
        d = load_csv(str(path))
        assert len(d) == 0 and d.context_dim == 3

    @pytest.mark.parametrize("bad_row, message", [
        ("0.1,NaN,0.3", "line 4: non-finite value"),
        ("0.1,0.2", "line 4: expected 3 fields, got 2"),
        ("foo,0.2,0.3", "line 4: non-numeric field"),
    ])
    def test_blank_line_before_bad_row_counts(self, tmp_path, bad_row, message):
        path = tmp_path / "d.csv"
        path.write_text(f"s,a,r\n0.0,0.0,0.0\n\n{bad_row}\n0.5,0.5,0.5\n")
        with pytest.raises(ValueError) as excinfo:
            load_csv(str(path))
        assert str(excinfo.value) == f"{path}: {message}"

    def test_clean_file_skips_row_loop(self, tmp_path, monkeypatch):
        # A well-formed file is parsed by the vectorized path alone.
        path = tmp_path / "d.csv"
        save_csv(_dataset(40, seed=4), str(path))
        monkeypatch.setattr(core, "_load_csv_rows", pytest.fail)
        assert len(load_csv(str(path))) == 40

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_header_over_two_lines_skips_both(self, tmp_path, monkeypatch, newline):
        # A quoted header field may hold a line break: the vectorized parse
        # skips every physical line of the header record.
        path = tmp_path / "d.csv"
        with open(path, "w", newline="") as fh:
            fh.write(newline.join(['"s', '",a,r', "1,2,3", "4,5,6", ""]))
        monkeypatch.setattr(core, "_load_csv_rows", pytest.fail)
        d = load_csv(str(path))
        assert d.contexts[:, 0].tolist() == [1.0, 4.0] and d.rewards.tolist() == [3.0, 6.0]

    @pytest.mark.parametrize("name", ["d.csv.gz", "d.csv.bz2", "d.csv.xz", "d.csv.lzma"])
    def test_plain_text_under_a_compression_suffix(self, tmp_path, name):
        # numpy would decompress a path by its suffix; the file is plain text.
        path = tmp_path / name
        path.write_text("s,a,r\n0.1,0.2,0.3\n")
        assert load_csv(str(path)).rewards.tolist() == [0.3]

    def test_float_spelling_outside_loadtxt_is_accepted(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("s,a,r\n1_0,0.2,0.3\n")
        assert load_csv(str(path)).contexts[0, 0] == 10.0


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


class TestCsvProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        dim=st.sampled_from([1, 3]),
        table=st.integers(0, 50).flatmap(
            lambda n: arrays(np.float64, (n, 5), elements=_FINITE)
        ),
    )
    def test_round_trip_is_bit_identical(self, dim, table):
        d = LoggedDataset(table[:, :dim], table[:, dim], table[:, dim + 1])
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "d.csv")
            save_csv(d, path)
            back = load_csv(path)
        assert back.context_dim == dim
        assert back.contexts.tobytes() == d.contexts.tobytes()
        assert back.actions.tobytes() == d.actions.tobytes()
        assert back.rewards.tobytes() == d.rewards.tobytes()

    @staticmethod
    def _field(value: float, style: int) -> str:
        text = (repr(value), f"{value:.17g}", f"{value:e}")[style % 3]
        if style >= 3:
            text = (f" {text}", f"{text}\t ", f'"{text}"', f'" {text} "')[style - 3]
        return text

    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.lists(st.tuples(
            st.lists(st.tuples(_FINITE, st.integers(0, 6)), min_size=3, max_size=3),
            st.sampled_from(["", "", "", "", "\n", "blank-cr", "foo", "nan", "1_0", "missing",
                             "extra", "spaces-only", "empty-field", "comment"]),
        ), max_size=12),
        newline=st.sampled_from(["\n", "\r\n"]),
        final_newline=st.booleans(),
    )
    def test_matches_row_loop_oracle(self, rows, newline, final_newline):
        # Blank lines, CRLF, surrounding spaces, quoted fields and the odd
        # malformed row (a '#' is data, not a comment): the parse equals the
        # row loop, bits or message.
        lines = []
        for fields, extra in rows:
            cells = [self._field(v, style) for v, style in fields]
            if extra == "\n":
                lines.append("")
            elif extra == "blank-cr":
                lines.append("\r")
            elif extra in ("foo", "nan", "1_0"):
                cells[1] = extra
            elif extra == "missing":
                cells.pop()
            elif extra == "extra":
                cells.append("0")
            elif extra == "spaces-only":
                lines.append("   ")
            elif extra == "empty-field":
                cells[2] = ""
            elif extra == "comment":
                cells[2] += " # note"
            lines.append(",".join(cells))
        text = "s,a,r" + newline + newline.join(lines) + (newline if final_newline else "")
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "d.csv")
            with open(path, "w", newline="") as fh:
                fh.write(text)
            try:
                expected = core._load_csv_rows(path).tobytes()
            except ValueError as err:
                with pytest.raises(ValueError) as excinfo:
                    load_csv(path)
                assert str(excinfo.value) == str(err)
                return
            d = load_csv(path)
        table = np.column_stack([d.contexts, d.actions, d.rewards]).reshape(-1, 3)
        assert table.tobytes() == expected


class TestLoggedDataset:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            LoggedDataset(np.array([[np.nan]]), np.array([0.0]), np.array([0.0]))
        with pytest.raises(ValueError):
            LoggedDataset(np.array([[0.0]]), np.array([np.inf]), np.array([0.0]))

    def test_arrays_are_frozen(self):
        d = _dataset(4)
        with pytest.raises(ValueError):
            d.rewards[0] = 1.0

    def test_order_preserved_by_take(self):
        d = _dataset(6)
        sub = d.take(np.array([1, 3, 5]))
        assert np.array_equal(sub.rewards, d.rewards[[1, 3, 5]])


class TestGaussianLinearPolicy:
    def test_density_integrates_to_one(self):
        policy = GaussianLinearPolicy(np.array([0.25]), 0.0, 4.0)
        sigma = math.sqrt(policy.variance)
        for s in (-10.0, -3.0, 0.0, 7.0, 10.0):
            mu = 0.25 * s
            grid = np.linspace(mu - 10 * sigma, mu + 10 * sigma, 20001)
            dens = policy.density(np.full((grid.size, 1), s), grid)
            integral = np.trapezoid(dens, grid)
            assert abs(integral - 1.0) < 1e-6

    def test_invalid_variance(self):
        with pytest.raises(ValueError):
            GaussianLinearPolicy(np.array([0.25]), 0.0, 0.0)

    def test_log_density_matches_density(self):
        policy = GaussianLinearPolicy(np.array([0.5]), 1.0, 2.0)
        ctx = np.array([[0.3], [-1.2]])
        actions = np.array([0.1, 2.2])
        assert np.allclose(np.exp(policy.log_density(ctx, actions)), policy.density(ctx, actions))

    @pytest.mark.parametrize("slope, dim", [([0.25, 0.1], 1), ([], 1), ([0.25], 2)])
    def test_context_dimension_mismatch_rejected(self, slope, dim):
        # Checked once in ``mean``, which density and sampling go through.
        policy = GaussianLinearPolicy(np.array(slope), 0.0, 1.0)
        ctx = np.zeros((3, dim))
        message = f"contexts have dimension {dim}, the policy takes {len(slope)}"
        with pytest.raises(ValueError, match=message):
            policy.mean(ctx)
        with pytest.raises(ValueError, match=message):
            policy.density(ctx, np.zeros(3))
        with pytest.raises(ValueError, match=message):
            policy.sample(ctx, child_rng(0))

    def test_sampling_moments(self):
        policy = GaussianLinearPolicy(np.array([0.25]), 0.0, 4.0)
        rng = child_rng(42)
        ctx = np.full((200000, 1), 2.0)
        draws = policy.sample(ctx, rng)
        assert abs(draws.mean() - 0.5) < 0.02
        assert abs(draws.var() - 4.0) < 0.05


class TestRng:
    def test_same_seed_same_stream(self):
        a = child_rng(7, 1, 2).uniform(size=10)
        b = child_rng(7, 1, 2).uniform(size=10)
        assert np.array_equal(a, b)

    def test_distinct_paths_differ(self):
        a = child_rng(7, 1, 2).uniform(size=10)
        b = child_rng(7, 1, 3).uniform(size=10)
        c = child_rng(8, 1, 2).uniform(size=10)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_split_draws_match_single_draw(self):
        # Consuming a stream in two calls yields the same values as one call.
        whole = child_rng(5).uniform(size=10)
        rng = child_rng(5)
        parts = np.concatenate([rng.uniform(size=4), rng.uniform(size=6)])
        assert np.array_equal(whole, parts)


class TestPredictionInterval:
    def test_whole_line(self):
        iv = PredictionInterval(-math.inf, math.inf)
        assert iv.lo == -math.inf and iv.hi == math.inf and iv.length() == math.inf

    def test_rejects_disorder_and_nan(self):
        with pytest.raises(ValueError):
            PredictionInterval(1.0, 0.0)
        with pytest.raises(ValueError):
            PredictionInterval(float("nan"), 1.0)
