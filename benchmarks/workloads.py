"""The three benchmark workloads: inputs from a seed, one op, output checks.

Each workload is a closed loop with one serial caller. An op is one trial on
the two sweep workloads and one CLI calibrate (plus reload and predict) on
``calibrate_large``. ``op(i)`` is the only timed call; ``check`` and
``finish`` run outside the timed region.

Inputs depend only on ``--seed``: op ``i`` of a sweep runs the program's own
seeded trial at master seed ``seed * 2**32 + i``, and ``calibrate_large``
calibrates on a CSV drawn from the synthetic environment with the seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
from dataclasses import dataclass, replace
from pathlib import Path

WARMUP_OP = 2**32 - 1
TARGET_POLICY_SPEC = "gaussian:slope=0.25,intercept=0,variance=1"


@dataclass(frozen=True)
class Size:
    """Input sizes; ``full`` is the benchmark, ``tiny`` is for its own tests.

    ``fixed_ops`` is how many ops every run completes even past the deadline:
    the digest and ``interval_length`` cover exactly those ops, so both are
    deterministic at a fixed seed.
    """

    known_n: tuple[int, ...]
    compare_n: int
    test_points: int
    epochs: int
    policy_epochs: int
    copp_mc_samples: int
    copp_grid_size: int
    length_subsample: int
    logged_rows: int
    heldout_contexts: int
    fixed_ops: dict


SIZES = {
    "full": Size(
        known_n=(500, 1000, 2000, 4000), compare_n=2000, test_points=10000,
        epochs=1500, policy_epochs=600, copp_mc_samples=50, copp_grid_size=200,
        length_subsample=500, logged_rows=200_000, heldout_contexts=50_000,
        fixed_ops={"known_sweep": 96, "method_compare": 40, "calibrate_large": 1},
    ),
    "tiny": Size(
        known_n=(200, 400), compare_n=400, test_points=400, epochs=60,
        policy_epochs=60, copp_mc_samples=5, copp_grid_size=20,
        length_subsample=10, logged_rows=4000, heldout_contexts=1000,
        fixed_ops={"known_sweep": 2, "method_compare": 2, "calibrate_large": 1},
    ),
}


def _sha(rows) -> str:
    h = hashlib.sha256()
    for row in rows:
        h.update(repr(row).encode())
        h.update(b"\n")
    return h.hexdigest()


def _mc_tolerance(p: float, n: int) -> float:
    """Three binomial standard errors at rate ``p`` over ``n`` trials."""
    return 3.0 * math.sqrt(p * (1.0 - p) / n)


def report_problems(t) -> list[str]:
    """Well-formedness of one trial report (its intervals, via their lengths)."""
    problems = []
    where = f"{t.method} delta={t.delta} n={t.n}"
    if not 0.0 <= t.miscoverage <= 1.0:
        problems.append(f"{where}: miscoverage {t.miscoverage} outside [0, 1]")
    if t.trivial:
        if not (math.isinf(t.mean_length) and t.k == -1):
            problems.append(f"{where}: trivial interval with finite length or k >= 0")
    elif not (math.isfinite(t.mean_length) and t.mean_length >= 0.0):
        problems.append(f"{where}: non-trivial interval has length {t.mean_length}")
    if t.method != "COPP":
        if math.isinf(t.threshold) != bool(t.trivial) or math.isnan(t.threshold):
            problems.append(f"{where}: threshold {t.threshold} disagrees with trivial={t.trivial}")
        if not 0 <= t.m_cal <= t.n_rs <= t.n:
            problems.append(f"{where}: counts out of order m={t.m_cal} n_rs={t.n_rs} n={t.n}")
    return problems


class _Sweep:
    """Shared bookkeeping of the two sweep workloads."""

    name = ""

    def __init__(self, pacope, seed: int, size: Size, workdir: Path) -> None:
        self.pacope = pacope
        self.seed = seed
        self.fixed_ops = size.fixed_ops[self.name]
        self.checked = 0
        self.misses: dict[float, int] = {}
        self.fixed_rows: list[tuple] = []
        self.lengths: list[float] = []

    def master(self, i: int) -> int:
        return self.seed * 2**32 + i

    def warmup(self) -> None:
        self.op(WARMUP_OP)

    def after_setup(self) -> list[str]:
        return []

    def interval_length(self) -> float:
        return sum(self.lengths) / len(self.lengths) if self.lengths else math.inf

    def finish(self) -> tuple[list[str], dict]:
        """PAC miss rate per delta against its limit, and the digest."""
        n = self.checked
        if n == 0:
            return ["no op completed"], {}
        rates = {str(d): m / n for d, m in self.misses.items()}
        limits = {str(d): d + _mc_tolerance(d, n) for d in self.misses}
        problems = [
            f"pac_miss_rate at delta={d} {rates[d]:.4f} > {limits[d]:.4f} over {n} trials"
            for d in rates if rates[d] > limits[d]
        ]
        detail = {
            "pac_miss_rate": rates,
            "pac_miss_limit": limits,
            "digest": _sha(self.fixed_rows),
            "digest_ops": min(n, self.fixed_ops),
        }
        return problems, detail


class KnownSweep(_Sweep):
    """Known-policy trials (figure 1, ``bounds``, ``theorem4``), cycling ``n``."""

    name = "known_sweep"

    def __init__(self, pacope, seed, size, workdir) -> None:
        super().__init__(pacope, seed, size, workdir)
        base = pacope.BenchConfig(test_points=size.test_points, epochs=size.epochs)
        self.configs = [replace(base, n=n) for n in size.known_n]
        self.epsilon, self.delta = base.epsilon, base.delta
        self.misses[base.delta] = 0

    def op(self, i: int):
        return self.pacope.simulate_trial(self.configs[i % len(self.configs)], self.master(i))

    def check(self, i: int, t) -> list[str]:
        self.checked += 1
        self.misses[self.delta] += t.miscoverage > self.epsilon
        if i < self.fixed_ops:
            self.fixed_rows.append((t.n, i, t.miscoverage, t.mean_length, t.trivial))
            if not t.trivial:
                self.lengths.append(t.mean_length)
        return report_problems(t)


class MethodCompare(_Sweep):
    """One figure-2 trial per op: PAC at four deltas, COPP-RS and COPP."""

    name = "method_compare"
    LENGTH_DELTA = 0.1

    def __init__(self, pacope, seed, size, workdir) -> None:
        super().__init__(pacope, seed, size, workdir)
        self.config = pacope.BenchConfig(
            n=size.compare_n, runs=1, test_points=size.test_points, epochs=size.epochs,
            policy_epochs=size.policy_epochs, copp_mc_samples=size.copp_mc_samples,
            copp_grid_size=size.copp_grid_size, length_subsample=size.length_subsample,
        )
        self.misses.update((d, 0) for d in self.config.figure2_deltas)

    def op(self, i: int):
        return self.pacope.run_figure2(self.config, self.master(i))

    def check(self, i: int, table) -> list[str]:
        self.checked += 1
        problems = []
        methods = sorted(t.method for t in table.trials)
        expected = sorted(["COPP", "COPP-RS"] + ["PACOPP"] * len(self.misses))
        if methods != expected:
            problems.append(f"trial rows {methods} != {expected}")
        for t in table.trials:
            problems += report_problems(t)
            if t.method == "PACOPP" and t.delta in self.misses:
                self.misses[t.delta] += t.miscoverage > self.config.epsilon
                if i < self.fixed_ops and t.delta == self.LENGTH_DELTA and not t.trivial:
                    self.lengths.append(t.mean_length)
        if i < self.fixed_ops:
            self.fixed_rows.extend(table.rows)
        return problems


class CalibrateLarge:
    """The practitioner path: ``pacope calibrate`` on a large logged CSV,
    then reload the predictor file and predict a held-out batch of contexts."""

    name = "calibrate_large"

    def __init__(self, pacope, seed, size, workdir: Path) -> None:
        import numpy as np

        self.pacope = pacope
        self.np = np
        self.contexts = np.load(workdir / "heldout.npy")
        self.argv = ["calibrate", "--data", str(workdir / "logged.csv"),
                     "--pe", TARGET_POLICY_SPEC, "--seed", str(seed)]
        config = workdir / "config.txt"
        if config.exists():
            self.argv += ["--config", str(config)]
        self.model = workdir / f"predictor-{os.getpid()}.txt"
        self.argv += ["--model", str(self.model)]
        self.written = None
        self.first = None
        self.verdicts: dict[str, list[str]] = {}
        self.detail: dict = {}

    @staticmethod
    def prepare(pacope, seed: int, size: Size, workdir: Path) -> None:
        """Write the logged CSV and held-out contexts; untimed, before setup."""
        import numpy as np

        d = pacope.sample_logged(size.logged_rows, pacope.child_rng(seed, 1))
        table = np.column_stack([d.contexts[:, 0], d.actions, d.rewards])
        np.savetxt(workdir / "logged.csv", table, fmt="%.17g", delimiter=",",
                   header="s,a,r", comments="")
        heldout = pacope.sample_target(size.heldout_contexts, pacope.child_rng(seed, 2))
        np.save(workdir / "heldout.npy", heldout.contexts)
        if size.epochs != SIZES["full"].epochs:
            (workdir / "config.txt").write_text(
                f"epochs={size.epochs}\npolicy_epochs={size.policy_epochs}\n")

    def op(self, i: int):
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.pacope.cli(self.argv)
        text = self.model.read_text()
        predictor = self.pacope.CalibratedPredictor.load(text)
        lo, hi = predictor.interval_batch(self.contexts)
        return code, text, predictor, lo, hi

    def warmup(self) -> None:
        """One untimed op that also keeps the in-memory predictor the CLI wrote."""
        cls = self.pacope.CalibratedPredictor
        original = cls.dump

        def capture(predictor):
            self.written = predictor
            return original(predictor)

        cls.dump = capture
        try:
            self.first = self.op(WARMUP_OP)
        finally:
            cls.dump = original

    def after_setup(self) -> list[str]:
        if self.written is None:
            return ["the predictor the CLI wrote was not seen"]
        lo, hi = self.written.interval_batch(self.contexts)
        *_, rlo, rhi = self.first
        if lo.tobytes() != rlo.tobytes() or hi.tobytes() != rhi.tobytes():
            return ["reloaded predictor intervals differ from the written predictor's"]
        return self.check(WARMUP_OP, self.first)

    def _verdict(self, predictor, lo, hi) -> list[str]:
        np = self.np
        problems = []
        trivial = predictor.diagnostics.trivial or math.isinf(predictor.threshold)
        if np.any(np.isnan(lo)) or np.any(np.isnan(hi)) or np.any(lo > hi):
            problems.append("an interval has lo > hi or a NaN end")
        if trivial:
            if not (np.all(np.isneginf(lo)) and np.all(np.isposinf(hi))):
                problems.append("trivial predictor gives a bounded interval")
        elif not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            problems.append("non-trivial predictor gives an infinite end")
        s = self.contexts[:, 0]
        cdf = self.pacope.target_reward_cdf
        miss = cdf(lo, s) + (1.0 - cdf(hi, s))
        exact = float(np.mean(miss))
        eps = predictor.params.epsilon
        m = predictor.diagnostics.m_cal
        limit = eps + (_mc_tolerance(eps, m) if m else 0.0) \
            + 3.0 * float(np.std(miss)) / math.sqrt(len(miss))
        if exact > limit:
            problems.append(f"exact miscoverage {exact:.5f} > {limit:.5f}")
        self.detail.update({
            "exact_miscoverage": exact, "miscoverage_limit": limit, "m_cal": m,
            "interval_length": float(np.mean(hi - lo)) if not trivial else math.inf,
        })
        return problems

    def check(self, i: int, result) -> list[str]:
        code, text, predictor, lo, hi = result
        if code != 0:
            return [f"pacope calibrate exited {code}"]
        h = hashlib.sha256(text.encode())
        h.update(lo.tobytes())
        h.update(hi.tobytes())
        digest = h.hexdigest()
        if digest not in self.verdicts:
            self.verdicts[digest] = self._verdict(predictor, lo, hi)
        problems = list(self.verdicts[digest])
        if len(self.verdicts) > 1:
            problems.append("same-seed ops produced different predictor files or intervals")
        self.detail["digest"] = next(iter(self.verdicts))
        return problems

    def finish(self) -> tuple[list[str], dict]:
        self.model.unlink(missing_ok=True)
        return [], dict(self.detail, digest_ops=1)

    def interval_length(self) -> float:
        return self.detail.get("interval_length", math.inf)


WORKLOADS = {w.name: w for w in (KnownSweep, MethodCompare, CalibrateLarge)}
