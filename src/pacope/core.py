"""Domain types shared by the whole library: logged bandit data, stochastic
policies, seeded randomness, PAC parameters, and prediction intervals.

Conventions
-----------
* Contexts are fixed-length real vectors; a dataset stores them as an
  ``(n, d)`` float array. The synthetic experiments use ``d = 1``.
* Gaussian parameters are written ``(mean, variance)`` everywhere: the second
  parameter of a normal law is always the *variance*, never the standard
  deviation.
* Every dataset keeps its original collection order. No operation in this
  package reorders a dataset; calibration splits take the tail.
* All randomness flows through ``numpy`` Philox generators derived from a
  64-bit master seed plus an integer path (see :func:`child_rng`), so any
  pipeline is bit-reproducible and parallel workers get independent streams.
"""

from __future__ import annotations

import csv
import math
import os
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "LoggedDataset",
    "StochasticPolicy",
    "GaussianLinearPolicy",
    "PacParams",
    "PredictionInterval",
    "child_rng",
    "split_dataset",
    "load_csv",
    "save_csv",
    "ceil_scaled",
]

# ---------------------------------------------------------------------------
# randomness
# ---------------------------------------------------------------------------

def child_rng(master_seed: int, *path: int) -> np.random.Generator:
    """Derive an independent counter-based stream from ``(master_seed, path)``.

    Identical seed and path always give the same stream, and distinct paths
    give streams that are independent by construction (Philox keyed through
    ``numpy.random.SeedSequence`` spawn keys). Trial ``i`` of a benchmark uses
    ``child_rng(seed, tag, i)``, which makes parallel execution order
    irrelevant to the results.
    """
    seq = np.random.SeedSequence(master_seed, spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(seq))


# ---------------------------------------------------------------------------
# numeric helpers
# ---------------------------------------------------------------------------

def ceil_scaled(x: float) -> int:
    """Ceiling with a snap tolerance for decimal levels stored as floats.

    ``fl(0.8) * 10`` is slightly above 8, so a naive ceiling would return 9
    where the intended real arithmetic gives 8. Values within ``1e-9``
    (scaled by ``max(1, |x|)``) of an integer are snapped down before taking
    the ceiling.
    """
    return int(math.ceil(x - 1e-9 * max(1.0, abs(x))))


def _gaussian_log_ratio(m1, v1, m2, v2):
    """``(a, b, c)`` of ``log N(x; m1, v1) - log N(x; m2, v2) = a x^2 + b x + c``."""
    a = 0.5 / v2 - 0.5 / v1
    b = m1 / v1 - m2 / v2
    c = 0.5 * (m2 * m2 / v2 - m1 * m1 / v1 + math.log(v2 / v1))
    return a, b, c


def _superlevel_ends(a: float, b: np.ndarray, c: np.ndarray, levels: np.ndarray):
    """Ends ``(p, q)`` of ``{r : a r^2 + b r + c > L}`` for each row and level.

    For ``a <= 0`` the set is the interval ``(p, q)``; for ``a > 0`` it is
    the complement of ``[p, q]``. An empty interval (or a complement of one
    point) has ``p = q``. With ``a = 0`` one end is infinite and the other is
    the linear root, or ``-inf`` / ``+inf`` for a constant that is above /
    not above ``L``. ``levels`` may hold ``-inf`` and ``+inf``.
    """
    b = b[:, None]
    g = c[:, None] - levels
    if a == 0.0:
        with np.errstate(divide="ignore", invalid="ignore"):
            root = np.where(b == 0.0, np.where(g > 0.0, -math.inf, math.inf), -g / b)
        return np.where(b < 0.0, -math.inf, root), np.where(b < 0.0, root, math.inf)
    # The roots are vertex -+ half-width; an infinite level gives an infinite
    # or zero half-width, as the set is then everything or nothing.
    vertex = -b / (2.0 * a)
    width = np.multiply(g, -4.0 * a, out=g)
    width += b * b
    np.sqrt(np.maximum(width, 0.0, out=width), out=width)
    width /= 2.0 * abs(a)
    return vertex - width, np.add(width, vertex, out=width)


def _as_context_matrix(values: np.ndarray | Sequence[float] | float) -> np.ndarray:
    """Promote a scalar, vector, or matrix of contexts to shape ``(n, d)``."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    elif arr.ndim != 2:
        raise ValueError(f"contexts must be at most 2-dimensional, got shape {arr.shape}")
    return arr


def _check_finite(name: str, arr: np.ndarray) -> None:
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# samples and datasets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LoggedDataset:
    """Ordered logged triples; the order is the original collection order.

    Parameters
    ----------
    contexts : ndarray, shape (n, d)
    actions : ndarray, shape (n,)
    rewards : ndarray, shape (n,)
    """

    contexts: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray

    def __post_init__(self) -> None:
        contexts = _as_context_matrix(self.contexts)
        actions = np.asarray(self.actions, dtype=float).reshape(-1)
        rewards = np.asarray(self.rewards, dtype=float).reshape(-1)
        if not (contexts.shape[0] == actions.shape[0] == rewards.shape[0]):
            raise ValueError("contexts, actions, and rewards must have equal length")
        _check_finite("contexts", contexts)
        _check_finite("actions", actions)
        _check_finite("rewards", rewards)
        object.__setattr__(self, "contexts", _freeze(contexts))
        object.__setattr__(self, "actions", _freeze(actions))
        object.__setattr__(self, "rewards", _freeze(rewards))

    def __len__(self) -> int:
        return self.contexts.shape[0]

    @property
    def context_dim(self) -> int:
        return self.contexts.shape[1]

    def take(self, indices: np.ndarray) -> "LoggedDataset":
        """Subset by position, preserving the given index order."""
        idx = np.asarray(indices, dtype=int)
        return LoggedDataset(self.contexts[idx], self.actions[idx], self.rewards[idx])

    @staticmethod
    def empty(context_dim: int = 1) -> "LoggedDataset":
        return LoggedDataset(
            np.empty((0, context_dim)), np.empty(0), np.empty(0)
        )


# ---------------------------------------------------------------------------
# policies
# ---------------------------------------------------------------------------

class StochasticPolicy:
    """Conditional density over actions given a context, with sampling.

    Implementations must be vectorized: ``density`` accepts ``(n, d)``
    contexts with ``(n,)`` actions and returns ``(n,)`` nonnegative values
    integrating to one over the action space for every fixed context.
    """

    def density(self, contexts: np.ndarray, actions: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def log_density(self, contexts: np.ndarray, actions: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return np.log(self.density(contexts, actions))

    def sample(self, contexts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class GaussianLinearPolicy(StochasticPolicy):
    """Gaussian policy ``A | s ~ N(slope . s + intercept, variance)``.

    ``variance`` is the variance (sigma squared), not the standard deviation.
    """

    slope: np.ndarray
    intercept: float
    variance: float

    def __post_init__(self) -> None:
        slope = np.asarray(self.slope, dtype=float).reshape(-1)
        _check_finite("slope", slope)
        if not (math.isfinite(self.variance) and self.variance > 0):
            raise ValueError("variance must be positive and finite")
        if not math.isfinite(self.intercept):
            raise ValueError("intercept must be finite")
        object.__setattr__(self, "slope", _freeze(slope))
        object.__setattr__(self, "intercept", float(self.intercept))
        object.__setattr__(self, "variance", float(self.variance))

    def mean(self, contexts: np.ndarray) -> np.ndarray:
        ctx = _as_context_matrix(contexts)
        if ctx.shape[1] != self.slope.size:
            raise ValueError(
                f"contexts have dimension {ctx.shape[1]}, the policy takes {self.slope.size}"
            )
        return ctx @ self.slope + self.intercept

    def density(self, contexts: np.ndarray, actions: np.ndarray) -> np.ndarray:
        actions = np.asarray(actions, dtype=float)
        z = actions - self.mean(contexts)
        return np.exp(-0.5 * z * z / self.variance) / math.sqrt(2.0 * math.pi * self.variance)

    def log_density(self, contexts: np.ndarray, actions: np.ndarray) -> np.ndarray:
        actions = np.asarray(actions, dtype=float)
        z = actions - self.mean(contexts)
        return -0.5 * z * z / self.variance - 0.5 * math.log(2.0 * math.pi * self.variance)

    def sample(self, contexts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        mu = self.mean(contexts)
        return mu + math.sqrt(self.variance) * rng.standard_normal(mu.shape[0])


# ---------------------------------------------------------------------------
# PAC parameters and intervals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PacParams:
    """Miscoverage/confidence pair plus calibration ratio.

    The quantile levels follow from ``epsilon``: they are the read-only pair
    ``(eps_lo, eps_up) = (epsilon / 2, 1 - epsilon / 2)``, in (0, 1/2) and
    (1/2, 1), whose gap is ``1 - epsilon``.
    """

    epsilon: float
    delta: float
    gamma: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")

    @property
    def eps_lo(self) -> float:
        return self.epsilon / 2.0

    @property
    def eps_up(self) -> float:
        return 1.0 - self.epsilon / 2.0


@dataclass(frozen=True)
class PredictionInterval:
    """Closed interval ``[lo, hi]``; either endpoint may be infinite."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        lo, hi = float(self.lo), float(self.hi)
        if math.isnan(lo) or math.isnan(hi):
            raise ValueError("interval endpoints must not be NaN")
        if lo > hi:
            raise ValueError(f"interval endpoints out of order: [{lo}, {hi}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def length(self) -> float:
        return self.hi - self.lo


# ---------------------------------------------------------------------------
# dataset operations
# ---------------------------------------------------------------------------

def _train_size(n: int, gamma: float) -> int:
    """Length of the training prefix of ``n`` ordered samples: the calibration
    tail is the last ``ceil(gamma * n)``. The one split rule of every dataset."""
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    return n - ceil_scaled(gamma * n)


def split_dataset(d: LoggedDataset, gamma: float) -> tuple[LoggedDataset, LoggedDataset]:
    """Split into a training prefix and a calibration tail.

    The calibration set is the *last* ``ceil(gamma * n)`` samples in original
    order; the training set is the remaining prefix. The cut is deterministic:
    samples are i.i.d., so any fixed split is exchangeable, and determinism
    keeps reruns bit-identical.
    """
    cut = _train_size(len(d), gamma)
    idx = np.arange(len(d))
    return d.take(idx[:cut]), d.take(idx[cut:])


def _context_header(dim: int) -> list[str]:
    return ["s"] if dim == 1 else [f"s{i + 1}" for i in range(dim)]


def load_csv(path: str) -> LoggedDataset:
    """Read a logged dataset from a ``s,a,r`` (or ``s1..sd,a,r``) CSV file.

    Row order becomes dataset order; blank lines are skipped. A malformed or
    non-finite row raises a ``ValueError`` naming its 1-based line number (the
    header is line 1; a record whose quoted field spans lines counts as one).

    The body is parsed in one vectorized ``np.loadtxt`` call, which is given
    the path (it reads a path in large chunks and a handle line by line) and
    skips the physical lines the header took. When that call fails, gives the
    wrong column count or a non-finite value, the file is read again row by
    row with ``float()``, which either raises the line-numbered error or
    accepts a spelling ``loadtxt`` does not (such as ``1_0``). Both parses
    give the same bits for a value they both accept.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        dim = _read_header(path, reader)
        encoding = fh.encoding
    # numpy opens a path by suffix (it would decompress these) and as a URL
    # when it has a scheme, which an absolute path never has.
    source = os.path.abspath(path)
    body = None
    if not source.endswith(_COMPRESSED_SUFFIXES):
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            try:
                body = np.loadtxt(source, delimiter=",", comments=None, quotechar='"', ndmin=2,
                                  skiprows=reader.line_num, encoding=encoding)
            except ValueError:
                pass
    if body is None or body.shape[1] != dim + 2 or not np.all(np.isfinite(body)):
        body = _load_csv_rows(path)
    if body.shape[0] == 0:
        return LoggedDataset.empty(dim)
    return LoggedDataset(body[:, :dim], body[:, dim], body[:, dim + 1])


_COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


def _read_header(path: str, reader) -> int:
    """Consume and check the header record of a ``csv.reader``; returns the context dimension."""
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError(f"{path}: empty file, expected a header row") from None
    except csv.Error as exc:
        raise ValueError(f"{path}: line 1: {exc}") from None
    header = [h.strip() for h in header]
    if len(header) < 3 or header[-2:] != ["a", "r"]:
        raise ValueError(f"{path}: header must be s,a,r or s1..sd,a,r, got {header!r}")
    dim = len(header) - 2
    if header[:dim] != _context_header(dim):
        raise ValueError(f"{path}: header must be s,a,r or s1..sd,a,r, got {header!r}")
    return dim


def _load_csv_rows(path: str) -> np.ndarray:
    """Row-by-row parse of the body with ``float()``: the reference semantics
    of :func:`load_csv`, and its error messages. Returns an ``(n, d + 2)`` array."""
    with open(path, newline="") as fh:
        dim = _read_header(path, csv.reader(fh))
        rows: list[list[float]] = []
        lineno = 1
        try:
            for lineno, row in enumerate(csv.reader(fh), start=2):
                if not row:
                    continue
                if len(row) != dim + 2:
                    raise ValueError(
                        f"{path}: line {lineno}: expected {dim + 2} fields, got {len(row)}"
                    )
                try:
                    values = [float(v) for v in row]
                except ValueError:
                    raise ValueError(f"{path}: line {lineno}: non-numeric field") from None
                if not all(math.isfinite(v) for v in values):
                    raise ValueError(f"{path}: line {lineno}: non-finite value")
                rows.append(values)
        except csv.Error as exc:
            # Raised while reading the record after ``lineno`` (an oversized field).
            raise ValueError(f"{path}: line {lineno + 1}: {exc}") from None
    return np.array(rows).reshape(-1, dim + 2)


def save_csv(d: LoggedDataset, path: str) -> None:
    """Write a dataset in the ``load_csv`` schema with round-trip precision."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_context_header(d.context_dim) + ["a", "r"])
        for i in range(len(d)):
            writer.writerow(
                [repr(float(v)) for v in d.contexts[i]]
                + [repr(float(d.actions[i])), repr(float(d.rewards[i]))]
            )
