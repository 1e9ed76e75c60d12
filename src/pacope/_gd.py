"""Shared exact fit of an affine-mean, constant-variance Gaussian."""

from __future__ import annotations

import numpy as np


def fit_gaussian_affine(x1: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    """Maximum-likelihood fit of ``y ~ N(x1 @ w, sigma^2)``.

    The MLE of ``w`` is the least-squares solution and ``sigma^2`` is the mean
    squared residual. A rank-deficient design (for example, all contexts
    equal) gets the minimum-norm weights. The variance is 0 when the fit is
    exact; callers apply their own floor. Returns ``(w, sigma^2)``.
    """
    w, *_ = np.linalg.lstsq(x1, y, rcond=None)
    resid = y - x1 @ w
    return w, float(np.mean(resid * resid))
