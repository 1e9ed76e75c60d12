"""Shared full-batch Gaussian-likelihood fitter with a halving step schedule."""

from __future__ import annotations

import math

import numpy as np


def fit_gaussian_affine(
    x1: np.ndarray, y: np.ndarray, lr: float, epochs: int
) -> tuple[np.ndarray, float]:
    """Fit ``y ~ N(x1 @ w, sigma^2)`` by gradient descent on the mean NLL.

    Parameters are ``(w, log sigma)``; a step that would increase the loss is
    rejected and the learning rate halved, so the loss never increases.
    Returns ``(w, sigma)``.
    """
    n = x1.shape[0]
    w = np.zeros(x1.shape[1])
    log_sigma = math.log(max(float(np.std(y)), 1e-3))

    def nll(w_, log_sigma_):
        resid = y - x1 @ w_
        var = math.exp(2.0 * log_sigma_)
        return float(0.5 * np.mean(resid * resid) / var + log_sigma_)

    cur = nll(w, log_sigma)
    for _ in range(epochs):
        resid = y - x1 @ w
        var = math.exp(2.0 * log_sigma)
        grad_w = -(x1.T @ resid) / (n * var)
        grad_ls = 1.0 - float(np.mean(resid * resid)) / var
        cand_w = w - lr * grad_w
        cand_ls = log_sigma - lr * grad_ls
        new = nll(cand_w, cand_ls)
        if new > cur:
            lr *= 0.5
        else:
            w, log_sigma, cur = cand_w, cand_ls, new
    return w, math.exp(log_sigma)
