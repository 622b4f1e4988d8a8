"""Least-squares loss for a nonlinear link: value, gradient, Hessian.

With residuals r_i = y_i - f(x_i' beta) and index u_i = x_i' beta:

    L(beta)      = (1/2n) sum_i r_i^2
    grad L(beta) = -(1/n) sum_i r_i f'(u_i) x_i
    hess L(beta) = (1/n) sum_i [f'(u_i)^2 - r_i f''(u_i)] x_i x_i'

The 1/(2n) normalization is used throughout; rescale lam accordingly if you
are used to the 1/n convention (the minimizers coincide after lam -> lam/2).
"""

from __future__ import annotations

import numpy as np

from .errors import InputError, NumericalError
from .model import Dataset, LinkFunction

__all__ = [
    "loss_value",
    "loss_gradient",
    "loss_hessian",
    "hessian_partition",
    "penalized_objective",
]


def _check_beta(data: Dataset, beta) -> np.ndarray:
    beta = np.asarray(beta, dtype=float)
    if beta.ndim != 1 or beta.shape[0] != data.d:
        raise InputError(
            f"beta has shape {beta.shape}, expected ({data.d},) to match the design"
        )
    return beta


def loss_value(link: LinkFunction, data: Dataset, beta) -> float:
    """Half mean squared residual (1/2n) sum (y_i - f(x_i' beta))^2."""
    beta = _check_beta(data, beta)
    with np.errstate(over="ignore", invalid="ignore"):
        resid = data.response - link.eval(data.design @ beta)
        value = 0.5 * float(resid @ resid) / data.n
    if not np.isfinite(value):
        raise NumericalError("loss_value: non-finite intermediate")
    return value


def loss_gradient(link: LinkFunction, data: Dataset, beta) -> np.ndarray:
    beta = _check_beta(data, beta)
    with np.errstate(over="ignore", invalid="ignore"):
        u = data.design @ beta
        return _gradient_at(link, data, u, data.response - link.eval(u))


def _gradient_at(link, data, u, resid):
    # Gradient from u = X beta and the residual y - f(u), for callers that hold
    # both; they silence numpy's overflow warnings, the check reports the result.
    grad = -(data.design.T @ (resid * link.deriv(u))) / data.n
    if not np.all(np.isfinite(grad)):
        raise NumericalError("loss_gradient: non-finite intermediate")
    return grad


def loss_hessian(link: LinkFunction, data: Dataset, beta) -> np.ndarray:
    beta = _check_beta(data, beta)
    with np.errstate(over="ignore", invalid="ignore"):
        u = data.design @ beta
        weights = _hessian_weights(link, u, data.response - link.eval(u))
    hess = _hessian_rows(data, weights, slice(None))
    return 0.5 * (hess + hess.T)


def _hessian_weights(link, u, resid):
    """w_i = f'(u_i)^2 - r_i f''(u_i), so that hess L = X' diag(w) X / n. Like
    _gradient_at it takes u = X beta and the residual; callers silence warnings."""
    return link.deriv(u) ** 2 - resid * link.deriv2(u)


def _hessian_rows(data, weights, idx):
    """Rows ``idx`` of the Hessian, X[:, idx]' diag(w) X / n, in O(n d) per row."""
    with np.errstate(over="ignore", invalid="ignore"):
        rows = (data.design[:, idx] * weights[:, None]).T @ data.design / data.n
    if not np.isfinite(rows).all():
        raise NumericalError("loss_hessian: non-finite intermediate")
    return rows


def _hessian_diagonal(data, weights):
    """The Hessian's diagonal, w' (X * X) / n, in O(n d)."""
    with np.errstate(over="ignore", invalid="ignore"):
        return weights @ np.square(data.design) / data.n


def hessian_partition(hess, j: int):
    """Split a d x d Hessian at coordinate j (1-based).

    Returns ``(h_aa, h_ag, h_gg)``: the (j, j) scalar, row j with entry j
    removed, and the matrix with row and column j removed. The remaining
    d - 1 coordinates keep their ascending original order.
    """
    hess = np.asarray(hess, dtype=float)
    if hess.ndim != 2 or hess.shape[0] != hess.shape[1]:
        raise InputError(f"expected a square matrix, got shape {hess.shape}")
    d = hess.shape[0]
    if not (isinstance(j, (int, np.integer)) and 1 <= j <= d):
        raise InputError(f"coordinate j must be in 1..{d}, got {j}")
    idx = j - 1
    h_aa = float(hess[idx, idx])
    h_ag = np.delete(hess[idx, :], idx)
    h_gg = np.delete(np.delete(hess, idx, axis=0), idx, axis=1)
    return h_aa, h_ag, h_gg


def penalized_objective(link: LinkFunction, data: Dataset, beta, lam: float) -> float:
    """L(beta) + lam * ||beta||_1."""
    if lam < 0.0:
        raise InputError(f"lam must be nonnegative, got {lam}")
    beta = _check_beta(data, beta)
    return loss_value(link, data, beta) + lam * float(np.abs(beta).sum())
