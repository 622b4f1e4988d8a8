"""Brute-force design diagnostics and derivative verification.

The sparse-eigenvalue quantities rho_-(k) and rho_+(k) are the extreme
Rayleigh quotients of a Gram matrix over k-sparse unit vectors. They are
computed exactly by enumerating every size-k support and taking the extreme
eigenvalues of the principal submatrices; this is exponential in d, so the
enumeration refuses d > 24 rather than approximate. A matrix must be square,
finite and symmetric within 1e-10, the check ``solve_dantzig`` makes of
h_gg; an empty one fails the range checks on k, or on 2k* + s*.

:func:`check_gradients` compares the loss gradient and Hessian with central
differences of the loss and of the gradient, one routine for both.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import combinations
from typing import Optional

import numpy as np

from . import loss as _loss
from .errors import EnumerationCapError, InputError
from .model import Dataset, LinkFunction, _checked_symmetric

__all__ = [
    "SparseEigenReport",
    "GradientCheckReport",
    "sparse_eigenvalues",
    "sparse_eigen_report",
    "check_gradients",
]

_MAX_ENUM_DIM = 24


@dataclass(frozen=True)
class SparseEigenReport:
    k: int
    rho_minus: float
    rho_plus: float
    condition_holds: Optional[bool]
    design_bound: float  # elementwise max |M_jk|


@dataclass(frozen=True)
class GradientCheckReport:
    trials: int
    max_rel_gradient: float
    max_rel_hessian: float
    passed: bool


def sparse_eigenvalues(M, k: int):
    """Exact k-sparse extreme eigenvalues (rho_minus, rho_plus) of M.

    Enumerates all size-k principal submatrices; refuses d > 24.
    """
    M = _checked_symmetric(M, "matrix")
    d = M.shape[0]
    if d > _MAX_ENUM_DIM:
        raise EnumerationCapError(
            f"d={d} too large for exhaustive enumeration (cap {_MAX_ENUM_DIM})"
        )
    if not 1 <= k <= d:
        raise InputError(f"k must lie in 1..{d}, got {k}")
    rho_minus = np.inf
    rho_plus = -np.inf
    for support in combinations(range(d), k):
        idx = np.asarray(support)
        eigs = np.linalg.eigvalsh(M[np.ix_(idx, idx)])
        rho_minus = min(rho_minus, eigs[0])
        rho_plus = max(rho_plus, eigs[-1])
    return float(rho_minus), float(rho_plus)


def sparse_eigen_report(M, k: int, s_star: Optional[int] = None,
                        k_star: Optional[int] = None) -> SparseEigenReport:
    """Sparse eigenvalues at k, plus the design-regularity check when (s*, k*)
    are given: rho_+(k*) / rho_-(2k* + s*) <= 1 + 0.5 k*/s* and k* >= 2 s*.

    The check is False when rho_-(2k* + s*) is zero (degenerate design).
    Raises :class:`InputError` when only one of s_star and k_star is given,
    or when 2k* + s* exceeds d.
    """
    if (s_star is None) != (k_star is None):
        raise InputError("the regularity condition needs both s_star and k_star, or neither")
    M = _checked_symmetric(M, "matrix")
    rho_minus, rho_plus = sparse_eigenvalues(M, k)
    condition = None
    if s_star is not None:
        if s_star < 1 or k_star < 1:
            raise InputError("s_star and k_star must be positive")
        wide = 2 * k_star + s_star
        if wide > M.shape[0]:
            raise InputError(f"2*k_star + s_star = {wide} exceeds d = {M.shape[0]}")
        condition = False
        if k_star >= 2 * s_star:
            # the eigenvalues at k are not enumerated again at k* or 2k* + s*
            rho_plus_k = rho_plus if k == k_star else sparse_eigenvalues(M, k_star)[1]
            rho_minus_wide = rho_minus if k == wide else sparse_eigenvalues(M, wide)[0]
            condition = bool(rho_minus_wide > 0.0
                             and rho_plus_k / rho_minus_wide <= 1.0 + 0.5 * k_star / s_star)
    return SparseEigenReport(
        k=k,
        rho_minus=rho_minus,
        rho_plus=rho_plus,
        condition_holds=condition,
        design_bound=float(np.abs(M).max()),
    )


def _central_difference(func, beta, h=1e-6):
    """(func(beta + h e_j) - func(beta - h e_j)) / 2h for each coordinate j, as
    the last axis: the gradient of a scalar ``func``, the Jacobian of a vector one."""
    columns = []
    for j in range(beta.size):
        e = np.zeros(beta.size)
        e[j] = h
        columns.append((func(beta + e) - func(beta - e)) / (2.0 * h))
    return np.stack(columns, axis=-1)


def _rel_dev(approx, exact) -> float:
    scale = max(float(np.abs(approx).max()), float(np.abs(exact).max()), 1e-12)
    return float(np.abs(approx - exact).max()) / scale


def check_gradients(link: LinkFunction, n: int, d: int, trials: int,
                    rng: np.random.Generator) -> GradientCheckReport:
    """Compare analytic gradient and Hessian against central differences.

    Random small instances (designed for n <= 20, d <= 8); passes when the
    worst relative deviations stay within 1e-6 (gradient) and 1e-5 (Hessian).
    """
    if n < 1 or d < 1:
        raise InputError(f"n and d must be >= 1, got n={n}, d={d}")
    if trials < 1:
        raise InputError(f"trials must be >= 1, got {trials}")
    worst_grad = 0.0
    worst_hess = 0.0
    for _ in range(trials):
        X = rng.standard_normal((n, d))
        signal = rng.standard_normal(d)
        y = link.eval(X @ signal) + 0.5 * rng.standard_normal(n)
        data = Dataset(design=X, response=y)
        beta = rng.standard_normal(d)
        worst_grad = max(worst_grad, _rel_dev(
            _central_difference(partial(_loss.loss_value, link, data), beta),
            _loss.loss_gradient(link, data, beta),
        ))
        worst_hess = max(worst_hess, _rel_dev(
            _central_difference(partial(_loss.loss_gradient, link, data), beta),
            _loss.loss_hessian(link, data, beta),
        ))
    return GradientCheckReport(
        trials=trials,
        max_rel_gradient=worst_grad,
        max_rel_hessian=worst_hess,
        passed=bool(worst_grad <= 1e-6 and worst_hess <= 1e-5),
    )
