"""Coordinate-wise tests and confidence intervals for the sparse estimate.

Inference on a single coordinate beta_j works by decorrelating its score from
the remaining (nuisance) coordinates. Writing alpha for coordinate j and
gamma for the rest, the decorrelated score at an evaluation point beta is

    F_S(beta, rho) = grad_a L(beta) - d_hat' grad_g L(beta),

where d_hat solves the Dantzig selector LP over the Hessian partition at j.
The partition is never formed: row j gives h_aa and h_ag, and the LP reads
the rows of h_gg it needs from the data (none when it is vacuous).
The score test evaluates F_S at the null-imposed point (coordinate j replaced
by the hypothesized value); the Wald construction evaluates it at the fitted
point and applies a one-step correction

    alpha_bar = alpha_hat - F_S / (h_aa - h_ag . d_hat)

whose normalized version is asymptotically standard normal, giving tests and
confidence intervals. Coordinates are 1-based throughout, matching the usual
statistical convention beta_1 .. beta_d.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

import numpy as np

# Inference calls neither loss_hessian nor solve_dantzig, but
# perfbench/spans.py looks both up on this module to time them.
from .dantzig import DantzigResult, _solve, solve_dantzig  # noqa: F401
from .errors import (
    DantzigInfeasibleError,
    DegenerateVarianceError,
    InputError,
    SingularDenominatorError,
)
from .loss import (  # noqa: F401
    _check_beta,
    _hessian_diagonal,
    _hessian_rows,
    _hessian_weights,
    loss_gradient,
    loss_hessian,
)
from .model import Dataset, LinkFunction
from .solver import FitResult

__all__ = [
    "InferenceConfig",
    "ScoreTestResult",
    "WaldResult",
    "normal_cdf",
    "normal_quantile",
    "two_sided_p_value",
    "decorrelated_score",
    "score_variance",
    "score_test",
    "wald_estimate",
]


@dataclass(frozen=True)
class InferenceConfig:
    """Which coordinate to test, at which level, against which null value."""

    coordinate: int
    rho: float
    significance: float = 0.05
    null_value: float = 0.0

    def __post_init__(self):
        if not (isinstance(self.coordinate, (int, np.integer)) and self.coordinate >= 1):
            raise InputError(f"coordinate must be a positive integer, got {self.coordinate}")
        if not (np.isfinite(self.rho) and self.rho > 0.0):
            raise InputError(f"rho must be a positive real, got {self.rho}")
        if not 0.0 < self.significance < 1.0:
            raise InputError(f"significance must lie in (0, 1), got {self.significance}")
        if not np.isfinite(self.null_value):
            raise InputError("null_value must be finite")


@dataclass(frozen=True)
class ScoreTestResult:
    statistic: float
    f_s: float
    sigma_s: float
    p_value: float
    reject: bool
    d_hat: DantzigResult


@dataclass(frozen=True)
class WaldResult:
    alpha_bar: float
    sigma_w: float
    statistic: float
    ci_low: float
    ci_high: float
    p_value: float
    reject: bool
    d_hat: DantzigResult


def normal_cdf(x: float) -> float:
    """Standard normal CDF, tail-accurate via erfc."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF (``statistics.NormalDist.inv_cdf``)."""
    if not (isinstance(p, (float, int, np.floating, np.integer)) and 0.0 < p < 1.0):
        raise InputError(f"quantile argument must lie strictly in (0, 1), got {p!r}")
    return statistics.NormalDist().inv_cdf(float(p))


def two_sided_p_value(z: float) -> float:
    """P(|Z| >= |z|) for standard normal Z, as erfc(|z| / sqrt 2).

    Unlike ``2 * (1 - normal_cdf(|z|))`` it stays accurate in the far tail
    instead of rounding to 0 beyond |z| of about 8.3.
    """
    return math.erfc(abs(z) / math.sqrt(2.0))


def _embed_w(d_hat: np.ndarray, j: int, d: int) -> np.ndarray:
    """Place 1 at coordinate j and -d_hat at the others (ascending order)."""
    w = np.empty(d)
    idx = j - 1
    w[idx] = 1.0
    w[np.arange(d) != idx] = -d_hat
    return w


def _score_pieces(link, data, beta, j, rho):
    # Row j of the Hessian gives h_aa and h_ag and decides whether the LP is
    # vacuous; a non-vacuous LP reads only the rows of h_gg in its bases.
    if not (isinstance(j, (int, np.integer)) and 1 <= j <= data.d):
        raise InputError(f"coordinate j must be in 1..{data.d}, got {j}")
    idx = j - 1
    nuisance = np.delete(np.arange(data.d), idx)
    weights = _hessian_weights(link, data, beta)
    row = _hessian_rows(data, weights, [idx])[0]
    h_aa, h_ag = float(row[idx]), row[nuisance]
    dres = _solve(
        h_ag,
        lambda sel: _hessian_rows(data, weights, nuisance[sel])[:, nuisance],
        lambda: _hessian_diagonal(data, weights)[nuisance],
        rho,
    )
    if dres.status != "optimal":
        raise DantzigInfeasibleError(
            f"coordinate {j}: {dres.message or 'decorrelation LP infeasible'}"
        )
    grad = loss_gradient(link, data, beta)
    f_s = float(grad[idx] - dres.d_hat @ grad[nuisance])
    return f_s, dres, h_aa, h_ag


def decorrelated_score(link: LinkFunction, data: Dataset, beta, j: int, rho: float):
    """Decorrelated score F_S at ``beta`` for coordinate ``j`` (1-based).

    Returns ``(f_s, dantzig_result)``.
    """
    beta = _check_beta(data, beta)
    f_s, dres, _, _ = _score_pieces(link, data, beta, j, rho)
    return f_s, dres


def _variance_factors(link, data, beta, w):
    u = data.design @ beta
    xw = data.design @ w
    slope = link.deriv(u)
    resid = data.response - link.eval(u)
    factor_design = float(np.mean((slope * xw) ** 2))
    factor_resid = float(np.mean(resid ** 2))
    return factor_design, factor_resid


def score_variance(link: LinkFunction, data: Dataset, beta, d_hat, j: int) -> float:
    """Variance estimate for sqrt(n) F_S: mean[f'(u)^2 (x'w)^2] * mean[resid^2].

    ``w`` carries 1 at coordinate ``j`` and ``-d_hat`` elsewhere. Raises
    :class:`DegenerateVarianceError` when the product vanishes (all residuals
    zero, or the design direction is degenerate).
    """
    beta = _check_beta(data, beta)
    d_hat = np.asarray(d_hat, dtype=float)
    if d_hat.shape != (data.d - 1,):
        raise InputError(f"d_hat must have length {data.d - 1}, got {d_hat.shape}")
    w = _embed_w(d_hat, j, data.d)
    factor_design, factor_resid = _variance_factors(link, data, beta, w)
    var = factor_design * factor_resid
    if not np.isfinite(var) or var <= 0.0:
        raise DegenerateVarianceError(
            f"degenerate score variance ({var}) at coordinate {j}"
        )
    return var


def score_test(link: LinkFunction, data: Dataset, fit: FitResult, config: InferenceConfig) -> ScoreTestResult:
    """Decorrelated score test of H0: beta_j = null_value.

    Evaluates the score at the null-imposed point: the fitted vector with
    coordinate j replaced by the hypothesized value.
    """
    j = config.coordinate
    if j > data.d:
        raise InputError(f"coordinate {j} exceeds dimension {data.d}")
    beta_tilde = fit.beta_hat.copy()
    beta_tilde[j - 1] = config.null_value

    f_s, dres, _, _ = _score_pieces(link, data, beta_tilde, j, config.rho)
    var = score_variance(link, data, beta_tilde, dres.d_hat, j)
    sigma_s = math.sqrt(var)
    statistic = math.sqrt(data.n) * f_s / sigma_s
    p_value = two_sided_p_value(statistic)
    z_crit = normal_quantile(1.0 - config.significance / 2.0)
    return ScoreTestResult(
        statistic=statistic,
        f_s=f_s,
        sigma_s=sigma_s,
        p_value=p_value,
        reject=bool(abs(statistic) > z_crit),
        d_hat=dres,
    )


def wald_estimate(link: LinkFunction, data: Dataset, fit: FitResult, config: InferenceConfig) -> WaldResult:
    """One-step corrected estimate of beta_j with CI and Wald test.

    Everything is evaluated at the fitted point (not the null-imposed one).
    The correction divides the decorrelated score by
    ``D0 = h_aa - h_ag . d_hat``; the variance estimate inverts the design
    factor of the score variance, so the CI is
    ``alpha_bar -+ z * sigma_w / sqrt(n)``.
    """
    j = config.coordinate
    if j > data.d:
        raise InputError(f"coordinate {j} exceeds dimension {data.d}")
    beta_hat = fit.beta_hat
    alpha_hat = float(beta_hat[j - 1])

    f_s, dres, h_aa, h_ag = _score_pieces(link, data, beta_hat, j, config.rho)
    denom = h_aa - float(h_ag @ dres.d_hat)
    if abs(denom) <= 1e-12:
        raise SingularDenominatorError(
            f"one-step denominator {denom:.3e} at coordinate {j}"
        )
    alpha_bar = alpha_hat - f_s / denom

    w = _embed_w(dres.d_hat, j, data.d)
    factor_design, factor_resid = _variance_factors(link, data, beta_hat, w)
    if factor_design <= 0.0 or factor_resid <= 0.0:
        raise DegenerateVarianceError(
            f"degenerate Wald variance at coordinate {j} "
            f"(design factor {factor_design}, residual factor {factor_resid})"
        )
    var_w = factor_resid / factor_design
    if not np.isfinite(var_w) or var_w <= 0.0:
        raise DegenerateVarianceError(f"degenerate Wald variance ({var_w})")
    sigma_w = math.sqrt(var_w)

    z_crit = normal_quantile(1.0 - config.significance / 2.0)
    half_width = z_crit * sigma_w / math.sqrt(data.n)
    statistic = math.sqrt(data.n) * (alpha_bar - config.null_value) / sigma_w
    p_value = two_sided_p_value(statistic)
    return WaldResult(
        alpha_bar=alpha_bar,
        sigma_w=sigma_w,
        statistic=statistic,
        ci_low=alpha_bar - half_width,
        ci_high=alpha_bar + half_width,
        p_value=p_value,
        reject=bool(abs(statistic) > z_crit),
        d_hat=dres,
    )
