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
confidence intervals. Both statistics read the same pieces (F_S, the
denominator D0 and two variance factors) from an evaluation point, which
computes u = X beta, the residual and the Hessian weights once and
decorrelates each coordinate on first use. When beta_hat_j equals the null
value the null-imposed point is the fitted point, so one LP serves both
tests; the experiments share one fitted point across the coordinates of a
trial. Coordinates are 1-based throughout, matching the usual statistical
convention beta_1 .. beta_d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Inference calls none of solve_dantzig, loss_gradient and loss_hessian, but
# perfbench/spans.py looks all three up on this module to time them; ROADMAP
# item 5 moves its spans onto the functions in use and drops these imports.
from .dantzig import DantzigResult, _solve, solve_dantzig  # noqa: F401
from .errors import (
    DantzigInfeasibleError,
    DegenerateVarianceError,
    InputError,
    SingularDenominatorError,
)
from .loss import (  # noqa: F401
    _check_beta,
    _gradient_at,
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
    "normal_quantile",
    "two_sided_p_value",
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


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF (``statistics.NormalDist.inv_cdf``)."""
    if not (isinstance(p, (float, int, np.floating, np.integer)) and 0.0 < p < 1.0):
        raise InputError(f"quantile argument must lie strictly in (0, 1), got {p!r}")
    from statistics import NormalDist  # loaded on first use: only inference needs it

    return NormalDist().inv_cdf(float(p))


def two_sided_p_value(z: float) -> float:
    """P(|Z| >= |z|) for standard normal Z, as erfc(|z| / sqrt 2).

    Unlike ``2 * (1 - Phi(|z|))`` computed from the CDF Phi, it stays accurate
    in the far tail instead of rounding to 0 beyond |z| of about 8.3.
    """
    return math.erfc(abs(z) / math.sqrt(2.0))


def _two_sided(statistic, config):
    """The p-value of ``statistic``, whether the test rejects at the configured
    level, and the critical value z_{1 - significance/2} it compares with."""
    z_crit = normal_quantile(1.0 - config.significance / 2.0)
    return two_sided_p_value(statistic), bool(abs(statistic) > z_crit), z_crit


def _check_coordinate(config, d):
    """An input error unless ``config`` tests one of d coordinates."""
    if config.coordinate > d:
        raise InputError(f"coordinate {config.coordinate} exceeds dimension {d}")


class _Point:
    """An evaluation point beta: u = X beta, the residual y - f(u) and the
    Hessian weights, computed once, and each (coordinate, rho)'s
    decorrelation, computed on first use."""

    def __init__(self, link, data, beta):
        self.link, self.data, self.beta = link, data, beta
        with np.errstate(over="ignore", invalid="ignore"):
            self.u = data.design @ beta
            self.resid = data.response - link.eval(self.u)
            self.weights = _hessian_weights(link, self.u, self.resid)
        self._pieces = {}

    @classmethod
    def fitted(cls, link, data, fit, configs):
        """The point at ``fit.beta_hat``, checked against the data and the
        coordinates of ``configs``."""
        for config in configs:
            _check_coordinate(config, data.d)
        return cls(link, data, _check_beta(data, fit.beta_hat))

    def null_imposed(self, config):
        """The point with coordinate j set to the null value: this one when
        beta_j already equals it, else a new point."""
        idx = config.coordinate - 1
        if self.beta[idx] == config.null_value:
            return self
        beta = self.beta.copy()
        beta[idx] = config.null_value
        return type(self)(self.link, self.data, beta)

    def decorrelation(self, j, rho):
        """``(F_S, D0, factor_design, factor_resid, dantzig_result)`` of
        coordinate j at radius rho, computed on first use.

        Row j of the Hessian gives h_aa and h_ag; a non-vacuous LP reads only
        the rows of h_gg in its bases. The variance factors are
        mean[f'(u)^2 (x'w)^2] and mean[resid^2], where w is 1 at coordinate j
        and -d_hat elsewhere.
        """
        if (j, rho) in self._pieces:
            return self._pieces[j, rho]
        data, weights, idx = self.data, self.weights, j - 1
        nuisance = np.delete(np.arange(data.d), idx)
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
        d_hat = dres.d_hat
        with np.errstate(over="ignore", invalid="ignore"):
            grad = _gradient_at(self.link, data, self.u, self.resid)
        f_s = float(grad[idx] - d_hat @ grad[nuisance])
        d0 = h_aa - float(h_ag @ d_hat)
        xw = data.design @ np.insert(-d_hat, idx, 1.0)
        factor_design = float(np.mean((self.link.deriv(self.u) * xw) ** 2))
        factor_resid = float(np.mean(self.resid ** 2))
        self._pieces[j, rho] = f_s, d0, factor_design, factor_resid, dres
        return self._pieces[j, rho]

    def score(self, config) -> ScoreTestResult:
        """The score test of ``config`` with the score evaluated here."""
        j = config.coordinate
        f_s, _, factor_design, factor_resid, dres = self.decorrelation(j, config.rho)
        var = factor_design * factor_resid
        if not np.isfinite(var) or var <= 0.0:
            raise DegenerateVarianceError(f"degenerate score variance ({var}) at coordinate {j}")
        sigma_s = math.sqrt(var)
        statistic = math.sqrt(self.data.n) * f_s / sigma_s
        p_value, reject, _ = _two_sided(statistic, config)
        return ScoreTestResult(statistic=statistic, f_s=f_s, sigma_s=sigma_s,
                               p_value=p_value, reject=reject, d_hat=dres)

    def wald(self, config) -> WaldResult:
        """The one-step estimate and interval of ``config``, with this point as
        the fitted one."""
        j, n = config.coordinate, self.data.n
        f_s, d0, _, factor_resid, dres = self.decorrelation(j, config.rho)
        if abs(d0) <= 1e-12:
            raise SingularDenominatorError(f"one-step denominator {d0:.3e} at coordinate {j}")
        alpha_bar = float(self.beta[j - 1]) - f_s / d0
        var_w = factor_resid / d0
        if not np.isfinite(var_w) or var_w <= 0.0:
            raise DegenerateVarianceError(f"degenerate Wald variance ({var_w}) at coordinate {j}")
        sigma_w = math.sqrt(var_w)

        statistic = math.sqrt(n) * (alpha_bar - config.null_value) / sigma_w
        p_value, _, z_crit = _two_sided(statistic, config)
        half_width = z_crit * sigma_w / math.sqrt(n)
        ci_low, ci_high = alpha_bar - half_width, alpha_bar + half_width
        # Rejecting by the interval, not by |statistic| > z_crit, keeps the test
        # and the interval dual at the endpoints, where the two roundings differ.
        reject = not ci_low <= config.null_value <= ci_high
        return WaldResult(alpha_bar=alpha_bar, sigma_w=sigma_w, statistic=statistic,
                          ci_low=ci_low, ci_high=ci_high, p_value=p_value, reject=reject,
                          d_hat=dres)


def score_test(link: LinkFunction, data: Dataset, fit: FitResult, config: InferenceConfig) -> ScoreTestResult:
    """Decorrelated score test of H0: beta_j = null_value.

    Evaluates the score at the null-imposed point: the fitted vector with
    coordinate j replaced by the hypothesized value. The variance estimate
    of sqrt(n) F_S is mean[f'(u)^2 (x'w)^2] * mean[resid^2], where ``w``
    carries 1 at coordinate j and -d_hat elsewhere; it raises
    :class:`DegenerateVarianceError` when the product vanishes (all residuals
    zero, or the design direction is degenerate).
    """
    return _Point.fitted(link, data, fit, [config]).null_imposed(config).score(config)


def wald_estimate(link: LinkFunction, data: Dataset, fit: FitResult, config: InferenceConfig) -> WaldResult:
    """One-step corrected estimate of beta_j with CI and Wald test.

    Everything is evaluated at the fitted point (not the null-imposed one).
    The correction divides the decorrelated score by
    ``D0 = h_aa - h_ag . d_hat``. The variance estimate of sqrt(n) alpha_bar
    is the model-based ``r / D0``, with ``r = mean[resid^2]``, so the CI is
    ``alpha_bar -+ z * sigma_w / sqrt(n)`` with ``sigma_w = sqrt(r / D0)``.
    A D0 within 1e-12 of zero raises :class:`SingularDenominatorError`; a
    negative one, or residuals that are all zero, :class:`DegenerateVarianceError`.
    """
    return _Point.fitted(link, data, fit, [config]).wald(config)
