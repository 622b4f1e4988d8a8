import math

import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import norm as scipy_norm

from nlsparse import (
    Dataset,
    DegenerateVarianceError,
    FitConfig,
    InferenceConfig,
    InputError,
    SingularDenominatorError,
    builtin_link,
    decorrelated_score,
    fit,
    loss_gradient,
    loss_hessian,
    normal_cdf,
    normal_quantile,
    score_test,
    score_variance,
    solve_dantzig,
    two_sided_p_value,
    wald_estimate,
)
from nlsparse.simulate import SimConfig, generate
from tests.conftest import random_instance

# frozen from scipy.special.ndtri(0.975)
Z_975 = 1.959963984540054


class TestNormalQuantile:
    def test_median_is_zero(self):
        assert normal_quantile(0.5) == 0.0

    def test_known_value(self):
        assert normal_quantile(0.975) == pytest.approx(Z_975, abs=1e-10)

    def test_round_trip_through_cdf(self):
        for p in np.arange(0.01, 1.0, 0.01):
            assert abs(normal_cdf(normal_quantile(p)) - p) <= 1e-10

    def test_against_scipy_oracle(self):
        grid = np.concatenate([
            np.array([1e-12, 1e-8, 1e-4, 0.02, 0.02425]),
            np.linspace(0.001, 0.999, 199),
            np.array([0.97575, 0.9999, 1 - 1e-8, 1 - 1e-12]),
        ])
        for p in grid:
            assert normal_quantile(float(p)) == pytest.approx(float(ndtri(p)), abs=1e-10)

    def test_cdf_against_scipy(self):
        for x in np.linspace(-8.0, 8.0, 161):
            assert normal_cdf(float(x)) == pytest.approx(float(scipy_norm.cdf(x)), abs=1e-14)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.1, float("nan")])
    def test_domain_errors(self, p):
        with pytest.raises(InputError):
            normal_quantile(p)

    def test_symmetry(self):
        for p in (0.01, 0.1, 0.3):
            assert normal_quantile(p) == pytest.approx(-normal_quantile(1 - p), abs=1e-12)


class TestTwoSidedPValue:
    def test_far_tail_does_not_underflow(self):
        # 2 * (1 - normal_cdf(9)) rounds to exactly 0
        assert two_sided_p_value(9.0) == pytest.approx(2.2571768119076e-19, rel=1e-12)
        assert two_sided_p_value(-9.0) == two_sided_p_value(9.0)

    def test_against_scipy(self):
        for z in np.linspace(-30.0, 30.0, 241):
            expected = 2.0 * float(scipy_norm.sf(abs(z)))
            assert two_sided_p_value(float(z)) == pytest.approx(expected, rel=1e-12)


def independent_score(link, data, beta, j, rho):
    """From-scratch recomputation with explicit index bookkeeping."""
    idx = j - 1
    others = [k for k in range(data.d) if k != idx]
    H = loss_hessian(link, data, beta)
    h_ag = np.array([H[idx, k] for k in others])
    h_gg = np.array([[H[k, l] for l in others] for k in others])
    d_hat = solve_dantzig(h_ag, h_gg, rho).d_hat
    g = loss_gradient(link, data, beta)
    return float(g[idx]) - sum(float(d_hat[a]) * float(g[k]) for a, k in enumerate(others))


def independent_variance(link, data, beta, d_hat, j):
    idx = j - 1
    others = [k for k in range(data.d) if k != idx]
    total_design = 0.0
    total_resid = 0.0
    for i in range(data.n):
        xw = float(data.design[i, idx]) - sum(
            float(d_hat[a]) * float(data.design[i, k]) for a, k in enumerate(others)
        )
        u = float(data.design[i] @ beta)
        slope = float(link.deriv(u))
        resid = float(data.response[i]) - float(link.eval(u))
        total_design += (slope * xw) ** 2
        total_resid += resid ** 2
    return (total_design / data.n) * (total_resid / data.n)


class TestDecorrelatedScore:
    def test_reduces_to_partial_score_when_rho_large(self, paper):
        rng = np.random.default_rng(3)
        data = random_instance(rng, 25, 6, paper)
        beta = rng.standard_normal(6)
        f_s, dres = decorrelated_score(paper, data, beta, 2, rho=1e6)
        assert np.all(dres.d_hat == 0.0)
        assert f_s == pytest.approx(loss_gradient(paper, data, beta)[1], abs=1e-15)

    def test_zero_gradient_gives_zero_score(self, paper):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((30, 5))
        beta = rng.standard_normal(5)
        beta[2] = 0.0  # the tested coordinate is null
        data = Dataset(design=X, response=np.asarray(paper.eval(X @ beta)))
        f_s, _ = decorrelated_score(paper, data, beta, 3, rho=0.5)
        assert abs(f_s) <= 1e-12

    @pytest.mark.parametrize("j", [1, 3, 6])
    def test_matches_independent_recomputation(self, paper, j):
        rng = np.random.default_rng(j)
        data = random_instance(rng, 25, 6, paper)
        beta = rng.standard_normal(6)
        f_s, _ = decorrelated_score(paper, data, beta, j, rho=0.2)
        assert f_s == pytest.approx(independent_score(paper, data, beta, j, 0.2), abs=1e-12)


class TestScoreVariance:
    def test_identity_link_zero_dhat_factorization(self, identity):
        rng = np.random.default_rng(8)
        data = random_instance(rng, 20, 4, identity)
        beta = rng.standard_normal(4)
        j = 2
        var = score_variance(identity, data, beta, np.zeros(3), j)
        resid = data.response - data.design @ beta
        expected = np.mean(data.design[:, j - 1] ** 2) * np.mean(resid ** 2)
        assert var == pytest.approx(expected, abs=1e-12)

    def test_zero_residuals_degenerate(self, paper):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((15, 4))
        beta = rng.standard_normal(4)
        data = Dataset(design=X, response=np.asarray(paper.eval(X @ beta)))
        with pytest.raises(DegenerateVarianceError):
            score_variance(paper, data, beta, np.zeros(3), 1)

    @pytest.mark.parametrize("j", [1, 4])
    def test_matches_independent_recomputation(self, paper, j):
        rng = np.random.default_rng(10 + j)
        data = random_instance(rng, 18, 4, paper)
        beta = rng.standard_normal(4)
        d_hat = 0.3 * rng.standard_normal(3)
        ours = score_variance(paper, data, beta, d_hat, j)
        assert ours == pytest.approx(independent_variance(paper, data, beta, d_hat, j), abs=1e-12)


@pytest.fixture(scope="module")
def fitted_instance():
    paper = builtin_link("paper")
    cfg = SimConfig(n=120, d=12, s_star=3, noise_sd=1.0, toeplitz_rho=0.5, seed=77, trials=1)
    data, truth = generate(cfg, 0)
    result = fit(paper, data, FitConfig(lam=cfg.lambda_rule()))
    return paper, data, truth, result, cfg


class TestScoreTest:
    def test_pvalue_matches_statistic(self, fitted_instance):
        paper, data, _, result, cfg = fitted_instance
        res = score_test(paper, data, result, InferenceConfig(coordinate=5, rho=cfg.rho_rule()))
        assert res.p_value == pytest.approx(2.0 * (1.0 - normal_cdf(abs(res.statistic))), abs=1e-15)
        assert res.sigma_s > 0.0

    def test_reject_iff_pvalue_below_level(self, fitted_instance):
        paper, data, _, result, cfg = fitted_instance
        for j in range(1, 13):
            for delta in (0.01, 0.05, 0.2):
                res = score_test(
                    paper, data, result,
                    InferenceConfig(coordinate=j, rho=cfg.rho_rule(), significance=delta),
                )
                assert res.reject == (res.p_value < delta), (j, delta)

    def test_rejection_threshold_brackets_z975(self):
        z = normal_quantile(0.975)
        assert 1.9599 < z < 1.9600

    def test_null_value_moves_evaluation_point(self, fitted_instance):
        paper, data, _, result, cfg = fitted_instance
        base = score_test(paper, data, result, InferenceConfig(coordinate=1, rho=cfg.rho_rule()))
        shifted = score_test(
            paper, data, result,
            InferenceConfig(coordinate=1, rho=cfg.rho_rule(), null_value=float(result.beta_hat[0])),
        )
        assert base.statistic != shifted.statistic

    def test_statistic_deterministic(self, fitted_instance):
        paper, data, _, result, cfg = fitted_instance
        c = InferenceConfig(coordinate=3, rho=cfg.rho_rule())
        r1 = score_test(paper, data, result, c)
        r2 = score_test(paper, data, result, c)
        assert r1.statistic == r2.statistic and r1.p_value == r2.p_value

    def test_coordinate_out_of_range(self, fitted_instance):
        paper, data, _, result, cfg = fitted_instance
        with pytest.raises(InputError):
            score_test(paper, data, result, InferenceConfig(coordinate=13, rho=1.0))


class TestWald:
    def test_no_nuisance_is_ols_newton_step(self, identity):
        rng = np.random.default_rng(20)
        x = rng.standard_normal(40)
        y = 1.3 * x + rng.standard_normal(40)
        data = Dataset(design=x[:, None], response=y)
        result = fit(identity, data, FitConfig(lam=1e-3))
        res = wald_estimate(identity, data, result, InferenceConfig(coordinate=1, rho=1.0))
        ols = float(x @ y / (x @ x))
        assert res.alpha_bar == pytest.approx(ols, abs=1e-10)
        resid = y - x * result.beta_hat[0]
        sigma_w = math.sqrt(np.mean(resid ** 2) / np.mean(x ** 2))
        half = normal_quantile(0.975) * sigma_w / math.sqrt(40)
        assert res.ci_low == pytest.approx(res.alpha_bar - half, abs=1e-12)
        assert res.ci_high == pytest.approx(res.alpha_bar + half, abs=1e-12)

    def test_ci_contains_alpha_bar(self, fitted_instance):
        paper, data, _, result, cfg = fitted_instance
        res = wald_estimate(paper, data, result, InferenceConfig(coordinate=2, rho=cfg.rho_rule()))
        assert res.ci_low <= res.alpha_bar <= res.ci_high

    def test_ci_test_duality(self, fitted_instance):
        paper, data, _, result, cfg = fitted_instance
        base = wald_estimate(paper, data, result, InferenceConfig(coordinate=1, rho=cfg.rho_rule()))
        span = base.ci_high - base.ci_low
        for c in np.linspace(base.ci_low - 2 * span, base.ci_high + 2 * span, 41):
            res = wald_estimate(
                paper, data, result,
                InferenceConfig(coordinate=1, rho=cfg.rho_rule(), null_value=float(c)),
            )
            inside = base.ci_low <= c <= base.ci_high
            assert res.reject == (not inside), c
            assert (res.ci_low, res.ci_high) == (base.ci_low, base.ci_high)

    def test_reject_iff_pvalue_below_level(self, fitted_instance):
        paper, data, _, result, cfg = fitted_instance
        for j in range(1, 13):
            res = wald_estimate(paper, data, result, InferenceConfig(coordinate=j, rho=cfg.rho_rule()))
            assert res.reject == (res.p_value < 0.05)

    def test_singular_denominator(self, identity):
        # a dead covariate column makes h_aa = 0 and h_ag = 0 at that coordinate
        rng = np.random.default_rng(21)
        X = rng.standard_normal((20, 3))
        X[:, 1] = 0.0
        y = X[:, 0] + rng.standard_normal(20)
        data = Dataset(design=X, response=y)
        result = fit(identity, data, FitConfig(lam=0.05))
        with pytest.raises(SingularDenominatorError):
            wald_estimate(identity, data, result, InferenceConfig(coordinate=2, rho=1.0))

    def test_degenerate_wald_variance(self, identity):
        # same dead column: the score test hits the zero design factor first
        rng = np.random.default_rng(22)
        X = rng.standard_normal((20, 3))
        X[:, 1] = 0.0
        y = X[:, 0] + rng.standard_normal(20)
        data = Dataset(design=X, response=y)
        result = fit(identity, data, FitConfig(lam=0.05))
        with pytest.raises(DegenerateVarianceError):
            score_test(identity, data, result, InferenceConfig(coordinate=2, rho=1.0))


class TestInferenceConfig:
    @pytest.mark.parametrize("kwargs", [
        dict(coordinate=0, rho=1.0),
        dict(coordinate=1, rho=0.0),
        dict(coordinate=1, rho=1.0, significance=0.0),
        dict(coordinate=1, rho=1.0, significance=1.0),
        dict(coordinate=1, rho=1.0, null_value=float("inf")),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(InputError):
            InferenceConfig(**kwargs)
