import dataclasses
import math
from functools import lru_cache
from statistics import NormalDist

import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import norm as scipy_norm

from nlsparse import (
    DantzigResult,
    Dataset,
    DegenerateVarianceError,
    FitConfig,
    InferenceConfig,
    InputError,
    SingularDenominatorError,
    builtin_link,
    fit,
    loss_gradient,
    loss_hessian,
    normal_quantile,
    score_test,
    solve_dantzig,
    two_sided_p_value,
    wald_estimate,
)
from nlsparse import inference, loss
from nlsparse.simulate import SimConfig, UniformBeta, generate, rate_rule
from nlsparse.solver import FitResult
from tests.conftest import hessian_partition, random_instance
from tests.test_dantzig import highs_optimum

# frozen from scipy.special.ndtri(0.975)
Z_975 = 1.959963984540054
PHI = NormalDist().cdf


class TestNormalQuantile:
    def test_median_is_zero(self):
        assert normal_quantile(0.5) == 0.0

    def test_known_value(self):
        assert normal_quantile(0.975) == pytest.approx(Z_975, abs=1e-10)

    def test_round_trip_through_cdf(self):
        for p in np.arange(0.01, 1.0, 0.01):
            assert abs(PHI(normal_quantile(p)) - p) <= 1e-10

    def test_against_scipy_oracle(self):
        grid = np.concatenate([
            np.array([1e-12, 1e-8, 1e-4, 0.02, 0.02425]),
            np.linspace(0.001, 0.999, 199),
            np.array([0.97575, 0.9999, 1 - 1e-8, 1 - 1e-12]),
        ])
        for p in grid:
            assert normal_quantile(float(p)) == pytest.approx(float(ndtri(p)), abs=1e-10)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.1, float("nan")])
    def test_domain_errors(self, p):
        with pytest.raises(InputError):
            normal_quantile(p)

    def test_symmetry(self):
        for p in (0.01, 0.1, 0.3):
            assert normal_quantile(p) == pytest.approx(-normal_quantile(1 - p), abs=1e-12)


class TestTwoSidedPValue:
    def test_far_tail_does_not_underflow(self):
        # 2 * (1 - Phi(9)) rounds to exactly 0
        assert 2.0 * (1.0 - PHI(9.0)) == 0.0
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


def score_at(link, data, beta, j, rho):
    """score_test evaluated at ``beta`` itself: a fit whose beta_hat is
    ``beta``, tested against the null value beta_j."""
    beta = np.asarray(beta, dtype=float)
    point = FitResult(beta_hat=beta, iterations=0, objective_trace=np.zeros(1),
                      kkt_residual=0.0, converged=True, stepsize_trace=np.zeros(0),
                      step_sqnorm_trace=np.zeros(0))
    config = InferenceConfig(coordinate=j, rho=rho, null_value=float(beta[j - 1]))
    return score_test(link, data, point, config)


class TestDecorrelatedScore:
    def test_reduces_to_partial_score_when_rho_large(self, paper):
        rng = np.random.default_rng(3)
        data = random_instance(rng, 25, 6, paper)
        beta = rng.standard_normal(6)
        res = score_at(paper, data, beta, 2, rho=1e6)
        assert np.all(res.d_hat.d_hat == 0.0)
        assert res.f_s == pytest.approx(loss_gradient(paper, data, beta)[1], abs=1e-15)

    def test_zero_gradient_gives_zero_score(self, paper):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((30, 5))
        beta = rng.standard_normal(5)
        beta[2] = 0.0  # the tested coordinate is null
        data = Dataset(design=X, response=np.asarray(paper.eval(X @ beta)))
        # every residual is zero, so score_test stops at its degenerate
        # variance (see TestScoreVariance); F_S comes from the pieces it reads
        f_s = inference._Point(paper, data, beta).decorrelation(3, rho=0.5)[0]
        assert abs(f_s) <= 1e-12

    @pytest.mark.parametrize("j", [1, 3, 6])
    def test_matches_independent_recomputation(self, paper, j):
        rng = np.random.default_rng(j)
        data = random_instance(rng, 25, 6, paper)
        beta = rng.standard_normal(6)
        f_s = score_at(paper, data, beta, j, rho=0.2).f_s
        assert f_s == pytest.approx(independent_score(paper, data, beta, j, 0.2), abs=1e-12)


class TestScoreVariance:
    """sigma_s^2, the variance estimate of sqrt(n) F_S."""

    def test_identity_link_zero_dhat_factorization(self, identity):
        rng = np.random.default_rng(8)
        data = random_instance(rng, 20, 4, identity)
        beta = rng.standard_normal(4)
        j = 2
        res = score_at(identity, data, beta, j, rho=1e6)
        assert np.all(res.d_hat.d_hat == 0.0)
        var = res.sigma_s ** 2
        resid = data.response - data.design @ beta
        expected = np.mean(data.design[:, j - 1] ** 2) * np.mean(resid ** 2)
        assert var == pytest.approx(expected, abs=1e-12)

    def test_zero_residuals_degenerate(self, paper):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((15, 4))
        beta = rng.standard_normal(4)
        data = Dataset(design=X, response=np.asarray(paper.eval(X @ beta)))
        with pytest.raises(DegenerateVarianceError):
            score_at(paper, data, beta, 1, rho=1e6)

    @pytest.mark.parametrize("j", [1, 4])
    def test_matches_independent_recomputation(self, paper, j):
        rng = np.random.default_rng(10 + j)
        data = random_instance(rng, 18, 4, paper)
        beta = rng.standard_normal(4)
        res = score_at(paper, data, beta, j, rho=0.05)
        d_hat = res.d_hat.d_hat
        assert np.count_nonzero(d_hat) >= 1
        ours = res.sigma_s ** 2
        assert ours == pytest.approx(independent_variance(paper, data, beta, d_hat, j), abs=1e-12)


@pytest.fixture(scope="module")
def fitted_instance():
    paper = builtin_link("paper")
    cfg = SimConfig(n=120, d=12, s_star=3, noise_sd=1.0, toeplitz_rho=0.5, seed=77, trials=1)
    data, beta_star = generate(cfg, 0)
    result = fit(paper, data, FitConfig(lam=cfg.lambda_rule()))
    return paper, data, beta_star, result, cfg


class TestScoreTest:
    def test_pvalue_matches_statistic(self, fitted_instance):
        paper, data, _, result, cfg = fitted_instance
        res = score_test(paper, data, result, InferenceConfig(coordinate=5, rho=cfg.rho_rule()))
        assert res.p_value == pytest.approx(2.0 * (1.0 - PHI(abs(res.statistic))), abs=1e-15)
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

    @pytest.mark.parametrize("call", [
        score_test, wald_estimate,
        lambda link, data, fit, config: inference._Point.fitted(link, data, fit, [config]),
    ], ids=["score_test", "wald_estimate", "fitted_point"])
    def test_fit_of_another_width_is_an_input_error(self, identity, call):
        rng = np.random.default_rng(24)
        narrow = random_instance(rng, 40, 20, identity)
        wide = random_instance(rng, 40, 30, identity)
        result = fit(identity, wide, FitConfig(lam=0.1))
        with pytest.raises(InputError, match="expected \\(20,\\)"):
            call(identity, narrow, result, InferenceConfig(coordinate=1, rho=1.0))


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

    def test_ci_endpoints_accepted_and_the_next_floats_rejected(self, fitted_instance):
        paper, data, _, result, cfg = fitted_instance
        for j in range(1, 13):
            base = wald_estimate(paper, data, result, InferenceConfig(coordinate=j, rho=cfg.rho_rule()))
            for end, outward in ((base.ci_low, -np.inf), (base.ci_high, np.inf)):
                for null, reject in ((end, False), (np.nextafter(end, outward), True)):
                    res = wald_estimate(paper, data, result, InferenceConfig(
                        coordinate=j, rho=cfg.rho_rule(), null_value=float(null)))
                    assert res.reject == reject, (j, null)

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


@lru_cache(maxsize=None)
def fitted_table_instance(d, link_name):
    """One trial of the inference table (n = 200, mu = 0.5) and its fit."""
    cfg = SimConfig(n=200, d=d, s_star=10, seed=7, link_name=link_name,
                    beta_mode=UniformBeta(0.5, 0.5))
    data, _ = generate(cfg, 0)
    link = builtin_link(link_name)
    return link, data, fit(link, data, FitConfig(lam=cfg.lambda_rule()))


def explicit_decorrelate(point, j, rho):
    """The decorrelated pieces at ``point`` from the full Hessian: loss_hessian ->
    hessian_partition -> solve_dantzig -> loss_gradient."""
    link, data, beta = point.link, point.data, point.beta
    h_aa, h_ag, h_gg = hessian_partition(loss_hessian(link, data, beta), j)
    dres = solve_dantzig(h_ag, h_gg, rho)
    grad = loss_gradient(link, data, beta)
    f_s = float(grad[j - 1] - dres.d_hat @ np.delete(grad, j - 1))
    u = data.design @ beta
    xw = data.design[:, j - 1] - np.delete(data.design, j - 1, axis=1) @ dres.d_hat
    factor_design = float(np.mean((link.deriv(u) * xw) ** 2))
    factor_resid = float(np.mean((data.response - link.eval(u)) ** 2))
    return f_s, h_aa - float(h_ag @ dres.d_hat), factor_design, factor_resid, dres


class TestMatrixFree:
    """score_test and wald_estimate read Hessian rows, never the d x d matrix."""

    @pytest.mark.parametrize("rho_scale, vacuous", [(2.0, False), (45.0, True)])
    @pytest.mark.parametrize("link_name", ["paper", "identity"])
    @pytest.mark.parametrize("d", [64, 256])
    def test_matches_explicit_path(self, monkeypatch, d, link_name, rho_scale, vacuous):
        link, data, result = fitted_table_instance(d, link_name)
        for j in (1, 11):
            cfg = InferenceConfig(coordinate=j, rho=rate_rule(rho_scale, 1.0, 200, d))
            score, wald = score_test(link, data, result, cfg), wald_estimate(link, data, result, cfg)
            with monkeypatch.context() as patched:
                patched.setattr(inference._Point, "decorrelation", explicit_decorrelate)
                score0 = score_test(link, data, result, cfg)
                wald0 = wald_estimate(link, data, result, cfg)
            for new, old, fields in (
                (score, score0, ("statistic", "f_s", "sigma_s", "p_value")),
                (wald, wald0, ("alpha_bar", "sigma_w", "statistic", "ci_low", "ci_high",
                               "p_value")),
            ):
                for field in fields:
                    assert getattr(new, field) == pytest.approx(getattr(old, field), rel=1e-12)
                assert new.reject == old.reject
                lp, lp0 = new.d_hat, old.d_hat
                assert (lp.vacuous, lp.pivots, lp.status) == (vacuous, lp0.pivots, "optimal")
                assert lp0.vacuous == vacuous
                np.testing.assert_allclose(lp.d_hat, lp0.d_hat, rtol=0.0,
                                           atol=1e-12 * np.abs(lp0.d_hat).max(initial=1.0))
                assert lp.l1_norm == pytest.approx(lp0.l1_norm, rel=1e-12)

    @pytest.mark.parametrize("rho_scale", [0.5, 2.0])
    @pytest.mark.parametrize("link_name", ["paper", "identity"])
    @pytest.mark.parametrize("d", [64, 256])
    def test_l1_optimum_matches_highs(self, d, link_name, rho_scale):
        link, data, result = fitted_table_instance(d, link_name)
        rho = rate_rule(rho_scale, 1.0, 200, d)
        beta = result.beta_hat.copy()
        beta[10] = 0.0  # the score test's null-imposed point at j = 11
        res = score_test(link, data, result, InferenceConfig(coordinate=11, rho=rho)).d_hat
        _, h_ag, h_gg = hessian_partition(loss_hessian(link, data, beta), 11)
        assert not res.vacuous and res.pivots >= 1
        assert float(np.abs(h_ag - h_gg @ res.d_hat).max()) <= rho + 1e-8
        assert res.l1_norm == pytest.approx(highs_optimum(h_ag, h_gg, rho), rel=1e-9)

    @staticmethod
    def _count_rows(monkeypatch):
        """Record the Hessian rows inference reads; forbid the full matrix."""
        def forbidden(*args):
            raise AssertionError("the d x d Hessian was formed")

        monkeypatch.setattr(loss, "loss_hessian", forbidden)
        read = []

        def rows(data, weights, idx):
            read.extend(np.atleast_1d(idx).tolist())
            return loss._hessian_rows(data, weights, idx)

        monkeypatch.setattr(inference, "_hessian_rows", rows)
        return read

    def test_vacuous_call_reads_row_j_only(self, monkeypatch):
        link, data, result = fitted_table_instance(256, "paper")
        read = self._count_rows(monkeypatch)
        cfg = InferenceConfig(coordinate=11, rho=rate_rule(45.0, 1.0, 200, 256))
        assert score_test(link, data, result, cfg).d_hat.vacuous
        assert wald_estimate(link, data, result, cfg).d_hat.vacuous
        assert read == [10, 10]

    def test_lp_reads_each_basis_row_once(self, monkeypatch):
        link, data, result = fitted_table_instance(256, "paper")
        read = self._count_rows(monkeypatch)
        cfg = InferenceConfig(coordinate=11, rho=rate_rule(0.5, 1.0, 200, 256))
        lp = score_test(link, data, result, cfg).d_hat
        assert not lp.vacuous and lp.pivots >= 10
        assert read[0] == 10 and 10 not in read[1:]
        assert len(read[1:]) == len(set(read[1:])) < 256 - 1
        assert set(np.flatnonzero(lp.d_hat)) <= {k - (k > 10) for k in read[1:]}


def assert_bitwise_equal(new, old):
    for field in dataclasses.fields(old):
        a, b = getattr(new, field.name), getattr(old, field.name)
        if isinstance(b, DantzigResult):
            assert_bitwise_equal(a, b)
        else:
            assert type(a) is type(b) and np.asarray(a).tobytes() == np.asarray(b).tobytes(), \
                (field.name, a, b)


class TestScoreAndWald:
    """One decorrelation per distinct evaluation point, same results."""

    @pytest.mark.parametrize("link_name, case", [
        ("paper", "equal"), ("identity", "equal"), ("identity", "negative zero"),
        ("paper", "differ"), ("identity", "differ"),
    ])
    def test_equals_separate_calls_and_shares_the_lp(self, monkeypatch, link_name, case):
        # beta_hat_11 is 0 for the identity fit and about 0.085 for the paper fit
        link, data, result = fitted_table_instance(64, link_name)
        assert (result.beta_hat[10] == 0.0) == (link_name == "identity")
        if case == "negative zero":
            # the solver leaves -0.0 at many zero coordinates; the null-imposed
            # point then holds +0.0 there
            beta_hat = result.beta_hat.copy()
            beta_hat[10] = -0.0
            result = dataclasses.replace(result, beta_hat=beta_hat)
        shared = case != "differ"
        null_value = float(result.beta_hat[10]) + (0.0 if shared else 0.25)
        cfg = InferenceConfig(coordinate=11, rho=rate_rule(2.0, 1.0, 200, 64),
                              null_value=null_value)
        separate = score_test(link, data, result, cfg), wald_estimate(link, data, result, cfg)
        beta_tilde = result.beta_hat.copy()
        beta_tilde[10] = null_value  # the null-imposed point, built apart from the fitted one
        imposed = inference._Point(link, data, beta_tilde).score(cfg)
        solves = []

        def counted(*args):
            solves.append(args)
            return original(*args)

        original = inference._solve
        monkeypatch.setattr(inference, "_solve", counted)
        fitted = inference._Point.fitted(link, data, result, [cfg])
        score, wald = fitted.null_imposed(cfg).score(cfg), fitted.wald(cfg)
        assert len(solves) == (1 if shared else 2)
        assert not score.d_hat.vacuous and not wald.d_hat.vacuous
        assert_bitwise_equal(score, separate[0])
        assert_bitwise_equal(score, imposed)
        assert_bitwise_equal(wald, separate[1])
