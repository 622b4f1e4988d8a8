import numpy as np
import pytest

from nlsparse import (
    Dataset,
    FitConfig,
    InputError,
    LineSearchError,
    NumericalError,
    acceptance_check,
    bb_stepsize,
    builtin_link,
    fit,
    invert_link,
    kkt_residual,
    penalized_objective,
    soft_threshold,
    solver,
)
from nlsparse.simulate import SimConfig, generate
from nlsparse.solver import _lasso_path
from tests.conftest import random_instance


class TestSoftThreshold:
    @pytest.mark.parametrize("u,a,expected", [
        (0.0, 1.0, 0.0),
        (3.0, 1.0, 2.0),
        (-0.5, 2.0, 0.0),
        (-3.0, 1.0, -2.0),
        (2.0, 0.0, 2.0),
    ])
    def test_scalar_cases(self, u, a, expected):
        assert soft_threshold(u, a) == expected

    def test_vectorized(self):
        out = soft_threshold(np.array([-3.0, 0.0, 0.5, 4.0]), 1.0)
        np.testing.assert_array_equal(out, [-2.0, 0.0, 0.0, 3.0])

    def test_negative_threshold_rejected(self):
        with pytest.raises(InputError):
            soft_threshold(1.0, -0.5)


class TestBBStepsize:
    def test_first_iteration_is_one(self, paper):
        # fit tries stepsize 1 first, so the first accepted one is ETA**k, k >= 0
        cfg = SimConfig(n=60, d=8, s_star=2, noise_sd=0.5, seed=13)
        data, _ = generate(cfg, 0)
        first = fit(paper, data, FitConfig(lam=cfg.lambda_rule())).stepsize_trace[0]
        assert any(first == solver.ETA ** k for k in range(solver.MAX_LINESEARCH))

    def test_equal_vectors(self):
        assert bb_stepsize(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 1.0

    def test_quotient(self):
        # <d,g>/<d,d> = 6/4
        assert bb_stepsize(np.array([2.0]), np.array([3.0])) == 1.5

    def test_negative_curvature_falls_back(self):
        assert bb_stepsize(np.array([1.0]), np.array([-1.0])) == 1.0

    def test_zero_step_falls_back(self):
        assert bb_stepsize(np.zeros(2), np.array([1.0, 1.0])) == 1.0

    def test_clamping(self, monkeypatch):
        monkeypatch.setattr(solver, "ALPHA_MAX", 10.0)
        assert bb_stepsize(np.array([1.0]), np.array([100.0])) == 10.0
        monkeypatch.setattr(solver, "ALPHA_MIN", 0.5)
        assert bb_stepsize(np.array([100.0]), np.array([1.0])) == 0.5


class TestAcceptanceCheck:
    def test_zero_step_keeps_equal_value(self):
        assert acceptance_check([5.0], 5.0, 1.0, np.zeros(2))

    def test_simple_decrease(self, monkeypatch):
        # bound = 5.0 - 0.5
        monkeypatch.setattr(solver, "ZETA", 1.0)
        assert acceptance_check([5.0], 4.0, 1.0, np.array([1.0]))
        assert not acceptance_check([5.0], 4.6, 1.0, np.array([1.0]))

    def test_window_allows_increase_over_latest(self, monkeypatch):
        # window max is 10, so 9.0 passes even though the latest value is 3.0
        monkeypatch.setattr(solver, "ZETA", 1.0)
        assert acceptance_check([3.0, 10.0], 9.0, 1.0, np.array([1.0]))

    def test_window_length_limited_by_memory(self, monkeypatch):
        # MEMORY = 0: window is only the latest value 3.0
        monkeypatch.setattr(solver, "MEMORY", 0)
        assert not acceptance_check([10.0, 3.0], 9.0, 1.0, np.zeros(1))

    def test_empty_history_rejected(self):
        with pytest.raises(InputError):
            acceptance_check([], 1.0, 1.0, np.zeros(1))

    def test_nan_candidate_rejected(self):
        assert not acceptance_check([5.0], np.nan, 1.0, np.zeros(1))


class TestFit:
    def test_orthogonal_design_closed_form(self, identity):
        rng = np.random.default_rng(21)
        n = 30
        y = rng.normal(size=n)
        data = Dataset(design=np.eye(n), response=y)
        lam = 0.01
        res = fit(identity, data, FitConfig(lam=lam))
        np.testing.assert_allclose(res.beta_hat, soft_threshold(y, n * lam), atol=1e-8)
        assert res.converged

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_noiseless_recovery(self, paper, seed):
        cfg = SimConfig(n=120, d=30, s_star=4, noise_sd=0.0, seed=seed, trials=1)
        data, beta_star = generate(cfg, 0)
        res = fit(paper, data, FitConfig(lam=1e-4))
        assert res.converged
        assert np.linalg.norm(res.beta_hat - beta_star) <= 1e-2

    def test_converged_kkt_certificate(self, paper):
        cfg = SimConfig(n=100, d=40, s_star=4, noise_sd=1.0, seed=5, trials=1)
        data, _ = generate(cfg, 0)
        config = FitConfig(lam=cfg.lambda_rule())
        res = fit(paper, data, config)
        assert res.converged
        assert res.kkt_residual <= 10.0 * config.tol

    def test_trace_replays_acceptance_inequality(self, paper):
        cfg = SimConfig(n=80, d=25, s_star=3, noise_sd=1.0, seed=9, trials=1)
        data, _ = generate(cfg, 0)
        config = FitConfig(lam=cfg.lambda_rule())
        res = fit(paper, data, config)
        trace = res.objective_trace
        assert len(trace) == res.iterations + 1
        assert len(res.stepsize_trace) == res.iterations
        for t in range(1, res.iterations + 1):
            window = trace[max(0, t - 1 - solver.MEMORY):t]
            bound = max(window) - solver.ZETA * res.stepsize_trace[t - 1] / 2.0 \
                * res.step_sqnorm_trace[t - 1]
            assert trace[t] <= bound

    def test_objective_never_exceeds_start(self, paper):
        cfg = SimConfig(n=80, d=25, s_star=3, noise_sd=1.0, seed=10, trials=1)
        data, _ = generate(cfg, 0)
        res = fit(paper, data, FitConfig(lam=cfg.lambda_rule()))
        assert np.all(res.objective_trace <= res.objective_trace[0])

    def test_final_objective_matches_recomputation(self, paper):
        cfg = SimConfig(n=60, d=20, s_star=3, noise_sd=1.0, seed=12, trials=1)
        data, _ = generate(cfg, 0)
        lam = cfg.lambda_rule()
        res = fit(paper, data, FitConfig(lam=lam))
        assert res.objective_trace[-1] == pytest.approx(
            penalized_objective(paper, data, res.beta_hat, lam), abs=1e-12
        )

    def test_deterministic_bitwise(self, paper):
        cfg = SimConfig(n=60, d=20, s_star=3, noise_sd=1.0, seed=13, trials=1)
        data, _ = generate(cfg, 0)
        config = FitConfig(lam=cfg.lambda_rule())
        r1 = fit(paper, data, config)
        r2 = fit(paper, data, config)
        assert np.array_equal(r1.beta_hat, r2.beta_hat)
        assert np.array_equal(r1.objective_trace, r2.objective_trace)
        assert np.array_equal(r1.stepsize_trace, r2.stepsize_trace)
        assert r1.kkt_residual == r2.kkt_residual

    def test_warm_start_respected(self, paper):
        cfg = SimConfig(n=60, d=20, s_star=3, noise_sd=1.0, seed=14, trials=1)
        data, _ = generate(cfg, 0)
        lam = cfg.lambda_rule()
        cold = fit(paper, data, FitConfig(lam=lam))
        warm = fit(paper, data, FitConfig(lam=lam, init=cold.beta_hat))
        assert warm.iterations <= cold.iterations

    def test_line_search_exhaustion_carries_iterate(self, paper, monkeypatch):
        cfg = SimConfig(n=40, d=10, s_star=2, noise_sd=1.0, seed=15, trials=1)
        data, _ = generate(cfg, 0)
        # an absurd sufficient-decrease constant makes every step unacceptable
        monkeypatch.setattr(solver, "ZETA", 1e12)
        monkeypatch.setattr(solver, "MAX_LINESEARCH", 3)
        with pytest.raises(LineSearchError, match="exhausted 3 trials") as excinfo:
            fit(paper, data, FitConfig(lam=0.1))
        assert excinfo.value.result is not None
        assert excinfo.value.result.beta_hat.shape == (10,)

    def test_non_finite_start_raises(self, identity):
        data = Dataset(design=np.eye(2) * 1e200, response=np.array([1e200, -1e200]))
        with pytest.raises(NumericalError):
            fit(identity, data, FitConfig(lam=0.1))

    def test_init_length_checked(self, paper):
        data = Dataset(design=np.ones((3, 2)), response=np.zeros(3))
        with pytest.raises(InputError, match=r"^init has shape \(3,\), expected \(2,\)"):
            fit(paper, data, FitConfig(lam=0.1, init=np.zeros(3)))


class TestKktResidual:
    def test_orthogonal_solution_is_stationary(self, identity):
        rng = np.random.default_rng(30)
        n = 25
        y = rng.normal(size=n)
        data = Dataset(design=np.eye(n), response=y)
        lam = 0.01
        beta = soft_threshold(y, n * lam)
        assert kkt_residual(identity, data, beta, lam) <= 1e-12

    def test_zero_gradient_unpenalized(self, paper):
        rng = np.random.default_rng(31)
        X = rng.standard_normal((10, 3))
        beta = rng.standard_normal(3)
        data = Dataset(design=X, response=np.asarray(paper.eval(X @ beta)))
        assert kkt_residual(paper, data, beta, 0.0) <= 1e-13

    def test_positive_far_from_optimum(self, paper):
        rng = np.random.default_rng(32)
        data = random_instance(rng, 30, 6, paper)
        assert kkt_residual(paper, data, 10.0 + rng.standard_normal(6), 0.05) > 0.1

    def test_tail_decrease_along_iterates(self, identity):
        # replay the last iterates of a deterministic run: on a
        # well-conditioned instance the stationarity residual settles
        # monotonically (nonstrict) near convergence; spectral stepsizes make
        # no such promise on strongly correlated designs
        cfg = SimConfig(n=200, d=10, s_star=3, noise_sd=1.0, toeplitz_rho=0.0,
                        link_name="identity", seed=0, trials=1)
        data, _ = generate(cfg, 0)
        lam = cfg.lambda_rule()
        full = fit(identity, data, FitConfig(lam=lam))
        T = full.iterations
        residuals = []
        for t in range(max(1, T - 9), T + 1):
            capped = fit(identity, data, FitConfig(lam=lam, tol=1e-15, max_iter=t))
            residuals.append(kkt_residual(identity, data, capped.beta_hat, lam))
        assert residuals[0] > 0.0
        slack = [r_next <= r_prev * (1.0 + 1e-9) + 1e-12
                 for r_prev, r_next in zip(residuals, residuals[1:])]
        assert all(slack), residuals


def cv_fold(config, folds, trial=0, held_out=0):
    """Training part of a CV fold of a trial, on link-inverted responses, with
    the lambda grid that ``simulate._cv_lasso`` uses."""
    data, _ = generate(config, trial)
    z = invert_link(builtin_link(config.link_name), data.response)
    n, d = data.design.shape
    base = np.std(z, ddof=1) * np.sqrt(np.log(d) / n)
    train = np.ones(n, dtype=bool)
    train[np.array_split(np.arange(n), folds)[held_out]] = False
    return data.design[train], z[train], np.geomspace(base, 1e-4 * base, 30)


def lasso_path(X, y, grid):
    """``_lasso_path`` on the Gram matrix X'X/n and correlations X'y/n of (X, y)."""
    n = X.shape[0]
    return _lasso_path(X.T @ X / n, X.T @ y / n, grid)


@pytest.mark.filterwarnings("error")
class TestLassoPath:
    """Every grid point of the exact path is KKT-stationary to 1e-6 * lambda
    and agrees with the proximal gradient solver to 1e-6."""

    @staticmethod
    def certify(identity, X, y, grid, warm):
        # A cold fit at tol 1e-10 is less accurate than the path at d = 128
        # (KKT up to 8e-6 * lambda at n = 200; no convergence in 1e5
        # iterations at n = 100), so there the reference starts at the path
        # solution and must stop on its own rule without moving it.
        path = lasso_path(X, y, grid)
        data = Dataset(design=X, response=y)
        for beta, lam in zip(path, grid):
            assert kkt_residual(identity, data, beta, lam) <= 1e-6 * lam
            ref = fit(identity, data,
                      FitConfig(lam=float(lam), tol=1e-10, init=beta if warm else None))
            assert ref.converged
            np.testing.assert_allclose(beta, ref.beta_hat, rtol=0, atol=1e-6)
        return path

    @pytest.mark.parametrize("trial", [0, 1])
    def test_more_rows_than_columns(self, identity, trial):
        # trial 0: a variable that joins sits on its drop test at
        # lambda * (1 - 1e-12), and testing it again leaves at a zero-length
        # step; trial 1: a variable that leaves joins again with the other sign
        X, y, grid = cv_fold(SimConfig(n=200, d=128, s_star=8, seed=77), 5, trial)
        path = self.certify(identity, X, y, grid, warm=True)
        assert np.count_nonzero(path[-1]) > 100

    @pytest.mark.parametrize("n, d, folds, trial, held_out, warm", [
        (6, 8, 6, 0, 0, False),
        (100, 128, 5, 0, 0, True),
        # without refinement against G_AA, rounding in the updated inverse
        # takes the KKT residual above 1e-6 * lambda here
        (100, 128, 5, 1, 0, True),
    ])
    def test_fewer_rows_than_columns(self, identity, n, d, folds, trial, held_out, warm):
        X, y, grid = cv_fold(SimConfig(n=n, d=d, s_star=2, seed=34), folds, trial, held_out)
        path = self.certify(identity, X, y, grid, warm)
        assert np.count_nonzero(path[-1]) <= X.shape[0]

    def test_duplicated_column(self, identity):
        # G is singular: columns 7 and 8 are +-column 3, lie in the span of
        # the active columns once 3 has joined and never join; the solution
        # is unique only in beta_3 + beta_7 - beta_8
        rng = np.random.default_rng(3)
        X = rng.standard_normal((40, 10))
        X[:, 7], X[:, 8] = X[:, 3], -X[:, 3]
        y = 2.0 * X[:, 3] + X[:, 1] - X[:, 5] + 0.5 * rng.standard_normal(40)
        lam_max = np.abs(X.T @ y).max() / 40
        grid = np.geomspace(1.5 * lam_max, 1e-4 * lam_max, 30)
        path = lasso_path(X, y, grid)
        assert np.all(path[:, 7:9] == 0.0) and np.all(path[-1, [1, 3, 5]] != 0.0)
        data = Dataset(design=X, response=y)
        merge = np.eye(10)
        merge[7], merge[8] = merge[3], -merge[3]  # (beta @ merge)[3] = beta_3 + beta_7 - beta_8
        merge[:, 7:9] = 0.0
        for beta, lam in zip(path, grid):
            assert kkt_residual(identity, data, beta, lam) <= 1e-6 * lam
            ref = fit(identity, data, FitConfig(lam=float(lam), tol=1e-10)).beta_hat
            np.testing.assert_allclose(beta @ merge, ref @ merge, rtol=0, atol=1e-6)

    def test_zero_response_gives_the_zero_path(self):
        X, _, grid = cv_fold(SimConfig(n=60, d=12, s_star=2, seed=33), 5)
        path = lasso_path(X, np.zeros(X.shape[0]), grid)
        np.testing.assert_array_equal(path, 0.0)

    def test_grid_above_lambda_max(self, identity):
        X, y, _ = cv_fold(SimConfig(n=60, d=12, s_star=2, seed=33), 5)
        lam_max = np.abs(X.T @ y).max() / X.shape[0]
        grid = np.geomspace(3.0 * lam_max, lam_max, 5)
        path = self.certify(identity, X, y, grid, warm=False)
        np.testing.assert_array_equal(path, 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_failed_certificate_raises_numerical_error(self, bad):
        X, y, grid = cv_fold(SimConfig(n=60, d=12, s_star=2, seed=33), 5)
        y[3] = bad
        with pytest.raises(NumericalError, match="KKT residual"):
            lasso_path(X, y, grid)
