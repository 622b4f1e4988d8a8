from functools import lru_cache
from itertools import combinations

import numpy as np
import pytest
from scipy.optimize import linprog

from nlsparse import FitConfig, InputError, builtin_link, fit, solve_dantzig
from nlsparse.dantzig import _solve
from nlsparse.loss import hessian_partition, loss_hessian
from nlsparse.simulate import ConstantBeta, SimConfig, generate, rate_rule


def enumerate_lp_optimum(h_ag, h_gg, rho):
    """Brute-force oracle: best objective over all basic feasible solutions.

    Builds the same split-variable standard form (p, q, slacks) and solves
    every square basis of the equality system, keeping the feasible ones.
    """
    m = len(h_ag)
    A = np.block([[h_gg, -h_gg], [-h_gg, h_gg]])
    b = np.concatenate([rho + h_ag, rho - h_ag])
    rows = 2 * m
    Aeq = np.hstack([A, np.eye(rows)])
    cost = np.concatenate([np.ones(2 * m), np.zeros(rows)])
    ncols = Aeq.shape[1]

    bases = np.array(list(combinations(range(ncols), rows)))
    mats = Aeq.T[bases].transpose(0, 2, 1)  # (n_bases, rows, rows)
    dets = np.linalg.det(mats)
    usable = np.abs(dets) > 1e-10
    best = np.inf
    rhs = np.broadcast_to(b[:, None], (int(usable.sum()), rows, 1))
    solutions = np.linalg.solve(mats[usable], rhs)[..., 0]
    for cols, z in zip(bases[usable], solutions):
        if np.all(z >= -1e-9) and np.all(np.isfinite(z)):
            best = min(best, float(cost[cols] @ z))
    return best


def highs_optimum(h_ag, h_gg, rho):
    """Independent oracle: HiGHS on the split-variable form (None if infeasible)."""
    m = len(h_ag)
    A = np.block([[h_gg, -h_gg], [-h_gg, h_gg]])
    b = np.concatenate([rho + h_ag, rho - h_ag])
    res = linprog(np.ones(2 * m), A_ub=A, b_ub=b, bounds=(0, None), method="highs")
    return res.fun if res.status == 0 else None


@lru_cache(maxsize=None)
def fitted_partition(n, d):
    """The LP of a score test at coordinate 11 after generate + fit (mu = 0.5).

    Returns ``(h_ag, h_gg, unit)``; the radius at rho-scale C is C * unit.
    At n = 100, d = 256 the Hessian h_gg is rank-deficient.
    """
    cfg = SimConfig(n=n, d=d, s_star=10, seed=7, beta_mode=ConstantBeta(mu=0.5))
    data, _ = generate(cfg, 0)
    link = builtin_link("paper")
    beta = fit(link, data, FitConfig(lam=cfg.lambda_rule())).beta_hat.copy()
    beta[10] = 0.0
    _, h_ag, h_gg = hessian_partition(loss_hessian(link, data, beta), 11)
    h_ag.flags.writeable = h_gg.flags.writeable = False
    return h_ag, h_gg, rate_rule(1.0, cfg.noise_sd, n, d)


def random_problem(rng, m):
    A = rng.standard_normal((m + 2, m))
    h_gg = A.T @ A / (m + 2) + 0.1 * np.eye(m)
    h_ag = rng.standard_normal(m)
    return h_ag, h_gg


class TestClosedForms:
    def test_zero_feasible_one_dim(self):
        res = solve_dantzig(np.array([0.3]), np.array([[2.0]]), 0.5)
        assert res.status == "optimal"
        np.testing.assert_array_equal(res.d_hat, [0.0])
        assert res.l1_norm == 0.0

    def test_one_dim_active_constraint(self):
        res = solve_dantzig(np.array([2.0]), np.array([[2.0]]), 0.5)
        assert res.status == "optimal"
        assert res.d_hat[0] == pytest.approx(0.75, abs=1e-9)

    def test_infeasible_zero_matrix(self):
        res = solve_dantzig(np.array([1.0]), np.array([[0.0]]), 0.5)
        assert res.status == "infeasible"
        assert res.d_hat is None
        assert "rho" in res.message

    def test_infeasible_below_breakpoint(self):
        # rows of h_gg span only the first coordinate, so h_ag = (0, 1)
        # cannot be matched closer than 1
        h_ag, h_gg = np.array([0.0, 1.0]), np.diag([1.0, 0.0])
        res = solve_dantzig(h_ag, h_gg, 0.5)
        assert res.status == "infeasible"
        assert res.d_hat is None
        assert "rho" in res.message
        assert solve_dantzig(h_ag, h_gg, 1.0).status == "optimal"

    def test_zero_shortcut_exact(self):
        rng = np.random.default_rng(0)
        for m in (1, 3, 5):
            h_ag, h_gg = random_problem(rng, m)
            rho_max = float(np.abs(h_ag).max())
            for rho in (rho_max, rho_max * 1.0001):
                res = solve_dantzig(h_ag, h_gg, rho)
                assert res.status == "optimal"
                assert np.all(res.d_hat == 0.0)
                assert res.vacuous and res.pivots == 0

    def test_no_nuisance_dimension(self):
        res = solve_dantzig(np.zeros(0), np.zeros((0, 0)), 1.0)
        assert res.status == "optimal"
        assert res.d_hat.shape == (0,)


class TestAgainstEnumeration:
    def test_fifty_random_instances(self):
        rng = np.random.default_rng(2024)
        for trial in range(50):
            m = int(rng.integers(1, 5))
            h_ag, h_gg = random_problem(rng, m)
            rho = float(rng.uniform(0.05, 0.5))
            res = solve_dantzig(h_ag, h_gg, rho)
            assert res.status == "optimal"
            oracle = enumerate_lp_optimum(h_ag, h_gg, rho)
            assert res.l1_norm == pytest.approx(oracle, abs=1e-6), (trial, m, rho)

    def test_spd_three_dim_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            h_ag, h_gg = random_problem(rng, 3)
            res = solve_dantzig(h_ag, h_gg, 0.1)
            oracle = enumerate_lp_optimum(h_ag, h_gg, 0.1)
            assert res.l1_norm == pytest.approx(oracle, abs=1e-6)


class TestInvariants:
    def test_feasibility_certificate(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            m = int(rng.integers(1, 7))
            h_ag, h_gg = random_problem(rng, m)
            rho = float(rng.uniform(0.05, 1.0))
            res = solve_dantzig(h_ag, h_gg, rho)
            assert res.status == "optimal"
            assert res.max_slack >= -1e-8
            infty = float(np.abs(h_ag - h_gg @ res.d_hat).max())
            assert infty <= rho + 1e-8
            assert res.l1_norm == pytest.approx(float(np.abs(res.d_hat).sum()), abs=1e-14)

    @pytest.mark.parametrize("scale", [0.5, 2.0, 7.3])
    def test_scale_invariance(self, scale):
        rng = np.random.default_rng(17)
        h_ag, h_gg = random_problem(rng, 4)
        rho = 0.2
        base = solve_dantzig(h_ag, h_gg, rho)
        scaled = solve_dantzig(scale * h_ag, scale * h_gg, scale * rho)
        np.testing.assert_allclose(scaled.d_hat, base.d_hat, atol=1e-8)

    def test_radius_monotone_in_objective(self):
        rng = np.random.default_rng(23)
        h_ag, h_gg = random_problem(rng, 4)
        norms = [solve_dantzig(h_ag, h_gg, rho).l1_norm for rho in (0.05, 0.1, 0.2, 0.4)]
        assert all(b <= a + 1e-10 for a, b in zip(norms, norms[1:]))


class TestValidation:
    def test_asymmetric_matrix_rejected(self):
        M = np.array([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(InputError, match="symmetric"):
            solve_dantzig(np.array([0.1, 0.1]), M, 0.5)

    def test_nonpositive_rho_rejected(self):
        with pytest.raises(InputError):
            solve_dantzig(np.array([0.1]), np.array([[1.0]]), 0.0)
        with pytest.raises(InputError):
            solve_dantzig(np.array([0.1]), np.array([[1.0]]), -1.0)

    def test_shape_mismatch(self):
        with pytest.raises(InputError):
            solve_dantzig(np.array([0.1, 0.2]), np.array([[1.0]]), 0.5)


class TestFittedHessians:
    @pytest.mark.parametrize("n, d, scale", [
        (200, 64, 0.5), (200, 64, 2.0), (200, 128, 0.5), (200, 128, 2.0),
        (200, 256, 0.5), (200, 256, 2.0), (100, 256, 0.5), (100, 256, 2.0),
    ])
    def test_against_highs(self, n, d, scale):
        h_ag, h_gg, unit = fitted_partition(n, d)
        rho = scale * unit
        res = solve_dantzig(h_ag, h_gg, rho)
        assert res.status == "optimal" and not res.vacuous and res.pivots >= 1
        assert float(np.abs(h_ag - h_gg @ res.d_hat).max()) <= rho + 1e-8
        assert res.l1_norm == pytest.approx(highs_optimum(h_ag, h_gg, rho), rel=1e-9)

    def test_repeated_solves_bitwise_equal(self):
        h_ag, h_gg, unit = fitted_partition(200, 128)
        first, second = (solve_dantzig(h_ag, h_gg, 0.5 * unit) for _ in range(2))
        assert first.d_hat.tobytes() == second.d_hat.tobytes()
        assert (first.l1_norm, first.max_slack, first.pivots) == (
            second.l1_norm, second.max_slack, second.pivots)


class TestRowAccessor:
    def _counted(self, h_gg):
        read = []

        def rows(idx):
            read.extend(idx)
            return h_gg[idx]

        def diagonal():
            read.append("diagonal")
            return np.diagonal(h_gg)

        return read, rows, diagonal

    @pytest.mark.parametrize("scale", [0.5, 2.0])
    def test_reads_each_row_once_and_matches_the_matrix_api(self, scale):
        h_ag, h_gg, unit = fitted_partition(200, 128)
        read, rows, diagonal = self._counted(h_gg)
        res = _solve(h_ag, rows, diagonal, scale * unit)
        ref = solve_dantzig(h_ag, h_gg, scale * unit)
        assert res.d_hat.tobytes() == ref.d_hat.tobytes()
        assert (res.l1_norm, res.max_slack, res.pivots) == (ref.l1_norm, ref.max_slack, ref.pivots)
        assert read.count("diagonal") == 1
        rows_read = [i for i in read if i != "diagonal"]
        assert len(rows_read) == len(set(rows_read)) < len(h_ag)
        assert set(np.flatnonzero(res.d_hat)) <= set(rows_read)

    def test_vacuous_lp_reads_nothing(self):
        h_ag, h_gg, _ = fitted_partition(200, 128)
        read, rows, diagonal = self._counted(h_gg)
        res = _solve(h_ag, rows, diagonal, float(np.abs(h_ag).max()))
        assert res.vacuous and read == []
