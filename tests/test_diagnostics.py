import numpy as np
import pytest

import nlsparse.loss
from nlsparse import (
    EnumerationCapError,
    InputError,
    builtin_link,
    check_gradients,
    sparse_eigen_report,
    sparse_eigenvalues,
)


def random_psd(rng, d):
    A = rng.standard_normal((d + 2, d))
    return A.T @ A / (d + 2)


class TestSparseEigenvalues:
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_identity(self, k):
        assert sparse_eigenvalues(np.eye(4), k) == (1.0, 1.0)

    def test_diagonal_k1_hits_extreme_entries(self):
        assert sparse_eigenvalues(np.diag([1.0, 2.0, 3.0]), 1) == (1.0, 3.0)

    def test_full_k_matches_dense_eigensolver(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            M = random_psd(rng, 8)
            lo, hi = sparse_eigenvalues(M, 8)
            eigs = np.linalg.eigvalsh(M)
            assert lo == pytest.approx(eigs[0], abs=1e-10)
            assert hi == pytest.approx(eigs[-1], abs=1e-10)

    def test_monotone_in_k(self):
        rng = np.random.default_rng(1)
        M = random_psd(rng, 6)
        lows, highs = zip(*[sparse_eigenvalues(M, k) for k in range(1, 7)])
        assert all(b <= a + 1e-12 for a, b in zip(lows, lows[1:]))
        assert all(b >= a - 1e-12 for a, b in zip(highs, highs[1:]))

    def test_dimension_cap(self):
        with pytest.raises(EnumerationCapError, match="too large"):
            sparse_eigenvalues(np.eye(25), 2)

    def test_validation(self):
        with pytest.raises(InputError):
            sparse_eigenvalues(np.eye(4), 0)
        with pytest.raises(InputError):
            sparse_eigenvalues(np.array([[1.0, 0.5], [0.0, 1.0]]), 1)


def assumption1_holds(M, s_star, k_star):
    """The design-regularity check (the paper's Assumption 1), read off the
    report at k = k*."""
    return sparse_eigen_report(M, k_star, s_star=s_star, k_star=k_star).condition_holds


class TestAssumptionCheck:
    @pytest.mark.parametrize("s_star,k_star", [(1, 2), (2, 4), (3, 6)])
    def test_identity_design_always_passes(self, s_star, k_star):
        d = 2 * k_star + s_star
        assert assumption1_holds(np.eye(d), s_star, k_star) is True

    def test_rank_one_fails(self):
        v = np.ones(10)
        assert assumption1_holds(np.outer(v, v), 2, 4) is False

    def test_small_relaxation_fails_side_condition(self):
        # k* < 2 s* violates the second inequality even for the identity
        assert assumption1_holds(np.eye(10), 4, 2) is False

    def test_zero_eigenvalue_fails(self):
        # rho_-(10) is exactly 0, so the ratio is not formed
        M = np.eye(10)
        M[0, 0] = 0.0
        assert assumption1_holds(M, 2, 4) is False

    def test_toeplitz_population_matrix_regression_value(self):
        # frozen after first computation: the strongly correlated design
        # fails, with rho_+(4)/rho_-(10) ~ 143 against the bound 2
        idx = np.arange(16)
        M = 0.95 ** np.abs(idx[:, None] - idx[None, :])
        assert assumption1_holds(M, 2, 4) is False

    def test_infeasible_sizes_rejected(self):
        with pytest.raises(InputError):
            assumption1_holds(np.eye(8), 2, 4)  # needs d >= 10


class TestSparseEigenReport:
    def test_report_fields(self):
        idx = np.arange(6)
        M = 0.5 ** np.abs(idx[:, None] - idx[None, :])
        report = sparse_eigen_report(M, 2)
        assert report.k == 2
        assert 0.0 <= report.rho_minus <= report.rho_plus
        assert report.design_bound == 1.0
        assert report.condition_holds is None

    def test_report_with_condition(self):
        report = sparse_eigen_report(np.eye(10), 2, s_star=2, k_star=4)
        assert report.condition_holds is True

    @pytest.mark.parametrize("sizes", [{"s_star": 2}, {"k_star": 4}])
    def test_one_of_s_star_and_k_star_rejected(self, sizes):
        with pytest.raises(InputError, match="both s_star and k_star"):
            sparse_eigen_report(np.eye(10), 2, **sizes)


@pytest.mark.parametrize("diagnostic", [
    lambda M: sparse_eigenvalues(M, 1),
    lambda M: sparse_eigen_report(M, 1),
    lambda M: assumption1_holds(M, 1, 2),  # the report's Assumption 1 check
], ids=["sparse_eigenvalues", "sparse_eigen_report", "check_assumption1"])
class TestMatrixCheck:
    # the check solve_dantzig makes of h_gg, shared by every diagnostic
    @pytest.mark.parametrize("entries", [
        {(0, 1): np.nan, (1, 0): np.nan},
        {(2, 2): np.inf},
        {(0, 1): 0.5},
    ], ids=["nan", "inf", "asymmetric"])
    def test_bad_entries_rejected(self, diagnostic, entries):
        M = np.eye(5)
        diagnostic(M)  # accepted before the entries change
        for index, value in entries.items():
            M[index] = value
        with pytest.raises(InputError):
            diagnostic(M)

    @pytest.mark.parametrize("M", [np.zeros((0, 0)), np.ones((5, 6))],
                             ids=["empty", "not_square"])
    def test_bad_shape_rejected(self, diagnostic, M):
        with pytest.raises(InputError):
            diagnostic(M)


class TestGradientCheck:
    @pytest.mark.parametrize("name", ["identity", "paper"])
    def test_passes_for_builtin_links(self, name):
        link = builtin_link(name)
        rng = np.random.default_rng(5)
        report = check_gradients(link, n=10, d=5, trials=10, rng=rng)
        assert report.passed
        assert report.max_rel_gradient <= 1e-6
        assert report.max_rel_hessian <= 1e-5

    def test_identity_deviations_at_rounding_level(self):
        link = builtin_link("identity")
        rng = np.random.default_rng(6)
        report = check_gradients(link, n=12, d=4, trials=5, rng=rng)
        assert report.max_rel_gradient < 1e-8

    def test_fault_injection_detected(self, monkeypatch):
        # a corrupted analytic gradient must fail the finite-difference check
        true_gradient = nlsparse.loss.loss_gradient

        def corrupted(link, data, beta):
            g = true_gradient(link, data, beta)
            return g + 1e-3

        monkeypatch.setattr(nlsparse.loss, "loss_gradient", corrupted)
        link = builtin_link("paper")
        report = check_gradients(link, n=10, d=4, trials=3, rng=np.random.default_rng(7))
        assert not report.passed

    def test_trials_validated(self):
        with pytest.raises(InputError):
            check_gradients(builtin_link("paper"), 5, 3, 0, np.random.default_rng(0))
