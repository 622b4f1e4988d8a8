import numpy as np
import pytest

from nlsparse import (
    Dataset,
    FitConfig,
    InputError,
    NumericalError,
    builtin_link,
    fit,
    loss_gradient,
    loss_hessian,
    loss_value,
    penalized_objective,
)
from nlsparse.simulate import SimConfig, generate
from tests.conftest import hessian_partition, random_instance


def reversed_sum_loss(link, data, beta):
    """Independent oracle: plain loop over observations in reverse order."""
    total = 0.0
    for i in reversed(range(data.n)):
        r = data.response[i] - float(link.eval(float(data.design[i] @ beta)))
        total += r * r
    return 0.5 * total / data.n


def fd_gradient(link, data, beta, h=1e-6):
    g = np.empty(beta.size)
    for j in range(beta.size):
        e = np.zeros(beta.size)
        e[j] = h
        g[j] = (loss_value(link, data, beta + e) - loss_value(link, data, beta - e)) / (2 * h)
    return g


def fd_hessian(link, data, beta, h=1e-6):
    H = np.empty((beta.size, beta.size))
    for j in range(beta.size):
        e = np.zeros(beta.size)
        e[j] = h
        H[:, j] = (loss_gradient(link, data, beta + e) - loss_gradient(link, data, beta - e)) / (2 * h)
    return H


class TestLossValue:
    def test_single_row_identity(self, identity):
        data = Dataset(design=np.array([[1.0, 0.0]]), response=np.array([0.0]))
        assert loss_value(identity, data, np.array([2.0, 0.0])) == 2.0

    def test_zero_at_noiseless_truth(self, paper):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((12, 5))
        beta = rng.standard_normal(5)
        data = Dataset(design=X, response=np.asarray(paper.eval(X @ beta)))
        assert loss_value(paper, data, beta) == pytest.approx(0.0, abs=1e-28)

    def test_matches_reversed_sum_oracle(self, paper):
        rng = np.random.default_rng(3)
        data = random_instance(rng, 7, 4, paper)
        beta = rng.standard_normal(4)
        ours = loss_value(paper, data, beta)
        oracle = reversed_sum_loss(paper, data, beta)
        assert ours == pytest.approx(oracle, abs=1e-12)

    def test_dimension_mismatch(self, paper):
        data = Dataset(design=np.ones((3, 2)), response=np.zeros(3))
        with pytest.raises(InputError):
            loss_value(paper, data, np.zeros(3))


class TestLossGradient:
    def test_single_row_identity_formula(self, identity):
        x = np.array([[1.5, -2.0]])
        y = np.array([0.7])
        beta = np.array([0.3, 0.4])
        data = Dataset(design=x, response=y)
        expected = -(y[0] - x[0] @ beta) * x[0]
        np.testing.assert_allclose(loss_gradient(identity, data, beta), expected, atol=1e-15)

    def test_zero_at_noiseless_truth(self, paper):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((15, 6))
        beta = rng.standard_normal(6)
        data = Dataset(design=X, response=np.asarray(paper.eval(X @ beta)))
        np.testing.assert_allclose(loss_gradient(paper, data, beta), 0.0, atol=1e-13)

    @pytest.mark.parametrize("name", ["identity", "paper"])
    def test_against_finite_differences(self, name):
        link = builtin_link(name)
        rng = np.random.default_rng(42)
        for _ in range(10):
            n = int(rng.integers(2, 21))
            d = int(rng.integers(1, 9))
            data = random_instance(rng, n, d, link)
            beta = rng.standard_normal(d)
            g = loss_gradient(link, data, beta)
            fd = fd_gradient(link, data, beta)
            scale = max(np.abs(g).max(), np.abs(fd).max(), 1e-12)
            assert np.abs(g - fd).max() / scale <= 1e-6


class TestLossHessian:
    def test_identity_is_gram_matrix(self, identity):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((9, 4))
        data = Dataset(design=X, response=rng.standard_normal(9))
        expected = X.T @ X / 9
        np.testing.assert_allclose(
            loss_hessian(identity, data, rng.standard_normal(4)), expected, atol=1e-14
        )

    def test_single_term_paper(self, paper):
        # one observation x=1, y=1 at beta=0: residual is zero, so H = f'(0)^2
        data = Dataset(design=np.array([[1.0]]), response=np.array([1.0]))
        H = loss_hessian(paper, data, np.array([0.0]))
        assert H[0, 0] == pytest.approx(4.0, abs=1e-15)

    def test_against_finite_differences(self, paper):
        rng = np.random.default_rng(11)
        for _ in range(8):
            data = random_instance(rng, 10, 4, paper)
            beta = rng.standard_normal(4)
            H = loss_hessian(paper, data, beta)
            fd = fd_hessian(paper, data, beta)
            scale = max(np.abs(H).max(), np.abs(fd).max(), 1e-12)
            assert np.abs(H - fd).max() / scale <= 1e-5

    def test_symmetry(self, paper):
        rng = np.random.default_rng(13)
        data = random_instance(rng, 20, 7, paper)
        H = loss_hessian(paper, data, rng.standard_normal(7))
        assert np.abs(H - H.T).max() <= 1e-12


class TestHessianPartition:
    def test_two_by_two(self):
        H = np.array([[1.0, 2.0], [2.0, 5.0]])
        h_aa, h_ag, h_gg = hessian_partition(H, 1)
        assert h_aa == 1.0
        np.testing.assert_array_equal(h_ag, [2.0])
        np.testing.assert_array_equal(h_gg, [[5.0]])

    def test_identity_middle_coordinate(self):
        h_aa, h_ag, h_gg = hessian_partition(np.eye(3), 2)
        assert h_aa == 1.0
        np.testing.assert_array_equal(h_ag, [0.0, 0.0])
        np.testing.assert_array_equal(h_gg, np.eye(2))

    @pytest.mark.parametrize("j", [1, 2, 3, 4, 5])
    def test_reassembly_round_trip(self, j):
        rng = np.random.default_rng(j)
        A = rng.standard_normal((5, 5))
        H = A + A.T
        h_aa, h_ag, h_gg = hessian_partition(H, j)
        rebuilt = np.empty((5, 5))
        others = [k for k in range(5) if k != j - 1]
        rebuilt[j - 1, j - 1] = h_aa
        for a, k in enumerate(others):
            rebuilt[j - 1, k] = h_ag[a]
            rebuilt[k, j - 1] = h_ag[a]
            for b, l in enumerate(others):
                rebuilt[k, l] = h_gg[a, b]
        np.testing.assert_array_equal(rebuilt, H)

    def test_out_of_range(self):
        with pytest.raises(InputError):
            hessian_partition(np.eye(3), 0)
        with pytest.raises(InputError):
            hessian_partition(np.eye(3), 4)


class TestPenalizedObjective:
    def test_zero_everything_identity(self, identity):
        # identity has f(0) = 0, so beta = 0 and y = 0 give a zero objective
        data = Dataset(design=np.ones((4, 2)), response=np.zeros(4))
        assert penalized_objective(identity, data, np.zeros(2), 3.0) == 0.0

    def test_lambda_zero_equals_loss(self, paper):
        rng = np.random.default_rng(2)
        data = random_instance(rng, 8, 3, paper)
        beta = rng.standard_normal(3)
        assert penalized_objective(paper, data, beta, 0.0) == loss_value(paper, data, beta)

    def test_independent_recomputation(self, paper):
        rng = np.random.default_rng(9)
        data = random_instance(rng, 8, 3, paper)
        beta = rng.standard_normal(3)
        lam = 0.37
        expected = reversed_sum_loss(paper, data, beta) + lam * sum(abs(v) for v in beta)
        assert penalized_objective(paper, data, beta, lam) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("link_name", ["identity", "paper"])
    def test_equals_the_fits_objective_bit_for_bit(self, link_name):
        # fit's line search and the public function share one computation
        link = builtin_link(link_name)
        cfg = SimConfig(n=60, d=20, s_star=3, link_name=link_name, seed=12)
        data, _ = generate(cfg, 0)
        lam = cfg.lambda_rule()
        res = fit(link, data, FitConfig(lam=lam))
        assert penalized_objective(link, data, res.beta_hat, lam) == res.objective_trace[-1]
        assert loss_value(link, data, res.beta_hat) == penalized_objective(
            link, data, res.beta_hat, 0.0)

    def test_non_finite_objective_raises(self, paper):
        data = Dataset(design=np.full((2, 1), 1e300), response=np.zeros(2))
        for value in (lambda: loss_value(paper, data, np.array([1e10])),
                      lambda: penalized_objective(paper, data, np.array([1e10]), 0.5)):
            with pytest.raises(NumericalError, match="loss_value: non-finite intermediate"):
                value()

    def test_negative_lambda_rejected(self, paper):
        data = Dataset(design=np.ones((2, 1)), response=np.zeros(2))
        with pytest.raises(InputError):
            penalized_objective(paper, data, np.zeros(1), -0.1)
