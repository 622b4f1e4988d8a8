import numpy as np
import pytest

from nlsparse import Dataset, InputError, builtin_link


@pytest.fixture(scope="session")
def paper():
    return builtin_link("paper")


@pytest.fixture(scope="session")
def identity():
    return builtin_link("identity")


def random_instance(rng, n, d, link, noise=0.5):
    """A small random regression instance with nontrivial residuals."""
    X = rng.standard_normal((n, d))
    signal = rng.standard_normal(d)
    y = np.asarray(link.eval(X @ signal)) + noise * rng.standard_normal(n)
    return Dataset(design=X, response=y)


def hessian_partition(hess, j: int):
    """Split a d x d Hessian at coordinate j (1-based), for the explicit-path
    oracles: ``(h_aa, h_ag, h_gg)`` are the (j, j) scalar, row j with entry j
    removed, and the matrix with row and column j removed, the other
    coordinates in ascending order."""
    d = hess.shape[0]
    if not 1 <= j <= d:
        raise InputError(f"coordinate j must be in 1..{d}, got {j}")
    idx = j - 1
    return (float(hess[idx, idx]), np.delete(hess[idx, :], idx),
            np.delete(np.delete(hess, idx, axis=0), idx, axis=1))

