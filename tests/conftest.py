import os

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


def child_env(blas_threads=None):
    """The environment of a fresh interpreter that finds this nlsparse, with no
    BLAS thread variable set or with OPENBLAS_NUM_THREADS=blas_threads."""
    import nlsparse
    from nlsparse.__main__ import _BLAS_THREAD_VARS

    env = {k: v for k, v in os.environ.items() if k not in _BLAS_THREAD_VARS}
    src = os.path.dirname(os.path.dirname(nlsparse.__file__))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(blas_threads)
    return env
