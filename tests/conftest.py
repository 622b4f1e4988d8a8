import numpy as np
import pytest

from nlsparse import Dataset, builtin_link


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


@pytest.fixture
def pool_at_any_size(monkeypatch):
    """Experiments on two or more workers start a pool however small they are,
    so a 1-versus-2-worker comparison still compares the serial loop with it."""
    import nlsparse.simulate

    monkeypatch.setattr(nlsparse.simulate, "_SERIAL_CELLS", 0)
