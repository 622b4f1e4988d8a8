"""Core domain types: link functions, datasets, solver configuration.

Everything here is an immutable value after construction. All vector and
matrix data is stored as read-only float64 numpy arrays, so instances can be
shared freely between threads and worker processes.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InputError, NumericalError

__all__ = [
    "LinkFunction",
    "Dataset",
    "FitConfig",
    "builtin_link",
    "invert_link",
    "load_dataset_csv",
]


def _frozen_array(x, dtype=float):
    """A read-only array of ``x``: ``x`` itself when it is already a read-only
    array of ``dtype`` that owns its data, else a read-only copy."""
    if isinstance(x, np.ndarray) and x.dtype == dtype and x.flags.owndata and not x.flags.writeable:
        return x
    a = np.array(x, dtype=dtype)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class LinkFunction:
    """A strictly increasing scalar nonlinearity applied to the linear index.

    The regression model is ``y = f(x' beta) + noise`` where ``f`` is this
    link. The callables must accept scalars and numpy arrays alike
    (elementwise).

    Attributes
    ----------
    eval, deriv, deriv2 : callable
        ``f``, ``f'`` and ``f''``.
    lower_slope, upper_slope : float
        Bounds ``a <= f'(x) <= b`` valid for all real ``x``, with
        ``0 < a <= b``. The lower bound makes the link strictly increasing
        and therefore invertible.
    curvature_bound : float
        A bound ``|f''(x)| <= R`` valid for all real ``x``.
    name : str
        Identifier used by the CLI and in reports.
    """

    eval: Callable
    deriv: Callable
    deriv2: Callable
    lower_slope: float
    upper_slope: float
    curvature_bound: float
    name: str

    def __post_init__(self):
        if not (0.0 < self.lower_slope <= self.upper_slope):
            raise InputError(
                "link slope bounds must satisfy 0 < lower_slope <= upper_slope, "
                f"got ({self.lower_slope}, {self.upper_slope})"
            )
        if self.curvature_bound < 0.0:
            raise InputError("curvature_bound must be nonnegative")


def _paper_eval(x):
    return 2.0 * np.asarray(x, dtype=float) + np.cos(x)


def _paper_deriv(x):
    return 2.0 - np.sin(np.asarray(x, dtype=float))


def _paper_deriv2(x):
    return -np.cos(np.asarray(x, dtype=float))


def _identity_eval(x):
    return np.asarray(x, dtype=float) + 0.0


def _identity_deriv(x):
    return np.ones_like(np.asarray(x, dtype=float))


def _identity_deriv2(x):
    return np.zeros_like(np.asarray(x, dtype=float))


_BUILTIN_LINKS = {
    "identity": LinkFunction(
        eval=_identity_eval,
        deriv=_identity_deriv,
        deriv2=_identity_deriv2,
        lower_slope=1.0,
        upper_slope=1.0,
        curvature_bound=0.0,
        name="identity",
    ),
    # f(x) = 2x + cos(x): slope 2 - sin(x) lies in [1, 3]; 4 is the
    # conventional (loose) upper bound we advertise, curvature |cos| <= 1.
    "paper": LinkFunction(
        eval=_paper_eval,
        deriv=_paper_deriv,
        deriv2=_paper_deriv2,
        lower_slope=1.0,
        upper_slope=4.0,
        curvature_bound=1.0,
        name="paper",
    ),
}


def builtin_link(name: str) -> LinkFunction:
    """Return a registered link function by name; each name has one value.

    Known names: ``"identity"`` (f(x) = x) and ``"paper"``
    (f(x) = 2x + cos x). Unknown names raise :class:`InputError`.
    """
    try:
        return _BUILTIN_LINKS[name]
    except KeyError:
        known = ", ".join(sorted(_BUILTIN_LINKS))
        raise InputError(f"unknown link {name!r}; known links: {known}") from None


def invert_link(link: LinkFunction, y):
    """Solve ``f(z) = y`` for z, elementwise.

    Uses bracket expansion (doubling an interval around 0, guaranteed to
    succeed since ``f' >= lower_slope > 0``) followed by safeguarded
    Newton-bisection until ``|f(z) - y| <= max(1e-10, 4 * spacing(|y|))``.
    The second term takes over above |y| of about 1e5, where 1e-10 is finer
    than the float spacing of f(z). An entry bisects when its Newton step
    would leave the bracket or its last step did not at least halve
    ``|f(z) - y|``, which breaks the two-cycles Newton can fall into.

    Accepts a scalar or an array; returns a float or an array of the same
    shape.
    """
    y_arr = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(y_arr)):
        raise InputError("invert_link: target values must be finite")
    scalar = y_arr.ndim == 0
    target = np.atleast_1d(y_arr).ravel().astype(float)

    lo = np.full_like(target, -1.0)
    hi = np.full_like(target, 1.0)
    for _ in range(200):
        need_lo = link.eval(lo) > target
        need_hi = link.eval(hi) < target
        if not (need_lo.any() or need_hi.any()):
            break
        lo = np.where(need_lo, 2.0 * lo, lo)
        hi = np.where(need_hi, 2.0 * hi, hi)
    else:
        raise NumericalError("invert_link: no bracket found within 200 doublings")

    z = 0.5 * (lo + hi)
    tol = np.maximum(1e-10, 4.0 * np.spacing(np.abs(target)))
    prev_err = np.full_like(target, np.inf)
    done = False
    for _ in range(200):
        err = link.eval(z) - target
        abs_err = np.abs(err)
        converged = abs_err <= tol
        if np.all(converged):
            done = True
            break
        hi = np.where(err > 0.0, z, hi)
        lo = np.where(err < 0.0, z, lo)
        newton = z - err / link.deriv(z)
        use_newton = (newton > lo) & (newton < hi) & (converged | (abs_err <= 0.5 * prev_err))
        z = np.where(use_newton, newton, 0.5 * (lo + hi))
        prev_err = abs_err
    if not done:
        raise NumericalError("invert_link: Newton-bisection did not reach its tolerance")

    if scalar:
        return float(z[0])
    return z.reshape(y_arr.shape)


@dataclass(frozen=True)
class Dataset:
    """An observed sample: design matrix (n rows of covariates) and response."""

    design: np.ndarray
    response: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.design, dtype=float)
        y = np.asarray(self.response, dtype=float)
        if X.ndim != 2:
            raise InputError(f"design must be a 2-d matrix, got ndim={X.ndim}")
        if y.ndim != 1:
            raise InputError(f"response must be a 1-d vector, got ndim={y.ndim}")
        n, d = X.shape
        if n < 1 or d < 1:
            raise InputError(f"design must be at least 1x1, got {n}x{d}")
        if y.shape[0] != n:
            raise InputError(
                f"design has {n} rows but response has length {y.shape[0]}"
            )
        if not np.all(np.isfinite(X)):
            raise InputError("design contains non-finite entries")
        if not np.all(np.isfinite(y)):
            raise InputError("response contains non-finite entries")
        object.__setattr__(self, "design", _frozen_array(X))
        object.__setattr__(self, "response", _frozen_array(y))

    @property
    def n(self) -> int:
        return self.design.shape[0]

    @property
    def d(self) -> int:
        return self.design.shape[1]


@dataclass(frozen=True)
class FitConfig:
    """Options for the proximal gradient solver.

    ``lam`` is the l1 penalty, ``tol = 1e-5`` the stopping threshold on the
    relative iterate change and ``max_iter = 10,000`` the iteration cap.
    ``init`` is the starting point; ``None`` means the zero vector. The
    line-search constants are fixed in :mod:`nlsparse.solver`.
    """

    lam: float
    tol: float = 1e-5
    max_iter: int = 10_000
    init: Optional[np.ndarray] = None

    def __post_init__(self):
        if not (self.lam > 0.0 and np.isfinite(self.lam)):
            raise InputError(f"lam must be a positive real, got {self.lam}")
        if not self.tol > 0.0:
            raise InputError(f"tol must be positive, got {self.tol}")
        if not (isinstance(self.max_iter, (int, np.integer)) and self.max_iter >= 1):
            raise InputError(f"max_iter must be a positive integer, got {self.max_iter}")
        if self.init is not None:
            init = np.asarray(self.init, dtype=float)
            if init.ndim != 1:
                raise InputError("init must be a 1-d vector")
            if not np.all(np.isfinite(init)):
                raise InputError("init contains non-finite entries")
            object.__setattr__(self, "init", _frozen_array(init))


def _checked_symmetric(M, name) -> np.ndarray:
    """``M`` as a float array, checked square, finite and symmetric within 1e-10;
    errors call it ``name``."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InputError(f"{name} must be a square matrix, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise InputError(f"{name} contains non-finite entries")
    if float(np.abs(M - M.T).max(initial=0.0)) > 1e-10:
        raise InputError(f"{name} is not symmetric within 1e-10")
    return M


def load_dataset_csv(path) -> Dataset:
    """Read a dataset from CSV, as :func:`_read_numeric_csv` reads: first column
    y, then x1..xd, so a row needs at least two fields."""
    data = _read_numeric_csv(path, "dataset", (2, "a response and at least one covariate"))
    return Dataset(design=data[:, 1:], response=data[:, 0])


def _read_numeric_csv(path, noun, need=(1, "")) -> np.ndarray:
    """The numeric CSV file at ``path`` as a 2-d array, for ``--data`` and ``check --matrix``.

    A header row is detected by a non-numeric first cell and skipped. Blank
    lines are ignored; rows are numbered from the first data row. An error
    calls the file ``noun`` and names the first row that is ragged or not
    numeric; ``need`` is the least field count of a row and what it holds.
    """
    try:
        with open(path, newline="") as fh:
            lines = [line for line in fh if line.rstrip("\r\n")]
    except OSError as exc:
        raise InputError(f"cannot read {noun} {path}: {exc}") from exc
    if not lines:
        raise InputError(f"{noun} {path} is empty")

    try:
        float(next(csv.reader(lines[:1]))[0])
    except ValueError:
        lines = lines[1:]
    if not lines:
        raise InputError(f"{noun} {path} has a header but no data rows")

    try:
        data = np.loadtxt(lines, delimiter=",", quotechar='"', comments=None, ndmin=2)
        if data.shape[1] >= need[0]:
            return data
        exc = None
    except ValueError as err:
        exc = err
    rows = list(csv.reader(lines))  # find the row that failed
    width = len(rows[0])
    if width < need[0]:
        raise InputError(f"{noun} {path}: rows need {need[1]}") from exc
    for i, row in enumerate(rows):
        if len(row) != width:
            raise InputError(
                f"{noun} {path}: row {i + 1} has {len(row)} fields, expected {width}"
            ) from exc
        try:
            list(map(float, row))
        except ValueError as bad:
            raise InputError(f"{noun} {path}: row {i + 1} is not numeric: {bad}") from exc
    raise InputError(f"{noun} {path} is not numeric CSV: {exc}") from exc
