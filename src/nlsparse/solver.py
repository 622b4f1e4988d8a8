"""Proximal gradient solver with BB stepsizes and a nonmonotone line search.

Each outer iteration proposes the spectral (Barzilai-Borwein) stepsize, then
grows it by ``ETA`` until the soft-thresholded gradient step satisfies a
nonmonotone sufficient-decrease test against the worst objective value in the
last ``MEMORY + 1`` accepted iterates:

    phi(beta_new) <= max window(phi) - ZETA * alpha/2 * ||beta_new - beta||^2

Accepted objective values, stepsizes and squared step norms are logged so the
acceptance inequality can be replayed exactly from the returned traces. The
objective phi is the one of :mod:`nlsparse.loss`, so an accepted value equals
``penalized_objective`` at that iterate, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, LineSearchError, NumericalError
from .loss import loss_gradient, _check_beta, _gradient_at, _objective
from .model import Dataset, FitConfig, LinkFunction

__all__ = [
    "FitResult",
    "soft_threshold",
    "bb_stepsize",
    "acceptance_check",
    "fit",
    "kkt_residual",
]

# The line-search constants of SpaRSA (Wright, Nowak & Figueiredo 2009): the
# stepsize grows by ETA per trial, the sufficient-decrease constant is ZETA
# over a window of MEMORY + 1 accepted values, BB stepsizes are clamped to
# [ALPHA_MIN, ALPHA_MAX], and MAX_LINESEARCH trials end an iteration.
ETA = 2.0
ZETA = 1e-5
MEMORY = 5
ALPHA_MIN = 1e-30
ALPHA_MAX = 1e30
MAX_LINESEARCH = 100


@dataclass(frozen=True)
class FitResult:
    """Outcome of a solver run.

    Attributes
    ----------
    beta_hat : ndarray
        The final iterate (a stationary point when ``converged``).
    iterations : int
        Number of accepted proximal steps.
    objective_trace : ndarray
        Penalized objective of each accepted iterate; entry 0 is the
        starting point, so ``len == iterations + 1``.
    kkt_residual : float
        Stationarity certificate at ``beta_hat`` (see :func:`kkt_residual`).
    converged : bool
        True when a relative step of at most tol met a KKT residual of at most
        10 * tol (absolute, not relative to lambda) before max_iter.
    stepsize_trace : ndarray
        Accepted stepsize alpha_t per iteration (``len == iterations``).
    step_sqnorm_trace : ndarray
        Squared l2 norm of each accepted step, exactly as used inside the
        acceptance test (``len == iterations``).
    """

    beta_hat: np.ndarray
    iterations: int
    objective_trace: np.ndarray
    kkt_residual: float
    converged: bool
    stepsize_trace: np.ndarray
    step_sqnorm_trace: np.ndarray


def soft_threshold(u, a):
    """Soft-thresholding: sign(u) * max(|u| - a, 0), elementwise."""
    # the solver's scalar threshold skips the array conversion
    negative = a < 0.0 if isinstance(a, float) else np.any(np.asarray(a) < 0)
    if negative:
        raise InputError("threshold must be nonnegative")
    return np.sign(u) * np.maximum(np.abs(u) - a, 0.0)


def bb_stepsize(delta, g) -> float:
    """Spectral stepsize <delta, g> / <delta, delta>, clamped to [ALPHA_MIN, ALPHA_MAX].

    ``delta`` and ``g`` are the differences of consecutive iterates and of
    their gradients. Falls back to 1 whenever the quotient is nonpositive or
    non-finite (negative curvature along the step, or a stalled step with
    ``delta = 0``).
    """
    delta = np.asarray(delta, dtype=float)
    g = np.asarray(g, dtype=float)
    if delta.shape != g.shape:
        raise InputError("delta and g must have the same length")
    dd = float(delta @ delta)
    dg = float(delta @ g)
    alpha = dg / dd if dd > 0.0 else np.nan
    if not np.isfinite(alpha) or alpha <= 0.0:
        alpha = 1.0
    return min(max(alpha, ALPHA_MIN), ALPHA_MAX)


def acceptance_check(objective_history, phi_new: float, alpha_t: float, step) -> bool:
    """Nonmonotone sufficient-decrease test.

    Accept iff ``phi_new <= max(window) - ZETA * alpha_t / 2 * ||step||^2``
    where the window is the last ``min(MEMORY + 1, len(history))`` entries of
    ``objective_history``, a list or a 1-d array.
    """
    if len(objective_history) == 0:
        raise InputError("objective_history must be nonempty")
    step = np.asarray(step, dtype=float)
    window = objective_history[-(MEMORY + 1):]
    bound = float(max(window)) - ZETA * alpha_t / 2.0 * float(step @ step)
    return bool(phi_new <= bound)


# Overflow shows up as an infinite objective (the candidate is rejected) or as a
# NumericalError from the gradient, so numpy's warnings are silenced in fit.
@np.errstate(over="ignore", invalid="ignore")
def fit(link: LinkFunction, data: Dataset, config: FitConfig) -> FitResult:
    """Minimize L(beta) + lam ||beta||_1 to stationarity.

    Runs the proximal gradient iteration from stepsize 1, then BB stepsizes,
    with the nonmonotone acceptance rule at this module's line-search
    constants (``ETA`` ... ``MAX_LINESEARCH``), until the relative iterate
    change ``||beta_t - beta_{t-1}|| / ||beta_t||`` drops to ``config.tol``
    (absolute change when the iterate is zero) AND the KKT residual is at
    most ``10 * config.tol``, an absolute bound that does not scale with
    lambda; or until ``config.max_iter``. The small-step rule alone can
    trigger during a slow stretch while the iterate is still far from
    stationary; the certificate makes ``converged`` mean what callers expect.

    The run is deterministic: identical inputs produce a bitwise identical
    :class:`FitResult`.

    Raises
    ------
    LineSearchError
        If ``MAX_LINESEARCH`` stepsize increases never satisfy the
        acceptance test; the partial result is attached to the exception.
    NumericalError
        If the starting objective is not finite.
    """
    if config.init is None:
        beta = np.zeros(data.d)
    else:
        beta = _check_beta(data, config.init, "init").copy()
    lam = config.lam

    phi, u, resid = _objective(link, data, beta, lam)
    if not np.isfinite(phi):
        raise NumericalError("fit: objective is not finite at the starting point")
    grad = _gradient_at(link, data, u, resid)

    history = [phi]
    alphas: list[float] = []
    step_sqnorms: list[float] = []
    prev_beta = prev_grad = None
    converged = False
    t = 0

    while t < config.max_iter:
        alpha = 1.0 if t == 0 else bb_stepsize(beta - prev_beta, grad - prev_grad)

        for _ in range(MAX_LINESEARCH):
            cand = soft_threshold(beta - grad / alpha, lam / alpha)
            step = cand - beta
            phi_cand, u, resid = _objective(link, data, cand, lam)
            if acceptance_check(history, phi_cand, alpha, step):
                break
            alpha *= ETA
        else:
            partial = _build_result(
                beta, grad, lam, t, history, alphas, step_sqnorms, False
            )
            raise LineSearchError(
                f"fit: line search exhausted {MAX_LINESEARCH} trials at "
                f"iteration {t}",
                result=partial,
            )

        prev_beta, prev_grad = beta, grad
        beta = cand
        grad = _gradient_at(link, data, u, resid)
        sqnorm = float(step @ step)
        history.append(phi_cand)
        alphas.append(alpha)
        step_sqnorms.append(sqnorm)
        t += 1

        step_norm = np.sqrt(sqnorm)
        beta_norm = float(np.linalg.norm(beta))
        if beta_norm > 0.0:
            small = step_norm <= config.tol * beta_norm
        else:
            small = step_norm <= config.tol
        if small and _kkt_from_gradient(grad, beta, lam) <= 10.0 * config.tol:
            converged = True
            break

    return _build_result(
        beta, grad, lam, t, history, alphas, step_sqnorms, converged
    )


def _build_result(beta, grad, lam, t, history, alphas, sqnorms, converged):
    return FitResult(
        beta_hat=beta,
        iterations=t,
        objective_trace=np.asarray(history, dtype=float),
        kkt_residual=_kkt_from_gradient(grad, beta, lam),
        converged=converged,
        stepsize_trace=np.asarray(alphas, dtype=float),
        step_sqnorm_trace=np.asarray(sqnorms, dtype=float),
    )


def _kkt_from_gradient(grad, beta, lam) -> float:
    on_support = beta != 0.0
    viol = np.where(
        on_support,
        np.abs(grad + lam * np.sign(beta)),
        np.maximum(np.abs(grad) - lam, 0.0),
    )
    return float(viol.max())


def kkt_residual(link: LinkFunction, data: Dataset, beta, lam: float) -> float:
    """Max violation of the stationarity condition grad L + lam * xi = 0.

    At nonzero coordinates the subgradient is sign(beta_j), so the violation
    is ``|g_j + lam sign(beta_j)|``; at zero coordinates any xi in [-1, 1] is
    allowed, so it is ``max(|g_j| - lam, 0)``.
    """
    if lam < 0.0:
        raise InputError(f"lam must be nonnegative, got {lam}")
    beta = _check_beta(data, beta)
    return _kkt_from_gradient(loss_gradient(link, data, beta), beta, lam)


# Relative tolerances of the lasso path: a joining column whose Schur
# complement falls below _SPAN_TOL * G_jj lies in the span of the active
# columns, and a grid-point solution must be KKT-stationary to _KKT_TOL * lam.
_SPAN_TOL = 1e-9
_KKT_TOL = 1e-6


# Non-finite values surface in the KKT certificate, so numpy's warnings are off.
@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _lasso_path(gram, corr, grid) -> np.ndarray:
    """Exact lasso solutions from (G, c) at every lambda of a decreasing grid.

    Walks the piecewise-linear path of min beta'G beta/2 - c'beta +
    lam ||beta||_1 for a symmetric positive semidefinite ``gram`` G and a
    ``corr`` c of size d, from lam_max = max|c| down to ``grid[-1]`` (the
    homotopy / LARS-lasso of Osborne, Presnell & Turlach 2000 and Efron,
    Hastie, Johnstone & Tibshirani 2004). The active set A and its signs s are
    fixed between breakpoints, where beta_A(lam) = a - lam b with
    a = G_AA^-1 c_A and b = G_AA^-1 s_A. The next breakpoint is the largest lam
    below the current one at which an active coefficient reaches 0 (a drop) or
    an inactive correlation c_j - G_jA beta_A reaches +-lam (a join). G_AA^-1
    follows by a bordered rank-one update per join and a Schur downdate per
    drop, and a join reads one column of G, so a breakpoint costs O(k^2 + dk)
    for k active columns. Every lam of the grid passed on the way gets
    beta_A(lam) and is certified by its KKT residual.

    The variable of the last breakpoint sits exactly on its boundary, so the
    next breakpoint skips the test it would pass again at a zero-length step
    through rounding: the drop of a variable that joined, or the join on the
    side it left by of one that dropped (it may still join on the other
    side). A column in the span of the active ones never joins: it could only
    tie, and the solution without it is optimal. So G_AA stays nonsingular,
    and k never exceeds rank G.

    Returns the ``len(grid) x d`` array of solutions (rows of zeros for
    lam >= lam_max). Raises NumericalError when a solution fails its KKT
    certificate or the walk passes its breakpoint limit.
    """
    d = corr.size
    inverse = np.empty((d, d))  # G_AA^-1 in its leading k x k block
    columns = np.empty((d, d))  # G[:, A] in its first k columns
    rhs = np.empty((d, 2))  # c_A and s_A
    active = np.empty(d, dtype=np.intp)
    sides = np.array([[1.0], [-1.0]])
    path = np.zeros((len(grid), d))
    k, lam, gi = 0, np.inf, 0
    last, last_side = -1, -1  # the variable of the last breakpoint; the side it left by
    for _ in range(1000 + 50 * d):
        ab = inverse[:k, :k] @ rhs[:k]
        # one step of iterative refinement against G_AA itself: rounding in
        # the updated inverse accumulates over the walk
        ab += inverse[:k, :k] @ (rhs[:k] - columns[active[:k], :k] @ ab)
        a, b = ab[:, 0], ab[:, 1]
        pq = columns[:, :k] @ ab
        p = corr - pq[:, 0]
        # j joins at side t = +-1 where p_j + lam q_j = t lam, if 1 - t q_j > 0;
        # A[i] drops where a_i = lam b_i
        slope = 1.0 - sides * pq[:, 1]
        joins = sides * p / slope
        joins[~((slope > 0.0) & (joins < lam))] = 0.0
        joins[:, active[:k]] = 0.0
        drops = a / b
        drops[~((drops > 0.0) & (drops < lam))] = 0.0
        if last_side >= 0:
            joins[last_side, last] = 0.0
        else:
            drops[active[:k] == last] = 0.0
        while True:
            side, j = divmod(int(np.argmax(joins)), d)
            i = int(np.argmax(drops)) if k else -1
            drop = i >= 0 and drops[i] >= joins[side, j]
            nxt = drops[i] if drop else joins[side, j]
            if drop or nxt <= 0.0:
                break
            g = columns[j, :k]
            u = inverse[:k, :k] @ g
            column = gram[:, j]
            schur = column[j] - g @ u
            if schur > _SPAN_TOL * column[j]:
                break
            joins[side, j] = 0.0  # in the span of the active columns
        while gi < len(grid) and grid[gi] >= nxt:
            beta_a = a - grid[gi] * b
            path[gi, active[:k]] = beta_a
            kkt = _kkt_from_gradient(columns[:, :k] @ beta_a - corr, path[gi], grid[gi])
            if not kkt <= _KKT_TOL * grid[gi]:
                raise NumericalError(
                    f"lasso path: KKT residual {kkt:.3g} at lambda {grid[gi]:.6g}"
                )
            gi += 1
        if gi == len(grid):
            return path
        lam = nxt
        if drop:
            k -= 1
            last, last_side = int(active[i]), 0 if rhs[i, 1] > 0.0 else 1
            # move the leaving variable to position k, then downdate the inverse
            active[[i, k]] = active[[k, i]]
            rhs[[i, k]] = rhs[[k, i]]
            columns[:, [i, k]] = columns[:, [k, i]]
            inverse[[i, k], :k + 1] = inverse[[k, i], :k + 1]
            inverse[:k + 1, [i, k]] = inverse[:k + 1, [k, i]]
            w = inverse[:k, k]
            inverse[:k, :k] -= np.outer(w, w / inverse[k, k])
        else:
            last, last_side = j, -1
            inverse[:k, :k] += np.outer(u, u / schur)
            inverse[:k, k] = inverse[k, :k] = -u / schur
            inverse[k, k] = 1.0 / schur
            columns[:, k] = column
            active[k] = j
            rhs[k] = corr[j], 1.0 - 2.0 * side
            k += 1
    raise NumericalError("lasso path exceeded its breakpoint limit")
