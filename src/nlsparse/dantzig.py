"""Dantzig-selector linear program for the decorrelation vector.

Solves

    minimize ||v||_1  subject to  ||h_ag - v' h_gg||_inf <= rho

by a parametric simplex along rho (the Dantzig-selector path of James,
Radchenko & Lv's DASSO; Pang, Liu, Vanderbei & Zhao's parametric simplex).
At rho_max = max|h_ag| the vector v = 0 is optimal. Lowering rho moves the
optimum linearly until a basic variable reaches zero; there one dual simplex
pivot changes the basis, and the path goes on down to the target rho.

A basis is an active set: the rows E where |h_ag - h_gg v| = rho, the
support S of v (|E| = |S| = k) and the k x k block h_gg[E, S]. A pivot reads
only the k rows of h_gg at E and S, so it costs O(m k) plus inverting that
block, which each basis does afresh. The solver takes h_gg through a row
accessor and reads each row once, so a caller that can compute rows (the
inference code, from the data) never forms the m x m matrix. Ties in the
ratio tests go to the lowest index, so repeated runs are bitwise
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InputError, NumericalError
from .model import _checked_symmetric

__all__ = ["DantzigResult", "solve_dantzig"]

_PIVOT_TOL = 1e-9
_FEAS_TOL = 1e-8


@dataclass(frozen=True)
class DantzigResult:
    """Solution of the decorrelation LP.

    ``d_hat`` is None when ``status == "infeasible"``. ``max_slack`` is
    ``rho - ||h_ag - h_gg d_hat||_inf``; nonnegative (within 1e-8) at an
    optimum. ``pivots`` counts the breakpoints passed on the way down from
    rho_max; ``vacuous`` is ``rho >= max|h_ag|``, where ``d_hat = 0``.
    """

    d_hat: Optional[np.ndarray]
    l1_norm: float
    max_slack: float
    status: str
    message: str = ""
    pivots: int = 0
    vacuous: bool = False


def solve_dantzig(h_ag, h_gg, rho: float) -> DantzigResult:
    """Minimize ||v||_1 subject to ||h_ag - v' h_gg||_inf <= rho.

    ``h_ag`` and ``h_gg`` must be finite, ``h_gg`` symmetric (checked to
    1e-10) and ``rho`` positive. The LP is solved exactly; feasibility is
    certified to 1e-8. An infeasible program (possible only for
    rank-deficient ``h_gg``) is reported through ``status`` rather than an
    exception.
    """
    h_ag = np.asarray(h_ag, dtype=float)
    h_gg = np.asarray(h_gg, dtype=float)
    if h_ag.ndim != 1:
        raise InputError("h_ag must be a vector")
    if not np.isfinite(h_ag).all():
        raise InputError("h_ag contains non-finite entries")
    m = h_ag.shape[0]
    if h_gg.shape != (m, m):
        raise InputError(f"h_gg must be {m}x{m} to match h_ag, got {h_gg.shape}")
    _checked_symmetric(h_gg, "h_gg")
    if not (np.isfinite(rho) and rho > 0.0):
        raise InputError(f"rho must be a positive real, got {rho}")
    return _solve(h_ag, h_gg.__getitem__, h_gg.diagonal, rho)


def _solve(h_ag, h_gg_rows, h_gg_diagonal, rho):
    """:func:`solve_dantzig` with h_gg given by ``h_gg_rows(idx) -> h_gg[idx]``
    and ``h_gg_diagonal() -> diag(h_gg)``, for a symmetric h_gg.

    Neither is called when the LP is vacuous; otherwise only the rows of the
    bases on the path are read, each once.
    """
    m = h_ag.shape[0]
    rho_max = float(np.abs(h_ag).max(initial=0.0))
    if rho >= rho_max:
        return DantzigResult(d_hat=np.zeros(m), l1_norm=0.0, max_slack=rho - rho_max,
                             status="optimal", vacuous=True)

    h_gg_rows = _row_cache(h_gg_rows, m)
    # For a positive semidefinite h_gg, max|diag| = max|h_gg|.
    h_scale = float(np.abs(h_gg_diagonal()).max()) or 1.0
    v, pivots = _follow_path(h_ag, h_gg_rows, h_scale, rho, rho_max)
    if v is None:
        return DantzigResult(
            d_hat=None,
            l1_norm=np.nan,
            max_slack=np.nan,
            status="infeasible",
            message=(
                f"decorrelation LP infeasible at rho={rho:g}; "
                "increase rho (the constraint radius)"
            ),
            pivots=pivots,
        )

    support = np.flatnonzero(v)  # h_gg v = h_gg[S]' v_S, as h_gg is symmetric
    max_slack = rho - float(np.abs(h_ag - v[support] @ h_gg_rows(support)).max())
    if max_slack < -_FEAS_TOL:
        raise NumericalError(
            f"parametric simplex returned an infeasible vertex (slack {max_slack:.3e})"
        )
    return DantzigResult(
        d_hat=v,
        l1_norm=float(np.abs(v).sum()),
        max_slack=max_slack,
        status="optimal",
        pivots=pivots,
    )


def _row_cache(fetch, m):
    """``fetch`` of rows of h_gg that fetches each row once: each pivot reads
    the rows of the basis before it again. Rows live in an m x m buffer that
    is allocated but never filled, so only the rows read take up memory."""
    buffer, fetched = np.empty((m, m)), np.zeros(m, dtype=bool)

    def rows(idx):
        idx = np.asarray(idx, dtype=np.intp)
        missing = idx[~fetched[idx]]
        if missing.size:
            buffer[missing], fetched[missing] = fetch(missing), True
        return buffer[idx]

    return rows


def _follow_path(h_ag, h_gg_rows, h_scale, rho, rho_max):
    """Lower the radius from ``rho_max`` to ``rho``. Returns ``(v, pivots)``.

    ``v`` is None when the LP is infeasible at ``rho``. The basis is the
    active rows E with residual signs sigma (h_ag - h_gg v = sigma * radius
    there) and the support S with signs tau. Its dual z lives on E, solves
    h_gg[S, E] z = tau and keeps |h_gg z| <= 1 and sigma * z >= 0; neither
    depends on the radius, so every basis on the way down stays dual
    feasible and each breakpoint is one dual simplex pivot.

    Both ratio tests run over the 4m variables of the standard form, in
    this order: p_j (v_j > 0), q_j (v_j < 0), and the slacks of the lower
    and of the upper bound of each row; ties go to the lowest index. Rows of
    h_gg come from ``h_gg_rows``, scaled for the tolerances by ``h_scale``.
    """
    m = h_ag.shape[0]
    rows, row_sign, cols, col_sign = [], [], [], []
    h_rows, inverse, tau = np.zeros((0, m)), np.zeros((0, 0)), np.zeros(m)
    # With the empty basis at rho_max, the row of max|h_ag| is the first
    # basic variable to reach 0: its lower slack if h_ag < 0, else the upper.
    radius = rho_max
    _, leave = _min_ratio(np.concatenate([radius + h_ag, radius - h_ag]),
                          np.ones(2 * m), np.ones(2 * m, dtype=bool))
    leave += 2 * m
    for pivots in range(1, 1000 + 50 * m):
        # Dual ratio test: move z off the dual constraint of the leaving
        # variable until another one becomes tight; its variable enters.
        # z = inverse' tau. Scaling dz to max|dz| = 1, and the rows for p and
        # q by 1 / h_scale, leaves the ratios as they are and makes the
        # pivot tolerance relative.
        z = col_sign @ inverse
        free = tau == 0.0
        if leave < 2 * m:  # v_j reached 0: (h_gg z)_j = tau_j is relaxed
            p = cols.index(leave % m)
            free[cols[p]] = True
            dz = -col_sign[p] * inverse[p]
        else:  # row i reached the radius: it joins E, z_i moves by sigma_i
            p, i, sigma = None, leave % m, 1.0 if leave >= 3 * m else -1.0
            h_row = h_gg_rows([i])
            z, dz = np.append(z, 0.0), np.append(-sigma * (h_row[0, cols] @ inverse), sigma)
            rows.append(i)
            row_sign.append(sigma)
            h_rows = np.vstack([h_rows, h_row])
        dz /= np.abs(dz).max()
        g, dg = np.stack([z, dz]) @ h_rows
        z_all, dz_all, sign_all = np.zeros(m), np.zeros(m), np.zeros(m)
        z_all[rows], dz_all[rows], sign_all[rows] = z, dz, row_sign
        _, enter = _min_ratio(
            np.concatenate([(1.0 - g) / h_scale, (1.0 + g) / h_scale, -z_all, z_all]),
            np.concatenate([dg / h_scale, -dg / h_scale, dz_all, -dz_all]),
            np.concatenate([free, free, sign_all < 0, sign_all > 0]))
        if enter is None:
            return None, pivots - 1
        if enter < 2 * m:  # v_j joins S with sign tau_j
            j, sign = enter % m, 1.0 if enter < m else -1.0
            if p is None:
                cols.append(j)
                col_sign.append(sign)
            else:
                cols[p], col_sign[p] = j, sign
        else:  # z_i reached 0: row i leaves E
            q = rows.index(enter % m)
            del rows[q], row_sign[q]
            if p is not None:
                del cols[p], col_sign[p]

        # The new basis: v_S = base - radius * speed. Lowering the radius by
        # t moves v_S by t * speed and h_gg v by t * drift.
        h_rows = h_gg_rows(rows)
        try:
            inverse = np.linalg.inv(h_rows[:, cols])
        except np.linalg.LinAlgError:
            raise NumericalError("parametric simplex reached a singular basis") from None
        base, speed = inverse @ h_ag[rows], inverse @ row_sign
        fixed, drift = np.stack([base, speed]) @ h_gg_rows(cols)
        resid = h_ag - fixed + radius * drift
        v, rate, tau = np.zeros(m), np.zeros(m), np.zeros(m)
        scale = np.abs(speed).max(initial=0.0) or 1.0  # relative tolerance, as above
        v[cols], rate[cols], tau[cols] = (base - radius * speed) / scale, speed / scale, col_sign
        inactive = np.ones(m, dtype=bool)
        inactive[rows] = False

        # Primal ratio test: the next breakpoint is where a basic variable
        # (a support coefficient or the slack of an inactive row) reaches 0.
        step, leave = _min_ratio(
            np.concatenate([v, -v, radius + resid, radius - resid]),
            np.concatenate([-rate, rate, 1.0 + drift, 1.0 - drift]),
            np.concatenate([tau > 0, tau < 0, inactive, inactive]))
        if leave is None or radius - step <= rho:
            v[cols] = base - rho * speed
            return v, pivots
        radius -= step
    raise NumericalError("parametric simplex exceeded the pivot limit")


def _min_ratio(value, rate, eligible):
    """``(value / rate, index)`` of the first variable to reach 0, else ``(None, None)``.

    Only ``eligible`` variables that decrease, at a ``rate`` above the pivot
    tolerance, take part. Near-ties go to the lowest index.
    """
    eligible = eligible & (rate > _PIVOT_TOL)
    if not eligible.any():
        return None, None
    ratio = np.full(value.shape, np.inf)
    ratio[eligible] = np.maximum(value[eligible], 0.0) / rate[eligible]
    best = ratio.min()
    k = int(np.argmax(ratio <= best + 1e-12 * (1.0 + abs(best))))
    return float(ratio[k]), k
