"""Calibration scan of the score test and the three Wald variance estimates.

Usage, from the root of a source checkout::

    python scripts/inference_scan.py --seed 20240817 --threads 2

The setting is the acceptance suite's: n = 200, s* = 10, Toeplitz 0.95, the
paper link f(x) = 2x + cos x, beta* = mu on the support, lambda at the
default rule and rho = RHO_SCALE * sigma * sqrt(log(d)/n), the library's
rule. For each (d, trials) of ``PLAN`` and each mu in {0, 0.5}, every trial
is fitted once, and coordinates 11 (null) and 1 (support) are decorrelated
at the null-imposed point (score test) and at the fitted point (Wald).

The score test and the Wald interval with variance C = r/D0 are the
library's own (``_score_result`` and ``_wald_result``). With r =
mean(resid^2), q = mean(f'(u)^2 (x'w)^2) and D0 = h_aa - h_ag d_hat at the
fitted point, the script adds two other estimates of the variance of
sqrt(n) alpha_bar around the library's alpha_bar: A = r/q (plug-in) and
B = r q / D0^2 (sandwich).

Prints one markdown table per d, with each acceptance band:

- 08: score and Wald type-I at (coordinate 11, mu 0) in [0.03, 0.08];
- 09: score and Wald power at (1, 0.5) at least 0.9;
- 10: coverage at (1, 0) in [0.92, 0.98];
- 13: score type-I at (11, 0.5) at most 0.08, over the first 200 trials;
- 14: coverage at (1, 0.5) in [0.92, 0.98].

A trial whose fit, decorrelation or test raises counts for no rate it
cannot give; a Wald test that raises takes the trial out of all three Wald
columns, and an A or B that is not positive and finite out of its own.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

from nlsparse import FitConfig, builtin_link, fit  # noqa: E402
from nlsparse.errors import NlsparseError  # noqa: E402
from nlsparse.inference import (  # noqa: E402
    InferenceConfig, _decorrelate, _score_result, _wald_result, normal_quantile)
from nlsparse.simulate import (  # noqa: E402
    RHO_SCALE, ConstantBeta, SimConfig, _map_trials, generate)

PLAN = ((128, 500), (512, 200))  # (d, trials per mu)
MUS = (0.0, 0.5)
COORDINATES = (11, 1)
LEVEL = 0.05
CRITERION_13_TRIALS = 200


def _interval(alpha, var, n):
    """alpha -+ z sqrt(var/n), or None when var is not positive and finite."""
    if not (math.isfinite(var) and var > 0.0):
        return None
    half = normal_quantile(1.0 - LEVEL / 2.0) * math.sqrt(var / n)
    return alpha - half, alpha + half


def _trial(job):
    """{coordinate: {"score": rejects, "wald": (interval A, B, C), "ms": ms}} for one
    trial; a test that raised is left out of its entry, and a coordinate whose
    decorrelation raised is left out."""
    config, trial, rho = job
    data, _ = generate(config, trial)
    link = builtin_link(config.link_name)
    try:
        beta_hat = fit(link, data, FitConfig(lam=config.lambda_rule())).beta_hat
    except NlsparseError:
        return {}
    out = {}
    for j in COORDINATES:
        test = InferenceConfig(coordinate=j, rho=rho, significance=LEVEL)
        beta_tilde = beta_hat.copy()
        beta_tilde[j - 1] = 0.0
        started = time.perf_counter()
        try:
            pieces_null = _decorrelate(link, data, beta_tilde, j, rho)
            pieces = _decorrelate(link, data, beta_hat, j, rho)
        except NlsparseError:
            continue
        entry = out[j] = {"ms": 1e3 * (time.perf_counter() - started)}
        try:
            entry["score"] = _score_result(data.n, test, pieces_null).reject
        except NlsparseError:
            pass
        try:
            wald = _wald_result(data.n, test, beta_hat, pieces)
        except NlsparseError:
            continue
        _, d0, q, r, _ = pieces
        entry["wald"] = (_interval(wald.alpha_bar, r / q, data.n),
                         _interval(wald.alpha_bar, r * q / d0 ** 2, data.n),
                         (wald.ci_low, wald.ci_high))
    return out


def _rate(flags):
    return float(np.mean(flags)) if flags else float("nan")


def scan(d, trials, seed, threads):
    """{mu: [per-trial dict of _trial]} for both mu at dimension d."""
    runs = {}
    for mu in MUS:
        config = SimConfig(n=200, d=d, s_star=10, noise_sd=1.0, toeplitz_rho=0.95,
                           link_name="paper", seed=seed, trials=trials,
                           beta_mode=ConstantBeta(mu))
        rho = config.rho_rule(RHO_SCALE)
        runs[mu] = _map_trials(_trial, [(config, t, rho) for t in range(trials)], threads)
    return runs


def bands(runs):
    """The rows of the table: (criterion, cell, band, value per estimate, pass per estimate)."""
    def score_rejects(mu, j, limit=None):
        return [o[j]["score"] for o in runs[mu][:limit] if "score" in o.get(j, {})]

    def wald_rates(mu, j, truth, covers):
        """Per estimate, the rate of covering the truth (covers) or of rejecting H0: beta_j = 0."""
        rates = []
        for v in range(3):
            intervals = [o[j]["wald"][v] for o in runs[mu] if "wald" in o.get(j, {})]
            rates.append(_rate([low <= truth <= high if covers else not low <= 0.0 <= high
                                for low, high in filter(None, intervals)]))
        return rates

    rows = [
        ("08 score type-I", "(11, 0)", (0.03, 0.08), [_rate(score_rejects(0.0, 11))]),
        ("08 Wald type-I", "(11, 0)", (0.03, 0.08), wald_rates(0.0, 11, 0.0, False)),
        ("09 score power", "(1, 0.5)", (0.9, 1.0), [_rate(score_rejects(0.5, 1))]),
        ("09 Wald power", "(1, 0.5)", (0.9, 1.0), wald_rates(0.5, 1, 0.5, False)),
        ("10 coverage", "(1, 0)", (0.92, 0.98), wald_rates(0.0, 1, 0.0, True)),
        ("13 score type-I", "(11, 0.5)", (0.0, 0.08),
         [_rate(score_rejects(0.5, 11, CRITERION_13_TRIALS))]),
        ("14 coverage", "(1, 0.5)", (0.92, 0.98), wald_rates(0.5, 1, 0.5, True)),
    ]
    return [(name, cell, band, values, [band[0] <= v <= band[1] for v in values])
            for name, cell, band, values in rows]


def _table(d, trials, seed, runs, elapsed):
    lines = [f"d = {d}, {trials} trials per mu, seed {seed}, rho scale {RHO_SCALE:g} "
             f"({elapsed:.0f} s wall)", "",
             "| band | (coordinate, mu) | range | score or Wald A | Wald B | Wald C | "
             "score or C passes |", "|---|---|---|---|---|---|---|"]
    for name, cell, (lo, hi), values, passed in bands(runs):
        cols = [f"{v:.3f}" for v in values] + [""] * (3 - len(values))
        lines.append(f"| {name} | {cell} | [{lo:g}, {hi:g}] | {' | '.join(cols)} | "
                     f"{'yes' if passed[-1] else 'NO'} |")
    ms = [o[1]["ms"] for o in runs[0.5] if 1 in o]
    failed = sum(2 if j not in o else ("score" not in o[j]) + ("wald" not in o[j])
                 for mu in MUS for o in runs[mu] for j in COORDINATES)
    lines += ["", f"median ms per coordinate at (1, 0.5), both points: {np.median(ms):.0f}; "
                  f"tests that raised: {failed}"]
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=20240817)
    parser.add_argument("--threads", type=int, default=2)
    args = parser.parse_args(argv)
    all_pass = True
    for d, trials in PLAN:
        started = time.perf_counter()
        runs = scan(d, trials, args.seed, args.threads)
        print(_table(d, trials, args.seed, runs, time.perf_counter() - started))
        print(flush=True)
        all_pass &= all(passed[-1] for *_, passed in bands(runs))
    return 0 if all_pass else 1


if __name__ == "__main__":
    sys.exit(main())
