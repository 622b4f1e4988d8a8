"""Command-line front end: fit, test, ci, simulate, check.

Exit codes: 0 success, 1 usage or input errors, 2 numerical or statistical
failures. Option precedence is command line > --config JSON file > built-in
defaults. Result documents are line-oriented ``key=value`` pairs followed by
a sparse coefficient block (``beta <index> <value>`` lines, 1-based indices),
chosen for easy diffing; simulate writes the CSV schemas of
:mod:`nlsparse.simulate`.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import simulate as sim
from .diagnostics import check_gradients, sparse_eigen_report
from .errors import InputError, NumericalError
from .inference import InferenceConfig, score_test, wald_estimate
from .model import FitConfig, builtin_link, load_dataset_csv
from .solver import fit


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1, not argparse's default 2 (2 is reserved for
    # numerical failures)
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_common(p):
    p.add_argument("--config", help="JSON file with defaults for any option")
    p.add_argument("--output", help="output path, or - for stdout (default stdout)")


def _add_fit_options(p):
    p.add_argument("--data", help="dataset CSV: first column y, then x1..xd")
    p.add_argument("--link", help="link function: identity or paper (2x+cos x)")
    p.add_argument("--lambda", dest="lam", type=float,
                   help="regularization strength (overrides --lambda-rule)")
    p.add_argument("--lambda-rule", dest="lambda_rule", type=float,
                   help="set lambda = C*sigma*sqrt(log(d)/n) with this C (needs --sigma)")
    p.add_argument("--sigma", type=float, help="noise level for the lambda/rho rules")
    p.add_argument("--tol", type=float, help="relative-change stopping threshold")
    p.add_argument("--max-iter", dest="max_iter", type=int, help="iteration cap")
    p.add_argument("--eta", type=float, help="line-search growth factor (> 1)")
    p.add_argument("--zeta", type=float, help="sufficient-decrease constant")
    p.add_argument("--memory", type=int, help="nonmonotone window length")


def _add_inference_options(p):
    p.add_argument("--coordinate", type=int, required=True,
                   help="1-based coordinate to test")
    p.add_argument("--delta", type=float,
                   help=f"significance level (default {InferenceConfig.significance:g})")
    p.add_argument("--null-value", dest="null_value", type=float,
                   help=f"hypothesized coefficient value (default {InferenceConfig.null_value:g})")
    p.add_argument("--rho", type=float,
                   help="decorrelation LP radius (overrides --rho-rule)")
    p.add_argument("--rho-rule", dest="rho_rule", type=float,
                   help=f"set rho = C*sigma*sqrt(log(d)/n) with this C "
                        f"(default {sim.RHO_SCALE:g})")


def _build_parser():
    parser = _Parser(prog="nlsparse",
                     description="Sparse nonlinear regression: estimation and inference.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_fit = sub.add_parser("fit", parents=[], help="fit the l1-regularized model",
                           description="Fit the l1-regularized nonlinear least-squares model.")
    _add_fit_options(p_fit)
    _add_common(p_fit)
    p_fit.set_defaults(func=_cmd_fit)

    p_test = sub.add_parser("test", help="test H0: beta_j = null value",
                            description="Decorrelated score or Wald test for one coordinate.")
    _add_fit_options(p_test)
    _add_inference_options(p_test)
    p_test.add_argument("--method", choices=["score", "wald"], required=True)
    _add_common(p_test)
    p_test.set_defaults(func=_cmd_test)

    p_ci = sub.add_parser("ci", help="confidence interval for one coordinate",
                          description="Wald confidence interval for one coordinate.")
    _add_fit_options(p_ci)
    _add_inference_options(p_ci)
    _add_common(p_ci)
    p_ci.set_defaults(func=_cmd_ci)

    p_sim = sub.add_parser("simulate", help="run a synthetic experiment",
                           description="Synthetic experiments writing plot-ready CSV.")
    p_sim.add_argument("--experiment", choices=["sweep", "baseline", "table"], required=True)
    p_sim.add_argument("--n", type=int, help="sample size")
    p_sim.add_argument("--d", type=int, help="dimension")
    p_sim.add_argument("--s-star", dest="s_star", type=int, help="support size")
    p_sim.add_argument("--n-grid", dest="n_grid", help="comma-separated n values")
    p_sim.add_argument("--d-grid", dest="d_grid", help="comma-separated d values")
    p_sim.add_argument("--s-star-grid", dest="s_star_grid",
                       help="comma-separated support sizes")
    p_sim.add_argument("--mu-grid", dest="mu_grid",
                       help="comma-separated signal strengths (table experiment)")
    p_sim.add_argument("--link", help=f"link function name (default {sim.SimConfig.link_name})")
    p_sim.add_argument("--sigma", type=float,
                       help=f"noise standard deviation (default {sim.SimConfig.noise_sd:g})")
    p_sim.add_argument("--toeplitz-rho", dest="toeplitz_rho", type=float,
                       help=f"design correlation decay (default {sim.SimConfig.toeplitz_rho:g})")
    p_sim.add_argument("--beta-mode", dest="beta_mode",
                       help='"uniform:lo,hi" or "constant:mu" (default uniform:0,2)')
    p_sim.add_argument("--trials", type=int, help="trials per grid point (default 100)")
    p_sim.add_argument("--seed", type=int, help=f"base seed (default {sim.SimConfig.seed})")
    p_sim.add_argument("--lambda-rule", dest="lambda_rule", type=float,
                       help=f"C in lambda = C*sigma*sqrt(log(d)/n) (default {sim.LAMBDA_SCALE:g})")
    p_sim.add_argument("--rho-rule", dest="rho_rule", type=float,
                       help=f"C in rho = C*sigma*sqrt(log(d)/n) (default {sim.RHO_SCALE:g})")
    p_sim.add_argument("--delta", type=float,
                       help=f"test level for table (default {InferenceConfig.significance:g})")
    p_sim.add_argument("--type1-coordinate", dest="type1_coordinate", type=int,
                       help="null-true coordinate for the table (default s_star+1)")
    p_sim.add_argument("--power-coordinate", dest="power_coordinate", type=int,
                       help="null-false coordinate for the table (default 1)")
    p_sim.add_argument("--threads", type=int,
                       help="at most this many worker processes, each trial on one BLAS thread; "
                            "a small experiment runs in-process (default the usable CPU count)")
    _add_common(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    p_check = sub.add_parser("check", help="run a numerical diagnostic",
                             description="Derivative or sparse-eigenvalue diagnostics.")
    p_check.add_argument("--kind", choices=["gradients", "sparse-eigen"], required=True)
    p_check.add_argument("--link", help="link name for gradient checks (default paper)")
    p_check.add_argument("--n", type=int, help="rows per gradient-check instance (default 10)")
    p_check.add_argument("--d", type=int, help="dimension (default 5; sparse-eigen cap 24)")
    p_check.add_argument("--trials", type=int, help="gradient-check instances (default 50)")
    p_check.add_argument("--seed", type=int, help="RNG seed (default 0)")
    p_check.add_argument("--matrix", help="CSV file with a square matrix for sparse-eigen")
    p_check.add_argument("--toeplitz-rho", dest="toeplitz_rho", type=float,
                         help="build the Toeplitz covariance rho^|j-k| instead of --matrix")
    p_check.add_argument("--k", type=int, help="sparsity level for the eigen report")
    p_check.add_argument("--s-star", dest="s_star", type=int, help="support size for the condition")
    p_check.add_argument("--k-star", dest="k_star", type=int, help="relaxation size for the condition")
    _add_common(p_check)
    p_check.set_defaults(func=_cmd_check)

    return parser


def _apply_config(args):
    """Set every option of ``args`` that is still None from the --config file."""
    path = args.config
    if not path:
        return
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise InputError(f"config {path} must hold a JSON object")
    for key, value in cfg.items():
        if getattr(args, key, None) is None:
            setattr(args, key, value)
    if not isinstance(args.output, (str, type(None))):
        raise InputError(f"config {path}: output must be a path, got {args.output!r}")


def _resolve(args, key, default=None):
    value = getattr(args, key, None)
    return default if value is None else value


def _user_options(args, config_type, skip=(), keys=None):
    """Fields of ``config_type`` set by flag or in --config; the rest keep the
    dataclass defaults. ``keys`` maps a field to its option name where they
    differ, ``skip`` lists fields the caller resolves."""
    options = {}
    for field in dataclasses.fields(config_type):
        value = _resolve(args, (keys or {}).get(field.name, field.name))
        if field.name not in skip and value is not None:
            options[field.name] = float(value) if isinstance(field.default, float) else value
    return options


def _emit(text: str, output):
    if output in (None, "-"):
        sys.stdout.write(text)
        return
    try:
        with open(output, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {output}: {exc}") from exc


def _doc(pairs, beta=None) -> str:
    lines = []
    for key, value in pairs:
        if isinstance(value, (bool, np.bool_)):
            value = "true" if value else "false"
        elif isinstance(value, (float, np.floating)):
            value = repr(float(value))
        lines.append(f"{key}={value}")
    if beta is not None:
        lines.append(f"nonzeros={int(np.count_nonzero(beta))}")
        for j in np.flatnonzero(beta):
            lines.append(f"beta {j + 1} {float(beta[j])!r}")
    return "\n".join(lines) + "\n"


def _resolve_rule(args, data, key, flag, default_scale=None):
    """The value set by --<flag>, else the rate rule at --<flag>-rule and --sigma."""
    value = _resolve(args, key)
    if value is not None:
        return float(value)
    scale = _resolve(args, f"{flag}_rule", default_scale)
    sigma = _resolve(args, "sigma")
    if scale is None or sigma is None:
        raise InputError(f"specify --{flag}, or --{flag}-rule together with --sigma")
    return sim.rate_rule(float(scale), float(sigma), data.n, data.d)


def _fit_from_args(args):
    data_path = _resolve(args, "data")
    if not data_path:
        raise InputError("--data is required")
    data = load_dataset_csv(data_path)
    link = builtin_link(_resolve(args, "link", "paper"))
    lam = _resolve_rule(args, data, "lam", "lambda")
    config = FitConfig(lam=lam, **_user_options(args, FitConfig, skip=("lam", "init")))
    return data, link, lam, fit(link, data, config)


def _cmd_fit(args) -> int:
    data, link, lam, result = _fit_from_args(args)
    doc = _doc([
        ("command", "fit"),
        ("link", link.name),
        ("n", data.n),
        ("d", data.d),
        ("lambda", lam),
        ("converged", result.converged),
        ("iterations", result.iterations),
        ("objective", float(result.objective_trace[-1])),
        ("kkt_residual", result.kkt_residual),
    ], beta=result.beta_hat)
    _emit(doc, args.output)
    return 0


def _inference_config(args, data):
    return InferenceConfig(
        coordinate=int(_resolve(args, "coordinate")),
        rho=_resolve_rule(args, data, "rho", "rho", sim.RHO_SCALE),
        **_user_options(args, InferenceConfig, skip=("coordinate", "rho"),
                        keys={"significance": "delta"}),
    )


def _dantzig_pairs(dres):
    return [
        ("dantzig_l1", dres.l1_norm),
        ("dantzig_pivots", dres.pivots),
        ("dantzig_vacuous", dres.vacuous),
    ]


def _cmd_test(args) -> int:
    data, link, lam, result = _fit_from_args(args)
    inf_cfg = _inference_config(args, data)
    pairs = [
        ("command", "test"),
        ("method", args.method),
        ("coordinate", inf_cfg.coordinate),
        ("null_value", inf_cfg.null_value),
        ("delta", inf_cfg.significance),
        ("lambda", lam),
        ("rho", inf_cfg.rho),
    ]
    if args.method == "score":
        res = score_test(link, data, result, inf_cfg)
        pairs += [
            ("statistic", res.statistic),
            ("p_value", res.p_value),
            ("reject", res.reject),
            ("f_s", res.f_s),
            ("sigma_s", res.sigma_s),
        ]
    else:
        res = wald_estimate(link, data, result, inf_cfg)
        pairs += [
            ("statistic", res.statistic),
            ("p_value", res.p_value),
            ("reject", res.reject),
            ("alpha_bar", res.alpha_bar),
            ("sigma_w", res.sigma_w),
        ]
    _emit(_doc(pairs + _dantzig_pairs(res.d_hat)), args.output)
    return 0


def _cmd_ci(args) -> int:
    data, link, lam, result = _fit_from_args(args)
    inf_cfg = _inference_config(args, data)
    res = wald_estimate(link, data, result, inf_cfg)
    _emit(_doc([
        ("command", "ci"),
        ("coordinate", inf_cfg.coordinate),
        ("delta", inf_cfg.significance),
        ("lambda", lam),
        ("rho", inf_cfg.rho),
        ("alpha_bar", res.alpha_bar),
        ("ci_low", res.ci_low),
        ("ci_high", res.ci_high),
        ("sigma_w", res.sigma_w),
        *_dantzig_pairs(res.d_hat),
    ]), args.output)
    return 0


def _parse_grid(raw, cast):
    if raw is None:
        return None
    if isinstance(raw, (list, tuple)):
        return [cast(v) for v in raw]
    try:
        return [cast(tok) for tok in str(raw).split(",") if tok.strip()]
    except ValueError as exc:
        raise InputError(f"bad grid {raw!r}: {exc}") from exc


def _parse_beta_mode(raw):
    kind, _, params = str(raw).partition(":")
    try:
        if kind == "uniform":
            if not params:
                return sim.UniformBeta()
            lo, hi = (float(v) for v in params.split(","))
            return sim.UniformBeta(lo, hi)
        if kind == "constant":
            return sim.ConstantBeta(float(params))
    except ValueError as exc:
        raise InputError(f"bad beta mode {raw!r}: {exc}") from exc
    raise InputError(f'bad beta mode {raw!r}: expected "uniform:lo,hi" or "constant:mu"')


def _cmd_simulate(args) -> int:
    # an experiment can run for hours: reject an output it cannot write before it starts
    output = args.output
    if output not in (None, "-") and not os.path.isdir(os.path.dirname(os.path.abspath(output))):
        raise InputError(f"cannot write {args.output}: its directory does not exist")
    base = _user_options(args, sim.SimConfig, skip=("n", "d", "s_star", "trials"),
                         keys={"link_name": "link", "noise_sd": "sigma"})
    if "beta_mode" in base:
        base["beta_mode"] = _parse_beta_mode(base["beta_mode"])
    base["trials"] = int(_resolve(args, "trials", 100))
    n = _resolve(args, "n")
    d = _resolve(args, "d")
    s_star = _resolve(args, "s_star")
    lambda_scale = float(_resolve(args, "lambda_rule", sim.LAMBDA_SCALE))
    threads = _resolve(args, "threads")
    threads = int(threads) if threads is not None else None

    if args.experiment in ("sweep", "baseline"):
        n_grid = _parse_grid(_resolve(args, "n_grid"), int) or (
            [int(n)] if n is not None else None)
        d_grid = _parse_grid(_resolve(args, "d_grid"), int) or (
            [int(d)] if d is not None else None)
        s_grid = _parse_grid(_resolve(args, "s_star_grid"), int) or (
            [int(s_star)] if s_star is not None else None)
        if n_grid is None or d_grid is None or s_grid is None:
            raise InputError(
                "simulate needs --n/--n-grid, --d/--d-grid and --s-star/--s-star-grid"
            )
        configs = [
            sim.SimConfig(n=nn, d=dd, s_star=ss, **base)
            for dd in d_grid for ss in s_grid for nn in n_grid
        ]
        if args.experiment == "sweep":
            rows = sim.run_estimation_sweep(configs, lambda_scale, threads=threads)
            text = sim.csv_text(rows, sim.SweepRow)
        else:
            rows = sim.run_baseline_comparison(configs, lambda_scale, threads=threads)
            text = sim.csv_text(rows, sim.BaselineRow)
    else:
        if n is None or d is None or s_star is None:
            raise InputError("simulate --experiment table needs --n, --d and --s-star")
        config = sim.SimConfig(n=int(n), d=int(d), s_star=int(s_star), **base)
        mu_grid = _parse_grid(_resolve(args, "mu_grid"), float)
        type1 = _resolve(args, "type1_coordinate")
        rows = sim.run_inference_table(
            config,
            mu_grid=mu_grid,
            type1_coordinate=int(type1) if type1 is not None else None,
            power_coordinate=int(_resolve(args, "power_coordinate", 1)),
            lambda_scale=lambda_scale,
            rho_scale=float(_resolve(args, "rho_rule", sim.RHO_SCALE)),
            significance=float(_resolve(args, "delta", InferenceConfig.significance)),
            threads=threads,
        )
        text = sim.csv_text(rows, sim.InferenceRow)
    _emit(text, output)
    return 0


def _load_matrix_csv(path):
    try:
        M = np.loadtxt(path, delimiter=",", ndmin=2)
    except OSError as exc:
        raise InputError(f"cannot read matrix {path}: {exc}") from exc
    except ValueError as exc:
        raise InputError(f"matrix {path} is not numeric CSV: {exc}") from exc
    return M


def _cmd_check(args) -> int:
    if args.kind == "gradients":
        link = builtin_link(_resolve(args, "link", "paper"))
        seed = int(_resolve(args, "seed", 0))
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed])))
        report = check_gradients(
            link,
            n=int(_resolve(args, "n", 10)),
            d=int(_resolve(args, "d", 5)),
            trials=int(_resolve(args, "trials", 50)),
            rng=rng,
        )
        verdict = "PASS" if report.passed else "FAIL"
        _emit(
            f"{verdict} max_rel_grad={report.max_rel_gradient:.3e} "
            f"max_rel_hess={report.max_rel_hessian:.3e} trials={report.trials}\n",
            args.output,
        )
        return 0 if report.passed else 2

    matrix_path = _resolve(args, "matrix")
    if matrix_path:
        M = _load_matrix_csv(matrix_path)
    else:
        d = _resolve(args, "d")
        if d is None:
            raise InputError("sparse-eigen needs --matrix or --d with --toeplitz-rho")
        rho = float(_resolve(args, "toeplitz_rho", sim.SimConfig.toeplitz_rho))
        M = sim.toeplitz_covariance(int(d), rho)
    s_star = _resolve(args, "s_star")
    k_star = _resolve(args, "k_star")
    k = _resolve(args, "k")
    if k is None:
        k = k_star if k_star is not None else M.shape[0]
    report = sparse_eigen_report(
        M, int(k),
        s_star=int(s_star) if s_star is not None else None,
        k_star=int(k_star) if k_star is not None else None,
    )
    lines = [
        f"k={report.k}",
        f"rho_minus={report.rho_minus!r}",
        f"rho_plus={report.rho_plus!r}",
        f"design_bound={report.design_bound!r}",
    ]
    passed = True
    if report.condition_holds is not None:
        passed = report.condition_holds
        lines.append(f"condition_holds={'true' if passed else 'false'}")
    lines.append("PASS" if passed else "FAIL")
    _emit("\n".join(lines) + "\n", args.output)
    return 0 if passed else 2


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(args)
        return args.func(args)
    except InputError as exc:
        print(f"nlsparse: error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"nlsparse: numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
