"""Command-line front end: fit, test, ci, simulate, check.

Exit codes: 0 success, 1 usage or input errors, 2 numerical or statistical
failures. Option precedence is command line > --config JSON file > built-in
defaults: the file's values become the subcommand's defaults, and the command
line is parsed again over them. Result documents are line-oriented
``key=value`` pairs followed by a sparse coefficient block (``beta <index>
<value>`` lines, 1-based indices), chosen for easy diffing; simulate writes
the CSV schemas of :mod:`nlsparse.simulate`.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import os
import sys

import numpy as np

from . import simulate as sim
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


def _list_of(kind):
    """The ``type`` of an option that takes a comma-separated list of ``kind``."""
    def parse(text):
        return [kind(tok) for tok in text.split(",") if tok.strip()]

    parse.__name__ = f"comma-separated {kind.__name__}s"
    parse.takes_list = True  # a --config file may give it a JSON list
    return parse


def _add_common(p):
    p.add_argument("--config", help="JSON file of option values, keyed by option name "
                                    "(e.g. s_star); flags win over it")
    p.add_argument("--output", help="output path, or - for stdout (default stdout)")


def _add_fit_options(p):
    p.add_argument("--data", help="dataset CSV: first column y, then x1..xd")
    p.add_argument("--link", default="paper",
                   help="link function: identity or paper (2x+cos x) (default %(default)s)")
    p.add_argument("--lambda", dest="lam", type=float,
                   help="regularization strength (overrides --lambda-rule)")
    p.add_argument("--lambda-rule", dest="lambda_rule", type=float,
                   help="set lambda = C*sigma*sqrt(log(d)/n) with this C (needs --sigma)")
    p.add_argument("--sigma", type=float, help="noise level for the lambda/rho rules")
    p.add_argument("--tol", type=float, help="relative-change stopping threshold")
    p.add_argument("--max-iter", dest="max_iter", type=int, help="iteration cap")


def _add_inference_options(p):
    p.add_argument("--coordinate", type=int, required=True,
                   help="1-based coordinate to test")
    p.add_argument("--delta", type=float,
                   help=f"significance level (default {InferenceConfig.significance:g})")
    p.add_argument("--null-value", dest="null_value", type=float,
                   help=f"hypothesized coefficient value (default {InferenceConfig.null_value:g})")
    p.add_argument("--rho", type=float,
                   help="decorrelation LP radius (overrides --rho-rule)")
    p.add_argument("--rho-rule", dest="rho_rule", type=float, default=sim.RHO_SCALE,
                   help="set rho = C*sigma*sqrt(log(d)/n) with this C (default %(default)g)")


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

    ints = _list_of(int)
    p_sim = sub.add_parser("simulate", help="run a synthetic experiment",
                           description="Synthetic experiments writing plot-ready CSV.")
    p_sim.add_argument("--experiment", choices=["sweep", "baseline", "table"], required=True)
    p_sim.add_argument("--n", "--n-grid", dest="n", type=ints,
                       help="comma-separated sample sizes (one for table)")
    p_sim.add_argument("--d", "--d-grid", dest="d", type=ints,
                       help="comma-separated dimensions (one for table)")
    p_sim.add_argument("--s-star", "--s-star-grid", dest="s_star", type=ints,
                       help="comma-separated support sizes (one for table)")
    p_sim.add_argument("--mu-grid", dest="mu_grid", type=_list_of(float),
                       help="comma-separated signal strengths for table (default 0,0.05,...,0.5)")
    p_sim.add_argument("--link", help=f"link function name (default {sim.SimConfig.link_name})")
    p_sim.add_argument("--sigma", type=float,
                       help=f"noise standard deviation (default {sim.SimConfig.noise_sd:g})")
    p_sim.add_argument("--toeplitz-rho", dest="toeplitz_rho", type=float,
                       help=f"design correlation decay (default {sim.SimConfig.toeplitz_rho:g})")
    p_sim.add_argument("--beta-mode", dest="beta_mode",
                       help='"uniform:lo,hi" or "constant:mu" (default uniform:0,2)')
    p_sim.add_argument("--trials", type=int, default=100,
                       help="trials per grid point (default %(default)s)")
    p_sim.add_argument("--seed", type=int, help=f"base seed (default {sim.SimConfig.seed})")
    p_sim.add_argument("--lambda-rule", dest="lambda_rule", type=float, default=sim.LAMBDA_SCALE,
                       help="C in lambda = C*sigma*sqrt(log(d)/n) (default %(default)g)")
    p_sim.add_argument("--rho-rule", dest="rho_rule", type=float, default=sim.RHO_SCALE,
                       help="C in rho = C*sigma*sqrt(log(d)/n) (default %(default)g)")
    p_sim.add_argument("--delta", type=float, default=InferenceConfig.significance,
                       help="test level for table (default %(default)g)")
    p_sim.add_argument("--type1-coordinate", dest="type1_coordinate", type=int,
                       help="null-true coordinate for the table (default s_star+1)")
    p_sim.add_argument("--power-coordinate", dest="power_coordinate", type=int,
                       default=inspect.signature(sim.run_inference_table)
                       .parameters["power_coordinate"].default,
                       help="null-false coordinate for the table (default %(default)s)")
    p_sim.add_argument("--threads", type=int,
                       help="at most this many processes (>= 1), each trial on one BLAS thread "
                            "(default the usable CPU count)")
    _add_common(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    p_check = sub.add_parser("check", help="run a numerical diagnostic",
                             description="Derivative or sparse-eigenvalue diagnostics.")
    p_check.add_argument("--kind", choices=["gradients", "sparse-eigen"], required=True)
    p_check.add_argument("--link", default="paper",
                         help="link name for gradient checks (default %(default)s)")
    p_check.add_argument("--n", type=int, default=10,
                         help="rows per gradient-check instance (default %(default)s)")
    p_check.add_argument("--d", type=int, help="dimension (default 5 for gradients; "
                                               "sparse-eigen cap 24)")
    p_check.add_argument("--trials", type=int, default=50,
                         help="gradient-check instances (default %(default)s)")
    p_check.add_argument("--seed", type=int, default=0, help="RNG seed (default %(default)s)")
    p_check.add_argument("--matrix", help="CSV file with a square matrix for sparse-eigen")
    p_check.add_argument("--toeplitz-rho", dest="toeplitz_rho", type=float,
                         default=sim.SimConfig.toeplitz_rho,
                         help="build the Toeplitz covariance rho^|j-k| instead of --matrix "
                              "(default %(default)g)")
    p_check.add_argument("--k", type=int, help="sparsity level for the eigen report")
    p_check.add_argument("--s-star", dest="s_star", type=int, help="support size for the condition")
    p_check.add_argument("--k-star", dest="k_star", type=int, help="relaxation size for the condition")
    _add_common(p_check)
    p_check.set_defaults(func=_cmd_check)

    for command in sub.choices.values():  # main reads a --config file through it
        command.set_defaults(parser=command)
    return parser


def _config_defaults(path, command):
    """The --config file at ``path`` as defaults for ``command``'s options.

    Each value is read by its option's ``type`` from the text its flag would
    hold, a JSON list as comma-separated text; null keeps the default. A key
    that names no option, and a list for an option that takes one value, are
    input errors.
    """
    import json

    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise InputError(f"config {path} must hold a JSON object")
    kinds = {a.dest: a.type or str for a in command._actions
             if a.option_strings and a.dest not in ("help", "config")}
    values = {}
    for key, value in cfg.items():
        if key not in kinds:
            raise InputError(f"config {path}: no option {key}")
        kind = kinds[key]
        if value is None:
            continue
        text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
        try:
            if kind is str and not isinstance(value, str):  # a path or a name, not a number
                raise ValueError
            if isinstance(value, list) and not getattr(kind, "takes_list", False):
                raise ValueError
            values[key] = kind(text)
        except ValueError:
            raise InputError(f"config {path}: {key} must be {kind.__name__}, "
                             f"got {value!r}") from None
    return values


def _user_options(args, config_type, skip=(), keys=None):
    """Fields of ``config_type`` set by flag or in --config; the rest keep the
    dataclass defaults. ``keys`` maps a field to its option name where they
    differ, ``skip`` lists fields the caller resolves."""
    keys = keys or {}
    options = {field.name: getattr(args, keys.get(field.name, field.name), None)
               for field in dataclasses.fields(config_type) if field.name not in skip}
    return {name: value for name, value in options.items() if value is not None}


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


def _rule_value(flag, value, scale, sigma, data):
    """``value`` (set by --<flag>), else the rate rule at ``scale`` (--<flag>-rule) and ``sigma``."""
    if value is not None:
        return value
    if scale is None or sigma is None:
        raise InputError(f"specify --{flag}, or --{flag}-rule together with --sigma")
    return sim.rate_rule(scale, sigma, data.n, data.d)


def _fit_from_args(args):
    if not args.data:
        raise InputError("--data is required")
    data = load_dataset_csv(args.data)
    link = builtin_link(args.link)
    lam = _rule_value("lambda", args.lam, args.lambda_rule, args.sigma, data)
    config = FitConfig(lam=lam, **_user_options(args, FitConfig, skip=("lam", "init")))
    return data, link, lam, fit(link, data, config)


def _fit_pairs(result, *extra):
    """How the fit ended: converged, iterations, the ``extra`` pairs, its KKT certificate."""
    return [("converged", result.converged), ("iterations", result.iterations), *extra,
            ("kkt_residual", result.kkt_residual)]


def _cmd_fit(args) -> int:
    data, link, lam, result = _fit_from_args(args)
    doc = _doc([
        ("command", "fit"),
        ("link", link.name),
        ("n", data.n),
        ("d", data.d),
        ("lambda", lam),
        *_fit_pairs(result, ("objective", float(result.objective_trace[-1]))),
    ], beta=result.beta_hat)
    _emit(doc, args.output)
    return 0


def _inference_config(args, data):
    return InferenceConfig(
        coordinate=args.coordinate,
        rho=_rule_value("rho", args.rho, args.rho_rule, args.sigma, data),
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
        *_fit_pairs(result),
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
        *_fit_pairs(result),
        ("rho", inf_cfg.rho),
        ("alpha_bar", res.alpha_bar),
        ("ci_low", res.ci_low),
        ("ci_high", res.ci_high),
        ("sigma_w", res.sigma_w),
        *_dantzig_pairs(res.d_hat),
    ]), args.output)
    return 0


def _parse_beta_mode(raw):
    kind, _, params = raw.partition(":")
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
    base = _user_options(args, sim.SimConfig, skip=("n", "d", "s_star"),
                         keys={"link_name": "link", "noise_sd": "sigma"})
    if "beta_mode" in base:
        base["beta_mode"] = _parse_beta_mode(base["beta_mode"])
    grids = (args.n, args.d, args.s_star)
    if not all(grids):
        raise InputError("simulate needs --n, --d and --s-star")
    if args.experiment == "table" and max(map(len, grids)) > 1:
        raise InputError("simulate --experiment table takes one value of each of "
                         "--n, --d and --s-star")
    configs = [sim.SimConfig(n=n, d=d, s_star=s_star, **base)
               for d in args.d for s_star in args.s_star for n in args.n]
    if args.experiment == "sweep":
        rows = sim.run_estimation_sweep(configs, args.lambda_rule, threads=args.threads)
        text = sim.csv_text(rows, sim.SweepRow)
    elif args.experiment == "baseline":
        rows = sim.run_baseline_comparison(configs, args.lambda_rule, threads=args.threads)
        text = sim.csv_text(rows, sim.BaselineRow)
    else:
        rows = sim.run_inference_table(
            configs[0],
            mu_grid=args.mu_grid,
            type1_coordinate=args.type1_coordinate,
            power_coordinate=args.power_coordinate,
            lambda_scale=args.lambda_rule,
            rho_scale=args.rho_rule,
            significance=args.delta,
            threads=args.threads,
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
    from .diagnostics import check_gradients, sparse_eigen_report

    if args.kind == "gradients":
        if args.seed < 0:
            raise InputError(f"--seed must be >= 0, got {args.seed}")
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([args.seed])))
        report = check_gradients(builtin_link(args.link), n=args.n,
                                 d=5 if args.d is None else args.d, trials=args.trials, rng=rng)
        verdict = "PASS" if report.passed else "FAIL"
        _emit(
            f"{verdict} max_rel_grad={report.max_rel_gradient:.3e} "
            f"max_rel_hess={report.max_rel_hessian:.3e} trials={report.trials}\n",
            args.output,
        )
        return 0 if report.passed else 2

    if args.matrix:
        M = _load_matrix_csv(args.matrix)
    elif args.d is None:
        raise InputError("sparse-eigen needs --matrix or --d with --toeplitz-rho")
    else:
        M = sim.toeplitz_covariance(args.d, args.toeplitz_rho)
    k = args.k
    if k is None:
        k = args.k_star if args.k_star is not None else M.shape[0]
    report = sparse_eigen_report(M, k, s_star=args.s_star, k_star=args.k_star)
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
        if args.config:  # the file's values become the defaults the flags override
            args.parser.set_defaults(**_config_defaults(args.config, args.parser))
            args = parser.parse_args(argv)
        return args.func(args)
    except InputError as exc:
        print(f"nlsparse: error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"nlsparse: numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
