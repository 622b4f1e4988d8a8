"""Sparse nonlinear regression: estimation and coordinate-wise inference.

Fits y = f(x' beta) + noise with a known monotone link f by l1-regularized
nonconvex least squares (proximal gradient, spectral stepsizes, nonmonotone
line search), and tests or interval-estimates single coordinates of beta via
decorrelated score and one-step Wald statistics.

The public names below load their submodule on first use (PEP 562), so
``import nlsparse`` loads no numpy: the command-line entry point can still
choose the BLAS thread count before numpy's BLAS library starts.
"""

import importlib

_EXPORTS = {
    "dantzig": "DantzigResult solve_dantzig",
    "diagnostics": "GradientCheckReport SparseEigenReport check_gradients "
                   "sparse_eigen_report sparse_eigenvalues",
    "errors": "DantzigInfeasibleError DegenerateVarianceError EnumerationCapError InputError "
              "LineSearchError NlsparseError NumericalError SingularDenominatorError",
    "inference": "InferenceConfig ScoreTestResult WaldResult normal_quantile "
                 "score_test two_sided_p_value wald_estimate",
    "loss": "loss_gradient loss_hessian loss_value penalized_objective",
    "model": "Dataset FitConfig LinkFunction builtin_link invert_link load_dataset_csv",
    "simulate": "BaselineRow InferenceRow SimConfig SweepRow TrialInference UniformBeta "
                "csv_text generate make_beta_star run_baseline_comparison "
                "run_estimation_sweep run_inference_table run_inference_trials sample_design",
    "solver": "FitResult acceptance_check bb_stepsize fit kkt_residual soft_threshold",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = {*_EXPORTS, "cli"}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
