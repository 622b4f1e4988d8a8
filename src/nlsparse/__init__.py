"""Sparse nonlinear regression: estimation and coordinate-wise inference.

Fits y = f(x' beta) + noise with a known monotone link f by l1-regularized
nonconvex least squares (proximal gradient, spectral stepsizes, nonmonotone
line search), and tests or interval-estimates single coordinates of beta via
decorrelated score and one-step Wald statistics.
"""

from .dantzig import DantzigResult, solve_dantzig
from .diagnostics import (
    GradientCheckReport,
    SparseEigenReport,
    check_assumption1,
    check_gradients,
    sparse_eigen_report,
    sparse_eigenvalues,
)
from .errors import (
    DantzigInfeasibleError,
    DegenerateVarianceError,
    EnumerationCapError,
    InputError,
    LineSearchError,
    NlsparseError,
    NumericalError,
    SingularDenominatorError,
)
from .inference import (
    InferenceConfig,
    ScoreTestResult,
    WaldResult,
    normal_cdf,
    normal_quantile,
    score_test,
    two_sided_p_value,
    wald_estimate,
)
from .loss import (
    hessian_partition,
    loss_gradient,
    loss_hessian,
    loss_value,
    penalized_objective,
)
from .model import (
    Dataset,
    FitConfig,
    LinkFunction,
    SparsityGroundTruth,
    builtin_link,
    invert_link,
    load_dataset_csv,
)
from .simulate import (
    BaselineRow,
    ConstantBeta,
    InferenceRow,
    SimConfig,
    SweepRow,
    TrialInference,
    TrialRecord,
    UniformBeta,
    baseline_csv_text,
    generate,
    inference_csv_text,
    make_beta_star,
    run_baseline_comparison,
    run_estimation_sweep,
    run_inference_table,
    run_inference_trials,
    sample_design,
    sweep_csv_text,
)
from .solver import (
    FitResult,
    acceptance_check,
    bb_stepsize,
    fit,
    kkt_residual,
    prox_step,
    soft_threshold,
)

__version__ = "0.1.0"
