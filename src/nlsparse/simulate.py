"""Synthetic-data generation and the three standard experiments.

Data model: rows of the design are i.i.d. N(0, Sigma) with Toeplitz
covariance Sigma_jk = rho^|j-k|, the response is y = f(x' beta*) + sigma * z
with standard normal z, and beta* carries its nonzeros in the first s_star
coordinates.

Randomness uses the counter-based Philox generator keyed by
(seed, trial_index, stream), where stream 0 draws the design, stream 1 the
nonzero coefficients and stream 2 the noise. Every trial is therefore an
independent, reproducible function of (seed, trial_index), regardless of how
many worker processes run the trials. Every trial runs with one BLAS thread,
so experiment CSV output is byte-identical across reruns, worker counts and
BLAS thread defaults.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, fields, replace
from functools import lru_cache
from itertools import islice
from typing import Optional, Sequence, Union

import numpy as np

from .errors import InputError, NlsparseError
from .model import Dataset, FitConfig, SparsityGroundTruth, builtin_link, invert_link
# score_test and wald_estimate are unused here, but perfbench/spans.py times them (ROADMAP item 4).
from .inference import InferenceConfig, _score_and_wald, score_test, wald_estimate  # noqa: F401
from .solver import _lasso_path, fit

__all__ = [
    "UniformBeta",
    "ConstantBeta",
    "SimConfig",
    "SweepRow",
    "BaselineRow",
    "InferenceRow",
    "TrialInference",
    "LAMBDA_SCALE",
    "RHO_SCALE",
    "rate_rule",
    "toeplitz_covariance",
    "sample_design",
    "make_beta_star",
    "generate",
    "run_estimation_sweep",
    "run_baseline_comparison",
    "run_inference_trials",
    "run_inference_table",
    "sweep_csv_text",
    "baseline_csv_text",
    "inference_csv_text",
    "default_threads",
]

_STREAM_DESIGN = 0
_STREAM_BETA = 1
_STREAM_NOISE = 2

THREADS_ENV_VAR = "NLSPARSE_THREADS"

# Default constants C of the lambda and rho rules (see rate_rule).
LAMBDA_SCALE = 3.0
RHO_SCALE = 30.0

# Floor for rule-derived regularization when sigma = 0 (noiseless runs).
_NOISELESS_LAMBDA = 1e-4


def rate_rule(scale: float, sigma: float, n: int, d: int) -> float:
    """scale * sigma * sqrt(log d / n), floored at 1e-4 when sigma = 0: the
    lambda rule at scale LAMBDA_SCALE and the rho rule at scale RHO_SCALE."""
    if not (scale > 0.0 and sigma >= 0.0):
        raise InputError(f"rule needs scale > 0 and sigma >= 0, got {scale} and {sigma}")
    value = scale * sigma * np.sqrt(np.log(d) / n)
    return float(value) if value > 0.0 else _NOISELESS_LAMBDA


@dataclass(frozen=True)
class UniformBeta:
    """Nonzero coefficients drawn i.i.d. uniform on [lo, hi]."""

    lo: float = 0.0
    hi: float = 2.0


@dataclass(frozen=True)
class ConstantBeta:
    """All nonzero coefficients equal to mu."""

    mu: float = 0.0


BetaMode = Union[UniformBeta, ConstantBeta]


@dataclass(frozen=True)
class SimConfig:
    """One synthetic-data setting: dimensions, link, noise, design, seeding."""

    n: int
    d: int
    s_star: int
    link_name: str = "paper"
    noise_sd: float = 1.0
    toeplitz_rho: float = 0.95
    beta_mode: BetaMode = UniformBeta(0.0, 2.0)
    seed: int = 0
    trials: int = 1

    def __post_init__(self):
        if self.n < 1 or self.d < 1:
            raise InputError(f"n and d must be >= 1, got n={self.n}, d={self.d}")
        if not 1 <= self.s_star <= self.d:
            raise InputError(f"s_star must lie in 1..{self.d}, got {self.s_star}")
        if self.noise_sd < 0.0:
            raise InputError(f"noise_sd must be nonnegative, got {self.noise_sd}")
        if not 0.0 <= self.toeplitz_rho < 1.0:
            raise InputError(f"toeplitz_rho must lie in [0, 1), got {self.toeplitz_rho}")
        if not (isinstance(self.seed, (int, np.integer)) and 0 <= self.seed < 2 ** 64):
            raise InputError("seed must be an integer in [0, 2^64)")
        if self.trials < 1:
            raise InputError(f"trials must be >= 1, got {self.trials}")

    @property
    def effective_sample(self) -> float:
        return float(np.sqrt(self.s_star * np.log(self.d) / self.n))

    def lambda_rule(self, scale: float = LAMBDA_SCALE) -> float:
        """:func:`rate_rule` at this setting's sigma, n and d."""
        return rate_rule(scale, self.noise_sd, self.n, self.d)

    def rho_rule(self, scale: float = RHO_SCALE) -> float:
        """:func:`rate_rule` at this setting's sigma, n and d."""
        return rate_rule(scale, self.noise_sd, self.n, self.d)


def _stream_rng(seed: int, trial: int, stream: int) -> np.random.Generator:
    ss = np.random.SeedSequence([int(seed), int(trial), int(stream)])
    return np.random.Generator(np.random.Philox(ss))


def toeplitz_covariance(d: int, rho: float) -> np.ndarray:
    """The d x d matrix with entries rho^|j-k|."""
    idx = np.arange(d)
    return rho ** np.abs(idx[:, None] - idx[None, :])


def sample_design(n: int, d: int, toeplitz_rho: float, rng: np.random.Generator) -> np.ndarray:
    """Draw n rows of N(0, Sigma), Sigma_jk = toeplitz_rho^|j-k|.

    Sigma is the covariance of a stationary AR(1) sequence, so each row is
    built from standard normal draws z as x_1 = z_1 and
    x_j = rho x_{j-1} + sqrt(1 - rho^2) z_j, in O(nd).
    """
    if not 0.0 <= toeplitz_rho < 1.0:
        raise InputError(f"toeplitz_rho must lie in [0, 1), got {toeplitz_rho}")
    X = rng.standard_normal((n, d))
    X[:, 1:] *= np.sqrt(1.0 - toeplitz_rho * toeplitz_rho)
    for j in range(1, d):
        X[:, j] += toeplitz_rho * X[:, j - 1]
    return X


def make_beta_star(d: int, s_star: int, beta_mode: BetaMode, rng: np.random.Generator) -> SparsityGroundTruth:
    """Ground-truth vector: first s_star entries per beta_mode, zeros after."""
    if not 0 <= s_star <= d:
        raise InputError(f"s_star must lie in 0..{d}, got {s_star}")
    beta = np.zeros(d)
    if isinstance(beta_mode, UniformBeta):
        beta[:s_star] = rng.uniform(beta_mode.lo, beta_mode.hi, size=s_star)
    elif isinstance(beta_mode, ConstantBeta):
        beta[:s_star] = beta_mode.mu
    else:
        raise InputError(f"unknown beta_mode {beta_mode!r}")
    return SparsityGroundTruth(beta_star=beta, support_size=int(np.count_nonzero(beta)))


def generate(config: SimConfig, trial: int):
    """Build the dataset and ground truth for one trial, reproducibly.

    Returns ``(Dataset, SparsityGroundTruth)``. The same (config.seed, trial)
    pair always yields bitwise identical output.
    """
    link = builtin_link(config.link_name)
    X = sample_design(
        config.n, config.d, config.toeplitz_rho, _stream_rng(config.seed, trial, _STREAM_DESIGN)
    )
    truth = make_beta_star(
        config.d, config.s_star, config.beta_mode, _stream_rng(config.seed, trial, _STREAM_BETA)
    )
    noise = _stream_rng(config.seed, trial, _STREAM_NOISE).standard_normal(config.n)
    y = link.eval(X @ truth.beta_star) + config.noise_sd * noise
    X.flags.writeable = False  # the Dataset then holds X itself, not a copy
    return Dataset(design=X, response=y), truth


def default_threads() -> int:
    """Worker count for trial parallelism: NLSPARSE_THREADS, or the number of
    CPUs this process may run on (the CPU count where that is unknown)."""
    env = os.environ.get(THREADS_ENV_VAR)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise InputError(f"{THREADS_ENV_VAR} must be an integer, got {env!r}") from None
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return os.cpu_count() or 1


@lru_cache(maxsize=None)
def _openblas():
    """The (get, set) thread-count functions of numpy's bundled OpenBLAS, or
    None when no such library is found. Looked up once per process."""
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*")):
        try:
            lib = ctypes.CDLL(path)
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


def _set_blas_threads(count: int) -> Optional[int]:
    """Set numpy's bundled OpenBLAS to ``count`` threads; return the previous count.

    Returns None and changes nothing when no OpenBLAS handle is found (other
    BLAS builds), which then run with their own thread count. A count that
    already holds is not set again: each set restarts OpenBLAS's helper
    threads in a forked process, where they busy-wait before they sleep.
    """
    handle = _openblas()
    if handle is None:
        return None
    get, set_ = handle
    previous = int(get())
    if previous != int(count):
        set_(int(count))
    return previous


# Wall time a pool must save before one is started. Importing
# concurrent.futures and starting, feeding and stopping a 2-worker pool took
# 40-50 ms in a process that had loaded nlsparse, and two busy processes ran
# trials 1.3-1.5x, not 2x, as fast as one. Fresh `simulate --experiment table
# --d 512` commands broke even between 1 and 2 workers at about 0.2 s of
# serial trial time, where 2 workers would save 0.1 s (2-core x86-64 VM,
# numpy 2.4 with its bundled OpenBLAS).
_POOL_START_S = 0.1


def _job_cells(job) -> int:
    """n * d of a trial job whose first item is its SimConfig; 1 for any other job."""
    config = job[0] if isinstance(job, tuple) else None
    return config.n * config.d if isinstance(config, SimConfig) else 1


def _pool_pays(seconds, cells_done, cells_left, workers) -> bool:
    """Whether ``workers`` processes would save more than ``_POOL_START_S`` on
    the jobs left, priced at the measured ``seconds`` per ``cells_done``."""
    return seconds / cells_done * cells_left * (1.0 - 1.0 / workers) > _POOL_START_S


def _map_trials(worker, jobs, threads):
    """``[worker(job) for job in jobs]``, in order, on up to ``threads`` processes.

    The jobs run in this process, timed, until the measured time per design
    cell (:func:`_job_cells`) projects that a pool would save more than it costs
    to start (:func:`_pool_pays`); the jobs left then go to a pool of up to
    ``threads`` workers. One thread, one job left, or a cheap experiment keeps
    every job in this process. Every trial runs with one BLAS thread, in the
    pool and in this process alike: the BLAS thread count changes the last
    bits of matrix products, so pinning it keeps results independent of the
    worker count, of where the pool takes over and of the machine's BLAS
    default, and it keeps workers x BLAS threads from oversubscribing the
    cores. The pin is set here before the pool starts, so forked workers
    inherit it; the initializer sets it in spawned ones.
    """
    threads = default_threads() if threads is None else max(1, int(threads))
    cells = [_job_cells(job) for job in jobs]
    cells_left = sum(cells)
    cells_done, seconds, results = 0, 0.0, []
    # numpy imports numpy.random on first use (about 20 ms): import it before
    # the clock starts, so that the first trial's time prices only the trial
    import numpy.random  # noqa: F401
    previous = _set_blas_threads(1)
    try:
        for index, job in enumerate(jobs):
            workers = min(threads, len(jobs) - index)
            if workers > 1 and cells_done and _pool_pays(seconds, cells_done, cells_left, workers):
                from concurrent.futures import ProcessPoolExecutor

                chunksize = max(1, (len(jobs) - index) // (4 * workers))
                with ProcessPoolExecutor(max_workers=workers, initializer=_set_blas_threads,
                                         initargs=(1,)) as pool:
                    return results + list(pool.map(worker, jobs[index:], chunksize=chunksize))
            started = time.perf_counter()
            results.append(worker(job))
            seconds += time.perf_counter() - started
            cells_done += cells[index]
            cells_left -= cells[index]
        return results
    finally:
        if previous is not None:
            _set_blas_threads(previous)


# ---------------------------------------------------------------------------
# Estimation-error sweep


@dataclass(frozen=True)
class SweepRow:
    d: int
    s_star: int
    n: int
    effective_sample: float
    mean_l2: float
    sd_l2: float
    mean_l1: float
    sd_l1: float
    trials: int
    failures: int


def _errors(estimate, truth):
    err = estimate - truth.beta_star
    return float(np.linalg.norm(err)), float(np.abs(err).sum())


def _sweep_trial(job):
    """The (l2, l1) error pair of one trial's fit, or the failure message."""
    config, trial, fit_config = job
    data, truth = generate(config, trial)
    try:
        result = fit(builtin_link(config.link_name), data, fit_config)
    except NlsparseError as exc:
        return str(exc)
    return _errors(result.beta_hat, truth)


def _mean_sd(values):
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return np.nan, np.nan
    mean = float(values.mean())
    sd = float(values.std(ddof=1)) if values.size > 1 else 0.0
    return mean, sd


def run_estimation_sweep(configs: Sequence[SimConfig], lambda_scale: float = LAMBDA_SCALE,
                         lam: Optional[float] = None, threads: Optional[int] = None):
    """Fit every trial of every config; summarize l2/l1 errors per grid point.

    ``lam`` overrides the default rule lambda = lambda_scale * sigma *
    sqrt(log d / n); an invalid value raises :class:`InputError` before any
    trial runs. Individual trial failures are counted, not fatal.
    """
    jobs = []
    for config in configs:
        fit_config = FitConfig(lam=lam if lam is not None else config.lambda_rule(lambda_scale))
        jobs += [(config, trial, fit_config) for trial in range(config.trials)]
    results = iter(_map_trials(_sweep_trial, jobs, threads))
    rows = []
    for config in configs:
        records = list(islice(results, config.trials))
        good = [r for r in records if not isinstance(r, str)]
        l2, l1 = zip(*good) if good else ((), ())
        mean_l2, sd_l2 = _mean_sd(l2)
        mean_l1, sd_l1 = _mean_sd(l1)
        rows.append(SweepRow(
            d=config.d,
            s_star=config.s_star,
            n=config.n,
            effective_sample=config.effective_sample,
            mean_l2=mean_l2,
            sd_l2=sd_l2,
            mean_l1=mean_l1,
            sd_l1=sd_l1,
            trials=config.trials,
            failures=len(records) - len(good),
        ))
    return rows


# ---------------------------------------------------------------------------
# Comparison against the inverted-data linear baseline


@dataclass(frozen=True)
class BaselineRow:
    d: int
    s_star: int
    n: int
    effective_sample: float
    mean_l2: float
    sd_l2: float
    mean_l1: float
    sd_l1: float
    base_mean_l2: float
    base_sd_l2: float
    base_mean_l1: float
    base_sd_l1: float
    trials: int
    failures: int


def _cv_lasso(data: Dataset, folds: int, grid_size: int):
    """The lasso estimate at a lambda picked by k-fold cross-validation.

    The grid is ``grid_size`` log-spaced values spanning
    [1e-4, 1] * sd(z) * sqrt(log d / n), from the largest down. On each
    training fold one walk of the exact lasso path
    (:func:`nlsparse.solver._lasso_path`) gives the solution at every grid
    point, each certified by its KKT residual; the held-out mean squared
    error is summed over folds. Folds are contiguous index blocks, which keeps
    the selection deterministic. The returned estimate comes from one more
    walk of the path, on the full data down to the selected lambda, so it is
    the exact, KKT-certified lasso solution there.
    """
    n, d = data.design.shape
    base = max(float(np.std(data.response, ddof=1)), 1e-8) * np.sqrt(np.log(d) / n)
    grid = np.geomspace(base, 1e-4 * base, grid_size)
    fold_idx = np.array_split(np.arange(n), folds)

    cv_mse = np.zeros(grid_size)
    for val_rows in fold_idx:
        mask = np.ones(n, dtype=bool)
        mask[val_rows] = False
        path = _lasso_path(data.design[mask], data.response[mask], grid)
        pred_err = data.response[val_rows, None] - data.design[val_rows] @ path.T
        cv_mse += np.sum(pred_err * pred_err, axis=0) / val_rows.size
    best = int(np.argmin(cv_mse))  # ties resolve to the strongest penalty
    return _lasso_path(data.design, data.response, grid[:best + 1])[best], float(grid[best])


def _baseline_trial(job):
    config, trial, fit_config, folds, grid_size = job
    data, truth = generate(config, trial)
    link = builtin_link(config.link_name)
    try:
        proposed = fit(link, data, fit_config).beta_hat
        inverted = Dataset(design=data.design, response=invert_link(link, data.response))
        baseline, _ = _cv_lasso(inverted, folds, grid_size)
    except NlsparseError as exc:
        return trial, None, None, str(exc)
    return trial, _errors(proposed, truth), _errors(baseline, truth), None


def run_baseline_comparison(configs: Sequence[SimConfig], lambda_scale: float = LAMBDA_SCALE,
                            cv_folds: int = 5, cv_grid_size: int = 30,
                            threads: Optional[int] = None):
    """Paired comparison: nonlinear fit vs Lasso on inverted responses.

    The baseline transforms each response through the link inverse and
    takes the exact lasso solution at a cross-validated lambda. Trials
    where either side fails are excluded from both means (pairing preserved)
    and counted in ``failures``. Raises :class:`InputError`, before any
    trial runs, unless ``2 <= cv_folds <= n`` at every config and
    ``cv_grid_size >= 1``.
    """
    if cv_grid_size < 1:
        raise InputError(f"cv_grid_size must be >= 1, got {cv_grid_size}")
    jobs = []
    for config in configs:
        if not 2 <= cv_folds <= config.n:
            raise InputError(f"cross-validation needs 2 <= cv_folds <= n, "
                             f"got cv_folds={cv_folds} at n={config.n}")
        fit_config = FitConfig(lam=config.lambda_rule(lambda_scale))
        jobs += [(config, t, fit_config, cv_folds, cv_grid_size) for t in range(config.trials)]
    results = iter(_map_trials(_baseline_trial, jobs, threads))
    rows = []
    for config in configs:
        outcomes = list(islice(results, config.trials))
        good = [(p, b) for (_, p, b, failure) in outcomes if failure is None]
        p_l2, p_l1 = zip(*[p for p, _ in good]) if good else ((), ())
        b_l2, b_l1 = zip(*[b for _, b in good]) if good else ((), ())
        mean_l2, sd_l2 = _mean_sd(p_l2)
        mean_l1, sd_l1 = _mean_sd(p_l1)
        base_mean_l2, base_sd_l2 = _mean_sd(b_l2)
        base_mean_l1, base_sd_l1 = _mean_sd(b_l1)
        rows.append(BaselineRow(
            d=config.d,
            s_star=config.s_star,
            n=config.n,
            effective_sample=config.effective_sample,
            mean_l2=mean_l2,
            sd_l2=sd_l2,
            mean_l1=mean_l1,
            sd_l1=sd_l1,
            base_mean_l2=base_mean_l2,
            base_sd_l2=base_sd_l2,
            base_mean_l1=base_mean_l1,
            base_sd_l1=base_sd_l1,
            trials=config.trials,
            failures=len(outcomes) - len(good),
        ))
    return rows


# ---------------------------------------------------------------------------
# Inference calibration table


@dataclass(frozen=True)
class TrialInference:
    """Test outcomes for one coordinate in one trial (None when it failed)."""

    coordinate: int
    score_reject: Optional[bool]
    wald_reject: Optional[bool]
    ci_low: float = np.nan
    ci_high: float = np.nan
    failure: Optional[str] = None


@dataclass(frozen=True)
class InferenceRow:
    mu: float
    score_type1: float
    score_power: float
    wald_type1: float
    wald_power: float
    trials: int
    excluded: int


def _inference_trial(job):
    config, trial, fit_config, tests = job
    data, _truth = generate(config, trial)
    link = builtin_link(config.link_name)
    try:
        fit_result = fit(link, data, fit_config)
    except NlsparseError as exc:
        failed = str(exc)
        return trial, [
            TrialInference(coordinate=cfg.coordinate, score_reject=None, wald_reject=None,
                           failure=failed)
            for cfg in tests
        ]

    out = []
    for cfg in tests:
        failure = None
        score_reject = wald_reject = None
        ci_low = ci_high = np.nan
        try:
            results = _score_and_wald(link, data, fit_result, cfg)
            score_reject = next(results).reject
            wald = next(results)
            wald_reject = wald.reject
            ci_low, ci_high = wald.ci_low, wald.ci_high
        except NlsparseError as exc:
            failure = str(exc)
        out.append(TrialInference(
            coordinate=cfg.coordinate,
            score_reject=score_reject,
            wald_reject=wald_reject,
            ci_low=ci_low,
            ci_high=ci_high,
            failure=failure,
        ))
    return trial, out


def _inference_jobs(config, coordinates, lambda_scale, rho_scale, significance):
    fit_config = FitConfig(lam=config.lambda_rule(lambda_scale))
    rho = config.rho_rule(rho_scale)
    tests = []
    for j in map(int, coordinates):
        if not 1 <= j <= config.d:
            raise InputError(f"coordinate {j} outside 1..{config.d}")
        tests.append(InferenceConfig(coordinate=j, rho=rho, significance=significance))
    return [(config, t, fit_config, tuple(tests)) for t in range(config.trials)]


def run_inference_trials(config: SimConfig, coordinates: Sequence[int],
                         lambda_scale: float = LAMBDA_SCALE, rho_scale: float = RHO_SCALE,
                         significance: float = InferenceConfig.significance,
                         threads: Optional[int] = None):
    """Fit + test every trial of one config at the given coordinates.

    Returns ``[(trial_index, [TrialInference, ...]), ...]`` ordered by trial.
    :func:`run_inference_table` runs these trials for every mu at once; use
    this directly when per-trial detail (e.g. CI coverage) is needed.
    """
    jobs = _inference_jobs(config, coordinates, lambda_scale, rho_scale, significance)
    return _map_trials(_inference_trial, jobs, threads)


def _rejection_rate(outcomes, coordinate, which):
    flags = [
        getattr(o, which)
        for _, per_trial in outcomes
        for o in per_trial
        if o.coordinate == coordinate and getattr(o, which) is not None
    ]
    return float(np.mean(flags)) if flags else np.nan


def run_inference_table(config: SimConfig, mu_grid: Optional[Sequence[float]] = None,
                        type1_coordinate: Optional[int] = None, power_coordinate: int = 1,
                        lambda_scale: float = LAMBDA_SCALE, rho_scale: float = RHO_SCALE,
                        significance: float = InferenceConfig.significance,
                        threads: Optional[int] = None):
    """Type-I error and power of both tests across signal strengths mu.

    For each mu the nonzero coefficients are set to the constant mu, the
    null coordinate (default s_star + 1, outside the support) measures the
    type-I error, and the power coordinate (default 1, inside the support)
    measures power as the rejection frequency under the false null. Trials
    where any requested test failed are reported in ``excluded``; rates are
    computed over the trials where the specific test succeeded. ``mu_grid``
    None means 0, 0.05, ..., 0.5; an empty grid raises :class:`InputError`
    before any trial runs.
    """
    if mu_grid is None:
        mu_grid = [round(0.05 * k, 2) for k in range(11)]
    if len(mu_grid) == 0:
        raise InputError("mu_grid must hold at least one value")
    if type1_coordinate is None:
        type1_coordinate = config.s_star + 1
    coordinates = (type1_coordinate, power_coordinate)

    jobs = []
    for mu in mu_grid:
        cfg = replace(config, beta_mode=ConstantBeta(mu=float(mu)))
        jobs += _inference_jobs(cfg, coordinates, lambda_scale, rho_scale, significance)
    results = iter(_map_trials(_inference_trial, jobs, threads))
    rows = []
    for mu in mu_grid:
        outcomes = list(islice(results, config.trials))
        excluded = sum(
            1 for _, per_trial in outcomes if any(o.failure is not None for o in per_trial)
        )
        rows.append(InferenceRow(
            mu=float(mu),
            score_type1=_rejection_rate(outcomes, type1_coordinate, "score_reject"),
            score_power=_rejection_rate(outcomes, power_coordinate, "score_reject"),
            wald_type1=_rejection_rate(outcomes, type1_coordinate, "wald_reject"),
            wald_power=_rejection_rate(outcomes, power_coordinate, "wald_reject"),
            trials=config.trials,
            excluded=excluded,
        ))
    return rows


# ---------------------------------------------------------------------------
# CSV rendering (floats use 6 significant digits)


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.6g}"


def _csv_text(rows, row_type) -> str:
    names = [field.name for field in fields(row_type)]
    lines = [",".join(names)]
    for row in rows:
        lines.append(",".join(_fmt(getattr(row, name)) for name in names))
    return "\n".join(lines) + "\n"


def sweep_csv_text(rows: Sequence[SweepRow]) -> str:
    return _csv_text(rows, SweepRow)


def baseline_csv_text(rows: Sequence[BaselineRow]) -> str:
    return _csv_text(rows, BaselineRow)


def inference_csv_text(rows: Sequence[InferenceRow]) -> str:
    return _csv_text(rows, InferenceRow)
