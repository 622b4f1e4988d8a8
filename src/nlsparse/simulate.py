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

The estimation sweep and the baseline draw a trial once, at the largest n of
the configs that differ only in n, and give each smaller n the first n rows
of its design, with their response: the data :func:`generate` draws at that
n. They fit a trial's sizes by increasing n, each from the previous size's
estimate, which saves solver steps; a size's estimate then depends, within
the solver tolerance, on the other sizes in its grid.

Trials run on up to ``threads`` processes (:func:`_map_trials`). One trial,
one thread, or a system without ``os.fork`` runs them all in the calling
process. Otherwise the caller pins one BLAS thread, writes every trial's
index into one pipe and forks the other processes at once. Then each
process, the caller included, takes the next index from the pipe until it is
empty, so no process waits while trials are left. Past PIPE_BUF / 4 trials
(1,024 on Linux) an index stands for a block of consecutive trials, so the
pipe holds them all before the fork. A child sends its (index, result)
pairs back pickled through its own pipe, and ends by ``os._exit``; results
are put back in trial order. If a trial raises, in the caller or in a child,
or the caller is interrupted, every child is killed and reaped before the
exception propagates with its own type (a RuntimeError when a child's
exception cannot be pickled). A child whose caller is gone runs no more
trials. Before the fork the caller loads ``numpy.random``, and for inference
``statistics``, which trials load on first use, so that no process loads
them again.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace
from functools import lru_cache
from itertools import islice
from typing import Optional, Sequence

import numpy as np

from .errors import InputError, NlsparseError
from .model import Dataset, FitConfig, builtin_link, invert_link
# score_test and wald_estimate are unused here, but perfbench/spans.py times them (ROADMAP item 5).
from .inference import (  # noqa: F401
    InferenceConfig, _check_coordinate, _Point, score_test, wald_estimate)
from .solver import _lasso_path, fit

__all__ = [
    "UniformBeta",
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
    "csv_text",
    "default_threads",
]

_STREAM_DESIGN = 0
_STREAM_BETA = 1
_STREAM_NOISE = 2

# Default constants C of the lambda and rho rules (see rate_rule).
LAMBDA_SCALE = 3.0
RHO_SCALE = 0.25

# The baseline's CV folds and lambda grid size; the table's power coordinate (1-based).
CV_FOLDS = 5
CV_GRID_SIZE = 30
POWER_COORDINATE = 1

# Floor for rule-derived regularization where the rule gives 0 (sigma = 0 or d = 1).
_NOISELESS_LAMBDA = 1e-4


def rate_rule(scale: float, sigma: float, n: int, d: int) -> float:
    """scale * sigma * sqrt(log d / n), the lambda rule at scale LAMBDA_SCALE and the rho
    rule at RHO_SCALE; 1e-4 where that is 0: at sigma = 0, and at d = 1 for any sigma."""
    if not (scale > 0.0 and sigma >= 0.0):
        raise InputError(f"rule needs scale > 0 and sigma >= 0, got {scale} and {sigma}")
    value = scale * sigma * np.sqrt(np.log(d) / n)
    return float(value) if value > 0.0 else _NOISELESS_LAMBDA


@dataclass(frozen=True)
class UniformBeta:
    """Nonzero coefficients drawn i.i.d. uniform on [lo, hi]; with lo == hi
    every one equals lo."""

    lo: float = 0.0
    hi: float = 2.0

    def __post_init__(self):
        if not (np.isfinite(self.lo) and np.isfinite(self.hi) and self.lo <= self.hi):
            raise InputError(f"UniformBeta needs finite lo <= hi, got lo={self.lo}, hi={self.hi}")


@dataclass(frozen=True)
class SimConfig:
    """One synthetic-data setting: dimensions, link, noise, design, seeding."""

    n: int
    d: int
    s_star: int
    link_name: str = "paper"
    noise_sd: float = 1.0
    toeplitz_rho: float = 0.95
    beta_mode: UniformBeta = UniformBeta(0.0, 2.0)
    seed: int = 0
    trials: int = 1

    def __post_init__(self):
        for name in ("n", "d", "s_star", "trials", "seed"):
            if not isinstance(getattr(self, name), (int, np.integer)):
                raise InputError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.n < 1 or self.d < 1:
            raise InputError(f"n and d must be >= 1, got n={self.n}, d={self.d}")
        if not isinstance(self.beta_mode, UniformBeta):
            raise InputError(f"beta_mode must be a UniformBeta, got {self.beta_mode!r}")
        if not 1 <= self.s_star <= self.d:
            raise InputError(f"s_star must lie in 1..{self.d}, got {self.s_star}")
        if not (np.isfinite(self.noise_sd) and self.noise_sd >= 0.0):
            raise InputError(f"noise_sd must be finite and nonnegative, got {self.noise_sd}")
        if not 0.0 <= self.toeplitz_rho < 1.0:
            raise InputError(f"toeplitz_rho must lie in [0, 1), got {self.toeplitz_rho}")
        if not 0 <= self.seed < 2 ** 64:
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


def _stream_rng(*key: int) -> np.random.Generator:
    """The Philox generator of (seed, trial, stream), or of (seed,) for ``check``."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(list(map(int, key)))))


def toeplitz_covariance(d: int, rho: float) -> np.ndarray:
    """The d x d matrix with entries rho^|j-k|, for rho in [0, 1)."""
    if not 0.0 <= rho < 1.0:
        raise InputError(f"toeplitz_rho must lie in [0, 1), got {rho}")
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


def make_beta_star(d: int, s_star: int, beta_mode: UniformBeta, rng: np.random.Generator) -> np.ndarray:
    """The read-only true coefficients: the first s_star per beta_mode, zeros after."""
    if not 0 <= s_star <= d:
        raise InputError(f"s_star must lie in 0..{d}, got {s_star}")
    beta = np.zeros(d)
    beta[:s_star] = rng.uniform(beta_mode.lo, beta_mode.hi, size=s_star)
    beta.flags.writeable = False
    return beta


def generate(config: SimConfig, trial: int):
    """Build the dataset and true coefficient vector for one trial, reproducibly.

    Returns ``(Dataset, beta_star)``. The same (config.seed, trial) pair
    always yields bitwise identical output.
    """
    X = sample_design(
        config.n, config.d, config.toeplitz_rho, _stream_rng(config.seed, trial, _STREAM_DESIGN)
    )
    beta_star = make_beta_star(
        config.d, config.s_star, config.beta_mode, _stream_rng(config.seed, trial, _STREAM_BETA)
    )
    X.flags.writeable = False  # the Dataset then holds X itself, not a copy
    return _dataset(config, trial, X, beta_star), beta_star


def _dataset(config: SimConfig, trial: int, X: np.ndarray, beta_star: np.ndarray) -> Dataset:
    """The Dataset of design X with response y = f(X beta*) + sigma * z, z the
    first n draws of the trial's noise stream."""
    noise = _stream_rng(config.seed, trial, _STREAM_NOISE).standard_normal(config.n)
    y = builtin_link(config.link_name).eval(X @ beta_star) + config.noise_sd * noise
    return Dataset(design=X, response=y)


def default_threads() -> int:
    """Worker count for trial parallelism: the number of CPUs this process may
    run on (the CPU count where that is unknown)."""
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


def _map_trials(worker, jobs, threads):
    """``[worker(job) for job in jobs]`` on up to ``threads`` processes (see the module doc)."""
    threads = default_threads() if threads is None else threads
    if threads < 1:
        raise InputError(f"threads must be >= 1, got {threads}")
    if not jobs:
        return []
    forks = min(threads, len(jobs)) - 1 if hasattr(os, "fork") else 0
    previous, children, results, queue, parent = _set_blas_threads(1), {}, {}, None, os.getpid()
    try:
        if not forks:
            return [worker(job) for job in jobs]
        import contextlib, pickle, select, signal, numpy.random  # noqa: E401,F401
        step = -(-len(jobs) // (select.PIPE_BUF // 4))  # jobs per index: the pipe holds them all
        queue, feed = os.pipe()
        os.write(feed, np.arange(0, len(jobs), step, dtype="<u4").tobytes())
        os.close(feed)

        def claimed():
            while block := os.read(queue, 4):
                yield from islice(range(int.from_bytes(block, "little"), len(jobs)), step)

        def receive(out):  # the results of a child that is done, or the exception of its job
            data = b"".join(iter(lambda: os.read(out, 1 << 16), b""))
            _, status = os.waitpid(children.pop(out), 0)
            os.close(out)
            value = pickle.loads(data) if status == 0 else RuntimeError(
                f"a worker process exited with {os.waitstatus_to_exitcode(status)}")
            if isinstance(value, BaseException):
                raise value
            results.update(value)
        for _ in range(forks):
            out, sink = os.pipe()
            children[out] = pid = os.fork()
            if pid == 0:
                try:  # a child whose parent is gone runs no more jobs
                    try:
                        payload = pickle.dumps(
                            [(k, worker(jobs[k])) for k in claimed() if os.getppid() == parent])
                    except BaseException as exc:
                        payload = pickle.dumps(RuntimeError(
                            f"a worker process raised {exc!r}, which cannot be pickled"))
                        with contextlib.suppress(Exception):
                            payload = pickle.dumps(pickle.loads(pickle.dumps(exc)))
                    with open(sink, "wb") as fh:
                        fh.write(payload)
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(sink)
        for index in claimed():
            results[index] = worker(jobs[index])
            for out in select.select(list(children), [], [], 0)[0]:
                receive(out)
        while children:
            receive(select.select(list(children), [], [])[0][0])
        return [results[k] for k in range(len(jobs))]
    finally:
        for out, pid in children.items():  # left only when something raised
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(out)
        if queue is not None:
            os.close(queue)
        if previous is not None:
            _set_blas_threads(previous)


# ---------------------------------------------------------------------------
# Estimation error: the rate sweep and the comparison against the
# inverted-data linear baseline


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


def _errors(estimate, beta_star):
    err = estimate - beta_star
    return float(np.linalg.norm(err)), float(np.abs(err).sum())


def _cv_lasso(data: Dataset):
    """The lasso estimate at a lambda picked by CV_FOLDS-fold cross-validation.

    The grid is CV_GRID_SIZE log-spaced values spanning [1e-4, 1] times
    :func:`rate_rule` at C = 1 and sigma = sd(z) (floored at 1e-8), from the
    largest down; so its top is 1e-4 at d = 1. On each training fold, with
    X'X and X'z less the held-out block's, one walk of the exact lasso path
    (:func:`nlsparse.solver._lasso_path`) gives the KKT-certified solution at
    every grid point; the held-out mean squared error is summed over folds.
    Folds are contiguous index blocks, which keeps the selection deterministic.
    One more walk, on the full data down to the selected lambda, gives the
    returned estimate, the exact lasso solution there.
    """
    n, d = data.design.shape
    base = rate_rule(1.0, max(float(np.std(data.response, ddof=1)), 1e-8), n, d)
    grid = np.geomspace(base, 1e-4 * base, CV_GRID_SIZE)
    gram, corr = data.design.T @ data.design, data.design.T @ data.response

    cv_mse = np.zeros(CV_GRID_SIZE)
    for val in np.array_split(np.arange(n), CV_FOLDS):
        X_v, z_v, n_t = data.design[val], data.response[val], n - val.size
        path = _lasso_path((gram - X_v.T @ X_v) / n_t, (corr - X_v.T @ z_v) / n_t, grid)
        pred_err = z_v[:, None] - X_v @ path.T
        cv_mse += np.sum(pred_err * pred_err, axis=0) / val.size
    best = int(np.argmin(cv_mse))  # ties resolve to the strongest penalty
    return _lasso_path(gram / n, corr / n, grid[:best + 1])[best], float(grid[best])


def _estimation_trial(job):
    """One trial at every size of a group of configs that differ only in n
    (``sizes``, by increasing n, each fitted at its entry of ``fit_configs``):
    per size, the (l2, l1) errors of the fit, followed by those of the lasso
    on link-inverted responses when ``baseline`` is set; or
    the first failure's message.

    The trial is drawn once, at the largest n. A smaller size takes the first
    n rows of that design, which are the design :func:`generate` draws at
    that n (its stream fills rows in order), and computes their response as
    generate does. The response is not sliced: at n = 1 numpy's product takes
    another kernel, whose last bit can differ. The first size is fitted from
    zero, each later one from the estimate of the last size whose fit
    returned. The baseline inverts and cross-validates each size's own rows.
    """
    sizes, trial, fit_configs, baseline = job
    data, beta_star = generate(sizes[-1], trial)
    link = builtin_link(sizes[-1].link_name)
    init, out = None, []
    for config, fit_config in zip(sizes, fit_configs):
        sample = data if config.n == data.n else _dataset(
            config, trial, data.design[:config.n], beta_star)
        try:
            beta_hat = fit(link, sample, replace(fit_config, init=init)).beta_hat
            init, estimates = beta_hat, [beta_hat]
            if baseline:
                inverted = Dataset(design=sample.design,
                                   response=invert_link(link, sample.response))
                estimates.append(_cv_lasso(inverted)[0])
        except NlsparseError as exc:
            out.append(str(exc))
            continue
        out.append([_errors(estimate, beta_star) for estimate in estimates])
    return out


def _mean_sd(values):
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return np.nan, np.nan
    mean = float(values.mean())
    sd = float(values.std(ddof=1)) if values.size > 1 else 0.0
    return mean, sd


def _estimation_rows(configs, lambda_scale, baseline, threads):
    """One row per config, in the caller's order: mean and sd of each
    estimator's errors over the trials where nothing failed (the baseline's
    under ``base_`` when ``baseline`` is set), and the count of the others in
    ``failures``. Configs that differ only in n share one job per trial
    (:func:`_estimation_trial`); a size listed twice is fitted once."""
    if len(configs) == 0:
        raise InputError("configs must hold at least one SimConfig")
    groups = {}  # the distinct configs that differ only in n, by increasing n
    for config in sorted(dict.fromkeys(configs), key=lambda config: config.n):
        groups.setdefault(replace(config, n=1), []).append(config)
    jobs = []
    for key, sizes in groups.items():
        # each size's lambda is checked here, before any trial runs
        fit_configs = tuple(FitConfig(lam=config.lambda_rule(lambda_scale)) for config in sizes)
        jobs += [(tuple(sizes), trial, fit_configs, baseline) for trial in range(key.trials)]
    results = iter(_map_trials(_estimation_trial, jobs, threads))
    records = {}  # config -> its result in every trial
    for key, sizes in groups.items():
        per_trial = list(islice(results, key.trials))
        for k, config in enumerate(sizes):
            records[config] = [out[k] for out in per_trial]
    row_type, prefixes = (BaselineRow, ("", "base_")) if baseline else (SweepRow, ("",))
    rows = []
    for config in configs:
        good = [r for r in records[config] if not isinstance(r, str)]
        columns = {}
        for side, prefix in enumerate(prefixes):
            for norm, name in enumerate(("l2", "l1")):
                columns[f"{prefix}mean_{name}"], columns[f"{prefix}sd_{name}"] = _mean_sd(
                    [errors[side][norm] for errors in good])
        rows.append(row_type(
            d=config.d,
            s_star=config.s_star,
            n=config.n,
            effective_sample=config.effective_sample,
            trials=config.trials,
            failures=config.trials - len(good),
            **columns,
        ))
    return rows


def run_estimation_sweep(configs: Sequence[SimConfig], lambda_scale: float = LAMBDA_SCALE,
                         threads: Optional[int] = None):
    """Fit every trial of every config at lambda = lambda_scale * sigma *
    sqrt(log d / n); summarize l2/l1 errors per grid point. Individual trial
    failures are counted, not fatal. Raises :class:`InputError` when
    ``configs`` is empty."""
    return _estimation_rows(configs, lambda_scale, False, threads)


def run_baseline_comparison(configs: Sequence[SimConfig], lambda_scale: float = LAMBDA_SCALE,
                            threads: Optional[int] = None):
    """Paired comparison: nonlinear fit vs Lasso on inverted responses.

    The baseline transforms each response through the link inverse and
    takes the exact lasso solution at a lambda picked by CV_FOLDS-fold
    cross-validation over CV_GRID_SIZE values. Trials where either side
    fails are excluded from both means (pairing preserved) and counted in
    ``failures``. Raises :class:`InputError`, before any trial runs, unless
    ``configs`` is not empty and n >= CV_FOLDS at every config.
    """
    for config in configs:
        if config.n < CV_FOLDS:
            raise InputError(f"{CV_FOLDS}-fold cross-validation needs n >= {CV_FOLDS}, "
                             f"got n={config.n}")
    return _estimation_rows(configs, lambda_scale, True, threads)


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
    """One mu of the calibration table.

    ``score_type1`` and ``wald_type1`` are rejection rates at the null
    coordinate s_star + 1, ``score_power`` and ``wald_power`` at
    POWER_COORDINATE, each over the trials where that test ran; ``excluded``
    counts the trials where any test failed. Each rate's ``_rejects`` and
    ``_tests`` columns are its numerator and denominator. At POWER_COORDINATE,
    ``wald_covers`` counts the Wald intervals that contain mu (the true
    coefficient there), ``wald_coverage`` is their share of
    ``wald_power_tests``, and ``wald_mean_length`` is the intervals' mean
    length. A rate or mean over no tests is nan.
    """

    mu: float
    score_type1: float
    score_power: float
    wald_type1: float
    wald_power: float
    trials: int
    excluded: int
    score_type1_rejects: int
    score_type1_tests: int
    score_power_rejects: int
    score_power_tests: int
    wald_type1_rejects: int
    wald_type1_tests: int
    wald_power_rejects: int
    wald_power_tests: int
    wald_covers: int
    wald_coverage: float
    wald_mean_length: float


def _inference_trial(job):
    """One trial's outcomes at each of ``tests``, all from one fitted point."""
    config, trial, fit_config, tests = job
    data, _ = generate(config, trial)
    link = builtin_link(config.link_name)
    try:
        fitted = _Point.fitted(link, data, fit(link, data, fit_config), tests)
    except NlsparseError as exc:
        return trial, [TrialInference(coordinate=cfg.coordinate, score_reject=None,
                                      wald_reject=None, failure=str(exc)) for cfg in tests]
    out = []
    for cfg in tests:
        outcome = TrialInference(coordinate=cfg.coordinate, score_reject=None, wald_reject=None)
        try:
            outcome = replace(outcome, score_reject=fitted.null_imposed(cfg).score(cfg).reject)
            wald = fitted.wald(cfg)
            outcome = replace(outcome, wald_reject=wald.reject, ci_low=wald.ci_low,
                              ci_high=wald.ci_high)
        except NlsparseError as exc:
            outcome = replace(outcome, failure=str(exc))
        out.append(outcome)
    return trial, out


def _inference_jobs(config, coordinates, lambda_scale, rho_scale):
    # the tests load statistics on first use (normal_quantile): load it here,
    # before _map_trials forks, so that no process loads it again
    import statistics  # noqa: F401

    fit_config = FitConfig(lam=config.lambda_rule(lambda_scale))
    rho = config.rho_rule(rho_scale)
    tests = tuple(InferenceConfig(coordinate=j, rho=rho) for j in map(int, coordinates))
    for test in tests:
        _check_coordinate(test, config.d)
    return [(config, t, fit_config, tests) for t in range(config.trials)]


def run_inference_trials(config: SimConfig, coordinates: Sequence[int],
                         lambda_scale: float = LAMBDA_SCALE, rho_scale: float = RHO_SCALE,
                         threads: Optional[int] = None):
    """Fit + test every trial of one config at the given coordinates, at
    :class:`InferenceConfig`'s level 0.05.

    Returns ``[(trial_index, [TrialInference, ...]), ...]`` ordered by trial.
    :func:`run_inference_table` runs these trials for every mu at once and
    counts their outcomes; use this directly when per-trial detail (e.g. each
    trial's interval) is needed.
    """
    jobs = _inference_jobs(config, coordinates, lambda_scale, rho_scale)
    return _map_trials(_inference_trial, jobs, threads)


def run_inference_table(config: SimConfig, mu_grid: Optional[Sequence[float]] = None,
                        lambda_scale: float = LAMBDA_SCALE, rho_scale: float = RHO_SCALE,
                        threads: Optional[int] = None):
    """Type-I error and power of both tests at level 0.05, and the Wald
    intervals' coverage and length, across signal strengths mu.

    For each mu the nonzero coefficients are set to the constant mu,
    coordinate s_star + 1 (outside the support) measures the type-I error,
    and POWER_COORDINATE (1, inside the support) measures power (the
    rejection frequency under the false null) and the Wald intervals'
    coverage of mu and length. Trials where any test failed are reported in
    ``excluded``; each rate is computed over the trials where its test ran,
    and each row carries the counts behind its rates (:class:`InferenceRow`).
    ``mu_grid`` None means 0, 0.05, ..., 0.5. Raises :class:`InputError`
    before any trial runs when the grid is empty or s_star == d (no null
    coordinate).
    """
    if mu_grid is None:
        mu_grid = [round(0.05 * k, 2) for k in range(11)]
    if len(mu_grid) == 0:
        raise InputError("mu_grid must hold at least one value")
    if (null := config.s_star + 1) > config.d:
        raise InputError(f"the table's null coordinate s_star + 1 = {null} needs s_star < d")

    jobs = []
    for mu in mu_grid:
        cfg = replace(config, beta_mode=UniformBeta(float(mu), float(mu)))
        jobs += _inference_jobs(cfg, (null, POWER_COORDINATE), lambda_scale, rho_scale)
    results = iter(_map_trials(_inference_trial, jobs, threads))
    rows = []
    for mu in map(float, mu_grid):
        per_trial = [per for _, per in islice(results, config.trials)]
        outcomes = [o for per in per_trial for o in per]
        columns = {}
        for test in ("score", "wald"):
            for name, coordinate in (("type1", null), ("power", POWER_COORDINATE)):
                flags = [flag for o in outcomes if o.coordinate == coordinate
                         and (flag := getattr(o, f"{test}_reject")) is not None]
                rejects, tests, rate = int(sum(flags)), len(flags), f"{test}_{name}"
                columns[rate] = rejects / tests if tests else np.nan
                columns[f"{rate}_rejects"], columns[f"{rate}_tests"] = rejects, tests
        intervals = [o for o in outcomes
                     if o.coordinate == POWER_COORDINATE and o.wald_reject is not None]
        covers = int(sum(o.ci_low <= mu <= o.ci_high for o in intervals))
        lengths = [o.ci_high - o.ci_low for o in intervals]
        rows.append(InferenceRow(
            mu=mu,
            trials=config.trials,
            excluded=sum(any(o.failure is not None for o in per) for per in per_trial),
            wald_covers=covers,
            wald_coverage=covers / len(intervals) if intervals else np.nan,
            wald_mean_length=float(np.mean(lengths)) if lengths else np.nan,
            **columns,
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


def csv_text(rows: Sequence, row_type: type) -> str:
    """The CSV document of ``rows``, one column per field of the dataclass
    ``row_type`` in declaration order, under a header of the field names."""
    names = [field.name for field in fields(row_type)]
    lines = [",".join(names)]
    for row in rows:
        lines.append(",".join(_fmt(getattr(row, name)) for name in names))
    return "\n".join(lines) + "\n"

