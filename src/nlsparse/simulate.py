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
from typing import Optional, Sequence, Union

import numpy as np

from .errors import InputError, NlsparseError
from .model import Dataset, FitConfig, SparsityGroundTruth, builtin_link, invert_link
# score_test and wald_estimate are unused here, but perfbench/spans.py times them (ROADMAP item 5).
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
    "csv_text",
    "default_threads",
]

_STREAM_DESIGN = 0
_STREAM_BETA = 1
_STREAM_NOISE = 2

# Default constants C of the lambda and rho rules (see rate_rule).
LAMBDA_SCALE = 3.0
RHO_SCALE = 0.25

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
    X = sample_design(
        config.n, config.d, config.toeplitz_rho, _stream_rng(config.seed, trial, _STREAM_DESIGN)
    )
    truth = make_beta_star(
        config.d, config.s_star, config.beta_mode, _stream_rng(config.seed, trial, _STREAM_BETA)
    )
    X.flags.writeable = False  # the Dataset then holds X itself, not a copy
    return _dataset(config, trial, X, truth.beta_star), truth


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


def _errors(estimate, truth):
    err = estimate - truth.beta_star
    return float(np.linalg.norm(err)), float(np.abs(err).sum())


def _cv_lasso(data: Dataset, folds: int, grid_size: int):
    """The lasso estimate at a lambda picked by k-fold cross-validation.

    The grid is ``grid_size`` log-spaced values spanning [1e-4, 1] *
    sd(z) * sqrt(log d / n), from the largest down. On each training fold, with
    X'X and X'z less the held-out block's, one walk of the exact lasso path
    (:func:`nlsparse.solver._lasso_path`) gives the KKT-certified solution at
    every grid point; the held-out mean squared error is summed over folds.
    Folds are contiguous index blocks, which keeps the selection deterministic.
    One more walk, on the full data down to the selected lambda, gives the
    returned estimate, the exact lasso solution there.
    """
    n, d = data.design.shape
    base = max(float(np.std(data.response, ddof=1)), 1e-8) * np.sqrt(np.log(d) / n)
    grid = np.geomspace(base, 1e-4 * base, grid_size)
    gram, corr = data.design.T @ data.design, data.design.T @ data.response

    cv_mse = np.zeros(grid_size)
    for val in np.array_split(np.arange(n), folds):
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
    on link-inverted responses when ``cv = (folds, grid_size)`` is set; or
    the first failure's message.

    The trial is drawn once, at the largest n. A smaller size takes the first
    n rows of that design, which are the design :func:`generate` draws at
    that n (its stream fills rows in order), and computes their response as
    generate does. The response is not sliced: at n = 1 numpy's product takes
    another kernel, whose last bit can differ. The first size is fitted from
    zero, each later one from the estimate of the last size whose fit
    returned. The baseline inverts and cross-validates each size's own rows.
    """
    sizes, trial, fit_configs, cv = job
    data, truth = generate(sizes[-1], trial)
    link = builtin_link(sizes[-1].link_name)
    init, out = None, []
    for config, fit_config in zip(sizes, fit_configs):
        sample = data if config.n == data.n else _dataset(
            config, trial, data.design[:config.n], truth.beta_star)
        try:
            beta_hat = fit(link, sample, replace(fit_config, init=init)).beta_hat
            init, estimates = beta_hat, [beta_hat]
            if cv is not None:
                inverted = Dataset(design=sample.design,
                                   response=invert_link(link, sample.response))
                estimates.append(_cv_lasso(inverted, *cv)[0])
        except NlsparseError as exc:
            out.append(str(exc))
            continue
        out.append([_errors(estimate, truth) for estimate in estimates])
    return out


def _mean_sd(values):
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return np.nan, np.nan
    mean = float(values.mean())
    sd = float(values.std(ddof=1)) if values.size > 1 else 0.0
    return mean, sd


def _estimation_rows(configs, lambda_scale, cv, threads):
    """One row per config, in the caller's order: mean and sd of each
    estimator's errors over the trials where nothing failed (the baseline's
    under ``base_`` when ``cv`` is set), and the count of the others in
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
        jobs += [(tuple(sizes), trial, fit_configs, cv) for trial in range(key.trials)]
    results = iter(_map_trials(_estimation_trial, jobs, threads))
    records = {}  # config -> its result in every trial
    for key, sizes in groups.items():
        per_trial = list(islice(results, key.trials))
        for k, config in enumerate(sizes):
            records[config] = [out[k] for out in per_trial]
    row_type, prefixes = (SweepRow, ("",)) if cv is None else (BaselineRow, ("", "base_"))
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
    return _estimation_rows(configs, lambda_scale, None, threads)


def run_baseline_comparison(configs: Sequence[SimConfig], lambda_scale: float = LAMBDA_SCALE,
                            cv_folds: int = 5, cv_grid_size: int = 30,
                            threads: Optional[int] = None):
    """Paired comparison: nonlinear fit vs Lasso on inverted responses.

    The baseline transforms each response through the link inverse and
    takes the exact lasso solution at a cross-validated lambda. Trials
    where either side fails are excluded from both means (pairing preserved)
    and counted in ``failures``. Raises :class:`InputError`, before any
    trial runs, unless ``configs`` is not empty, ``2 <= cv_folds <= n`` at
    every config and ``cv_grid_size >= 1``.
    """
    if cv_grid_size < 1:
        raise InputError(f"cv_grid_size must be >= 1, got {cv_grid_size}")
    for config in configs:
        if not 2 <= cv_folds <= config.n:
            raise InputError(f"cross-validation needs 2 <= cv_folds <= n, "
                             f"got cv_folds={cv_folds} at n={config.n}")
    return _estimation_rows(configs, lambda_scale, (cv_folds, cv_grid_size), threads)


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
    # the tests load statistics on first use (normal_quantile): load it here,
    # before _map_trials forks, so that no process loads it again
    import statistics  # noqa: F401

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


def csv_text(rows: Sequence, row_type: type) -> str:
    """The CSV document of ``rows``, one column per field of the dataclass
    ``row_type`` in declaration order, under a header of the field names."""
    names = [field.name for field in fields(row_type)]
    lines = [",".join(names)]
    for row in rows:
        lines.append(",".join(_fmt(getattr(row, name)) for name in names))
    return "\n".join(lines) + "\n"

