import os
import select
import time
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest

from nlsparse import (
    Dataset,
    FitConfig,
    InputError,
    NumericalError,
    builtin_link,
    fit,
    invert_link,
    kkt_residual,
)
from nlsparse.simulate import (
    BaselineRow,
    InferenceRow,
    SimConfig,
    SweepRow,
    UniformBeta,
    csv_text,
    generate,
    make_beta_star,
    rate_rule,
    run_baseline_comparison,
    run_estimation_sweep,
    run_inference_table,
    run_inference_trials,
    sample_design,
    toeplitz_covariance,
    _cv_lasso,
    _set_blas_threads,
    _stream_rng,
)
from nlsparse.solver import _lasso_path


class TestSampleDesign:
    def test_uncorrelated_sample_covariance_near_identity(self):
        rng = _stream_rng(1, 0, 0)
        X = sample_design(50_000, 8, 0.0, rng)
        cov = X.T @ X / X.shape[0]
        assert np.abs(cov - np.eye(8)).max() <= 0.05

    def test_unit_variances_and_first_lag(self):
        rng = _stream_rng(2, 0, 0)
        X = sample_design(50_000, 4, 0.95, rng)
        cov = X.T @ X / X.shape[0]
        assert np.abs(np.diag(cov) - 1.0).max() <= 0.05
        assert cov[0, 1] == pytest.approx(0.95, abs=0.02)
        assert cov[0, 3] == pytest.approx(0.95 ** 3, abs=0.02)

    def test_toeplitz_structure_matches_scipy(self):
        from scipy.linalg import toeplitz

        rho = 0.6
        d = 7
        idx = np.arange(d)
        ours = rho ** np.abs(idx[:, None] - idx[None, :])
        np.testing.assert_allclose(ours, toeplitz(rho ** np.arange(d)), atol=1e-15)

    def test_bad_rho(self):
        with pytest.raises(InputError):
            sample_design(5, 3, 1.0, _stream_rng(0, 0, 0))

    @pytest.mark.parametrize("n, d, rho", [(7, 1, 0.95), (30, 2, 0.5), (50, 64, 0.95),
                                           (200, 512, 0.95), (40, 16, 0.3)])
    def test_equals_draws_times_cholesky_factor(self, n, d, rho):
        X = sample_design(n, d, rho, _stream_rng(3, 1, 0))
        Z = _stream_rng(3, 1, 0).standard_normal((n, d))
        reference = Z @ np.linalg.cholesky(toeplitz_covariance(d, rho)).T
        assert X.flags.c_contiguous
        np.testing.assert_allclose(X, reference, rtol=0, atol=1e-12)

    def test_uncorrelated_design_is_the_draws(self):
        X = sample_design(40, 9, 0.0, _stream_rng(4, 0, 0))
        assert X.tobytes() == _stream_rng(4, 0, 0).standard_normal((40, 9)).tobytes()


class TestMakeBetaStar:
    @pytest.mark.parametrize("d, s_star, mu", [(4, 2, 0.5), (12, 10, 0.05), (6, 6, -1.25),
                                               (5, 3, 0.0)])
    def test_equal_bounds_fill_the_support(self, d, s_star, mu):
        beta = make_beta_star(d, s_star, UniformBeta(mu, mu), _stream_rng(0, 0, 1))
        expected = np.zeros(d)  # the vector the constant mode gave before it became lo == hi
        expected[:s_star] = mu
        assert beta.tobytes() == expected.tobytes()

    def test_uniform_mode_support_and_range(self):
        beta = make_beta_star(20, 6, UniformBeta(0.0, 2.0), _stream_rng(3, 0, 1))
        assert np.all(beta[:6] >= 0.0) and np.all(beta[:6] <= 2.0)
        assert np.count_nonzero(beta) == 6 and not beta.flags.writeable

    def test_empty_support(self):
        beta = make_beta_star(5, 0, UniformBeta(), _stream_rng(0, 0, 1))
        np.testing.assert_array_equal(beta, np.zeros(5))

    @pytest.mark.parametrize("lo, hi", [(1.0, 0.5), (np.nan, 1.0), (0.0, np.nan),
                                        (-np.inf, 0.0), (0.0, np.inf), (np.inf, np.inf)])
    def test_uniform_bounds_validated(self, lo, hi):
        with pytest.raises(InputError, match="finite lo <= hi"):
            UniformBeta(lo, hi)


class TestGenerate:
    def test_noiseless_response_is_exact(self, paper):
        cfg = SimConfig(n=50, d=10, s_star=3, noise_sd=0.0, seed=4, trials=1)
        data, beta_star = generate(cfg, 0)
        np.testing.assert_array_equal(
            data.response, np.asarray(paper.eval(data.design @ beta_star))
        )

    def test_bitwise_reproducible(self):
        cfg = SimConfig(n=30, d=8, s_star=2, seed=9, trials=1)
        d1, t1 = generate(cfg, 5)
        d2, t2 = generate(cfg, 5)
        assert np.array_equal(d1.design, d2.design)
        assert np.array_equal(d1.response, d2.response)
        assert np.array_equal(t1, t2)

    def test_trials_differ(self):
        cfg = SimConfig(n=30, d=8, s_star=2, seed=9, trials=2)
        d1, _ = generate(cfg, 0)
        d2, _ = generate(cfg, 1)
        assert not np.array_equal(d1.design, d2.design)

    def test_noise_variance(self, paper):
        cfg = SimConfig(n=100_000, d=4, s_star=2, noise_sd=1.5, seed=12, trials=1)
        data, beta_star = generate(cfg, 0)
        resid = data.response - np.asarray(paper.eval(data.design @ beta_star))
        assert np.var(resid) == pytest.approx(1.5 ** 2, rel=0.02)

    def test_config_validation(self):
        with pytest.raises(InputError):
            SimConfig(n=10, d=5, s_star=6)
        with pytest.raises(InputError):
            SimConfig(n=10, d=5, s_star=2, toeplitz_rho=1.0)
        with pytest.raises(InputError):
            SimConfig(n=10, d=5, s_star=2, seed=-1)
        for noise_sd in (-0.5, float("nan"), float("inf")):
            with pytest.raises(InputError, match="noise_sd must be finite and nonnegative"):
                SimConfig(n=10, d=5, s_star=2, noise_sd=noise_sd)
        with pytest.raises(InputError, match="beta_mode must be a UniformBeta"):
            SimConfig(n=10, d=5, s_star=2, beta_mode=(0.0, 1.0))
        for sizes in ({"n": 100.5}, {"d": 10.0}, {"s_star": 2.5}, {"trials": 2.5},
                      {"n": "100"}):
            name = next(iter(sizes))
            with pytest.raises(InputError, match=f"{name} must be an integer"):
                SimConfig(**{"n": 100, "d": 10, "s_star": 2, **sizes})
        numpy_sizes = SimConfig(n=np.int64(20), d=np.int32(5), s_star=np.int8(2),
                                trials=np.uint16(1))
        assert run_estimation_sweep([numpy_sizes], threads=1)[0].failures == 0

    def test_lambda_rule_values(self):
        cfg = SimConfig(n=200, d=128, s_star=10, noise_sd=1.0)
        assert cfg.lambda_rule(3.0) == pytest.approx(3 * np.sqrt(np.log(128) / 200))
        assert cfg.rho_rule(30.0) == pytest.approx(30 * np.sqrt(np.log(128) / 200))
        noiseless = SimConfig(n=200, d=128, s_star=10, noise_sd=0.0)
        assert noiseless.lambda_rule(3.0) == 1e-4  # floored, never zero

    @pytest.mark.parametrize("scale,sigma", [(0.0, 1.0), (-3.0, 1.0), (3.0, -1.0)])
    def test_rate_rule_rejects_bad_inputs(self, scale, sigma):
        with pytest.raises(InputError):
            rate_rule(scale, sigma, 200, 128)

    def test_effective_sample(self):
        cfg = SimConfig(n=200, d=128, s_star=10)
        assert cfg.effective_sample == pytest.approx(np.sqrt(10 * np.log(128) / 200))


class TestEstimationSweep:
    def test_error_decreases_with_n(self):
        configs = [
            SimConfig(n=n, d=32, s_star=3, noise_sd=1.0, seed=21, trials=10)
            for n in (50, 100, 200)
        ]
        rows = run_estimation_sweep(configs, threads=1)
        errs = [r.mean_l2 for r in rows]
        assert errs[0] > errs[1] > errs[2]
        assert all(r.failures == 0 for r in rows)

    def test_noiseless_point_recovers(self):
        rows = run_estimation_sweep(
            [SimConfig(n=150, d=32, s_star=3, noise_sd=0.0, seed=22, trials=5)], threads=1
        )
        assert rows[0].mean_l2 <= 1e-2

    def test_csv_shape_and_determinism(self):
        configs = [SimConfig(n=60, d=16, s_star=2, noise_sd=1.0, seed=3, trials=4)]
        text1 = csv_text(run_estimation_sweep(configs, threads=1), SweepRow)
        text2 = csv_text(run_estimation_sweep(configs, threads=2), SweepRow)
        assert text1 == text2
        header = text1.splitlines()[0]
        assert header == "d,s_star,n,effective_sample,mean_l2,sd_l2,mean_l1,sd_l1,trials,failures"
        assert len(text1.splitlines()) == 2


class TestBaselineComparison:
    def test_identity_link_methods_agree_roughly(self):
        # with the identity link the inversion is a no-op, so the two methods
        # differ only in how lambda is chosen
        configs = [SimConfig(n=100, d=16, s_star=3, noise_sd=1.0, link_name="identity",
                             seed=31, trials=5)]
        row = run_baseline_comparison(configs, threads=1)[0]
        assert row.failures == 0
        assert row.mean_l2 < 2 * row.base_mean_l2
        assert row.base_mean_l2 < 2 * row.mean_l2

    def test_nonlinear_link_proposed_wins(self):
        configs = [SimConfig(n=150, d=24, s_star=4, noise_sd=1.0, seed=32, trials=5)]
        row = run_baseline_comparison(configs, threads=1)[0]
        assert row.mean_l2 < row.base_mean_l2

    def test_csv_header(self):
        configs = [SimConfig(n=60, d=12, s_star=2, noise_sd=1.0, seed=33, trials=2)]
        text = csv_text(run_baseline_comparison(configs, threads=1), BaselineRow)
        assert text.splitlines()[0] == (
            "d,s_star,n,effective_sample,mean_l2,sd_l2,mean_l1,sd_l1,"
            "base_mean_l2,base_sd_l2,base_mean_l1,base_sd_l1,trials,failures"
        )

    @pytest.mark.parametrize("small_n", [1, 4])
    def test_fewer_rows_than_folds_rejected_before_any_trial(self, monkeypatch, small_n):
        import nlsparse.simulate as sim

        def no_trials(*args):
            raise AssertionError("trials ran before the sample sizes were validated")

        monkeypatch.setattr(sim, "_map_trials", no_trials)
        configs = [SimConfig(n=80, d=12, s_star=2, seed=33, trials=2),
                   SimConfig(n=small_n, d=12, s_star=2, seed=33, trials=2)]
        with pytest.raises(InputError, match="needs n >= 5"):
            run_baseline_comparison(configs)

    def test_cv_picks_the_argmin_of_converged_fits(self):
        # the exact path stands in for 5 x 30 fits at tol 1e-10
        config = SimConfig(n=80, d=16, s_star=3, noise_sd=1.0, seed=35)
        raw, _ = generate(config, 0)
        data = Dataset(design=raw.design, response=invert_link(builtin_link("paper"), raw.response))
        beta, lam = _cv_lasso(data)
        base = np.std(data.response, ddof=1) * np.sqrt(np.log(16) / 80)
        grid = np.geomspace(base, 1e-4 * base, 30)
        cv_mse = np.zeros(30)
        for val in np.array_split(np.arange(80), 5):
            train = np.ones(80, dtype=bool)
            train[val] = False
            fold = Dataset(design=data.design[train], response=data.response[train])
            for g, lam_g in enumerate(grid):
                ref = fit(builtin_link("identity"), fold, FitConfig(lam=float(lam_g), tol=1e-10))
                err = data.response[val] - data.design[val] @ ref.beta_hat
                cv_mse[g] += float(err @ err) / val.size
        assert lam == grid[np.argmin(cv_mse)]
        final = fit(builtin_link("identity"), data, FitConfig(lam=lam, tol=1e-10))
        np.testing.assert_allclose(beta, final.beta_hat, atol=1e-8)

    @pytest.mark.parametrize("n, d", [(80, 16), (200, 256)])  # the second has n < d
    def test_baseline_estimate_is_the_exact_lasso_solution(self, n, d):
        config = SimConfig(n=n, d=d, s_star=8, noise_sd=1.0, seed=35)
        raw, _ = generate(config, 0)
        data = Dataset(design=raw.design, response=invert_link(builtin_link("paper"), raw.response))
        beta, lam = _cv_lasso(data)
        assert kkt_residual(builtin_link("identity"), data, beta, lam) <= 1e-6 * lam

    @pytest.mark.parametrize("n, d", [(80, 16), (200, 128), (200, 256), (200, 512)])
    def test_fold_grams_by_subtraction_match_the_training_rows(self, monkeypatch, n, d):
        import nlsparse.simulate as sim

        config = SimConfig(n=n, d=d, s_star=8, noise_sd=1.0, seed=35)
        raw, _ = generate(config, 0)
        data = Dataset(design=raw.design, response=invert_link(builtin_link("paper"), raw.response))
        paths = []

        def recording(gram, corr, grid):
            paths.append(_lasso_path(gram, corr, grid))
            return paths[-1]

        monkeypatch.setattr(sim, "_lasso_path", recording)
        beta, lam = _cv_lasso(data)
        ref_beta, ref_lam = _cv_lasso_on_training_rows(data, 5, 30)
        assert lam == ref_lam
        np.testing.assert_allclose(beta, ref_beta, rtol=0, atol=1e-12)
        # k <= rank G = n_t on a fold without a cap on the active set
        assert len(paths) == 6
        assert all(np.count_nonzero(path, axis=1).max() <= 4 * n // 5 for path in paths[:5])

    def test_folds_equal_to_n_run(self):
        configs = [SimConfig(n=5, d=8, s_star=2, seed=34, trials=1)]
        row = run_baseline_comparison(configs, threads=1)[0]
        assert row.failures == 0

    def test_d_1_grid_tops_at_the_rate_rule_floor(self):
        # log d = 0 at d = 1, so the grid top is rate_rule's 1e-4 floor, not 0
        configs = [SimConfig(n=40, d=1, s_star=1, seed=36, trials=2)]
        row = run_baseline_comparison(configs, threads=1)[0]
        assert (row.trials, row.failures) == (2, 0)
        raw, _ = generate(configs[0], 0)
        _, lam = _cv_lasso(raw)
        assert 1e-8 <= lam <= 1e-4


def _cv_lasso_on_training_rows(data, folds, grid_size):
    """Reference ``_cv_lasso``: each fold's Gram matrix and correlations are
    formed from its own training rows."""
    X, z = data.design, data.response
    n, d = X.shape
    base = max(float(np.std(z, ddof=1)), 1e-8) * np.sqrt(np.log(d) / n)
    grid = np.geomspace(base, 1e-4 * base, grid_size)
    cv_mse = np.zeros(grid_size)
    for val in np.array_split(np.arange(n), folds):
        train = np.ones(n, dtype=bool)
        train[val] = False
        X_t, z_t = X[train], z[train]
        path = _lasso_path(X_t.T @ X_t / X_t.shape[0], X_t.T @ z_t / X_t.shape[0], grid)
        err = z[val, None] - X[val] @ path.T
        cv_mse += np.sum(err * err, axis=0) / val.size
    best = int(np.argmin(cv_mse))
    return _lasso_path(X.T @ X / n, X.T @ z / n, grid[:best + 1])[best], float(grid[best])


@pytest.fixture
def fail_in(monkeypatch):
    """``fail_in(name, trials)``: ``nlsparse.simulate.<name>`` raises
    NumericalError while a trial in ``trials`` runs. Run the experiment on one
    thread, which keeps every trial in this process."""
    import nlsparse.simulate as sim

    running = {}
    real_generate = sim.generate

    def generate(config, trial):
        running["trial"] = trial
        return real_generate(config, trial)

    def fail(name, trials):
        real = getattr(sim, name)

        def failing(*args, **kwargs):
            if running["trial"] in trials:
                raise NumericalError(f"{name} failed in trial {running['trial']}")
            return real(*args, **kwargs)

        monkeypatch.setattr(sim, name, failing)

    monkeypatch.setattr(sim, "generate", generate)
    return fail


_FAILING = SimConfig(n=40, d=8, s_star=2, seed=9, trials=4)


def _trial_errors(trial, baseline=False):
    """The (l2, l1) errors of one trial of _FAILING: its fit, or with
    ``baseline`` its cross-validated lasso on link-inverted responses."""
    data, beta_star = generate(_FAILING, trial)
    link = builtin_link(_FAILING.link_name)
    if baseline:
        inverted = Dataset(design=data.design, response=invert_link(link, data.response))
        estimate = _cv_lasso(inverted)[0]
    else:
        estimate = fit(link, data, FitConfig(lam=_FAILING.lambda_rule())).beta_hat
    err = estimate - beta_star
    return np.linalg.norm(err), np.abs(err).sum()


def _summary(errors, prefix=""):
    l2, l1 = zip(*errors)
    return {f"{prefix}mean_l2": np.mean(l2), f"{prefix}sd_l2": np.std(l2, ddof=1),
            f"{prefix}mean_l1": np.mean(l1), f"{prefix}sd_l1": np.std(l1, ddof=1)}


class TestFailureAccounting:
    def test_sweep_summarizes_the_trials_that_did_not_fail(self, fail_in):
        fail_in("fit", {1, 2})
        row = run_estimation_sweep([_FAILING], threads=1)[0]
        assert (row.trials, row.failures) == (4, 2)
        for name, value in _summary([_trial_errors(t) for t in (0, 3)]).items():
            assert getattr(row, name) == pytest.approx(value, rel=1e-12), name

    def test_baseline_failure_drops_the_whole_pair(self, fail_in):
        # trial 1's fit succeeds, but its lasso fails: its fit errors go too
        fail_in("invert_link", {1})
        fail_in("fit", {2})
        row = run_baseline_comparison([_FAILING], threads=1)[0]
        assert (row.trials, row.failures) == (4, 2)
        expected = {**_summary([_trial_errors(t) for t in (0, 3)]),
                    **_summary([_trial_errors(t, baseline=True) for t in (0, 3)], "base_")}
        for name, value in expected.items():
            assert getattr(row, name) == pytest.approx(value, rel=1e-12), name

    def test_every_trial_failing_gives_nan_summaries(self, fail_in):
        fail_in("fit", set(range(_FAILING.trials)))
        rows = (run_estimation_sweep([_FAILING], threads=1)[0],
                run_baseline_comparison([_FAILING], threads=1)[0])
        for row in rows:
            assert row.failures == _FAILING.trials
            summaries = [f.name for f in fields(row) if "mean_" in f.name or "sd_" in f.name]
            assert len(summaries) in (4, 8)
            assert all(np.isnan(getattr(row, name)) for name in summaries)


@pytest.fixture
def fits(monkeypatch):
    """Records ``(data, config, result)`` of every ``nlsparse.simulate.fit``
    call; a call whose data ``fits.fail(data)`` holds for raises
    NumericalError instead, with result None. Run the experiment on one
    thread, which keeps every trial in this process."""
    import nlsparse.simulate as sim

    real = sim.fit
    calls = SimpleNamespace(log=[], fail=lambda data: False)

    def recording(link, data, config):
        if calls.fail(data):
            calls.log.append((data, config, None))
            raise NumericalError("fit failed")
        calls.log.append((data, config, real(link, data, config)))
        return calls.log[-1][2]

    monkeypatch.setattr(sim, "fit", recording)
    return calls


class TestSizeChain:
    """A trial is drawn once per group of configs that differ only in n, and
    its sizes are fitted by increasing n, each from the previous estimate."""

    @pytest.mark.parametrize("d", [5, 128, 512])
    def test_each_size_fits_the_data_generate_draws_at_that_n(self, fits, d):
        fits.fail = lambda data: True  # the data reach fit; no fit runs
        sizes = (1, 7, 13, 100, 333, 1001)
        base = SimConfig(n=1, d=d, s_star=3, seed=61, trials=2)
        run_estimation_sweep([replace(base, n=n) for n in sizes], threads=1)
        assert [data.n for data, _, _ in fits.log] == list(sizes) * base.trials
        for k, (data, _, _) in enumerate(fits.log):
            expected, _ = generate(replace(base, n=data.n), k // len(sizes))
            assert np.array_equal(data.design, expected.design), (data.n, k)
            assert np.array_equal(data.response, expected.response), (data.n, k)

    def test_chained_and_zero_start_fits_are_stationary_and_agree(self, fits):
        # the paper's premise, in criterion 05's setting: the solver's start
        # changes the number of steps, not the stationary point it reaches
        configs = [SimConfig(n=n, d=128, s_star=5, noise_sd=1.0, seed=99, trials=10)
                   for n in (100, 200, 400, 800, 1600)]
        run_estimation_sweep(configs, threads=1)
        assert len(fits.log) == 50
        link, worst = builtin_link("paper"), 0.0
        for k, (data, config, chained) in enumerate(fits.log):
            previous = fits.log[k - 1][2].beta_hat if k % 5 else None
            assert (config.init is None) == (previous is None)
            if previous is not None:
                assert np.array_equal(config.init, previous)
            cold = fit(link, data, replace(config, init=None))
            for result in (chained, cold):
                assert result.converged and result.kkt_residual <= 10 * config.tol
            gap = np.linalg.norm(chained.beta_hat - cold.beta_hat)
            worst = max(worst, gap / np.linalg.norm(cold.beta_hat))
        assert worst <= 2e-3

    def test_a_size_after_a_failed_fit_starts_from_the_last_estimate(self, fits):
        fits.fail = lambda data: data.n == 60
        rows = run_estimation_sweep(
            [SimConfig(n=n, d=12, s_star=2, seed=62, trials=1) for n in (40, 60, 80)],
            threads=1)
        assert [row.failures for row in rows] == [0, 1, 0]
        (_, first, at_40), _, (_, last, _) = fits.log
        assert first.init is None and np.array_equal(last.init, at_40.beta_hat)

    @pytest.mark.parametrize("grid", [  # (s*, n) points
        [(2, 120), (2, 40), (2, 80)],
        [(2, 80), (2, 40), (2, 120), (2, 40), (2, 80)],
        [(3, 80), (2, 120), (3, 40), (2, 40), (2, 80), (3, 80)],
    ])
    def test_rows_follow_the_grid_and_match_the_ascending_grid(self, fits, grid):
        def rows(points):
            configs = [SimConfig(n=n, d=16, s_star=s, seed=63, trials=3) for s, n in points]
            return run_estimation_sweep(configs, threads=1)

        ascending = dict(zip(sorted(set(grid)), rows(sorted(set(grid)))))
        fits.log.clear()
        assert rows(grid) == [ascending[point] for point in grid]
        assert len(fits.log) == 3 * len(set(grid))  # each size once per trial

    def test_baseline_rows_follow_the_grid(self):
        def rows(ns):
            configs = [SimConfig(n=n, d=12, s_star=2, seed=64, trials=2) for n in ns]
            return run_baseline_comparison(configs, threads=1)

        ascending = dict(zip((40, 60), rows((40, 60))))
        assert rows((60, 40, 60)) == [ascending[n] for n in (60, 40, 60)]

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("run", [run_estimation_sweep, run_baseline_comparison])
    def test_no_configs_rejected_before_any_trial(self, monkeypatch, run, threads):
        import nlsparse.simulate as sim

        def no_trials(*args):
            raise AssertionError("trials ran")

        monkeypatch.setattr(sim, "_estimation_trial", no_trials)
        with pytest.raises(InputError, match="at least one SimConfig"):
            run([], threads=threads)

    @pytest.mark.parametrize("scale", [-1.0, 0.0, np.nan, np.inf])
    @pytest.mark.parametrize("run", [run_estimation_sweep, run_baseline_comparison])
    def test_lambda_rule_validated_before_any_trial(self, monkeypatch, run, scale):
        import nlsparse.simulate as sim

        def no_trials(*args):
            raise AssertionError("trials ran")

        monkeypatch.setattr(sim, "_map_trials", no_trials)
        configs = [SimConfig(n=n, d=12, s_star=2, seed=64, trials=2) for n in (40, 60)]
        with pytest.raises(InputError, match="rule needs scale > 0|lam must be a positive real"):
            run(configs, scale, threads=1)


class TestInferenceTable:
    def test_power_grows_with_signal(self):
        cfg = SimConfig(n=80, d=16, s_star=3, noise_sd=1.0, seed=41, trials=20)
        rows = run_inference_table(cfg, mu_grid=[0.0, 1.5], threads=2)
        assert len(rows) == 2
        assert rows[1].score_power > rows[0].score_power
        assert rows[1].wald_power > rows[0].wald_power
        assert rows[1].score_power >= 0.8
        # calibration under the global null; with strong neighboring signal
        # and n this small the null coordinate is contaminated, so no bound
        # is asserted on the mu = 1.5 row (the scaled acceptance run covers it)
        assert rows[0].score_type1 <= 0.35
        assert rows[0].wald_type1 <= 0.35
        assert all(row.excluded == 0 for row in rows)

    def test_default_null_coordinate_outside_support(self):
        cfg = SimConfig(n=60, d=12, s_star=3, noise_sd=1.0, seed=42, trials=4)
        outcomes = run_inference_trials(cfg, coordinates=(4, 1), threads=1)
        assert len(outcomes) == 4
        for trial, per in outcomes:
            assert [o.coordinate for o in per] == [4, 1]
            for o in per:
                assert o.failure is None
                assert o.ci_low <= o.ci_high

    def test_csv_bytes_stable_across_threads_and_runs(self):
        cfg = SimConfig(n=60, d=12, s_star=3, noise_sd=1.0, seed=43, trials=6)
        texts = [
            csv_text(run_inference_table(cfg, mu_grid=[0.0, 0.5], threads=k), InferenceRow)
            for k in (1, 2, 1)
        ]
        assert texts[0] == texts[1] == texts[2]
        header = texts[0].splitlines()[0]
        assert header == (
            "mu,score_type1,score_power,wald_type1,wald_power,trials,excluded,"
            "score_type1_rejects,score_type1_tests,score_power_rejects,score_power_tests,"
            "wald_type1_rejects,wald_type1_tests,wald_power_rejects,wald_power_tests,"
            "wald_covers,wald_coverage,wald_mean_length"
        )
        assert "failures" not in header.split(",")

    def test_coordinate_validation(self):
        cfg = SimConfig(n=30, d=8, s_star=2, seed=1, trials=1)
        with pytest.raises(InputError):
            run_inference_trials(cfg, coordinates=(9,), threads=1)

    def test_table_coordinate_validated_before_any_trial(self, monkeypatch):
        import nlsparse.simulate as sim

        def no_trials(*args):
            raise AssertionError("trials ran before the coordinates were validated")

        monkeypatch.setattr(sim, "_map_trials", no_trials)
        cfg = SimConfig(n=30, d=8, s_star=8, seed=1, trials=2)  # no null coordinate 9
        with pytest.raises(InputError, match="s_star \\+ 1 = 9"):
            run_inference_table(cfg, mu_grid=[0.0, 0.5])

    @pytest.mark.parametrize("mu_grid, match", [([], "mu_grid"), ([0.0, np.inf], "finite"),
                                                ([np.nan], "finite")])
    def test_bad_mu_grid_rejected_before_any_trial(self, monkeypatch, mu_grid, match):
        import nlsparse.simulate as sim

        def no_trials(*args):
            raise AssertionError("trials ran before the mu grid was validated")

        monkeypatch.setattr(sim, "_map_trials", no_trials)
        with pytest.raises(InputError, match=match):
            run_inference_table(SimConfig(n=30, d=8, s_star=2, seed=1, trials=2),
                                mu_grid=mu_grid)

    def test_failed_tests_are_recorded(self, monkeypatch):
        import nlsparse.simulate as sim
        from nlsparse.inference import _Point

        def wald_fails(point, config):
            raise NumericalError("wald failed")

        def failing_fit(*args):
            raise NumericalError("fit failed")

        cfg = SimConfig(n=60, d=12, s_star=3, seed=44, trials=1)
        monkeypatch.setattr(_Point, "score", lambda point, config: SimpleNamespace(reject=True))
        monkeypatch.setattr(_Point, "wald", wald_fails)
        expected = {True: "wald failed", None: "fit failed"}
        for score_reject in (True, None):  # the Wald half fails; then the fit fails
            (_, per), = run_inference_trials(cfg, coordinates=(4, 1), threads=1)
            assert [(o.coordinate, o.score_reject, o.wald_reject, o.failure) for o in per] == [
                (j, score_reject, None, expected[score_reject]) for j in (4, 1)]
            assert all(np.isnan(o.ci_low) and np.isnan(o.ci_high) for o in per)
            monkeypatch.setattr(sim, "fit", failing_fit)

    def test_a_trial_builds_one_fitted_point_and_one_per_moved_null(self, monkeypatch):
        from nlsparse.inference import _Point

        cfg = SimConfig(n=60, d=12, s_star=3, seed=44, trials=1, beta_mode=UniformBeta(0.5, 0.5))
        data, _ = generate(cfg, 0)
        beta_hat = fit(builtin_link("paper"), data, FitConfig(lam=cfg.lambda_rule())).beta_hat
        init, points = _Point.__init__, []

        def recorded(point, link, data, beta):
            points.append(np.array(beta))
            init(point, link, data, beta)

        monkeypatch.setattr(_Point, "__init__", recorded)
        coordinates = (4, 1, 2, 5)
        (_, per), = run_inference_trials(cfg, coordinates=coordinates, threads=1)
        assert all(o.failure is None for o in per)
        moved = [j for j in coordinates if beta_hat[j - 1] != 0.0]
        assert 0 < len(moved) < len(coordinates)  # both cases occur in this trial
        assert len(points) == 1 + len(moved)
        assert points[0].tobytes() == beta_hat.tobytes()
        for point, j in zip(points[1:], moved):  # each the fitted point with beta_j = 0
            imposed = beta_hat.copy()
            imposed[j - 1] = 0.0
            assert point.tobytes() == imposed.tobytes()

    def test_table_counts_a_failed_wald_half(self, monkeypatch):
        from nlsparse.inference import _Point

        cfg = SimConfig(n=60, d=12, s_star=3, noise_sd=1.0, seed=44, trials=3)
        (row,) = run_inference_table(cfg, mu_grid=[0.0], threads=1)
        reference = run_inference_trials(replace(cfg, beta_mode=UniformBeta(0.0, 0.0)),
                                         coordinates=(4, 1), threads=1)
        wald, calls = _Point.wald, []

        def wald_fails_in_trial_1(point, config):
            calls.append(config.coordinate)
            if len(calls) in (3, 4):  # trial 1's tests at coordinates 4 and 1
                raise NumericalError("wald failed")
            return wald(point, config)

        monkeypatch.setattr(_Point, "wald", wald_fails_in_trial_1)
        (failed,) = run_inference_table(cfg, mu_grid=[0.0], threads=1)
        assert calls == [4, 1] * 3
        assert (row.excluded, failed.excluded) == (0, 1)
        for rate in ("score_type1", "score_power"):  # the score half ran in every trial
            assert getattr(failed, f"{rate}_tests") == getattr(row, f"{rate}_tests") == 3
            assert getattr(failed, f"{rate}_rejects") == getattr(row, f"{rate}_rejects")
        lost = reference[1][1]  # trial 1's outcomes at coordinates 4 and 1
        for rate, o in (("wald_type1", lost[0]), ("wald_power", lost[1])):
            assert (row.wald_type1_tests, getattr(failed, f"{rate}_tests")) == (3, 2)
            assert getattr(failed, f"{rate}_rejects") == (
                getattr(row, f"{rate}_rejects") - o.wald_reject)
        assert failed.wald_covers == row.wald_covers - (lost[1].ci_low <= 0.0 <= lost[1].ci_high)
        assert failed.wald_coverage == failed.wald_covers / 2

    @pytest.mark.parametrize("threads", [1, 2])
    def test_table_rows_equal_the_per_mu_trials(self, threads):
        cfg = SimConfig(n=60, d=12, s_star=3, noise_sd=1.0, seed=44, trials=3)
        rows = run_inference_table(cfg, mu_grid=[0.0, 0.5], threads=threads)
        assert [row.mu for row in rows] == [0.0, 0.5]
        for row in rows:
            outcomes = run_inference_trials(replace(cfg, beta_mode=UniformBeta(row.mu, row.mu)),
                                            coordinates=(4, 1), threads=1)

            def ran(coordinate, which):
                return [getattr(o, which) for _, per in outcomes for o in per
                        if o.coordinate == coordinate and getattr(o, which) is not None]

            for rate, coordinate, which in (("score_type1", 4, "score_reject"),
                                            ("score_power", 1, "score_reject"),
                                            ("wald_type1", 4, "wald_reject"),
                                            ("wald_power", 1, "wald_reject")):
                flags = ran(coordinate, which)
                assert getattr(row, rate) == float(np.mean(flags))
                assert getattr(row, f"{rate}_rejects") == sum(flags)
                assert getattr(row, f"{rate}_tests") == len(flags) == 3
            intervals = [(o.ci_low, o.ci_high) for _, per in outcomes for o in per
                         if o.coordinate == 1 and o.wald_reject is not None]
            covered = [low <= row.mu <= high for low, high in intervals]
            assert row.wald_covers == sum(covered)
            assert row.wald_coverage == float(np.mean(covered))
            assert row.wald_mean_length == float(np.mean([high - low for low, high in intervals]))
            assert row.trials == 3
            assert row.excluded == sum(
                any(o.failure is not None for o in per) for _, per in outcomes)


class TestThreadDefaults:
    def test_default_is_the_usable_cpu_count(self, monkeypatch):
        from nlsparse.simulate import default_threads

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert default_threads() == 1
        monkeypatch.delattr(os, "sched_getaffinity")
        assert default_threads() == 8


def _needs_openblas():
    previous = _set_blas_threads(1)
    if previous is None:
        pytest.skip("no OpenBLAS handle found")
    _set_blas_threads(previous)
    return previous


class TestBlasThreads:
    def test_serial_map_pins_one_thread_and_restores_the_callers(self):
        from nlsparse.simulate import _map_trials

        caller = _needs_openblas()
        try:
            _set_blas_threads(3)
            # each job reports the count it found and then sets its own
            assert _map_trials(_set_blas_threads, [5, 5], threads=1) == [1, 5]
            assert _set_blas_threads(3) == 3
            with pytest.raises(ValueError):  # int("not a count") in the trial
                _map_trials(_set_blas_threads, ["not a count"], threads=1)
            assert _set_blas_threads(3) == 3
        finally:
            _set_blas_threads(caller)

    def test_generate_independent_of_caller_blas_threads(self):
        caller = _needs_openblas()
        cfg = SimConfig(n=200, d=512, s_star=10, noise_sd=1.0, seed=7)
        designs = set()
        try:
            for caller_threads in (1, 2):
                _set_blas_threads(caller_threads)
                designs.add(generate(cfg, 1)[0].design.tobytes())
        finally:
            _set_blas_threads(caller)
        assert len(designs) == 1

    def test_pool_workers_run_one_thread(self, one_job_each):
        from nlsparse.simulate import _map_trials

        caller = _needs_openblas()
        try:
            _set_blas_threads(3)
            # each job reports the count it found, in the caller and in the child
            found = _map_trials(one_job_each.wrap(lambda job: _set_blas_threads(5)), [0, 1],
                                threads=2)
            assert _set_blas_threads(3) == 3
        finally:
            _set_blas_threads(caller)
        assert found == [1, 1]
        assert len(set(one_job_each.pids())) == 2

    def test_sweep_csv_independent_of_workers_and_caller_blas_threads(self):
        # at d = 128, n = 1600 OpenBLAS threads the matrix products, and the
        # thread count changes the last bits of the fits
        caller = _needs_openblas()
        configs = [SimConfig(n=1600, d=128, s_star=5, noise_sd=1.0, seed=7, trials=3)]
        texts = set()
        try:
            for caller_threads in (1, 2):
                _set_blas_threads(caller_threads)
                for threads in (1, 2):
                    texts.add(csv_text(run_estimation_sweep(configs, threads=threads), SweepRow))
        finally:
            _set_blas_threads(caller)
        assert len(texts) == 1

    def test_baseline_csv_independent_of_workers_and_caller_blas_threads(self):
        caller = _needs_openblas()
        configs = [SimConfig(n=200, d=128, s_star=8, noise_sd=1.0, seed=7, trials=3)]
        texts = set()
        try:
            for caller_threads in (1, 2):
                _set_blas_threads(caller_threads)
                for threads in (1, 2):
                    rows = run_baseline_comparison(configs, threads=threads)
                    texts.add(csv_text(rows, BaselineRow))
        finally:
            _set_blas_threads(caller)
        assert len(texts) == 1


@pytest.fixture
def one_job_each():
    """``wrap(worker, index)`` runs ``worker`` in a map of two jobs on two
    processes, one job in each: the call with ``index(*args) == 0`` waits
    until the one with index 1 has started, however the processes are
    scheduled; any other index fails the call at once. ``pids()`` lists the
    process of every call started."""
    started_r, started_w = os.pipe()
    pids_r, pids_w = os.pipe()
    os.set_blocking(pids_r, False)

    def wrap(worker, index=lambda job: job):
        def paired(*args):
            os.write(pids_w, os.getpid().to_bytes(4, "little"))
            k = index(*args)
            assert k in (0, 1), f"a paired call needs index 0 or 1, got {k!r}"
            if k == 1:
                os.write(started_w, b"1")
            else:
                assert select.select([started_r], [], [], 60)[0], "the other job never started"
            return worker(*args)
        return paired

    def pids():
        data = os.read(pids_r, 1024)
        return [int.from_bytes(data[k:k + 4], "little") for k in range(0, len(data), 4)]

    yield SimpleNamespace(wrap=wrap, pids=pids)
    for fd in (started_r, started_w, pids_r, pids_w):
        os.close(fd)


_SMALL_EXPERIMENTS = {  # 6 jobs each
    "sweep": lambda threads: csv_text(run_estimation_sweep(
        [SimConfig(n=n, d=16, s_star=2, seed=3, trials=3) for n in (40, 80)], threads=threads),
        SweepRow),
    "baseline": lambda threads: csv_text(run_baseline_comparison(
        [SimConfig(n=n, d=12, s_star=2, seed=33, trials=3) for n in (40, 60)], threads=threads),
        BaselineRow),
    "table": lambda threads: csv_text(run_inference_table(
        SimConfig(n=60, d=12, s_star=3, seed=43, trials=3), mu_grid=[0.0, 0.5], threads=threads),
        InferenceRow),
}


class TestSerialThreshold:
    def test_threads_cap_the_workers(self, monkeypatch):
        from nlsparse.simulate import _map_trials

        forks = []
        real_fork = os.fork

        def counting_fork():
            forks.append(1)
            return real_fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        assert _map_trials(abs, [-1, -2, -3], threads=8) == [1, 2, 3]
        assert len(forks) == 2  # the caller runs jobs too
        assert _map_trials(abs, [-1], threads=8) == [1]
        assert _map_trials(abs, [-1, -2, -3], threads=1) == [1, 2, 3]
        assert len(forks) == 2

    @pytest.mark.parametrize("experiment", sorted(_SMALL_EXPERIMENTS))
    def test_csv_bytes_equal_in_process_and_on_a_pool(self, experiment):
        in_process = _SMALL_EXPERIMENTS[experiment](1)
        for threads in (2, 3):
            assert _SMALL_EXPERIMENTS[experiment](threads) == in_process, threads

    def test_serial_run_imports_no_pool_machinery(self, tmp_path):
        import os
        import subprocess
        import sys

        script = (
            "import sys\n"
            "from nlsparse.cli import main\n"
            "main(['simulate', '--experiment', 'table', '--n', '40', '--d', '8', '--s-star', '2',"
            " '--trials', '2', '--mu-grid', '0', '--threads', '2', '--output', sys.argv[1]])\n"
            "print(sorted(m for m in sys.modules"
            " if m.split('.')[0] in ('concurrent', 'multiprocessing')))\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", script, str(tmp_path / "t.csv")], env=env,
                             capture_output=True, text=True, check=True).stdout
        assert out.strip() == "[]"


class TestForkedMap:
    def test_two_job_experiment_uses_two_processes(self, monkeypatch, one_job_each):
        import nlsparse.simulate as sim

        # each job draws its trial once, so generate's trial argument tells the two apart
        monkeypatch.setattr(sim, "generate",
                            one_job_each.wrap(sim.generate, index=lambda config, trial: trial))
        configs = [SimConfig(n=40, d=8, s_star=2, seed=5, trials=2)]
        text = csv_text(run_estimation_sweep(configs, threads=2), SweepRow)
        pids = one_job_each.pids()
        assert len(pids) == 2 and os.getpid() in pids and len(set(pids)) == 2
        monkeypatch.undo()
        assert csv_text(run_estimation_sweep(configs, threads=1), SweepRow) == text

    def test_more_jobs_than_the_pipe_holds_come_back_in_order(self):
        from nlsparse.simulate import _map_trials

        jobs = list(range(-20_000, 0))  # a pipe of 64 KiB holds 16,384 four-byte indices
        assert _map_trials(abs, jobs, threads=3) == [abs(job) for job in jobs]
        caller = os.getpid()

        def slow_in_caller(job):  # the children finish while the caller is inside a block
            if os.getpid() == caller:
                time.sleep(0.01)
            return abs(job)

        assert _map_trials(slow_in_caller, jobs, threads=3) == [abs(job) for job in jobs]

    @pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
    @pytest.mark.parametrize("raiser", ["caller", "child"])
    def test_no_child_outlives_a_raising_job(self, one_job_each, raiser, error):
        from nlsparse.simulate import _map_trials

        caller = os.getpid()

        def job(_):
            if (os.getpid() == caller) == (raiser == "caller"):
                raise error("the job failed")
            if raiser == "caller":
                time.sleep(60)  # killed, not awaited

        started = time.perf_counter()
        with pytest.raises(error, match="the job failed"):
            _map_trials(one_job_each.wrap(job), [0, 1], threads=2)
        assert time.perf_counter() - started < 30
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_children_of_a_killed_caller_run_no_more_jobs(self, tmp_path):
        import signal
        import subprocess
        import sys

        # each line is one write: print may write the pid and the newline
        # apart (it does under PYTHONUNBUFFERED=1), and the three processes'
        # lines would then interleave
        script = (
            "import os, sys, time\n"
            "from nlsparse.simulate import _map_trials\n"
            "def job(j):\n"
            "    os.write(1, f'{os.getpid()}\\n'.encode())\n"
            "    time.sleep(0.2)\n"
            "_map_trials(job, list(range(60)), threads=3)\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        started = tmp_path / "started.txt"
        with open(started, "w") as out:
            caller = subprocess.Popen([sys.executable, "-c", script], stdout=out,
                                      env=dict(os.environ, PYTHONPATH=src))
            deadline = time.monotonic() + 30
            while len(set(started.read_text().split())) < 3 and time.monotonic() < deadline:
                time.sleep(0.05)
            caller.send_signal(signal.SIGKILL)
            caller.wait()
            killed_at = len(started.read_text().split())
            time.sleep(1.0)  # five jobs' time: the children would start about 10 more
        # a child checks for its caller before each job, and may have passed
        # that check just before the kill
        assert len(set(started.read_text().split())) == 3
        assert len(started.read_text().split()) <= killed_at + 2

    def test_unpicklable_exception_is_a_runtime_error(self, one_job_each):
        from nlsparse.simulate import _map_trials

        caller = os.getpid()

        def job(_):
            if os.getpid() != caller:
                raise ValueError(lambda: None)

        with pytest.raises(RuntimeError, match="ValueError.*cannot be pickled"):
            _map_trials(one_job_each.wrap(job), [0, 1], threads=2)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_no_jobs_pin_no_blas_and_fork_nothing(self, monkeypatch, threads):
        import nlsparse.simulate as sim

        def refuse(*args):
            raise AssertionError("an empty map pinned BLAS or forked")

        monkeypatch.setattr(sim, "_set_blas_threads", refuse)
        monkeypatch.setattr(os, "fork", refuse)
        assert sim._map_trials(abs, [], threads=threads) == []

    def test_without_fork_every_job_runs_in_process(self, monkeypatch):
        from nlsparse.simulate import _map_trials

        monkeypatch.delattr(os, "fork")
        assert _map_trials(lambda job: os.getpid(), [0, 1, 2], threads=3) == [os.getpid()] * 3

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_below_one_rejected_before_any_trial(self, monkeypatch, threads):
        import nlsparse.simulate as sim

        def no_trial(job):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(sim, "_estimation_trial", no_trial)
        monkeypatch.setattr(sim, "_inference_trial", no_trial)
        cfg = SimConfig(n=40, d=8, s_star=2, seed=1, trials=2)
        runs = [lambda: run_estimation_sweep([cfg], threads=threads),
                lambda: run_baseline_comparison([cfg], threads=threads),
                lambda: run_inference_trials(cfg, coordinates=(3,), threads=threads),
                lambda: run_inference_table(cfg, mu_grid=[0.0], threads=threads)]
        for run in runs:
            with pytest.raises(InputError, match="threads must be >= 1"):
                run()


class TestOpenblasHandle:
    def test_looked_up_once_per_process(self):
        from nlsparse.simulate import _openblas

        caller = _needs_openblas()
        misses = _openblas.cache_info().misses
        for count in (1, 2, caller):
            _set_blas_threads(count)
        assert _openblas.cache_info().misses == misses

    def test_no_handle_changes_nothing(self, monkeypatch):
        import nlsparse.simulate as sim

        monkeypatch.setattr(sim, "_openblas", lambda: None)
        assert sim._set_blas_threads(1) is None
        assert sim._map_trials(abs, [-3], threads=1) == [3]


class TestCsvFormatting:
    def test_six_significant_digits(self):
        rows = run_estimation_sweep(
            [SimConfig(n=40, d=8, s_star=2, noise_sd=1.0, seed=8, trials=3)], threads=1
        )
        body = csv_text(rows, SweepRow).splitlines()[1].split(",")
        mean_l2 = body[4]
        assert len(mean_l2.replace(".", "").replace("-", "").lstrip("0")) <= 6
