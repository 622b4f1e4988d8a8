from dataclasses import replace

import numpy as np
import pytest

from nlsparse import Dataset, FitConfig, InputError, builtin_link, fit, invert_link
from nlsparse.simulate import (
    ConstantBeta,
    SimConfig,
    UniformBeta,
    baseline_csv_text,
    generate,
    inference_csv_text,
    make_beta_star,
    rate_rule,
    run_baseline_comparison,
    run_estimation_sweep,
    run_inference_table,
    run_inference_trials,
    sample_design,
    sweep_csv_text,
    toeplitz_covariance,
    _cv_lasso,
    _set_blas_threads,
    _stream_rng,
    _toeplitz_cholesky,
)


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


class TestMakeBetaStar:
    def test_constant_mode(self):
        truth = make_beta_star(4, 2, ConstantBeta(0.5), _stream_rng(0, 0, 1))
        np.testing.assert_array_equal(truth.beta_star, [0.5, 0.5, 0.0, 0.0])
        assert truth.support_size == 2

    def test_uniform_mode_support_and_range(self):
        truth = make_beta_star(20, 6, UniformBeta(0.0, 2.0), _stream_rng(3, 0, 1))
        nz = truth.beta_star[:6]
        assert np.all(nz >= 0.0) and np.all(nz <= 2.0)
        assert np.all(truth.beta_star[6:] == 0.0)
        assert truth.support_size == 6

    def test_empty_support(self):
        truth = make_beta_star(5, 0, UniformBeta(), _stream_rng(0, 0, 1))
        np.testing.assert_array_equal(truth.beta_star, np.zeros(5))


class TestGenerate:
    def test_noiseless_response_is_exact(self, paper):
        cfg = SimConfig(n=50, d=10, s_star=3, noise_sd=0.0, seed=4, trials=1)
        data, truth = generate(cfg, 0)
        np.testing.assert_array_equal(
            data.response, np.asarray(paper.eval(data.design @ truth.beta_star))
        )

    def test_bitwise_reproducible(self):
        cfg = SimConfig(n=30, d=8, s_star=2, seed=9, trials=1)
        d1, t1 = generate(cfg, 5)
        d2, t2 = generate(cfg, 5)
        assert np.array_equal(d1.design, d2.design)
        assert np.array_equal(d1.response, d2.response)
        assert np.array_equal(t1.beta_star, t2.beta_star)

    def test_trials_differ(self):
        cfg = SimConfig(n=30, d=8, s_star=2, seed=9, trials=2)
        d1, _ = generate(cfg, 0)
        d2, _ = generate(cfg, 1)
        assert not np.array_equal(d1.design, d2.design)

    def test_noise_variance(self, paper):
        cfg = SimConfig(n=100_000, d=4, s_star=2, noise_sd=1.5, seed=12, trials=1)
        data, truth = generate(cfg, 0)
        resid = data.response - np.asarray(paper.eval(data.design @ truth.beta_star))
        assert np.var(resid) == pytest.approx(1.5 ** 2, rel=0.02)

    def test_config_validation(self):
        with pytest.raises(InputError):
            SimConfig(n=10, d=5, s_star=6)
        with pytest.raises(InputError):
            SimConfig(n=10, d=5, s_star=2, toeplitz_rho=1.0)
        with pytest.raises(InputError):
            SimConfig(n=10, d=5, s_star=2, seed=-1)
        with pytest.raises(InputError):
            SimConfig(n=10, d=5, s_star=2, noise_sd=-0.5)

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
        text1 = sweep_csv_text(run_estimation_sweep(configs, threads=1))
        text2 = sweep_csv_text(run_estimation_sweep(configs, threads=2))
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
        text = baseline_csv_text(run_baseline_comparison(configs, threads=1))
        assert text.splitlines()[0] == (
            "d,s_star,n,effective_sample,mean_l2,sd_l2,mean_l1,sd_l1,"
            "base_mean_l2,base_sd_l2,base_mean_l1,base_sd_l1,trials,failures"
        )

    @pytest.mark.parametrize("options, match", [
        (dict(cv_folds=1), "cv_folds"),
        (dict(cv_folds=61), "cv_folds"),
        (dict(cv_grid_size=0), "cv_grid_size"),
    ])
    def test_cv_options_validated_before_any_trial(self, monkeypatch, options, match):
        import nlsparse.simulate as sim

        def no_trials(*args):
            raise AssertionError("trials ran before the CV options were validated")

        monkeypatch.setattr(sim, "_map_trials", no_trials)
        configs = [SimConfig(n=80, d=12, s_star=2, seed=33, trials=2),
                   SimConfig(n=60, d=12, s_star=2, seed=33, trials=2)]
        with pytest.raises(InputError, match=match):
            run_baseline_comparison(configs, **options)

    def test_cv_picks_the_argmin_of_converged_fits(self):
        # the exact path stands in for 5 x 30 fits at tol 1e-10
        config = SimConfig(n=80, d=16, s_star=3, noise_sd=1.0, seed=35)
        raw, _ = generate(config, 0)
        data = Dataset(design=raw.design, response=invert_link(builtin_link("paper"), raw.response))
        beta, lam = _cv_lasso(data, 5, 30)
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
        final = fit(builtin_link("identity"), data, FitConfig(lam=lam))
        np.testing.assert_array_equal(beta, final.beta_hat)

    def test_folds_equal_to_n_run(self):
        configs = [SimConfig(n=6, d=8, s_star=2, seed=34, trials=1)]
        row = run_baseline_comparison(configs, cv_folds=6, cv_grid_size=3, threads=1)[0]
        assert row.failures == 0


class TestCholeskyCache:
    def test_generate_bitwise_equal_with_cold_and_warm_cache(self):
        cfg = SimConfig(n=50, d=64, s_star=3, noise_sd=1.0, seed=5)
        _toeplitz_cholesky.cache_clear()
        cold, _ = generate(cfg, 2)
        warm, _ = generate(cfg, 2)
        assert _toeplitz_cholesky.cache_info().hits >= 1
        assert cold.design.tobytes() == warm.design.tobytes()
        assert cold.response.tobytes() == warm.response.tobytes()

    def test_factor_read_only_and_equal_to_one_thread_cholesky(self):
        caller = _needs_openblas()
        try:
            _set_blas_threads(1)
            expected = np.linalg.cholesky(toeplitz_covariance(128, 0.95))
            _set_blas_threads(2)  # the cached factor ignores the caller's count
            _toeplitz_cholesky.cache_clear()
            chol = _toeplitz_cholesky(128, 0.95)
            assert _set_blas_threads(caller) == 2
        finally:
            _set_blas_threads(caller)
        assert chol.tobytes() == expected.tobytes()
        with pytest.raises(ValueError):
            chol[0, 0] = 0.0


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
            inference_csv_text(run_inference_table(cfg, mu_grid=[0.0, 0.5], threads=k))
            for k in (1, 2, 1)
        ]
        assert texts[0] == texts[1] == texts[2]
        assert texts[0].splitlines()[0] == (
            "mu,score_type1,score_power,wald_type1,wald_power,trials,excluded"
        )

    def test_coordinate_validation(self):
        cfg = SimConfig(n=30, d=8, s_star=2, seed=1, trials=1)
        with pytest.raises(InputError):
            run_inference_trials(cfg, coordinates=(9,), threads=1)

    def test_table_coordinate_validated_before_any_trial(self, monkeypatch):
        import nlsparse.simulate as sim

        def no_trials(*args):
            raise AssertionError("trials ran before the coordinates were validated")

        monkeypatch.setattr(sim, "_map_trials", no_trials)
        cfg = SimConfig(n=30, d=8, s_star=2, seed=1, trials=2)
        with pytest.raises(InputError):
            run_inference_table(cfg, mu_grid=[0.0, 0.5], type1_coordinate=9)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_table_rows_equal_the_per_mu_trials(self, threads):
        cfg = SimConfig(n=60, d=12, s_star=3, noise_sd=1.0, seed=44, trials=3)
        rows = run_inference_table(cfg, mu_grid=[0.0, 0.5], threads=threads)
        assert [row.mu for row in rows] == [0.0, 0.5]
        for row in rows:
            outcomes = run_inference_trials(replace(cfg, beta_mode=ConstantBeta(row.mu)),
                                            coordinates=(4, 1), threads=1)

            def rate(coordinate, which):
                flags = [getattr(o, which) for _, per in outcomes for o in per
                         if o.coordinate == coordinate and getattr(o, which) is not None]
                return float(np.mean(flags))

            assert (row.score_type1, row.score_power, row.wald_type1, row.wald_power) == (
                rate(4, "score_reject"), rate(1, "score_reject"),
                rate(4, "wald_reject"), rate(1, "wald_reject"))
            assert row.trials == 3
            assert row.excluded == sum(
                any(o.failure is not None for o in per) for _, per in outcomes)


class TestThreadDefaults:
    def test_env_var_controls_default(self, monkeypatch):
        from nlsparse.simulate import THREADS_ENV_VAR, default_threads

        monkeypatch.setenv(THREADS_ENV_VAR, "3")
        assert default_threads() == 3
        monkeypatch.setenv(THREADS_ENV_VAR, "not-a-number")
        with pytest.raises(InputError):
            default_threads()
        monkeypatch.delenv(THREADS_ENV_VAR)
        assert default_threads() >= 1

    def test_default_is_the_usable_cpu_count(self, monkeypatch):
        import os

        from nlsparse.simulate import THREADS_ENV_VAR, default_threads

        monkeypatch.delenv(THREADS_ENV_VAR, raising=False)
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

    def test_pool_workers_run_one_thread(self):
        from nlsparse.simulate import _map_trials

        _needs_openblas()
        assert _map_trials(_set_blas_threads, [1] * 4, threads=2) == [1] * 4

    def test_sweep_csv_independent_of_workers_and_caller_blas_threads(self):
        # at d = 128, n = 1600 OpenBLAS threads the matrix products, and the
        # thread count changes the last bits of the fits
        caller = _needs_openblas()
        configs = [SimConfig(n=1600, d=128, s_star=5, noise_sd=1.0, seed=7, trials=2)]
        texts = set()
        try:
            for caller_threads in (1, 2):
                _set_blas_threads(caller_threads)
                for threads in (1, 2):
                    texts.add(sweep_csv_text(run_estimation_sweep(configs, threads=threads)))
        finally:
            _set_blas_threads(caller)
        assert len(texts) == 1

    def test_baseline_csv_independent_of_workers_and_caller_blas_threads(self):
        caller = _needs_openblas()
        configs = [SimConfig(n=200, d=128, s_star=8, noise_sd=1.0, seed=7, trials=2)]
        texts = set()
        try:
            for caller_threads in (1, 2):
                _set_blas_threads(caller_threads)
                for threads in (1, 2):
                    texts.add(baseline_csv_text(run_baseline_comparison(configs, threads=threads)))
        finally:
            _set_blas_threads(caller)
        assert len(texts) == 1


class TestCsvFormatting:
    def test_six_significant_digits(self):
        rows = run_estimation_sweep(
            [SimConfig(n=40, d=8, s_star=2, noise_sd=1.0, seed=8, trials=3)], threads=1
        )
        body = sweep_csv_text(rows).splitlines()[1].split(",")
        mean_l2 = body[4]
        assert len(mean_l2.replace(".", "").replace("-", "").lstrip("0")) <= 6
