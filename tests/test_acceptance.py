"""Acceptance suite: every release criterion, one test each, one line each.

Each test prints ``[criterion NN] PASS/FAIL <name> <detail>`` regardless of
pytest capture settings, then asserts. The Monte Carlo criteria (08-10, 13
and 14) run once per dimension and read only that dimension's module-scoped
batch of ``run_inference_trials`` runs: d = 128 (500 trials per mu) in
tier-1, and d = 512 (200 trials per mu), marked ``slow``, which
``pytest -m slow`` runs. Each rate is printed with its trial count and its
Wilson 95% interval. Criteria 13 and 14 test inference off the global null,
at the default rho rule (scale 0.25) and the model-based Wald variance r/D0.
"""

import math
import time

import numpy as np
import pytest

from nlsparse import (
    Dataset,
    FitConfig,
    builtin_link,
    check_assumption1,
    fit,
    loss_gradient,
    loss_hessian,
    normal_quantile,
    soft_threshold,
    solve_dantzig,
    solver,
    sparse_eigenvalues,
)
from nlsparse.cli import main as cli_main
from nlsparse.diagnostics import _fd_gradient, _fd_hessian, _rel_dev
from nlsparse.simulate import (
    ConstantBeta,
    SimConfig,
    run_baseline_comparison,
    run_estimation_sweep,
    run_inference_trials,
)
from tests.test_dantzig import enumerate_lp_optimum, random_problem

THREADS = 2


def report(capsys, number, name, passed, detail):
    with capsys.disabled():
        verdict = "PASS" if passed else "FAIL"
        print(f"[criterion {number:02d}] {verdict} {name}: {detail}")
    assert passed, f"criterion {number} ({name}): {detail}"


def test_criterion_01_derivative_correctness(capsys):
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_grad = worst_hess = 0.0
    for trial in range(50):
        link = builtin_link("paper" if trial % 2 else "identity")
        n = int(rng.integers(3, 21))
        d = int(rng.integers(1, 9))
        X = rng.standard_normal((n, d))
        y = np.asarray(link.eval(X @ rng.standard_normal(d))) + 0.5 * rng.standard_normal(n)
        data = Dataset(design=X, response=y)
        beta = rng.standard_normal(d)
        # central differences at h = 1e-6 against the analytic derivatives
        worst_grad = max(worst_grad, _rel_dev(_fd_gradient(link, data, beta),
                                              loss_gradient(link, data, beta)))
        worst_hess = max(worst_hess, _rel_dev(_fd_hessian(link, data, beta),
                                              loss_hessian(link, data, beta)))
    elapsed = time.perf_counter() - started
    ok = worst_grad <= 1e-6 and worst_hess <= 1e-5 and elapsed < 10.0
    report(capsys, 1, "derivative correctness", ok,
           f"max_rel_grad={worst_grad:.2e} max_rel_hess={worst_hess:.2e} time={elapsed:.1f}s")


def test_criterion_02_solver_stationarity(capsys):
    started = time.perf_counter()
    paper = builtin_link("paper")
    worst_kkt = 0.0
    replay_ok = True
    config_tol = 1e-5
    for seed in range(20):
        cfg = SimConfig(n=200, d=100, s_star=5, noise_sd=1.0, seed=300 + seed, trials=1)
        data, _ = generate_data(cfg)
        config = FitConfig(lam=cfg.lambda_rule(3.0))
        res = fit(paper, data, config)
        assert res.converged, f"seed {seed} did not converge"
        worst_kkt = max(worst_kkt, res.kkt_residual)
        trace = res.objective_trace
        for t in range(1, res.iterations + 1):
            window = trace[max(0, t - 1 - solver.MEMORY):t]
            bound = max(window) - solver.ZETA * res.stepsize_trace[t - 1] / 2.0 \
                * res.step_sqnorm_trace[t - 1]
            if not trace[t] <= bound:
                replay_ok = False
    elapsed = time.perf_counter() - started
    ok = worst_kkt <= 10.0 * config_tol and replay_ok and elapsed < 60.0
    report(capsys, 2, "solver stationarity", ok,
           f"max_kkt={worst_kkt:.2e} (cap {10 * config_tol:.0e}) replay={replay_ok} "
           f"time={elapsed:.1f}s")


def generate_data(cfg, trial=0):
    from nlsparse.simulate import generate

    return generate(cfg, trial)


def test_criterion_03_orthogonal_design_oracle(capsys):
    identity = builtin_link("identity")
    rng = np.random.default_rng(103)
    n = 50
    y = rng.standard_normal(n)
    lam = 0.004
    res = fit(identity, Dataset(design=np.eye(n), response=y), FitConfig(lam=lam))
    expected = soft_threshold(y, n * lam)
    gap = float(np.abs(res.beta_hat - expected).max())
    report(capsys, 3, "orthogonal-design oracle", gap <= 1e-8, f"max_abs_gap={gap:.2e}")


def test_criterion_04_noiseless_exact_recovery(capsys):
    started = time.perf_counter()
    paper = builtin_link("paper")
    errors = []
    for seed in range(20):
        cfg = SimConfig(n=200, d=50, s_star=5, noise_sd=0.0, seed=400 + seed, trials=1)
        data, truth = generate_data(cfg)
        res = fit(paper, data, FitConfig(lam=1e-4))
        errors.append(float(np.linalg.norm(res.beta_hat - truth.beta_star)))
    elapsed = time.perf_counter() - started
    mean_err = float(np.mean(errors))
    ok = mean_err <= 1e-2 and elapsed < 60.0
    report(capsys, 4, "noiseless exact recovery", ok,
           f"mean_l2={mean_err:.2e} max_l2={max(errors):.2e} time={elapsed:.1f}s")


def test_criterion_05_rate_shape(capsys):
    started = time.perf_counter()
    configs = [
        SimConfig(n=n, d=128, s_star=5, noise_sd=1.0, seed=99, trials=50)
        for n in (100, 200, 400, 800, 1600)
    ]
    rows = run_estimation_sweep(configs, threads=THREADS)
    means = np.array([r.mean_l2 for r in rows])
    eff = np.array([r.effective_sample for r in rows])
    monotone = bool(np.all(np.diff(means) <= 0.0))
    A = np.vstack([eff, np.ones_like(eff)]).T
    coef, *_ = np.linalg.lstsq(A, means, rcond=None)
    slope, intercept = float(coef[0]), float(coef[1])
    ss_res = float(((means - A @ coef) ** 2).sum())
    ss_tot = float(((means - means.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot
    elapsed = time.perf_counter() - started
    ok = monotone and r2 >= 0.95 and slope > 0.0 and abs(intercept) <= 0.05 \
        and elapsed < 900.0
    report(capsys, 5, "rate shape", ok,
           f"means={np.array2string(means, precision=3)} R2={r2:.4f} "
           f"slope={slope:.3f} intercept={intercept:.4f} time={elapsed:.0f}s")


def test_criterion_06_baseline_dominance(capsys):
    started = time.perf_counter()
    configs = [
        SimConfig(n=n, d=128, s_star=8, noise_sd=1.0, seed=77, trials=50)
        for n in (200, 400, 800)
    ]
    rows = run_baseline_comparison(configs, threads=THREADS)
    gaps = [(r.n, r.mean_l2, r.base_mean_l2) for r in rows]
    dominated = all(p < b for _, p, b in gaps)
    elapsed = time.perf_counter() - started
    ok = dominated and elapsed < 1200.0
    report(capsys, 6, "baseline dominance", ok,
           " ".join(f"n={n}:{p:.3f}<{b:.3f}" for n, p, b in gaps) + f" time={elapsed:.0f}s")


def test_criterion_07_dantzig_exactness(capsys):
    started = time.perf_counter()
    rng = np.random.default_rng(107)
    worst = 0.0
    for _ in range(50):
        m = int(rng.integers(1, 5))
        h_ag, h_gg = random_problem(rng, m)
        rho = float(rng.uniform(0.05, 0.5))
        res = solve_dantzig(h_ag, h_gg, rho)
        assert res.status == "optimal"
        worst = max(worst, abs(res.l1_norm - enumerate_lp_optimum(h_ag, h_gg, rho)))

    h_ag, h_gg = random_problem(rng, 4)
    shortcut = solve_dantzig(h_ag, h_gg, float(np.abs(h_ag).max()) * 1.01)
    zero_ok = bool(np.all(shortcut.d_hat == 0.0))
    base = solve_dantzig(h_ag, h_gg, 0.2)
    scale_gap = max(
        float(np.abs(solve_dantzig(c * h_ag, c * h_gg, c * 0.2).d_hat - base.d_hat).max())
        for c in (0.5, 2.0, 7.3)
    )
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-6 and zero_ok and scale_gap <= 1e-8 and elapsed < 10.0
    report(capsys, 7, "dantzig exactness", ok,
           f"max_obj_gap={worst:.2e} zero_shortcut={zero_ok} scale_gap={scale_gap:.2e} "
           f"time={elapsed:.1f}s")


@pytest.fixture(scope="module", params=[
    pytest.param((128, 500), id="128"),
    pytest.param((512, 200), id="512", marks=pytest.mark.slow),
])
def inference_runs(request):
    """The one batch that criteria 08, 09, 10, 13 and 14 read at dimension d:
    coordinates 11 (null) and 1 (support) at mu 0 and 0.5, coordinate 1 at
    mu 0.25."""
    d, trials = request.param  # trials per mu
    base = dict(n=200, d=d, s_star=10, noise_sd=1.0, toeplitz_rho=0.95,
                link_name="paper", seed=20240817, trials=trials)
    started = time.perf_counter()
    runs = {
        mu: run_inference_trials(SimConfig(beta_mode=ConstantBeta(mu), **base),
                                 coordinates=coordinates, threads=THREADS)
        for mu, coordinates in ((0.0, (11, 1)), (0.25, (1,)), (0.5, (11, 1)))
    }
    runs["d"] = d
    runs["elapsed"] = time.perf_counter() - started
    return runs


def wilson(successes, trials):
    """Wilson (1927) score interval, at 95%, for a rate of successes in trials."""
    z = normal_quantile(0.975)
    p = successes / trials
    shrink = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / shrink
    half = z / shrink * math.sqrt(p * (1.0 - p) / trials + z * z / (4 * trials * trials))
    return center - half, center + half


def test_wilson_interval():
    assert tuple(round(v, 4) for v in wilson(0, 10)) == (0.0, 0.2775)
    assert tuple(round(v, 4) for v in wilson(6, 200)) == (0.0138, 0.0639)


def rate(flags):
    return float(np.mean(flags))


def shown(flags):
    """A rate as a criterion prints it: with its count and its Wilson interval."""
    low, high = wilson(sum(flags), len(flags))
    return f"{rate(flags):.3f} ({sum(flags)}/{len(flags)}, [{low:.4f}, {high:.4f}])"


def rejections(outcomes, coordinate, which):
    return [getattr(o, which) for _, per in outcomes for o in per
            if o.coordinate == coordinate and getattr(o, which) is not None]


def coverage_flags(outcomes, truth):
    """Whether coordinate 1's Wald interval covers the truth, per trial."""
    return [o.ci_low <= truth <= o.ci_high for _, per in outcomes for o in per
            if o.coordinate == 1 and o.wald_reject is not None]


def test_criterion_08_type1_calibration(capsys, inference_runs):
    score = rejections(inference_runs[0.0], 11, "score_reject")
    wald = rejections(inference_runs[0.0], 11, "wald_reject")
    excluded = sum(1 for _, per in inference_runs[0.0] for o in per if o.failure is not None)
    ok = 0.03 <= rate(score) <= 0.08 and 0.03 <= rate(wald) <= 0.08
    report(capsys, 8, "type-I calibration", ok,
           f"d={inference_runs['d']} score={shown(score)} wald={shown(wald)} band=[0.03,0.08] "
           f"excluded={excluded} time={inference_runs['elapsed']:.0f}s")


def test_criterion_09_power_trend(capsys, inference_runs):
    mus = (0.0, 0.25, 0.5)
    score_flags = [rejections(inference_runs[mu], 1, "score_reject") for mu in mus]
    wald_flags = [rejections(inference_runs[mu], 1, "wald_reject") for mu in mus]
    score_power = [rate(flags) for flags in score_flags]
    wald_power = [rate(flags) for flags in wald_flags]
    nondecreasing = all(
        b >= a - 0.05 for seq in (score_power, wald_power) for a, b in zip(seq, seq[1:])
    )
    strong = score_power[-1] >= 0.9 and wald_power[-1] >= 0.9
    report(capsys, 9, "power trend", nondecreasing and strong,
           f"d={inference_runs['d']} score={['%.3f' % p for p in score_power]} "
           f"wald={['%.3f' % p for p in wald_power]} at mu=0.5: "
           f"score={shown(score_flags[-1])} wald={shown(wald_flags[-1])}")


def test_criterion_10_ci_coverage(capsys, inference_runs):
    covered = coverage_flags(inference_runs[0.0], 0.0)
    ok = 0.92 <= rate(covered) <= 0.98
    report(capsys, 10, "CI coverage", ok,
           f"d={inference_runs['d']} coverage={shown(covered)} band=[0.92,0.98]")


def test_criterion_11_diagnostics(capsys):
    rng = np.random.default_rng(111)
    worst = 0.0
    for _ in range(20):
        d = int(rng.integers(2, 11))
        A = rng.standard_normal((d + 2, d))
        M = A.T @ A / (d + 2)
        lo, hi = sparse_eigenvalues(M, d)
        eigs = np.linalg.eigvalsh(M)
        worst = max(worst, abs(lo - eigs[0]), abs(hi - eigs[-1]))

    B = rng.standard_normal((8, 6))
    M6 = B.T @ B / 8
    pairs = [sparse_eigenvalues(M6, k) for k in range(1, 7)]
    monotone = all(b[0] <= a[0] + 1e-12 and b[1] >= a[1] - 1e-12
                   for a, b in zip(pairs, pairs[1:]))
    identity_ok = all(
        check_assumption1(np.eye(2 * k + s), s, k)
        for s, k in ((1, 2), (2, 4), (3, 6))
    )
    ok = worst <= 1e-10 and monotone and identity_ok
    report(capsys, 11, "diagnostics", ok,
           f"max_eig_gap={worst:.2e} monotone={monotone} identity_condition={identity_ok}")


def test_criterion_12_reproducibility(capsys, tmp_path):
    args = ["simulate", "--experiment", "table", "--n", "80", "--d", "24",
            "--s-star", "3", "--trials", "12", "--seed", "31", "--mu-grid", "0,0.5"]
    outputs = []
    for tag, threads in (("a", 1), ("b", 2), ("c", 1)):
        path = tmp_path / f"{tag}.csv"
        code = cli_main(args + ["--threads", str(threads), "--output", str(path)])
        assert code == 0
        outputs.append(path.read_bytes())
    identical = outputs[0] == outputs[1] == outputs[2]
    report(capsys, 12, "reproducibility", identical,
           f"bytes={len(outputs[0])} identical_across_runs_and_threads={identical}")


def test_criterion_13_type1_off_the_global_null(capsys, inference_runs):
    score = rejections(inference_runs[0.5], 11, "score_reject")
    report(capsys, 13, "type-I off the global null", rate(score) <= 0.08,
           f"d={inference_runs['d']} mu=0.5 score={shown(score)} bound=0.08")


def test_criterion_14_coverage_off_the_global_null(capsys, inference_runs):
    covered = coverage_flags(inference_runs[0.5], 0.5)
    ok = 0.92 <= rate(covered) <= 0.98
    report(capsys, 14, "CI coverage off the global null", ok,
           f"d={inference_runs['d']} mu=0.5 coverage={shown(covered)} band=[0.92,0.98]")
