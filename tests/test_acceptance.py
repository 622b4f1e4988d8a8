"""Acceptance suite: every release criterion, one test each, one line each.

Each test prints ``[criterion NN] PASS/FAIL <name> <detail>`` regardless of
pytest capture settings, then asserts. The Monte Carlo criteria (08-10 and
13-15) run once per dimension and read only the rows of that dimension's
module-scoped calibration table, one ``run_inference_table`` call at mu 0,
0.25 and 0.5: d = 128 (500 trials per mu) in tier-1, and d = 512 (200
trials per mu), marked ``slow``, which ``pytest -m slow`` runs. Each rate is
printed with the row's counts behind it and their Wilson 95% interval.
Criteria 13-15 test inference off the global null, at the default rho rule
(scale 0.25) and the model-based Wald variance r/D0.
"""

import math
import time

import numpy as np
import pytest

from nlsparse import (
    Dataset,
    FitConfig,
    builtin_link,
    check_gradients,
    fit,
    normal_quantile,
    soft_threshold,
    solve_dantzig,
    solver,
    sparse_eigen_report,
    sparse_eigenvalues,
)
from nlsparse.cli import main as cli_main
from nlsparse.simulate import (
    SimConfig,
    run_baseline_comparison,
    run_estimation_sweep,
    run_inference_table,
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
        # one instance; central differences at h = 1e-6 against the analytic derivatives
        checked = check_gradients(link, n, d, 1, rng)
        worst_grad = max(worst_grad, checked.max_rel_gradient)
        worst_hess = max(worst_hess, checked.max_rel_hessian)
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
        data, beta_star = generate_data(cfg)
        res = fit(paper, data, FitConfig(lam=1e-4))
        errors.append(float(np.linalg.norm(res.beta_hat - beta_star)))
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
def inference_table(request):
    """The one table that criteria 08, 09, 10, 13, 14 and 15 read at
    dimension d: its rows at mu 0, 0.25 and 0.5, keyed by mu, which test
    coordinates 11 (null) and 1 (support)."""
    d, trials = request.param  # trials per mu
    started = time.perf_counter()
    rows = run_inference_table(SimConfig(n=200, d=d, s_star=10, seed=20240817, trials=trials),
                               mu_grid=(0.0, 0.25, 0.5), threads=THREADS)
    table = {row.mu: row for row in rows}
    table["d"] = d
    table["elapsed"] = time.perf_counter() - started
    return table


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


def shown(successes, trials):
    """A rate as a criterion prints it: with its count and its Wilson interval."""
    low, high = wilson(successes, trials)
    return f"{successes / trials:.3f} ({successes}/{trials}, [{low:.4f}, {high:.4f}])"


def test_criterion_08_type1_calibration(capsys, inference_table):
    row = inference_table[0.0]
    ok = 0.03 <= row.score_type1 <= 0.08 and 0.03 <= row.wald_type1 <= 0.08
    score = shown(row.score_type1_rejects, row.score_type1_tests)
    wald = shown(row.wald_type1_rejects, row.wald_type1_tests)
    report(capsys, 8, "type-I calibration", ok,
           f"d={inference_table['d']} score={score} wald={wald} band=[0.03,0.08] "
           f"excluded={row.excluded} time={inference_table['elapsed']:.0f}s")


def test_criterion_09_power_trend(capsys, inference_table):
    rows = [inference_table[mu] for mu in (0.0, 0.25, 0.5)]
    score_power = [row.score_power for row in rows]
    wald_power = [row.wald_power for row in rows]
    nondecreasing = all(
        b >= a - 0.05 for seq in (score_power, wald_power) for a, b in zip(seq, seq[1:])
    )
    strong = score_power[-1] >= 0.9 and wald_power[-1] >= 0.9
    last = rows[-1]
    report(capsys, 9, "power trend", nondecreasing and strong,
           f"d={inference_table['d']} score={['%.3f' % p for p in score_power]} "
           f"wald={['%.3f' % p for p in wald_power]} at mu=0.5: "
           f"score={shown(last.score_power_rejects, last.score_power_tests)} "
           f"wald={shown(last.wald_power_rejects, last.wald_power_tests)}")


def test_criterion_10_ci_coverage(capsys, inference_table):
    row = inference_table[0.0]
    report(capsys, 10, "CI coverage", 0.92 <= row.wald_coverage <= 0.98,
           f"d={inference_table['d']} coverage={shown(row.wald_covers, row.wald_power_tests)} "
           f"band=[0.92,0.98]")


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
        sparse_eigen_report(np.eye(2 * k + s), k, s_star=s, k_star=k).condition_holds
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


def test_criterion_13_type1_off_the_global_null(capsys, inference_table):
    row = inference_table[0.5]
    report(capsys, 13, "type-I off the global null", row.score_type1 <= 0.08,
           f"d={inference_table['d']} mu=0.5 "
           f"score={shown(row.score_type1_rejects, row.score_type1_tests)} bound=0.08")


def test_criterion_14_coverage_off_the_global_null(capsys, inference_table):
    row = inference_table[0.5]
    report(capsys, 14, "CI coverage off the global null", 0.92 <= row.wald_coverage <= 0.98,
           f"d={inference_table['d']} mu=0.5 "
           f"coverage={shown(row.wald_covers, row.wald_power_tests)} band=[0.92,0.98]")


def test_criterion_15_inference_at_a_weak_signal(capsys, inference_table):
    row = inference_table[0.25]
    ok = row.score_type1 <= 0.08 and 0.92 <= row.wald_coverage <= 0.98
    report(capsys, 15, "inference at a weak signal", ok,
           f"d={inference_table['d']} mu=0.25 "
           f"score={shown(row.score_type1_rejects, row.score_type1_tests)} bound=0.08 "
           f"coverage={shown(row.wald_covers, row.wald_power_tests)} band=[0.92,0.98]")
