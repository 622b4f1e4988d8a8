"""Byte-identical ``simulate`` CSVs across worker counts and BLAS threading.

Each case is a list of ``python -m nlsparse simulate`` runs, given as (arguments,
extra environment); every run must exit 0, and all of a case's CSVs must be
byte-equal. The runs take about 15 s on 2 cores, so the cases are marked
``slow``: run them with ``pytest -m slow tests/test_reproducibility.py``. The
last test, which is not slow, checks that CI runs them after it uninstalls scipy.
"""
import pathlib
import subprocess
import sys

import pytest

from tests.conftest import child_env

_BLAS2 = {"OPENBLAS_NUM_THREADS": "2"}


def _workers_1_and_2(args, env=None):
    """The runs of ``args`` at --threads 1 and 2, each with the extra environment ``env``."""
    return [(f"{args} --threads {k}", env or {}) for k in (1, 2)]


_TABLE_D512 = ("--experiment table --n 200 --d 512 --s-star 10 --mu-grid 0,0.25,0.5 --trials 2 "
               "--seed 7 --threads 2")

CASES = {
    # non-vacuous LPs at d = 512; one run, which must exit 0
    "table_d512_rho2_smoke": [(
        "--experiment table --n 200 --d 512 --s-star 10 --mu-grid 0,0.5 --rho-rule 2 "
        "--trials 2 --seed 7 --threads 2", {})],
    # at d = 128, n = 1600 OpenBLAS threads the matrix products
    "sweep_d128_workers": _workers_1_and_2(
        "--experiment sweep --d 128 --s-star 5 --n-grid 400,1600 --trials 2 --seed 7", _BLAS2),
    # the default rho rule; seed 1007 gives 33 LP solves, none vacuous
    "table_d512_seed1007_workers": _workers_1_and_2(
        "--experiment table --n 200 --d 512 --s-star 10 --mu-grid 0,0.5,1 --trials 4 --seed 1007"),
    # the exact CV-lasso path
    "baseline_d128_workers": _workers_1_and_2(
        "--experiment baseline --d 128 --s-star 8 --n-grid 200,400 --trials 2 --seed 7", _BLAS2),
    # n < d, the README's baseline size
    "baseline_d256_3trials_workers": _workers_1_and_2(
        "--experiment baseline --d 256 --s-star 8 --n-grid 200 --trials 3 --seed 7"),
    # 2 jobs: the caller and one forked child run a trial each
    "baseline_d256_2jobs_workers": _workers_1_and_2(
        "--experiment baseline --d 256 --s-star 8 --n-grid 200 --trials 2 --seed 7"),
    # n << d: the lasso path's buffers are sized by d
    "baseline_d512_workers": _workers_1_and_2(
        "--experiment baseline --d 512 --s-star 8 --n-grid 200 --trials 2 --seed 7"),
    "table_lp_workers": _workers_1_and_2(
        "--experiment table --n 200 --d 64 --s-star 10 --mu-grid 0,0.5 --rho-rule 2 "
        "--trials 2 --seed 7"),
    # OpenBLAS loaded single-threaded (no BLAS variable) against 2 BLAS threads;
    # the default rho rule gives 16 LP solves, none vacuous
    "table_d512_blas_threads": [(_TABLE_D512, {}), (_TABLE_D512, _BLAS2)],
}


@pytest.mark.slow
@pytest.mark.parametrize("runs", CASES.values(), ids=CASES.keys())
def test_runs_write_one_csv(runs, tmp_path):
    csvs = []
    for i, (args, env) in enumerate(runs):
        out = tmp_path / f"run{i}.csv"
        argv = [sys.executable, "-m", "nlsparse", "simulate", *args.split(), "--output", str(out)]
        proc = subprocess.run(argv, env={**child_env(), **env}, capture_output=True, text=True,
                              timeout=600)
        assert proc.returncode == 0, f"{env} {args}\n{proc.stderr}"
        csvs.append(out.read_bytes())
    assert csvs[0] != b""
    for i, csv in enumerate(csvs[1:], 1):
        assert csv == csvs[0], f"run {i} ({runs[i]}) differs from run 0 ({runs[0]})"


def test_ci_runs_the_cases_without_scipy():
    yaml = pytest.importorskip("yaml")
    workflow = pathlib.Path(__file__).parents[1] / ".github" / "workflows" / "tests.yml"
    steps = yaml.safe_load(workflow.read_text())["jobs"]["tier1"]["steps"]
    runs = [step.get("run", "") for step in steps]
    uninstall = [i for i, run in enumerate(runs) if "pip uninstall -y scipy" in run]
    cases = [i for i, step in enumerate(steps) if "if" not in step
             and "pytest -m slow tests/test_reproducibility.py" in runs[i]]
    assert len(uninstall) == 1 and len(cases) == 1
    assert uninstall[0] < cases[0]
