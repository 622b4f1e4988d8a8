"""End-to-end and per-layer benchmark of ``nlsparse simulate``.

Usage, from the root of a source checkout (the package is imported from
``src/``, nothing needs installing)::

    python3 perfbench/run.py --workload sweep --seed 99 --seconds 25 --trace 0

``--trace 0`` measures what a user sees, with tracing off. It times fresh
interpreters importing ``nlsparse.cli`` (``setup_s``, the median). Then, for
``--seconds``, it runs the workload's ``nlsparse simulate`` command in a fresh
process again and again, each time on new inputs, with ``--threads`` equal to
the CPU count and no BLAS thread variable set. Over those commands it reports
successful trials per wall second, CPU seconds (command plus workers) per
trial, the median peak RSS of the largest process, and the completed share
of trials. ``failed_share`` (0 unless trials fail) is printed beside them.
Check: the first command's CSV is byte-identical to an in-process run's.

``--trace 1`` measures each layer from outside. Each round calls the public
entry point ``nlsparse.cli.main`` in-process three times with the same arguments:
with the command's worker count, with one worker, and with one worker while
:mod:`spans` wraps the layer functions. Rounds repeat for ``--seconds``; the
metrics are medians over rounds, and the spans are written to
``perfbench/out/`` when the run ends. Checks: the three CSVs are
byte-identical, every traced fit converged with a KKT residual of at most
10 tol, every optimal LP is feasible, and one LP per grid point has the same
l1 optimum as scipy's HiGHS.

Both modes print, as the last line, one JSON object ``{"correct",
"attempted", "failed", "metrics"}``; ``attempted`` and ``failed`` count
trials, and a command that exits non-zero fails all its trials. The exit code
is 0, or 1 when a check fails, or 2 when the checkout holds no
``src/nlsparse``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")

# Removed from the environment before numpy loads, so every run uses the
# BLAS library's own default thread count, as a user's shell would.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

SETUP_SPAWNS = 7  # timed interpreter starts per run; setup_s is their median
COMMAND_TIMEOUT_S = 150


@dataclass(frozen=True)
class Workload:
    args: tuple  # simulate options, without --seed/--trials/--threads/--output
    seed: int  # default seed
    trials: int  # --trials of each command (per grid point)
    grid_points: int


WORKLOADS = {
    # Cold-start paper-link fits are ~86% of in-process time (~133
    # iterations each), generate ~14%; the LP and inference never run. Moves
    # with the solver (solver.fit.paper) and with generate at n = 1600.
    "sweep": Workload(("--experiment", "sweep", "--d", "128", "--s-star", "5",
                       "--n-grid", "100,200,400,800,1600"), 99, 4, 5),
    # Over 98% of a trial is CV-lasso: ~151 short, warm-started identity-link
    # fits at tol 1e-4. Shows a solver change that helps cold paper-link fits
    # but costs warm-started ones, and strong rules. A few trials in a hundred
    # fail because invert_link misses its 1e-10 tolerance on one response
    # (e.g. --seed 22, n = 400, trial 1); they count as failed trials.
    "baseline": Workload(("--experiment", "baseline", "--d", "128", "--s-star", "8",
                          "--n-grid", "200,400"), 77, 2, 2),
    # A non-vacuous decorrelation LP: ~1.7k Bland pivots and ~150 ms per LP,
    # 4 per trial, so score_test + wald_estimate are ~97% of a trial. The
    # target of LP pivoting work. d = 128 takes 13k pivots per LP, and
    # d = 256 hits the pivot limit.
    "table_lp": Workload(("--experiment", "table", "--n", "200", "--d", "64",
                          "--s-star", "10", "--mu-grid", "0,0.5", "--rho-rule", "2"), 7, 2, 2),
    # The README / north-star size with a vacuous LP (0 pivots), whose dense
    # tableau set-up is still ~50% of traced time. The only workload where LP
    # set-up, the Hessian, generate's d x d Cholesky and memory matter.
    # At the default rho rule (30), 5-10% of LPs at mu > 0 are not vacuous
    # (max|h_ag| / rho reached 1.2 over 1200 LPs) and take 0.1-7 s each, which
    # makes one run's timing depend on luck; rule 45 keeps every LP vacuous.
    "table_d512": Workload(("--experiment", "table", "--n", "200", "--d", "512",
                            "--s-star", "10", "--mu-grid", "0,0.25,0.5", "--rho-rule", "45"),
                           7, 2, 3),
}


def simulate_args(workload: Workload, seed: int, threads: int, output: str):
    return ["simulate", *workload.args, "--seed", str(seed), "--trials", str(workload.trials),
            "--threads", str(threads), "--output", output]


@dataclass
class Outcome:
    """One execution of the simulate command."""

    wall_s: float
    returncode: int
    csv: bytes  # empty when the command failed
    attempted: int
    failed: int
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0


def _count_trials(text: bytes, returncode: int, workload: Workload):
    """(attempted, failed) trials from the CSV's trials and failures/excluded columns."""
    expected = workload.trials * workload.grid_points
    if returncode != 0:
        return expected, expected
    rows = list(csv.DictReader(io.StringIO(text.decode())))
    attempted = sum(int(r["trials"]) for r in rows)
    failed = sum(int(r.get("failures") or r.get("excluded")) for r in rows)
    return attempted, failed


def _outcome(workload, output, wall, rc, **usage):
    text = _read(output) if rc == 0 else b""
    return Outcome(wall, rc, text, *_count_trials(text, rc, workload), **usage)


def _remove(path):
    if os.path.exists(path):
        os.remove(path)


def _read(path):
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return b""


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def spawn(argv, env):
    """Run argv to completion; return (wall_s, returncode, rusage).

    The rusage covers the process and the worker processes it waited for.
    On timeout the whole process group is killed.
    """
    started = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, start_new_session=True)
    timer = threading.Timer(COMMAND_TIMEOUT_S, _kill_group, (proc.pid,))
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return time.perf_counter() - started, proc.returncode, usage


def _kill_group(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_command(workload, seed, threads, output, env) -> Outcome:
    """The simulate command in a fresh process, as a user runs it."""
    _remove(output)
    argv = [sys.executable, "-m", "nlsparse", *simulate_args(workload, seed, threads, output)]
    wall, rc, usage = spawn(argv, env)
    return _outcome(workload, output, wall, rc, cpu_s=usage.ru_utime + usage.ru_stime,
                    peak_rss_mb=usage.ru_maxrss / 1024.0)


def run_in_process(workload, seed, threads, output) -> Outcome:
    """The same command through the public entry point nlsparse.cli.main, in-process."""
    from nlsparse import cli

    _remove(output)
    started = time.perf_counter()
    try:
        rc = cli.main(simulate_args(workload, seed, threads, output))
    except Exception as exc:  # a crash counts as failed trials, reported below
        print(f"perfbench: nlsparse.cli.main raised {type(exc).__name__}: {exc}", file=sys.stderr)
        rc = 1
    return _outcome(workload, output, time.perf_counter() - started, rc)


def setup_times(env):
    """Wall times of fresh interpreters importing nlsparse.cli, after one warm-up."""
    argv = [sys.executable, "-c", "import nlsparse.cli"]
    times = []
    for i in range(SETUP_SPAWNS + 1):
        wall, rc, _ = spawn(argv, env)
        if rc != 0:
            raise SystemExit(f"perfbench: importing nlsparse.cli failed with exit code {rc}")
        if i:
            times.append(wall)
    return times


def same_outputs(outcomes, label):
    """Problems unless every outcome has the same exit code and CSV bytes."""
    first = outcomes[0]
    bad = [o for o in outcomes if (o.returncode, o.csv) != (first.returncode, first.csv)]
    if bad:
        return [f"{label}: outputs differ (exit codes {[o.returncode for o in outcomes]}, "
                f"CSV digests {sorted({_digest(o.csv) for o in outcomes})})"]
    return []


def _digest(data: bytes):
    return hashlib.sha256(data).hexdigest()


def highs_problems(samples):
    """Compare sampled LP optima with scipy's HiGHS on the same program."""
    import numpy as np
    from scipy.optimize import linprog

    problems = []
    for h_ag, h_gg, rho, l1 in samples:
        m = h_ag.size
        a_ub = np.block([[h_gg, -h_gg], [-h_gg, h_gg]])
        b_ub = np.concatenate([rho + h_ag, rho - h_ag])
        res = linprog(np.ones(2 * m), A_ub=a_ub, b_ub=b_ub, bounds=(0, None), method="highs")
        if res.status != 0:
            problems.append(f"HiGHS did not solve a sampled LP: {res.message}")
        elif abs(res.fun - l1) > 1e-6 * max(1.0, abs(res.fun)):
            problems.append(f"LP l1 optimum {l1:.9g} differs from HiGHS {res.fun:.9g}")
    return problems


def environment(threads):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "threads": threads,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_thread_vars": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
    }


def _blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None when it cannot be read."""
    import ctypes
    import glob

    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*")):
        try:
            get = ctypes.CDLL(path).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        get.restype = ctypes.c_int
        return int(get())
    return None


def _git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "--git-dir", os.path.join(ROOT, ".git"), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _source_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "nlsparse")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode() + b"\0" + _read(os.path.join(pkg, name)))
    return h.hexdigest()


def _median(values):
    return float(statistics.median(values))


def command_seed(seed, k):
    """Seed of the k-th command of a run: each command draws new inputs."""
    return seed + 1000 * k


def measure_end_to_end(workload, seed, seconds, threads, workdir):
    env = _child_env()
    setup = setup_times(env)
    commands = []
    started = time.perf_counter()
    while True:
        sub_seed = command_seed(seed, len(commands))
        out = run_command(workload, sub_seed, threads, os.path.join(workdir, "command.csv"), env)
        commands.append(out)
        print(f"command seed={sub_seed} exit={out.returncode} wall_s={out.wall_s:.4f} "
              f"cpu_s={out.cpu_s:.4f} peak_rss_mb={out.peak_rss_mb:.2f} "
              f"attempted={out.attempted} failed={out.failed} csv_sha256={_digest(out.csv)}")
        if time.perf_counter() - started + out.wall_s > seconds:
            break
    reference = run_in_process(workload, seed, 1, os.path.join(workdir, "inprocess.csv"))
    problems = same_outputs([commands[0], reference], "command vs in-process run")
    attempted = sum(o.attempted for o in commands)
    failed = sum(o.failed for o in commands)
    metrics = {
        "setup_s": (_median(setup), "s"),
        "trials_per_s": ((attempted - failed) / sum(o.wall_s for o in commands), "1/s"),
        "cpu_s_per_trial": (sum(o.cpu_s for o in commands) / attempted, "s"),
        "peak_rss_mb": (_median([o.peak_rss_mb for o in commands]), "MB"),
        "completed_share": ((attempted - failed) / attempted, "ratio"),
    }
    print(f"attempted={attempted} failed={failed} failed_share={failed / attempted:.6g} ratio")
    return metrics, problems, commands + [reference]


def measure_layers(workload, seed, seconds, threads, workdir):
    """Per-layer metrics (medians over rounds), problems, outcomes and all spans."""
    from spans import Tracer, check_spans, installed, layer_metrics

    rounds, outcomes, problems, spans = [], [], [], []
    started = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        parallel = run_in_process(workload, seed, threads, os.path.join(workdir, "parallel.csv"))
        tracer = Tracer()

        def plain_run():
            return run_in_process(workload, seed, 1, os.path.join(workdir, "plain.csv"))

        def traced_run():
            with installed(tracer):
                return run_in_process(workload, seed, 1, os.path.join(workdir, "traced.csv"))

        # alternate which one-worker run goes first, so neither always runs
        # on warmer caches
        if len(rounds) % 2 == 0:
            plain, traced = plain_run(), traced_run()
        else:
            traced, plain = traced_run(), plain_run()
        outcomes += [parallel, plain, traced]
        metrics = layer_metrics(tracer.spans, traced.wall_s)
        metrics["simulate.parallel_speedup"] = (plain.wall_s / parallel.wall_s, "ratio")
        metrics["trace.overhead_share"] = (traced.wall_s / plain.wall_s - 1.0, "ratio")
        rounds.append(metrics)
        problems += check_spans(tracer.spans)
        if len(rounds) == 1:
            problems += highs_problems(tracer.lp_samples)
        spans.append(tracer.spans)
        if time.perf_counter() - started + (time.perf_counter() - round_start) > seconds:
            break
    problems += same_outputs(outcomes, "2-worker, 1-worker and traced in-process runs")
    metrics = {name: (_median([r[name][0] for r in rounds]), unit)
               for name, (_, unit) in rounds[0].items()}
    print(f"rounds={len(rounds)} csv_sha256={_digest(outcomes[0].csv)}")
    return metrics, problems, outcomes, spans


def write_spans(path, env, spans):
    with open(path, "w") as out:
        out.write(json.dumps({"environment": env}) + "\n")
        for index, round_spans in enumerate(spans):
            for span in round_spans:
                out.write(json.dumps({"round": index, **span.__dict__}) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, help="input seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=25.0, help="how long to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "nlsparse", "__init__.py")):
        print(f"perfbench: no nlsparse sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ.pop(var, None)
    sys.path.insert(0, SRC)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

    workload = WORKLOADS[args.workload]
    seed = workload.seed if args.seed is None else args.seed
    threads = len(os.sched_getaffinity(0))
    env = environment(threads)
    print("environment " + json.dumps(env, sort_keys=True))

    workdir = os.path.join(OUT, f"{args.workload}-{seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.trace:
            metrics, problems, outcomes, spans = measure_layers(
                workload, seed, args.seconds, threads, workdir)
            span_path = os.path.join(OUT, f"spans-{args.workload}-{seed}.jsonl")
            write_spans(span_path, env, spans)
            print(f"spans written to {os.path.relpath(span_path, ROOT)}")
        else:
            metrics, problems, outcomes = measure_end_to_end(
                workload, seed, args.seconds, threads, workdir)
    finally:
        for name in os.listdir(workdir):
            os.remove(os.path.join(workdir, name))
        os.rmdir(workdir)

    for name, (value, unit) in metrics.items():
        print(f"{name}={value:.6g} {unit}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    result = {
        "correct": not problems,
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
