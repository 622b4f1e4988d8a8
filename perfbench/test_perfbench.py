"""Tests of the benchmark's own code.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import os
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
from spans import Span, Tracer, check_spans, installed, layer_metrics, self_times  # noqa: E402


def _span(start, end, parent=None, name="x"):
    return Span(name, start, end, parent, None)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(0.0, 10.0),
        _span(1.0, 3.0, parent=0),
        _span(2.0, 4.0, parent=0),  # overlaps the previous child
        _span(2.5, 3.5, parent=2),  # grandchild: counts against span 2 only
        _span(9.0, 12.0, parent=0),  # runs past the parent's end
        _span(20.0, 21.0),
    ]
    assert self_times(spans) == pytest.approx([10.0 - 3.0 - 1.0, 2.0, 1.0, 1.0, 3.0, 1.0])


def test_wrappers_are_restored_even_when_the_run_raises():
    from nlsparse import inference, simulate, solver

    names = [(simulate, n) for n in ("generate", "fit", "invert_link", "score_test",
                                     "wald_estimate")]
    names += [(solver, "loss_gradient")]
    names += [(inference, n) for n in ("loss_hessian", "loss_gradient", "solve_dantzig")]
    before = [getattr(m, n) for m, n in names]
    with pytest.raises(RuntimeError):
        with installed(Tracer()):
            assert all(getattr(m, n) is not f for (m, n), f in zip(names, before))
            raise RuntimeError("stop")
    assert all(getattr(m, n) is f for (m, n), f in zip(names, before))


SMALL_TABLE = run.Workload(("--experiment", "table", "--n", "60", "--d", "12", "--s-star", "3",
                            "--mu-grid", "0,0.5", "--rho-rule", "2"), 3, 2, 2)


def test_traced_run_writes_the_untraced_csv(tmp_path):
    plain = run.run_in_process(SMALL_TABLE, 3, 1, str(tmp_path / "plain.csv"))
    tracer = Tracer()
    with installed(tracer):
        traced = run.run_in_process(SMALL_TABLE, 3, 1, str(tmp_path / "traced.csv"))
    assert plain.returncode == 0 and plain.csv
    assert traced.csv == plain.csv
    assert (traced.attempted, traced.failed) == (4, 0)

    assert check_spans(tracer.spans) == []
    assert run.highs_problems(tracer.lp_samples) == []
    assert len(tracer.lp_samples) == 2  # one LP per grid point
    keys = {s.key for s in tracer.spans}
    assert keys == {"0:0", "0:1", "1:0", "1:1"}
    m = layer_metrics(tracer.spans, traced.wall_s)
    assert m["simulate.generate.calls"][0] == 4
    assert m["solver.fit.paper.calls"][0] == 4
    assert m["inference.score_test.calls"][0] == 2 * 4  # two coordinates per trial
    assert m["dantzig.solve.calls"][0] == 16
    assert m["inference.hessian_per_test"][0] == 1.0
    assert m["loss.gradient.per_iter"][0] >= 1.0
    for span in tracer.spans:
        if span.name in ("loss.gradient", "loss.hessian", "dantzig.solve"):
            assert tracer.spans[span.parent].name.startswith(("solver.fit", "inference."))


def test_gate_catches_an_infeasible_lp_and_an_unconverged_fit():
    lp = Span("dantzig.solve", 0.0, 1.0, None, "0:0",
              {"status": "optimal", "vacuous": False, "nnz": 1, "slack": -1e-6})
    fit = Span("solver.fit.paper", 0.0, 1.0, None, "0:0",
               {"iterations": 5, "converged": True, "kkt_residual": 1e-3, "tol": 1e-5})
    assert len(check_spans([lp, fit])) == 2


def test_failed_command_counts_all_its_trials():
    assert run._count_trials(b"", 2, SMALL_TABLE) == (4, 4)
    text = b"mu,score_type1,score_power,wald_type1,wald_power,trials,excluded\n0,0,0,0,0,2,1\n"
    assert run._count_trials(text, 0, SMALL_TABLE) == (2, 1)


def test_exits_nonzero_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "spans.py"):
        shutil.copy(os.path.join(os.path.dirname(os.path.abspath(__file__)), name), bench)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
