"""Spans around nlsparse's layer functions, recorded from outside the program.

:func:`installed` replaces the public layer functions at the module
attributes their callers look up (``nlsparse.simulate.fit``,
``nlsparse.inference.solve_dantzig``, ...) with wrappers that record one
:class:`Span` per call, and puts the originals back when the block ends. The
experiment must run in-process with one worker (``--threads 1``): a worker
process would call the originals.

Spans of one trial share a key, the (grid point, trial) pair read from the
arguments of ``generate``, which every trial calls first. A span's parent is
the wrapped call that was open when it started, so ``loss.gradient`` spans
inside a fit are children of that fit's ``solver.fit.<link>`` span.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

# An LP is feasible when rho - ||h_ag - h_gg d_hat||_inf is at least this.
FEAS_TOL = 1e-8


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]  # index of the enclosing span in Tracer.spans
    key: Optional[str]  # "<grid point>:<trial>" of the trial being run
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Keeps spans in memory, plus the arguments of one LP per grid point."""

    def __init__(self):
        self.spans: list[Span] = []
        self.lp_samples: list[tuple] = []  # (h_ag, h_gg, rho, l1_norm)
        self._open: list[int] = []
        self._key: Optional[str] = None
        self._grid: dict = {}
        self._sampled_grid: set = set()

    def start_trial(self, config, trial):
        point = (config.n, config.d, config.s_star, config.beta_mode)
        grid = self._grid.setdefault(point, len(self._grid))
        self._key = f"{grid}:{trial}"

    def wrap(self, func, name, describe=None, before=None):
        """A stand-in for ``func`` that records a span per call.

        ``name`` is a string or a function of the call's arguments;
        ``describe(args, result)`` returns attributes recorded after the
        call returns, outside the span's interval.
        """

        def traced(*args, **kwargs):
            if before is not None:
                before(*args)
            span = Span(name if isinstance(name, str) else name(*args), 0.0, 0.0,
                        self._open[-1] if self._open else None, self._key)
            self._open.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            except Exception as exc:
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if describe is not None:
                span.attrs.update(describe(args, result))
            return result

        return traced

    def _describe_fit(self, args, result):
        config = args[2]
        return {"iterations": result.iterations, "converged": bool(result.converged),
                "kkt_residual": float(result.kkt_residual), "tol": float(config.tol)}

    def _describe_lp(self, args, result):
        h_ag, h_gg, rho = np.asarray(args[0]), np.asarray(args[1]), float(args[2])
        attrs = {"status": result.status,
                 "vacuous": bool(h_ag.size == 0 or rho >= float(np.abs(h_ag).max()))}
        if result.status == "optimal":
            attrs["nnz"] = int(np.count_nonzero(result.d_hat))
            attrs["slack"] = rho - float(np.abs(h_ag - h_gg @ result.d_hat).max(initial=0.0))
            grid = self._key.split(":")[0] if self._key else None
            if grid not in self._sampled_grid:
                self._sampled_grid.add(grid)
                self.lp_samples.append((h_ag.copy(), h_gg.copy(), rho, float(result.l1_norm)))
        return attrs


@contextmanager
def installed(tracer: Tracer):
    """Wrap the layer functions for the duration of the block."""
    from nlsparse import inference, simulate, solver

    wrappers = [
        (simulate, "generate", dict(name="simulate.generate", before=tracer.start_trial)),
        (simulate, "fit", dict(name=lambda link, *_: f"solver.fit.{link.name}",
                               describe=tracer._describe_fit)),
        (simulate, "invert_link", dict(name="model.invert_link")),
        (simulate, "score_test", dict(name="inference.score_test")),
        (simulate, "wald_estimate", dict(name="inference.wald_estimate")),
        (solver, "loss_gradient", dict(name="loss.gradient",
                                       describe=lambda *_: {"caller": "solver"})),
        (inference, "loss_gradient", dict(name="loss.gradient",
                                          describe=lambda *_: {"caller": "inference"})),
        (inference, "loss_hessian", dict(name="loss.hessian")),
        (inference, "solve_dantzig", dict(name="dantzig.solve", describe=tracer._describe_lp)),
    ]
    originals = [(module, attr, getattr(module, attr)) for module, attr, _ in wrappers]
    try:
        for (module, attr, options), (_, _, func) in zip(wrappers, originals):
            setattr(module, attr, tracer.wrap(func, **options))
        yield tracer
    finally:
        for module, attr, func in originals:
            setattr(module, attr, func)


def _covered(intervals, start, end):
    """Length of [start, end] covered by the union of the intervals."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans):
    """Each span's duration minus the part of it that its child spans cover."""
    children = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return [s.end - s.start - _covered(children[i], s.start, s.end)
            for i, s in enumerate(spans)]


def check_spans(spans):
    """Problems with the traced outputs: unconverged fits and infeasible LPs."""
    problems = []
    for span in spans:
        a = span.attrs
        if span.name.startswith("solver.fit.") and "error" not in a:
            if not a["converged"] or a["kkt_residual"] > 10.0 * a["tol"]:
                problems.append(f"{span.name} at trial {span.key}: converged={a['converged']} "
                                f"kkt_residual={a['kkt_residual']:.3e} tol={a['tol']:g}")
        if span.name == "dantzig.solve" and a.get("status") == "optimal" and a["slack"] < -FEAS_TOL:
            problems.append(f"LP at trial {span.key} is infeasible: slack {a['slack']:.3e}")
    return problems


def _share(num, den):
    return num / den if den else 0.0


def _pct(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(spans, wall_s):
    """Per-layer metrics of one traced run, as {name: (value, unit)}.

    Shares and means over zero calls read 0. ``wall_s`` is the traced run's
    wall time, used for each layer's share of it.
    """
    own = self_times(spans)
    by_name: dict = {}
    for span, self_s in zip(spans, own):
        by_name.setdefault(span.name, []).append((span, self_s))

    def calls(name):
        return by_name.get(name, [])

    def busy(name):
        return sum(s.end - s.start for s, _ in calls(name))

    def self_sum(name):
        return sum(t for _, t in calls(name))

    def ms(name):
        return [1e3 * (s.end - s.start) for s, _ in calls(name)]

    m = {}
    trial_bounds: dict = {}
    for span in spans:
        lo, hi = trial_bounds.get(span.key, (span.start, span.end))
        trial_bounds[span.key] = (min(lo, span.start), max(hi, span.end))
    trial_ms = [1e3 * (hi - lo) for key, (lo, hi) in trial_bounds.items() if key is not None]
    m["simulate.trial.ms_p50"] = (_pct(trial_ms, 50), "ms")
    m["simulate.trial.ms_p90"] = (_pct(trial_ms, 90), "ms")
    m["simulate.generate.calls"] = (len(calls("simulate.generate")), "count")
    m["simulate.generate.busy_s"] = (busy("simulate.generate"), "s")

    iterations_all = 0
    for link in ("paper", "identity"):
        name = f"solver.fit.{link}"
        done = [s.attrs for s, _ in calls(name) if "error" not in s.attrs]
        iterations = sum(a["iterations"] for a in done)
        iterations_all += iterations
        m[f"{name}.calls"] = (len(calls(name)), "count")
        m[f"{name}.busy_s"] = (busy(name), "s")
        m[f"{name}.self_s"] = (self_sum(name), "s")
        m[f"{name}.ms_p50"] = (_pct(ms(name), 50), "ms")
        m[f"{name}.ms_p90"] = (_pct(ms(name), 90), "ms")
        m[f"{name}.iterations"] = (iterations, "count")
        m[f"{name}.iters_per_call"] = (_share(iterations, len(done)), "count")
        m[f"{name}.converged_share"] = (
            _share(sum(a["converged"] for a in done), len(calls(name))), "ratio")
        m[f"{name}.wall_share"] = (_share(busy(name), wall_s), "ratio")

    solver_grads = sum(1 for s, _ in calls("loss.gradient") if s.attrs.get("caller") == "solver")
    m["loss.gradient.calls"] = (len(calls("loss.gradient")), "count")
    m["loss.gradient.busy_s"] = (busy("loss.gradient"), "s")
    m["loss.gradient.per_iter"] = (_share(solver_grads, iterations_all), "count")
    m["loss.hessian.calls"] = (len(calls("loss.hessian")), "count")
    m["loss.hessian.busy_s"] = (busy("loss.hessian"), "s")

    lps = [s.attrs for s, _ in calls("dantzig.solve")]
    optimal = [a for a in lps if a.get("status") == "optimal"]
    m["dantzig.solve.calls"] = (len(lps), "count")
    m["dantzig.solve.busy_s"] = (busy("dantzig.solve"), "s")
    m["dantzig.solve.ms_p50"] = (_pct(ms("dantzig.solve"), 50), "ms")
    m["dantzig.solve.ms_p90"] = (_pct(ms("dantzig.solve"), 90), "ms")
    m["dantzig.solve.vacuous_share"] = (_share(sum(a["vacuous"] for a in lps), len(lps)), "ratio")
    m["dantzig.solve.dhat_nnz_mean"] = (_share(sum(a["nnz"] for a in optimal), len(optimal)), "count")
    m["dantzig.solve.infeasible_share"] = (
        _share(sum(a.get("status") == "infeasible" for a in lps), len(lps)), "ratio")
    m["dantzig.solve.wall_share"] = (_share(busy("dantzig.solve"), wall_s), "ratio")

    tests = calls("inference.score_test") + calls("inference.wald_estimate")
    for kind in ("score_test", "wald_estimate"):
        name = f"inference.{kind}"
        m[f"{name}.calls"] = (len(calls(name)), "count")
        m[f"{name}.busy_s"] = (busy(name), "s")
        m[f"{name}.self_s"] = (self_sum(name), "s")
    m["inference.hessian_per_test"] = (_share(len(calls("loss.hessian")), len(tests)), "count")
    m["inference.failed_share"] = (
        _share(sum("error" in s.attrs for s, _ in tests), len(tests)), "ratio")

    m["model.invert_link.calls"] = (len(calls("model.invert_link")), "count")
    m["model.invert_link.busy_s"] = (busy("model.invert_link"), "s")
    return m
