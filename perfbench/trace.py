"""Per-layer spans recorded from outside the program.

install() replaces public functions of the qcqp modules, at every module
attribute through which the program calls them, with wrappers that time
each call and count it.  A span's self time is its time minus that of the
traced spans it directly encloses on the same thread; a call that re-enters
the layer it is already in (a projector building its sub-projector) is not
a span of its own.  Totals are updated under a lock, so counts stay exact
when the pipeline improves candidates on several threads.

Functions called millions of times per run (the secular-equation helpers,
evaluate) are deliberately left alone: wrapping them would double the run.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict

import qcqp.cli
import qcqp.core
import qcqp.improve
import qcqp.linalg
import qcqp.lp
import qcqp.oneconstraint
import qcqp.onevar
import qcqp.relax
import qcqp.split
import qcqp.suggest

from .checks import FEAS_TOL


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.counters = defaultdict(float)
        self.last_lp_rows = 0  # rows of the LP at its latest solve
        self._undo = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += amount

    def wrap(self, name: str, fn, after=None):
        """fn with a span named name; after(result, args, kwargs) runs after the span."""

        def traced(*args, **kwargs):
            stack = self._stack()
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                with self._lock:
                    self.calls[name] += 1
                    self.seconds[name] += dt
                    self.self_seconds[name] += dt - frame[1]
            if after is not None:
                after(result, args, kwargs)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, after=None) -> None:
        """Replace owner.attr (a module, class or dict entry) with its traced form."""
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = self.wrap(name, original, after)
            self._undo.append(lambda: owner.__setitem__(attr, original))
            return
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            replacement = classmethod(self.wrap(name, raw.__func__, after))
        else:
            replacement = self.wrap(name, raw, after)
        setattr(owner, attr, replacement)
        self._undo.append(lambda: setattr(owner, attr, raw))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()


def install(tracer: Tracer) -> Tracer:
    """Trace every layer the workloads run through; returns tracer."""
    cli, core, improve, linalg, lp = qcqp.cli, qcqp.core, qcqp.improve, qcqp.linalg, qcqp.lp
    onecon, onevar, relax, split, suggest = qcqp.oneconstraint, qcqp.onevar, qcqp.relax, qcqp.split, qcqp.suggest

    tracer.patch(cli, "load_problem", "cli.load")
    tracer.patch(cli, "canonical_report_json", "cli.report")
    for fn in ("suggest_random", "suggest_spectral", "suggest_sdr"):
        tracer.patch(cli, fn, "suggest")

    def after_cutplane(result, args, kwargs):
        tracer.count("relax.bounds")
        tracer.count("relax.rounds", len(result.trace))
        tracer.count("relax.converged", float(result.converged))
        tracer.count("lp.rows_at_last_solve", tracer.last_lp_rows)

    for owner in (relax, suggest, cli):
        tracer.patch(owner, "sdr_bound_cutting_plane", "relax.cutplane", after_cutplane)
    for owner in (relax, suggest):
        tracer.patch(owner, "sample_from_lifted", "relax.sample")

    def after_add_rows(result, args, kwargs):
        tracer.count("relax.cuts", len(args[2] if len(args) > 2 else kwargs["b"]))

    def after_lp_solve(result, args, kwargs):
        # the cutting plane runs in the suggest step, on the pipeline's own
        # thread, so the latest solve is that of the call in progress
        program = args[0]
        tracer.last_lp_rows = program._n_eq + sum(b.size for b in program._b_ub)

    tracer.patch(lp.IncrementalLp, "add_rows", "lp.add_rows", after_add_rows)
    tracer.patch(lp.IncrementalLp, "solve", "lp.solve", after_lp_solve)
    tracer.patch(lp, "solve_lp", "lp.cold_solve")

    for owner in (linalg, relax, onecon, split):
        tracer.patch(owner, "sym_eigen", "linalg.eig")
    for owner in (linalg, improve):
        tracer.patch(owner, "min_eig_bound", "linalg.eig")

    def after_sequence(result, args, kwargs):
        tracer.count("improve.candidates")
        tracer.count("improve.feasible", float(result.assessment.violation <= FEAS_TOL))

    tracer.patch(cli, "improve_sequence", "improve.sequence", after_sequence)
    for method in ("sign", "cd", "admm", "ccp", "scale"):

        def after_method(result, args, kwargs, method=method):
            tracer.count(f"improve.{method}.iters", result.iterations)

        tracer.patch(improve.METHODS, method, f"improve.{method}", after_method)
    tracer.patch(improve, "solve_convex", "improve.convex")

    tracer.patch(onecon.ConstraintProjector, "__init__", "oneconstraint.projector_init")
    tracer.patch(onecon.ConstraintProjector, "project", "oneconstraint.project")
    for owner in (onecon, relax, improve):
        tracer.patch(owner, "solve_one_constraint", "oneconstraint.qcqp1")
    for owner in (onevar, improve):
        tracer.patch(owner, "minimize_over_set", "onevar.minimize")

    # improve_ccp reaches split_eigen and the others through this table
    for key in list(improve._SPLITTERS):
        tracer.patch(improve._SPLITTERS, key, "split")
    for owner in (core, cli, improve):
        tracer.patch(owner, "assess", "core.assess")
    tracer.patch(core.QuadraticForm, "from_dense", "core.from_dense")
    return tracer


# name -> (unit, how to read it from a tracer); counts and seconds are
# reported per operation, shares and "per bound" averages as they are
def _calls(name):
    return lambda t: t.calls[name]


def _secs(name):
    return lambda t: t.seconds[name]


def _self(name):
    return lambda t: t.self_seconds[name]


def _counter(name):
    return lambda t: t.counters[name]


def _share(num, den):
    return lambda t: (t.counters[num] / t.counters[den]) if t.counters[den] else 0.0


LAYER_METRICS = {
    "cli.load_s": ("s", _secs("cli.load")),
    "cli.report_s": ("s", _secs("cli.report")),
    "suggest.s": ("s", _secs("suggest")),
    "relax.cutplane_s": ("s", _secs("relax.cutplane")),
    "relax.cutplane_self_s": ("s", _self("relax.cutplane")),
    "relax.rounds": ("count", _counter("relax.rounds")),
    "relax.cuts": ("count", _counter("relax.cuts")),
    "relax.converged": ("ratio", _share("relax.converged", "relax.bounds")),
    "relax.sample_s": ("s", _secs("relax.sample")),
    "lp.solves": ("count", _calls("lp.solve")),
    "lp.solve_s": ("s", _secs("lp.solve")),
    "lp.add_rows_s": ("s", _secs("lp.add_rows")),
    "lp.rows": ("rows/bound", _share("lp.rows_at_last_solve", "relax.bounds")),
    "lp.cold_solves": ("count", _calls("lp.cold_solve")),
    "linalg.eig_calls": ("count", _calls("linalg.eig")),
    "linalg.eig_s": ("s", _secs("linalg.eig")),
    "improve.sequence_s": ("s", _secs("improve.sequence")),
    "improve.sign.s": ("s", _secs("improve.sign")),
    "improve.cd.s": ("s", _secs("improve.cd")),
    "improve.cd.iters": ("count", _counter("improve.cd.iters")),
    "improve.admm.s": ("s", _secs("improve.admm")),
    "improve.admm.self_s": ("s", _self("improve.admm")),
    "improve.admm.iters": ("count", _counter("improve.admm.iters")),
    "improve.ccp.s": ("s", _secs("improve.ccp")),
    "improve.ccp.self_s": ("s", _self("improve.ccp")),
    "improve.ccp.iters": ("count", _counter("improve.ccp.iters")),
    "improve.convex_solves": ("count", _calls("improve.convex")),
    "improve.scale.s": ("s", _secs("improve.scale")),
    "improve.feasible": ("ratio", _share("improve.feasible", "improve.candidates")),
    "oneconstraint.projections": ("count", _calls("oneconstraint.project")),
    "oneconstraint.project_s": ("s", _secs("oneconstraint.project")),
    "oneconstraint.projectors": ("count", _calls("oneconstraint.projector_init")),
    "oneconstraint.projector_init_s": ("s", _secs("oneconstraint.projector_init")),
    "oneconstraint.qcqp1_solves": ("count", _calls("oneconstraint.qcqp1")),
    "oneconstraint.qcqp1_s": ("s", _secs("oneconstraint.qcqp1")),
    "onevar.minimize_calls": ("count", _calls("onevar.minimize")),
    "onevar.minimize_s": ("s", _secs("onevar.minimize")),
    "split.calls": ("count", _calls("split")),
    "split.s": ("s", _secs("split")),
    "core.assess_calls": ("count", _calls("core.assess")),
    "core.assess_s": ("s", _secs("core.assess")),
    "core.from_dense_calls": ("count", _calls("core.from_dense")),
    "core.from_dense_s": ("s", _secs("core.from_dense")),
}


def layer_metrics(tracer: Tracer, operations: int) -> dict:
    """Every layer metric: counts and seconds per operation, shares and averages as they are."""
    out = {}
    for name, (unit, read) in LAYER_METRICS.items():
        value = float(read(tracer))
        if unit in ("s", "count"):
            value /= operations
        out[name] = {"value": value, "unit": unit}
    return out
