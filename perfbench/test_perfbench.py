"""Tests of the benchmark's own checks and tracing.

    python3 -m pytest perfbench -q

Each check must reject a planted wrong answer, and the traced run's counts
must equal counts of the same calls taken without the tracer.
"""

from __future__ import annotations

import copy
import json
import os
import sys
import threading
from unittest import mock

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import qcqp.cli  # noqa: E402
import qcqp.lp  # noqa: E402
import qcqp.oneconstraint  # noqa: E402
import qcqp.relax  # noqa: E402

from perfbench import checks, run, trace  # noqa: E402
from perfbench.inputs import instance_rng, make_beam, make_boolls, sign_vector_blocks  # noqa: E402
from perfbench.workloads import WORKLOADS, Operation  # noqa: E402


def _argmin_boolls(inst):
    X = np.vstack(list(sign_vector_blocks(inst.A.shape[1])))
    values = np.sum((X @ inst.A.T - inst.b) ** 2, axis=1)
    return X[int(np.argmin(values))]


def _boolls_report(inst, x, bound=None):
    r = inst.A @ x - inst.b
    return {
        "best": {"x": [float(v) for v in x], "objective": float(r @ r), "violation": float(np.max(np.abs(x * x - 1.0)))},
        "bound": None if bound is None else {"bound": bound, "valid": True, "converged": False},
    }


@pytest.fixture(scope="module")
def boolls():
    return make_boolls(instance_rng(5, 0), 12, 8)


def test_enumerated_optimum_matches_direct_residuals(boolls):
    x = _argmin_boolls(boolls)
    r = boolls.A @ x - boolls.b
    assert boolls.optimum == pytest.approx(float(r @ r), rel=1e-12)


def test_sign_vector_blocks_cover_every_point_once():
    n = 13  # two blocks
    X = np.vstack(list(sign_vector_blocks(n)))
    assert X.shape == (2**n, n)
    assert len({row.tobytes() for row in X}) == 2**n


def test_boolls_check_accepts_the_optimum(boolls):
    report = _boolls_report(boolls, _argmin_boolls(boolls), bound=boolls.optimum - 1.0)
    assert checks.check_boolls(boolls, report, expect_bound=True) == []


def test_boolls_check_rejects_a_bound_above_the_optimum(boolls):
    report = _boolls_report(boolls, _argmin_boolls(boolls), bound=boolls.optimum * 1.01)
    assert any("above the optimum" in p for p in checks.check_boolls(boolls, report, expect_bound=True))


def test_boolls_check_rejects_an_infeasible_point(boolls):
    x = _argmin_boolls(boolls).copy()
    x[0] = 0.152
    report = _boolls_report(boolls, x)
    assert any("violates" in p for p in checks.check_boolls(boolls, report, expect_bound=False))
    report["best"]["violation"] = 0.0  # a point misreported as feasible
    problems = checks.check_boolls(boolls, report, expect_bound=False)
    assert any("violation reported" in p for p in problems)


def test_boolls_check_rejects_a_misreported_objective(boolls):
    report = _boolls_report(boolls, _argmin_boolls(boolls))
    report["best"]["objective"] *= 1.0 + 1e-7
    assert any("objective reported" in p for p in checks.check_boolls(boolls, report, expect_bound=False))


def test_boolls_check_rejects_an_objective_below_the_optimum(boolls):
    report = _boolls_report(boolls, _argmin_boolls(boolls))
    planted = copy.deepcopy(boolls)
    object.__setattr__(planted, "optimum", boolls.optimum * 1.1)
    assert any("below the optimum" in p for p in checks.check_boolls(planted, report, expect_bound=False))


def _beam_report(inst, x):
    return {"best": {"x": [float(v) for v in x], "objective": float(x @ x), "violation": checks.beam_violation(inst, x)}}


def test_beam_checks():
    inst = make_beam(instance_rng(5, 0), 3, 3, 1, 20.0, 1000.0)
    g = np.array([(inst.a[i] @ u) ** 2 + (inst.b[i] @ u) ** 2 for i in range(3) for u in [np.ones(6)]])
    x = np.ones(6) * np.sqrt(inst.tau / g.min())  # scaled onto the coverage boundary
    assert checks.check_beam(inst, _beam_report(inst, x)) == []
    assert any("violates" in p for p in checks.check_beam(inst, _beam_report(inst, 0.5 * x)))
    report = _beam_report(inst, x)
    report["best"]["objective"] *= 0.9
    assert any("objective reported" in p for p in checks.check_beam(inst, report))
    assert inst.lower_reference <= float(x @ x)


def test_problem_files_load_into_the_same_functions():
    inst = make_boolls(instance_rng(6, 1), 10, 5)
    problem = qcqp.cli.problem_from_json(json.loads(json.dumps(inst.problem_json())))
    x = np.array([1.0, -1.0, 1.0, 1.0, -1.0])
    r = inst.A @ x - inst.b
    assert qcqp.evaluate(problem.objective, x) == pytest.approx(float(r @ r), rel=1e-12)


def _count_untraced(owner, attr, fn):
    """Calls of owner.attr made while fn runs, counted by a plain mock wrapper."""
    with mock.patch.object(owner, attr, autospec=True, side_effect=getattr(owner, attr)) as spy:
        out = fn()
    return spy.call_count, out


def test_traced_counts_match_untraced_counts_on_two_threads(tmp_path):
    inst = make_boolls(instance_rng(7, 0), 12, 8)
    path = str(tmp_path / "p.json")
    with open(path, "w") as fh:
        json.dump(inst.problem_json(), fh)
    config = qcqp.cli.PipelineConfig(
        suggest="random", improve=("admm", "cd"), improve_opts={"admm": {"max_iter": 20}}, candidates=4, seed=3, parallel=2
    )

    def op():
        return qcqp.cli.canonical_report_json(qcqp.cli.run_pipeline(qcqp.cli.load_problem(path), config))

    untraced, plain = _count_untraced(qcqp.oneconstraint.ConstraintProjector, "project", op)
    tracer = trace.install(trace.Tracer())
    try:
        traced = op()
    finally:
        tracer.uninstall()
    assert traced == plain
    assert tracer.calls["oneconstraint.project"] == untraced > 0
    assert tracer.calls["improve.admm"] == 4
    assert tracer.counters["improve.admm.iters"] == 4 * 20
    metrics = trace.layer_metrics(tracer, 1)
    assert set(metrics) == set(trace.LAYER_METRICS)


def test_traced_lp_counts_match_untraced_counts():
    inst = make_boolls(instance_rng(8, 0), 10, 6)
    problem = qcqp.cli.problem_from_json(inst.problem_json())

    def op():
        return qcqp.relax.sdr_bound_cutting_plane(problem)

    untraced, plain = _count_untraced(qcqp.lp.IncrementalLp, "solve", op)
    rows = []  # rows of the whole program at each solve, read through its public view
    solve = qcqp.lp.IncrementalLp.solve

    def solve_and_count(self):
        program = self.program()
        rows.append(sum(b.size for b in (program.b_ub, program.b_eq) if b is not None))
        return solve(self)

    with mock.patch.object(qcqp.lp.IncrementalLp, "solve", solve_and_count):
        op()
    tracer = trace.install(trace.Tracer())
    try:
        traced = op()
    finally:
        tracer.uninstall()
    assert traced.trace == plain.trace
    assert tracer.calls["lp.solve"] == untraced == len(plain.trace) == len(rows)
    assert tracer.counters["lp.rows_at_last_solve"] == rows[-1] > 0
    assert tracer.counters["relax.rounds"] == len(plain.trace)
    assert tracer.calls["lp.cold_solve"] == 0
    assert tracer.calls["relax.cutplane"] == 1
    assert tracer.self_seconds["relax.cutplane"] < tracer.seconds["relax.cutplane"]


def test_tracer_counts_stay_exact_under_thread_switching():
    tracer = trace.Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(inner(x)))
    threads, per_thread = 8, 2000

    def work():
        for i in range(per_thread):
            outer(i)
            tracer.count("work")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pool = [threading.Thread(target=work) for _ in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in pool)
    assert tracer.calls["outer"] == threads * per_thread
    assert tracer.calls["inner"] == 2 * threads * per_thread
    assert tracer.counters["work"] == threads * per_thread
    assert tracer.self_seconds["outer"] <= tracer.seconds["outer"]


def test_uninstall_restores_every_patched_function():
    before = (qcqp.cli.run_pipeline, qcqp.cli.load_problem, qcqp.lp.IncrementalLp.__dict__["solve"], dict(qcqp.improve.METHODS))
    trace.install(trace.Tracer()).uninstall()
    after = (qcqp.cli.run_pipeline, qcqp.cli.load_problem, qcqp.lp.IncrementalLp.__dict__["solve"], dict(qcqp.improve.METHODS))
    assert before == after
    assert isinstance(qcqp.core.QuadraticForm.__dict__["from_dense"], classmethod)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_inputs_are_fixed_by_the_seed(name, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    WORKLOADS[name].prepare(4, str(a))
    WORKLOADS[name].prepare(4, str(b))
    files = sorted(os.listdir(a))
    assert files and files == sorted(os.listdir(b))
    for f in files:
        assert (a / f).read_bytes() == (b / f).read_bytes()


def test_a_failed_check_makes_the_run_incorrect():
    ops = [
        Operation(run=lambda: "good", check=lambda text: [], gap=lambda text: 1.0),
        Operation(run=lambda: "bad", check=lambda text: ["planted"], gap=lambda text: 1.0),
    ]
    res = run._measure(ops, 0.0)
    assert res["attempted"] == 2 * run.MIN_ROUNDS and res["failed"] == run.MIN_ROUNDS
    assert res["gaps"] == [1.0]
    assert run._result(res, {})["correct"] is False
    assert run._result(run._measure(ops[:1], 0.0), {})["correct"] is True
