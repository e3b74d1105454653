from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import qcqp.improve
import qcqp.oneconstraint
from qcqp.core import Constraint, QcqpProblem, QuadraticForm, Sense, assess, evaluate
from qcqp.errors import InfeasibleConstraintError, NotConvexError, NotScalableError
from qcqp.generators import brute_force, gen_beamforming, gen_boolean_ls, gen_partitioning
from qcqp.improve import (
    _AffineRows,
    _CurvedRows,
    _Rows,
    METHODS,
    default_rho,
    greedy_clique,
    improve_admm,
    improve_ccp,
    improve_coordinate_descent,
    improve_sequence,
    round_balanced_sign,
    round_sign,
    scale_to_cover,
    solve_convex,
)
from qcqp.oneconstraint import FEAS_TOL, ConstraintProjector
from qcqp.split import split_eigen
from qcqp.onevar import OneVarStatus, solve_onevar


# -- rounders ---------------------------------------------------------------


def test_round_sign():
    assert np.array_equal(round_sign([0.5, -0.1, 0.0]), [1.0, -1.0, 1.0])


def test_round_balanced_sign():
    z = round_balanced_sign([0.9, 0.1, 0.5, -0.2])
    assert np.array_equal(z, [1.0, -1.0, 1.0, -1.0])
    assert z.sum() == 0.0
    # ties go to the lower index
    z = round_balanced_sign([1.0, 1.0, 1.0, 1.0])
    assert np.array_equal(z, [1.0, 1.0, -1.0, -1.0])
    with pytest.raises(ValueError):
        round_balanced_sign([1.0, 2.0, 3.0])


def test_scale_to_cover():
    # one covering form x'I x >= 1: scaling any x to the unit sphere
    z = scale_to_cover([3.0, 4.0], [np.eye(2)])
    assert np.linalg.norm(z) == pytest.approx(1.0)
    # min_i z'P_i z = 1 with two forms
    z = scale_to_cover([1.0, 1.0], [np.eye(2), 4.0 * np.eye(2)])
    assert min(z @ z, 4.0 * (z @ z)) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(NotScalableError):
        scale_to_cover([1.0, 0.0], [np.diag([0.0, 1.0])])


def test_greedy_clique_is_maximal():
    A = np.array(
        [
            [1, 1, 0, 1],
            [1, 1, 1, 0],
            [0, 1, 1, 0],
            [1, 0, 0, 1],
        ]
    )
    z = greedy_clique([0.9, 0.8, 0.1, 0.7], A)
    chosen = np.nonzero(z)[0]
    # pairwise adjacency
    for i in chosen:
        for j in chosen:
            assert A[i, j]
    # maximality: every unchosen vertex misses some edge into the clique
    for i in range(4):
        if z[i] == 0.0:
            assert any(not A[i, j] for j in chosen)


# -- coordinate descent -----------------------------------------------------


def test_cd_matches_onevar_on_single_variable():
    rng = np.random.default_rng(0)
    for _ in range(30):
        p0 = abs(rng.standard_normal()) + 0.1
        q0, r0 = rng.standard_normal(2)
        cons = [tuple(rng.standard_normal(3)) for _ in range(int(rng.integers(0, 4)))]
        obj = QuadraticForm.create(1, [(0, 0, p0)], [q0], r0)
        rows = [
            Constraint(QuadraticForm.create(1, [(0, 0, p)], [q], r), Sense.LE)
            for p, q, r in cons
        ]
        problem = QcqpProblem.create(obj, rows)
        ref = solve_onevar((p0, q0, r0), cons)
        if ref.status is not OneVarStatus.OPTIMAL:
            continue
        rep = improve_coordinate_descent(problem, [float(rng.standard_normal())])
        assert rep.assessment.violation <= 1e-7
        assert rep.assessment.objective <= ref.value + 1e-6


def test_cd_boolean_one_opt():
    # from any start CD must land on a 1-opt point: no single flip improves
    p = gen_boolean_ls(12, 8, seed=1)
    x0 = np.random.default_rng(5).standard_normal(8)
    rep = improve_coordinate_descent(p, x0)
    assert rep.assessment.violation == 0.0
    x = rep.x
    f = evaluate(p.objective, x)
    for j in range(8):
        y = x.copy()
        y[j] = -y[j]
        assert evaluate(p.objective, y) >= f - 1e-9


def test_cd_never_worse():
    p = gen_boolean_ls(5, 4, seed=3)
    x_feas = np.ones(4)
    rep = improve_coordinate_descent(p, x_feas)
    assert not assess(p, x_feas).better_than(rep.assessment)


def test_cd_infeasible_problem_reports_unconverged():
    # x = 1 and x = -1 simultaneously
    obj = QuadraticForm.create(1)
    c1 = Constraint(QuadraticForm.create(1, (), [1.0], -1.0), Sense.EQ)
    c2 = Constraint(QuadraticForm.create(1, (), [1.0], 1.0), Sense.EQ)
    p = QcqpProblem.create(obj, [c1, c2])
    rep = improve_coordinate_descent(p, [0.0])
    assert not rep.converged
    assert rep.assessment.violation > 0.0


def _sparse_rows_problem(seed: int) -> QcqpProblem:
    """n = 8, a dense objective, and eight rows that each touch one to three variables."""
    rng = np.random.default_rng(seed)
    n = 8
    A = rng.standard_normal((n, n))
    obj = QuadraticForm.from_dense(A + A.T, rng.standard_normal(n), 0.0)
    rows = []
    for k in range(n):
        s = np.sort(rng.choice(n, size=int(rng.integers(1, 4)), replace=False))
        P = np.zeros((n, n))
        B = rng.standard_normal((s.size, s.size))
        P[np.ix_(s, s)] = B + B.T
        q = np.zeros(n)
        q[s] = rng.standard_normal(s.size)
        sense = Sense.EQ if k % 4 == 0 else Sense.LE
        rows.append(Constraint(QuadraticForm.from_dense(P, q, -0.5 if sense is Sense.EQ else -1.0), sense))
    return QcqpProblem.create(obj, rows)


def _cd_case(name: str):
    """(problem, x0, options) of a pinned coordinate-descent run."""
    if name == "boolean_ls":
        return gen_boolean_ls(12, 8, seed=1), np.random.default_rng(5).standard_normal(8), {}
    if name == "partitioning":
        rng = np.random.default_rng(2)
        W = np.triu(rng.standard_normal((10, 10)), 1)
        return gen_partitioning(W + W.T), rng.standard_normal(10), {}
    if name == "beamforming":
        p = gen_beamforming(3, 5, 2, tau=20.0, eta=50.0, seed=3)
        return p, np.random.default_rng(4).standard_normal(6), {}
    if name == "random_support":
        return _sparse_rows_problem(85), np.random.default_rng(100).standard_normal(8), {}
    # phase I ends feasible by its running values; the exact values that
    # start phase II leave row 3 (on x2, x4) at 4.4e-16 > 0
    return _sparse_rows_problem(253), np.random.default_rng(100).standard_normal(8), {"max_sweeps": 2}


# Outputs of improve_coordinate_descent as recorded with dense coordinate
# steps (every move updated every row); x and the trace as float.hex.
# random_support and infeasible_phase2 were re-recorded when phase II began
# to count an LE row with f <= EQ_TOL as satisfied: both start phase II with
# an LE row at a rounding residue (5.3e-15 and 4.4e-16), which used to
# freeze every coordinate outside its support.
CD_PINS = {
    "boolean_ls": {
        "x": [
            "0x1.0000000000000p+0", "-0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0",
            "0x1.0000000000000p+0", "-0x1.0000000000000p+0", "-0x1.0000000000000p+0", "-0x1.0000000000000p+0",
        ],
        "iterations": 2,
        "converged": True,
        "phase_trace": [
            ("0x0.0p+0", "0x1.337332c2ff75ap+5"),
            ("0x0.0p+0", "0x1.337332c2ff75ep+5"),
        ],
    },
    "partitioning": {
        "x": [
            "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0", "-0x1.0000000000000p+0",
            "-0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0", "-0x1.0000000000000p+0",
            "0x1.0000000000000p+0", "-0x1.0000000000000p+0",
        ],
        "iterations": 2,
        "converged": True,
        "phase_trace": [
            ("0x0.0p+0", "-0x1.3d539466867cbp+5"),
            ("0x0.0p+0", "-0x1.3d539466867cbp+5"),
        ],
    },
    "beamforming": {
        "x": [
            "0x1.7a3a071095208p+2", "0x1.18cb9849d04edp-1", "-0x0.0p+0", "0x1.4f7689e80e8aap-1",
            "-0x1.a4329cf3fbe35p+0", "-0x1.550049736df1cp-8",
        ],
        "iterations": 3,
        "converged": True,
        "phase_trace": [
            ("0x0.0p+0", "0x1.35d129557cb21p+5"),
            ("0x0.0p+0", "0x1.32cc9f01b06dcp+5"),
            ("0x0.0p+0", "0x1.32cc9f01b06dcp+5"),
        ],
    },
    "random_support": {
        "x": [
            "0x1.fde8bc2a3bc3fp-3", "0x1.28b5bebb4bb51p-2", "0x1.8fcc1ac48a672p-1", "-0x1.5a42090a4e558p-2",
            "-0x1.d4c9e4c472383p-1", "0x1.c7ad0d47ee7d6p+2", "0x1.6725323f8975dp-1", "-0x1.37cddbc46ba2dp+2",
        ],
        "iterations": 4,
        "converged": True,
        "phase_trace": [
            ("0x0.0p+0", "-0x1.a5182d215b955p+4"),
            ("0x1.8000000000000p-48", "-0x1.44fc0226bbfd9p+5"),
            ("0x1.8000000000000p-48", "-0x1.b7cb2d2772567p+5"),
            ("0x1.8000000000000p-48", "-0x1.b7cb2d2772567p+5"),
        ],
    },
    "infeasible_phase2": {
        "x": [
            "-0x1.4f22756a6d158p-2", "-0x1.1b5943125a992p-3", "0x1.93e13fffe6033p-1", "0x1.e939005f9f461p-1",
            "-0x1.5f6ebd40c5013p+1", "-0x1.71ffd21009e4bp-1", "0x1.6725323f8975ep-1", "-0x1.0420f7b2121b2p-1",
        ],
        "iterations": 2,
        "converged": False,
        "phase_trace": [
            ("0x0.0p+0", "-0x1.1477a621d9399p+5"),
            ("0x1.0000000000000p-51", "-0x1.256828420a1d3p+5"),
        ],
    },
}


@pytest.mark.parametrize("name", list(CD_PINS))
def test_cd_outputs_pinned(name):
    problem, x0, opts = _cd_case(name)
    rep = improve_coordinate_descent(problem, x0, **opts)
    got = {
        "x": [float(v).hex() for v in rep.x],
        "iterations": rep.iterations,
        "converged": rep.converged,
        "phase_trace": [(float(a).hex(), float(b).hex()) for a, b in rep.phase_trace],
    }
    assert got == CD_PINS[name]


def test_cd_phase2_starts_with_a_violated_row_outside_some_supports():
    problem, x0, opts = _cd_case("infeasible_phase2")
    rep = improve_coordinate_descent(problem, x0, **opts)
    assert rep.phase_trace[0][0] == 0.0 < rep.phase_trace[1][0]
    # violated: f > 0 on LE rows, |f| > EQ_TOL on EQ rows
    violated = [
        k
        for k, c in enumerate(problem.constraints)
        if c.violation(rep.x) > (qcqp.improve.EQ_TOL if c.sense is Sense.EQ else 0.0)
    ]
    assert violated == [3]
    assert problem.constraints[3].form.support.tolist() == [2, 4]


def test_cd_phase2_moves_coordinates_outside_a_row_at_a_rounding_residue():
    # phase I ends with row 3 (on x2, x4) at f = 4.4e-16 > 0 by the exact
    # values.  Counted as violated, that row froze every coordinate outside
    # {2, 4} in phase II; within EQ_TOL it counts as satisfied, so phase II
    # moves x1 and x5 and lowers the objective.
    problem, x0, _ = _cd_case("infeasible_phase2")
    after_phase1 = improve_coordinate_descent(problem, x0, max_sweeps=1)
    rep = improve_coordinate_descent(problem, x0, max_sweeps=2)
    row = problem.constraints[3]
    assert 0.0 < evaluate(row.form, after_phase1.x) <= 1e-15
    assert 0.0 < evaluate(row.form, rep.x) <= 1e-15
    moved = np.flatnonzero(rep.x != after_phase1.x).tolist()
    assert moved == [1, 5]
    assert rep.assessment.objective < after_phase1.assessment.objective - 1.0


# -- ADMM -------------------------------------------------------------------


def test_default_rho_convexifies_z_update():
    p = gen_partitioning(np.array([[0.0, 2.0], [2.0, 0.0]]))
    rho = default_rho(p)
    lmin = float(np.linalg.eigvalsh(p.objective.dense_p)[0])
    assert lmin + p.m * rho > 0.0


def test_admm_period_two_cycle():
    # three-dimensional partitioning with the listed initialization cycles
    # with period 2: every iterate is the negation of the previous one
    W = np.zeros((3, 3))
    p = gen_partitioning(W)
    z0 = np.full(3, 1.0 / 3.0)
    x0 = [np.full(3, 1.0 / 3.0) for _ in range(3)]
    for i in range(3):
        x0[i] = np.full(3, 1.0 / 3.0)
        x0[i][i] = -1.0
    u0 = [np.zeros(3) for _ in range(3)]
    for i in range(3):
        u0[i][i] = 2.0 / 3.0
    rep = improve_admm(
        p,
        z0,
        max_iter=10,
        two_phase=True,
        init_z=z0,
        init_x=x0,
        init_u=u0,
        record_iterates=True,
    )
    zs = [z0] + [it[0] for it in rep.iterates]
    xs = [np.array(x0)] + [it[1] for it in rep.iterates]
    us = [np.array(u0)] + [it[2] for it in rep.iterates]
    for k in range(10):
        assert np.max(np.abs(zs[k + 1] + zs[k])) <= 1e-12
        assert np.max(np.abs(xs[k + 1] + xs[k])) <= 1e-12
        assert np.max(np.abs(us[k + 1] + us[k])) <= 1e-12
    # contract still holds despite the cycle
    assert not assess(p, z0).better_than(rep.assessment)


def test_admm_reaches_feasibility_on_beamforming():
    p = gen_beamforming(4, 3, 2, seed=1)
    x0 = np.random.default_rng(2).standard_normal(8)
    rep = improve_admm(p, x0, max_iter=500)
    assert rep.assessment.violation <= 1e-5


def test_admm_contract_when_phase1_cycles():
    # phase I can loop forever on Boolean instances; the best-ever report
    # must still satisfy the never-worse contract
    p = gen_boolean_ls(10, 6, seed=4)
    x0 = np.random.default_rng(2).standard_normal(6)
    rep = improve_admm(p, x0, max_iter=300)
    assert not assess(p, x0).better_than(rep.assessment)


def test_admm_trajectory_unchanged_by_one_variable_closed_form(monkeypatch):
    # x_i^2 = 1 projects through the closed-form nearest root; the secular
    # path (closed form bypassed) must give the same ADMM trajectory
    p = gen_boolean_ls(12, 8, seed=7)
    x0 = np.random.default_rng(8).standard_normal(8)
    closed = improve_admm(p, x0, max_iter=50)
    monkeypatch.setattr(ConstraintProjector, "_nearest_root", lambda self, zhat: None)
    general = improve_admm(p, x0, max_iter=50)
    assert closed.iterations == general.iterations == 50
    for got, want in zip(closed.final_state, general.final_state):
        assert np.max(np.abs(got - want)) <= 1e-9


def test_admm_projects_each_boolean_row_through_its_projector_once_per_iteration():
    # the rows x_i^2 = 1 stay general rows: every iteration projects each
    # through ConstraintProjector.project, one call per row, which is what
    # the benchmark's traced projection count reads
    p = gen_boolean_ls(12, 8, seed=7)
    x0 = np.random.default_rng(8).standard_normal(8)
    project = ConstraintProjector.project
    with mock.patch.object(ConstraintProjector, "project", autospec=True, side_effect=project) as calls:
        rep = improve_admm(p, x0, max_iter=20)
    assert rep.iterations == 20
    assert calls.call_count == p.m * rep.iterations


def test_admm_indefinite_z_update_falls_back_to_least_squares(monkeypatch):
    # rho far below default_rho leaves P0 + m rho I indefinite, so it has no
    # Cholesky factor and phase II solves its z-update by least squares
    rng = np.random.default_rng(5)
    W = rng.standard_normal((6, 6))
    p = gen_partitioning(0.5 * (W + W.T))
    rho = 1e-3
    assert np.linalg.eigvalsh(p.objective.dense_p + p.m * rho * np.eye(6))[0] < 0.0
    calls = []
    lstsq = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: calls.append(1) or lstsq(*a, **k))
    # a feasible start enters phase II at once; skip phase I from a random one
    for x0, two_phase in ((np.ones(6), True), (rng.standard_normal(6), False)):
        calls.clear()
        rep = improve_admm(p, x0, rho=rho, max_iter=50, two_phase=two_phase)
        assert calls
        assert np.all(np.isfinite(rep.x))
        assert not assess(p, x0).better_than(rep.assessment)


def test_admm_box_set_phase2():
    # minimize ||x - 2|| over the box [-1, 1]^2, posed as four affine rows, and C
    obj = QuadraticForm.from_dense(np.eye(2), [-4.0, -4.0], 8.0)
    c = Constraint(QuadraticForm.create(2, (), [1.0, 0.0], -1.0), Sense.LE)
    box = [
        Constraint(QuadraticForm.create(2, (), sign * np.eye(2)[j], -1.0), Sense.LE)
        for j in range(2)
        for sign in (1.0, -1.0)
    ]
    p = QcqpProblem.create(obj, [c] + box)
    rep = improve_admm(p, np.zeros(2), max_iter=200)
    assert rep.assessment.objective <= assess(p, np.zeros(2)).objective


def test_admm_single_quadratic_set():
    obj = QuadraticForm.from_dense(np.eye(2), [-4.0, 0.0], 0.0)
    ball = Constraint(QuadraticForm.from_dense(np.eye(2), None, -1.0), Sense.LE)
    c = Constraint(QuadraticForm.from_dense(np.eye(2), None, -4.0), Sense.LE)
    p = QcqpProblem.create(obj, [c, ball])
    rep = improve_admm(p, np.zeros(2), max_iter=200, two_phase=False)
    assert rep.assessment.objective <= -2.9  # optimum -3 at (1, 0)


@pytest.mark.parametrize("name", sorted(METHODS))
def test_methods_reject_unknown_options(name):
    p = gen_boolean_ls(4, 3, seed=1)
    with pytest.raises(TypeError):
        METHODS[name](p, np.zeros(3), no_such_option=1)
    with pytest.raises(TypeError):
        improve_sequence(p, np.zeros(3), [name], {name: {"no_such_option": 1}})


def test_misspelled_iteration_caps_are_rejected_not_ignored():
    p = gen_boolean_ls(4, 3, seed=1)
    x0 = np.zeros(3)
    with pytest.raises(TypeError):
        improve_admm(p, x0, max_iters=3)
    with pytest.raises(TypeError):
        improve_ccp(p, x0, max_iters=1)
    with pytest.raises(TypeError):
        improve_ccp(p, x0, max_iter=1, subsolver_opts={"max_iters": 3})
    # CCP sets the subsolve's step size and warm start itself
    with pytest.raises(TypeError):
        improve_ccp(p, x0, max_iter=1, subsolver_opts={"rho": 2.0})
    assert improve_admm(p, x0, max_iter=3).iterations <= 3
    assert improve_ccp(p, x0, max_iter=1).iterations == 1


# -- the affine block ------------------------------------------------------

coefficient = st.floats(-10.0, 10.0)
nonzero = st.floats(0.1, 10.0).flatmap(lambda a: st.sampled_from([a, -a]))


def per_row_projections(problem: QcqpProblem, V: np.ndarray) -> np.ndarray:
    """The x-update of ADMM one row at a time: V[i] projected by row i's ConstraintProjector."""
    return np.array(
        [
            ConstraintProjector(c.form).project(v, equality=c.sense is Sense.EQ).x
            for c, v in zip(problem.constraints, V)
        ]
    )


@st.composite
def affine_rows_and_points(draw):
    """Affine EQ/LE rows on 1-3 of n <= 5 variables, each with a point v at f(v) = gap."""
    n = draw(st.integers(1, 5))
    rows, points = [], []
    for _ in range(draw(st.integers(1, 4))):
        k = draw(st.integers(1, min(3, n)))
        support = draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True))
        q = np.zeros(n)
        q[support] = draw(st.lists(nonzero, min_size=k, max_size=k))
        v = np.array(draw(st.lists(coefficient, min_size=n, max_size=n)))
        gap = draw(coefficient)  # gap <= 0 leaves v feasible for an LE row
        sense = draw(st.sampled_from([Sense.EQ, Sense.LE]))
        rows.append(Constraint(QuadraticForm.create(n, (), q, gap - float(q @ v)), sense))
        points.append(v)
    return QcqpProblem.create(QuadraticForm.create(n), rows), np.array(points)


@given(affine_rows_and_points())
def test_affine_block_matches_per_row_projection(case):
    problem, V = case
    block = _AffineRows(problem.constraints, problem.n)
    X = block.project(V)
    tol = 1e-12 * (1.0 + np.linalg.norm(V, axis=1))
    assert np.all(np.max(np.abs(X - per_row_projections(problem, V)), axis=1) <= tol)
    for k in range(len(V)):
        assert np.array_equal(block.project(V[k : k + 1], [k])[0], X[k])


@pytest.mark.parametrize(
    "sense, r, raises",
    [
        (Sense.LE, 0.0, False),
        (Sense.LE, -2.0, False),
        (Sense.LE, 1.0, True),
        (Sense.EQ, 0.0, False),
        (Sense.EQ, 1.0, True),
        (Sense.EQ, -1.0, True),
    ],
)
def test_affine_block_zero_gradient_row_follows_constraint_projector(sense, r, raises):
    zero = Constraint(QuadraticForm.create(3, (), None, r), sense)
    other = Constraint(QuadraticForm.create(3, (), [1.0, 0.0, -1.0], 0.5), Sense.EQ)
    V = np.array([[1.0, -2.0, 3.0], [1.0, -2.0, 3.0]])
    proj = ConstraintProjector(zero.form)
    block = _AffineRows([zero, other], 3)
    with np.errstate(all="raise"):
        if raises:
            with pytest.raises(InfeasibleConstraintError):
                proj.project(V[0], equality=sense is Sense.EQ)
            with pytest.raises(InfeasibleConstraintError):
                block.project(V)
            return
        X = block.project(V)
    assert np.array_equal(X[0], V[0])
    assert np.array_equal(proj.project(V[0], equality=sense is Sense.EQ).x, V[0])
    assert np.all(np.isfinite(X))
    assert abs(evaluate(other.form, X[1])) <= 1e-15


def _mixed_problem(seed: int) -> QcqpProblem:
    """Affine EQ and LE rows on 1-3 variables, a ball row and a one-variable x_1^2 = 1 row."""
    rng = np.random.default_rng(seed)
    n = 5
    rows = []
    for k in range(6):
        support = rng.choice(n, size=k % 3 + 1, replace=False)
        q = np.zeros(n)
        q[support] = rng.standard_normal(support.size)
        sense = Sense.EQ if k % 3 == 0 else Sense.LE
        rows.append(Constraint(QuadraticForm.create(n, (), q, float(rng.standard_normal())), sense))
    rows.append(Constraint(QuadraticForm.from_dense(np.eye(n), None, -9.0), Sense.LE))
    rows.append(Constraint(QuadraticForm.create(n, [(1, 1, 1.0)], None, -1.0), Sense.EQ))
    return QcqpProblem.create(QuadraticForm.from_dense(np.eye(n), rng.standard_normal(n)), rows)


def test_admm_with_affine_block_matches_per_row_reference():
    p = _mixed_problem(0)
    x0 = np.random.default_rng(1).standard_normal(p.n)
    rep = improve_admm(p, x0, max_iter=40, resid_tol=0.0, record_iterates=True)
    assert rep.iterations == len(rep.iterates) == 40
    U_prev = np.zeros((p.m, p.n))
    for z, X, U in rep.iterates:
        V = z + U_prev
        tol = 1e-12 * (1.0 + np.linalg.norm(V, axis=1))
        assert np.all(np.max(np.abs(X - per_row_projections(p, V)), axis=1) <= tol)
        assert np.array_equal(U, U_prev + (z - X))
        U_prev = U
    assert not assess(p, x0).better_than(rep.assessment)


# -- convex subsolver -------------------------------------------------------


def test_solve_convex_rejects_nonconvex():
    obj = QuadraticForm.from_dense(-np.eye(2))
    with pytest.raises(NotConvexError):
        solve_convex(QcqpProblem.create(obj), np.zeros(2))
    obj = QuadraticForm.from_dense(np.eye(2))
    bad_eq = Constraint(QuadraticForm.from_dense(np.eye(2), None, -1.0), Sense.EQ)
    with pytest.raises(NotConvexError):
        solve_convex(QcqpProblem.create(obj, [bad_eq]), np.zeros(2))


def test_solve_convex_known_optimum():
    # min ||x||^2 - 2 x1 s.t. x1 <= 0: optimum at the origin boundary
    obj = QuadraticForm.from_dense(np.eye(2), [-2.0, 0.0])
    c = Constraint(QuadraticForm.create(2, (), [1.0, 0.0], 0.0), Sense.LE)
    p = QcqpProblem.create(obj, [c])
    rep = solve_convex(p, np.array([-1.0, 1.0]))
    assert rep.assessment.violation <= 1e-6
    assert rep.assessment.objective <= 1e-4


def test_solve_convex_reports_admm_final_state():
    # CCP warm-starts each subsolve from the previous final_state
    obj = QuadraticForm.from_dense(np.eye(2), [-2.0, 0.0])
    c = Constraint(QuadraticForm.create(2, (), [1.0, 0.0], 0.0), Sense.LE)
    p = QcqpProblem.create(obj, [c])
    x0 = np.array([-1.0, 1.0])
    rep = solve_convex(p, x0, max_iter=40)
    ref = improve_admm(p, x0, max_iter=40, two_phase=False, resid_tol=1e-8)
    assert rep.method == "convex" and ref.method == "admm"
    assert len(rep.final_state) == 3
    for got, want in zip(rep.final_state, ref.final_state):
        assert np.array_equal(got, want)
    assert rep.iterates is None


def test_solve_convex_reports_assess_of_its_point_and_is_never_worse():
    # affine EQ/LE rows and PSD LE rows; ADMM's stacked affine rows can round
    # a violation differently from assess (problems 8 and 21 of these did,
    # before the report was reassessed)
    rng = np.random.default_rng(0)
    for _ in range(30):
        n = int(rng.integers(2, 5))
        M = rng.standard_normal((n, n))
        obj = QuadraticForm.from_dense(M @ M.T, rng.standard_normal(n))
        rows = []
        for _ in range(int(rng.integers(1, 5))):
            if rng.random() < 0.5:
                sense = Sense.EQ if rng.random() < 0.5 else Sense.LE
                rows.append(Constraint(QuadraticForm.create(n, (), rng.standard_normal(n), rng.standard_normal()), sense))
            else:
                B = rng.standard_normal((n, n))
                rows.append(Constraint(QuadraticForm.from_dense(B @ B.T, rng.standard_normal(n), -4.0), Sense.LE))
        p = QcqpProblem.create(obj, rows)
        x0 = rng.standard_normal(n)
        rep = solve_convex(p, x0, max_iter=30)
        assert rep.assessment == assess(p, rep.x)
        assert not assess(p, x0).better_than(rep.assessment)


# -- penalty CCP ------------------------------------------------------------


def test_ccp_reaches_near_feasible_boolean():
    p = gen_boolean_ls(8, 5, seed=0)
    x0 = np.random.default_rng(1).standard_normal(5)
    rep = improve_ccp(p, x0, max_iter=12)
    assert rep.assessment.violation <= 1e-3
    _, fstar = brute_force(p)
    assert rep.assessment.objective >= fstar - 1e-6


def test_ccp_merit_decreases():
    p = gen_boolean_ls(8, 5, seed=2)
    x0 = np.random.default_rng(3).standard_normal(5)
    rep = improve_ccp(p, x0, max_iter=8)
    # the true violation trace never increases much between iterations once
    # the penalty saturates; at minimum the final point is not worse than x0
    assert not assess(p, x0).better_than(rep.assessment)


def test_ccp_split_methods_agree_on_contract():
    p = gen_boolean_ls(6, 4, seed=5)
    x0 = np.random.default_rng(4).standard_normal(4)
    for method in ("eigen", "shift", "cholesky"):
        rep = improve_ccp(p, x0, max_iter=6, split_method=method)
        assert not assess(p, x0).better_than(rep.assessment)


def test_ccp_sets_up_projectors_and_convexity_checks_only_for_quadratic_rows():
    # beamforming's coverage rows are concave, so their linearizations and
    # every slack row reach the subproblem affine; only the 2 convex upper
    # bound rows are quadratic there.  CCP sets its subproblem up once per
    # call, so their projectors and the convexity checks are built once,
    # whatever the number of outer iterations.
    p = gen_beamforming(4, 6, 2, seed=3)
    x0 = np.random.default_rng(4).standard_normal(8)
    init, eig, admm = ConstraintProjector.__init__, qcqp.improve.min_eig_bound, qcqp.improve._admm
    with (
        mock.patch.object(qcqp.improve, "_admm", autospec=True, side_effect=admm) as subsolves,
        mock.patch.object(ConstraintProjector, "__init__", autospec=True, side_effect=init) as inits,
        mock.patch.object(qcqp.improve, "min_eig_bound", autospec=True, side_effect=eig) as eigs,
    ):
        rep = improve_ccp(p, x0, max_iter=4)
    assert subsolves.call_count == rep.iterations >= 2
    rows = [call.args[1] for call in subsolves.call_args_list]
    assert all(r.aff.size == 6 + 8 and r.cur.size == 0 and len(r.general) == 2 for r in rows)
    # every subproblem projects its quadratic rows with the same projectors
    projectors = [[proj for _, proj in r.general.values()] for r in rows]
    assert all(list(map(id, ps)) == list(map(id, projectors[0])) for ps in projectors)
    built = [call.args[1] for call in inits.call_args_list]
    assert not any(form.is_affine for form in built)
    # one build per quadratic row, and none for a restriction to a support
    assert [id(f) for f in built] == [id(proj.form) for proj in projectors[0]]
    assert len(built) == 2
    # the objective; the 2 quadratic rows are checked on their projectors' eigenvalues
    assert eigs.call_count == 1


@pytest.mark.parametrize("case, split_method", [("boolean_ls", "cholesky"), ("sparse_rows", "eigen")])
def test_ccp_builds_each_general_row_projector_once_per_call(case, split_method):
    # a general row whose linear terms move keeps its curvature, so CCP
    # derives its next projector from the last one: the projector builds (one
    # per row, none for a restriction to its support) and the
    # eigendecompositions are those of the first subproblem, whatever max_iter is
    if case == "boolean_ls":
        p, x0 = gen_boolean_ls(6, 4, seed=5), np.random.default_rng(4).standard_normal(4)
    else:
        p, x0 = _sparse_rows_problem(86), np.random.default_rng(6).standard_normal(8)
    init, eig, admm = ConstraintProjector.__init__, qcqp.oneconstraint.sym_eigen, qcqp.improve._admm
    for max_iter in (1, 6):
        with (
            mock.patch.object(qcqp.improve, "_admm", autospec=True, side_effect=admm) as subsolves,
            mock.patch.object(ConstraintProjector, "__init__", autospec=True, side_effect=init) as inits,
            mock.patch.object(qcqp.oneconstraint, "sym_eigen", side_effect=eig) as eigs,
        ):
            rep = improve_ccp(p, x0, max_iter=max_iter, split_method=split_method, subsolver_opts={"max_iter": 30})
        assert rep.iterations == max_iter
        rows = [call.args[1] for call in subsolves.call_args_list]
        general = len(rows[0].general)
        assert general > 0
        # every subproblem moves the linear terms of some general row
        assert all(any(r.general[k][1] is not proj for k, (_, proj) in rows[0].general.items()) for r in rows[1:])
        assert inits.call_count == general  # each row once
        assert eigs.call_count <= general


def ccp_subproblem(problem: QcqpProblem, xk: np.ndarray, tau: float, splitter=split_eigen) -> QcqpProblem:
    """CCP's convex subproblem at xk in (x, s), built as one QcqpProblem.

    Row 2k is the k-th convexified row x'(plus)x + (q - 2 minus xk)'x + r +
    xk'(minus)xk - s_k <= 0 and row 2k+1 is s_k >= 0, the order improve_ccp uses.
    """
    n = problem.n
    rows = []
    for c in problem.constraints:
        sp = splitter(c.form.dense_p)
        rows.append((sp.plus, sp.minus, c.form.q_vec, c.form.r))
        if c.sense is Sense.EQ:
            rows.append((sp.minus, sp.plus, -c.form.q_vec, -c.form.r))
    K = len(rows)
    dim = n + K
    cons = []
    for k, (plus, minus, q, r) in enumerate(rows):
        P = np.zeros((dim, dim))
        P[:n, :n] = plus
        qk = np.zeros(dim)
        qk[:n] = q - 2.0 * (minus @ xk)
        qk[n + k] = -1.0
        cons.append(Constraint(QuadraticForm.from_dense(P, qk, r + float(xk @ (minus @ xk))), Sense.LE))
        cons.append(Constraint(QuadraticForm.create(dim, (), -np.eye(dim)[n + k], 0.0), Sense.LE))
    sp0 = splitter(problem.objective.dense_p)
    P0 = np.zeros((dim, dim))
    P0[:n, :n] = sp0.plus
    q0 = np.concatenate([problem.objective.q_vec - 2.0 * (sp0.minus @ xk), np.full(K, tau)])
    r0 = problem.objective.r + float(xk @ (sp0.minus @ xk))
    return QcqpProblem.create(QuadraticForm.from_dense(P0, q0, r0), cons)


def test_admm_on_ccp_subproblem_matches_per_row_reference_without_secular_solves():
    # boolean LS: each x_i^2 = 1 gives the convexified row x_i^2 - 1 - s <= 0,
    # one curved coordinate and a slack, and an affine linearized row
    p = gen_boolean_ls(8, 5, seed=0)
    xk = np.random.default_rng(1).standard_normal(5)
    sub = ccp_subproblem(p, xk, tau=4.0)
    rows = _Rows(sub.constraints, sub.n)
    assert rows.cur.tolist() == [0, 4, 8, 12, 16] and not rows.general
    z0 = np.concatenate([xk, np.full(10, 0.5)])
    secular = ConstraintProjector._solve_secular
    with mock.patch.object(ConstraintProjector, "_solve_secular", autospec=True, side_effect=secular) as calls:
        rep = solve_convex(sub, z0, rho=2.0, max_iter=40, resid_tol=0.0, record_iterates=True)
    assert calls.call_count == 0
    assert rep.iterations == len(rep.iterates) == 40
    U_prev = np.zeros((sub.m, sub.n))
    for z, X, U in rep.iterates:
        V = z + U_prev
        tol = 1e-10 * (1.0 + np.linalg.norm(V, axis=1))
        assert np.all(np.max(np.abs(X - per_row_projections(sub, V)), axis=1) <= tol)
        assert np.array_equal(U, U_prev + (z - X))
        U_prev = U
    # a row at a time, as the polish projects, gives the block's answer
    V = rep.iterates[-1][0] + rep.iterates[-2][2]
    X = rows.project(V)
    for k in range(sub.m):
        assert np.array_equal(rows.project_row(k, V[k]), X[k])


@pytest.mark.parametrize("split_method", ["eigen", "shift"])
def test_rows_with_linear_match_rows_set_up_at_the_new_point(split_method):
    # improve_ccp sets its rows up at x0 and then moves only their linear
    # terms; that must project exactly as rows set up afresh at the new
    # point.  The indefinite rows on 2-3 variables are general rows whose
    # terms move, so they need new projectors.
    p = _sparse_rows_problem(86)
    rng = np.random.default_rng(6)
    xa, xb = rng.standard_normal(8), rng.standard_normal(8)
    splitter = qcqp.improve._SPLITTERS[split_method]
    sub_a, sub_b = ccp_subproblem(p, xa, 1.0, splitter), ccp_subproblem(p, xb, 1.0, splitter)
    Q = np.array([c.form.q_vec for c in sub_b.constraints])
    R = np.array([c.form.r for c in sub_b.constraints])
    moved = _Rows(sub_a.constraints, sub_a.n).with_linear(Q, R)
    fresh = _Rows(sub_b.constraints, sub_b.n)
    assert moved.aff.size and moved.cur.size and moved.general
    assert moved.cur.tolist() == fresh.cur.tolist() and list(moved.general) == list(fresh.general)
    assert any(not np.array_equal(Q[k], sub_a.constraints[k].form.q_vec) for k in fresh.general)
    V = rng.standard_normal((sub_b.m, sub_b.n)) * 3.0
    assert np.array_equal(moved.project(V), fresh.project(V))
    z = V[0]
    assert moved.assess(sub_b.objective, z) == fresh.assess(sub_b.objective, z)


# -- the curved-coordinate block ------------------------------------------


@st.composite
def curved_rows_and_points(draw):
    """LE rows a x_i^2 + w'x + r <= 0 on n <= 5 variables, each with a slack-like
    coordinate in w, and a point v at f(v) = gap (inside the set for gap <= 0)."""
    n = draw(st.integers(2, 5))
    rows, points = [], []
    for _ in range(draw(st.integers(1, 4))):
        i, slack = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        P = np.zeros((n, n))
        P[i, i] = 10.0 ** draw(st.floats(-3.0, 3.0))
        q = np.array(draw(st.lists(coefficient, min_size=n, max_size=n)))
        q[slack] = draw(nonzero)
        v = np.array(draw(st.lists(coefficient, min_size=n, max_size=n)))
        gap = draw(coefficient)
        r = gap - evaluate(QuadraticForm.from_dense(P, q), v)
        rows.append(Constraint(QuadraticForm.from_dense(P, q, r), Sense.LE))
        points.append(v)
    return QcqpProblem.create(QuadraticForm.create(n), rows), np.array(points)


@given(curved_rows_and_points())
def test_curved_block_matches_per_row_projection(case):
    problem, V = case
    assert _Rows(problem.constraints, problem.n).cur.size == problem.m
    block = _CurvedRows(problem.constraints, problem.n)
    X = block.project(V)
    ref = per_row_projections(problem, V)
    assert np.all(np.max(np.abs(X - ref), axis=1) <= 1e-9 * (1.0 + np.max(np.abs(ref), axis=1)))
    for k, c in enumerate(problem.constraints):
        assert evaluate(c.form, X[k]) <= FEAS_TOL * ConstraintProjector(c.form).scale
        assert np.array_equal(block.project(V[k : k + 1], [k])[0], X[k])
    want = [c.violation(V[0]) for c in problem.constraints]
    assert np.allclose(block.violations(V[0]), want, rtol=1e-12, atol=1e-12)


def test_curved_class_takes_only_le_rows_with_one_positive_curvature_and_a_flat_term():
    def row(P, q, sense=Sense.LE):
        return Constraint(QuadraticForm.from_dense(np.array(P, dtype=float), q, -1.0), sense)

    curved = row([[2.0, 0.0], [0.0, 0.0]], [0.0, -1.0])
    others = [
        row([[2.0, 0.0], [0.0, 0.0]], [0.0, -1.0], Sense.EQ),  # equality
        row([[-2.0, 0.0], [0.0, 0.0]], [0.0, -1.0]),  # concave
        row([[2.0, 0.0], [0.0, 0.0]], [1.0, 0.0]),  # one variable: closed form in ConstraintProjector
        row([[2.0, 0.0], [0.0, 1.0]], [0.0, -1.0]),  # two curved coordinates
        row([[0.0, 1.0], [1.0, 0.0]], [0.0, -1.0]),  # off-diagonal curvature
    ]
    rows = _Rows([curved] + others, 2)
    assert rows.cur.tolist() == [0] and list(rows.general) == [1, 2, 3, 4, 5]


# -- composition ------------------------------------------------------------


def test_improve_sequence_compose():
    p = gen_boolean_ls(10, 6, seed=6)
    x0 = np.random.default_rng(7).standard_normal(6)
    rep = improve_sequence(p, x0, ["sign", "cd"])
    assert rep.assessment.violation == 0.0
    assert rep.method == "sign+cd"
    # composition never worse than either method alone
    sign_only = improve_sequence(p, x0, ["sign"])
    assert rep.assessment <= sign_only.assessment


def test_improve_sequence_accepts_callables():
    p = gen_boolean_ls(4, 3, seed=8)
    x0 = np.zeros(3)

    def custom(problem, x, **_):
        return improve_sequence(problem, x, ["sign"])

    rep = improve_sequence(p, x0, [custom])
    assert rep.assessment.violation == 0.0


def test_improve_sequence_empty_is_identity():
    p = gen_boolean_ls(4, 3, seed=9)
    x0 = np.array([1.0, -1.0, 1.0])
    rep = improve_sequence(p, x0, [])
    assert np.array_equal(rep.x, x0)
    assert rep.method == "identity"


def test_beamforming_admm_then_cd():
    p = gen_beamforming(4, 3, 2, seed=0)
    x0 = np.random.default_rng(0).standard_normal(8)
    alone = improve_sequence(p, x0, ["admm"])
    composed = improve_sequence(p, x0, ["admm", "cd"])
    assert composed.assessment <= alone.assessment


# -- the never-worse contract on random problems -----------------------------


@st.composite
def small_problems_and_starts(draw):
    """A problem on n <= 4 variables with 1-3 rows, each affine or dense, EQ or LE, and a start x0.

    Every row holds at one drawn point, so no row's set is empty.
    """
    n = draw(st.integers(1, 4))
    vector = st.lists(coefficient, min_size=n, max_size=n).map(np.array)
    dense = st.lists(coefficient, min_size=n * n, max_size=n * n).map(lambda v: np.reshape(v, (n, n)))
    feasible = draw(vector)
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        P = draw(dense) if draw(st.booleans()) else np.zeros((n, n))
        q = draw(vector)
        sense = draw(st.sampled_from([Sense.EQ, Sense.LE]))
        slack = 0.0 if sense is Sense.EQ else draw(st.floats(0.0, 10.0))
        r = -evaluate(QuadraticForm.from_dense(P, q), feasible) - slack
        rows.append(Constraint(QuadraticForm.from_dense(P, q, r), sense))
    objective = QuadraticForm.from_dense(draw(dense), draw(vector))
    return QcqpProblem.create(objective, rows), draw(vector)


# iteration caps that keep the property test to a few seconds
SMALL_CAPS = {
    "cd": {"max_sweeps": 10},
    "admm": {"max_iter": 30},
    "ccp": {"max_iter": 2, "subsolver_opts": {"max_iter": 20}},
}


def unbounded_case():
    """A problem and start on which ADMM's best point is near 1e31.

    There the constants of CCP's convexified rows (~1e64) swamp their linear
    terms, so a row projector finds the row's least value positive, although
    each row has its own slack.
    """
    obj = QuadraticForm.from_dense(
        np.array([[-3.4932241156031365, -3.20436007469649], [-3.20436007469649, -0.00015521924964245716]]),
        [8.089820297859905, -0.8495989022113974],
    )
    P = np.array([[-3.9875801071961217, 1.220868922096404], [1.220868922096404, 5.0615582802790444e-216]])
    row = Constraint(QuadraticForm.from_dense(P, [3.0101133188492017, -0.5], -8.694054990279458), Sense.LE)
    return QcqpProblem.create(obj, [row]), np.array([5.228796466539789, -7.533811431430176e-92])


@example(unbounded_case())
@given(small_problems_and_starts())
def test_every_method_reports_assess_of_its_point_and_is_never_worse(case):
    p, x0 = case
    # balanced rounding needs an even dimension
    names = [name for name in METHODS if name != "balanced-sign" or p.n % 2 == 0]
    methods = {name: partial(METHODS[name], **SMALL_CAPS.get(name, {})) for name in names}
    methods["sequence"] = partial(improve_sequence, methods=names, method_opts=SMALL_CAPS)
    a0 = assess(p, x0)
    for name, method in methods.items():
        rep = method(p, x0)
        assert rep.assessment == assess(p, rep.x), name
        assert not a0.better_than(rep.assessment), name

