from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import qcqp.improve
from qcqp.core import Constraint, QcqpProblem, QuadraticForm, Sense, assess, evaluate
from qcqp.errors import InfeasibleConstraintError, NotConvexError, NotScalableError
from qcqp.generators import brute_force, gen_beamforming, gen_boolean_ls, gen_partitioning
from qcqp.improve import (
    _AffineRows,
    BoxSet,
    SingleQuadraticSet,
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
from qcqp.oneconstraint import ConstraintProjector
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
            "0x1.1d37215c14a56p-1", "0x1.c7ad0d47ee7d6p+2", "0x1.6725323f8975dp-1", "0x1.68f247dc6525ep-1",
        ],
        "iterations": 3,
        "converged": True,
        "phase_trace": [
            ("0x0.0p+0", "-0x1.a5182d215b955p+4"),
            ("0x1.8000000000000p-48", "-0x1.d22c9d0215bd4p+4"),
            ("0x1.8000000000000p-48", "-0x1.d22c9d0215bd4p+4"),
        ],
    },
    "infeasible_phase2": {
        "x": [
            "-0x1.4f22756a6d158p-2", "-0x1.0524dcb903d64p+0", "0x1.93e13fffe6033p-1", "0x1.e939005f9f461p-1",
            "-0x1.5f6ebd40c5013p+1", "-0x1.a628b949f97bcp-1", "0x1.6725323f8975ep-1", "-0x1.0420f7b2121b2p-1",
        ],
        "iterations": 2,
        "converged": True,
        "phase_trace": [
            ("0x0.0p+0", "-0x1.1477a621d9399p+5"),
            ("0x1.0000000000000p-51", "-0x1.1477a621d939ap+5"),
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
    # violated as phase II reads it: f > 0 on LE rows, |f| > eq_tol on EQ rows
    eq_tol = 1e-8
    violated = [
        k
        for k, c in enumerate(problem.constraints)
        if c.violation(rep.x) > (eq_tol if c.sense is Sense.EQ else 0.0)
    ]
    assert violated == [3]
    assert problem.constraints[3].form.support.tolist() == [2, 4]


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
    # minimize ||x - 2|| over the box [-1, 1]^2 with no constraints beyond C
    obj = QuadraticForm.from_dense(np.eye(2), [-4.0, -4.0], 8.0)
    c = Constraint(QuadraticForm.create(2, (), [1.0, 0.0], -1.0), Sense.LE)
    p = QcqpProblem.create(obj, [c])
    rep = improve_admm(
        p, np.zeros(2), convex_set=BoxSet(l=-np.ones(2), u=np.ones(2)), max_iter=200
    )
    assert rep.assessment.objective <= assess(p, np.zeros(2)).objective


def test_admm_single_quadratic_set():
    obj = QuadraticForm.from_dense(np.eye(2), [-4.0, 0.0], 0.0)
    ball = SingleQuadraticSet(QuadraticForm.from_dense(np.eye(2), None, -1.0))
    c = Constraint(QuadraticForm.from_dense(np.eye(2), None, -4.0), Sense.LE)
    p = QcqpProblem.create(obj, [c])
    rep = improve_admm(p, np.zeros(2), convex_set=ball, max_iter=200, two_phase=False)
    assert rep.assessment.objective <= -2.9  # optimum -3 at (1, 0)


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
    # every slack row reach the subproblem affine; only the convex upper
    # bound rows are quadratic there
    p = gen_beamforming(4, 6, 2, seed=3)
    x0 = np.random.default_rng(4).standard_normal(8)
    init, solve, eig = ConstraintProjector.__init__, qcqp.improve.solve_convex, qcqp.improve.min_eig_bound
    subproblems = []

    def record(sub, x, **opts):
        subproblems.append(sub)
        return solve(sub, x, **opts)

    with (
        mock.patch.object(qcqp.improve, "solve_convex", autospec=True, side_effect=record),
        mock.patch.object(ConstraintProjector, "__init__", autospec=True, side_effect=init) as inits,
        mock.patch.object(qcqp.improve, "min_eig_bound", autospec=True, side_effect=eig) as eigs,
    ):
        improve_ccp(p, x0, max_iter=4)
    k = len(subproblems)
    assert k >= 1
    quadratic = [c.form for sub in subproblems for c in sub.constraints if not c.form.is_affine]
    affine = [c.form for sub in subproblems for c in sub.constraints if c.form.is_affine]
    assert len(quadratic) == 2 * k and len(affine) == (6 + 8) * k  # 6 coverage rows, 8 slacks
    built = [call.args[1] for call in inits.call_args_list]
    assert not any(form.is_affine for form in built)
    # each quadratic row builds its projector, which builds one on its support
    top = [form for form in built if any(form is q for q in quadratic)]
    assert [id(f) for f in top] == [id(q) for q in quadratic]
    assert len(built) == 2 * len(quadratic)
    checked = [call.args[0] for call in eigs.call_args_list]
    assert len(checked) == len(subproblems) + len(quadratic)
    assert not any(P is form.dense_p for P in checked for form in affine)


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
