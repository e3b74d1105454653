import numpy as np
import pytest

from qcqp.core import Constraint, QcqpProblem, QuadraticForm, Sense, assess, evaluate
from qcqp.errors import NotConvexError, NotScalableError
from qcqp.generators import brute_force, gen_beamforming, gen_boolean_ls, gen_partitioning
from qcqp.improve import (
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
