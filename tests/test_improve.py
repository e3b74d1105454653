import hashlib
import math
import warnings
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import qcqp.improve
from qcqp.cli import PipelineConfig, _suggest, run_pipeline
from qcqp.core import Constraint, QcqpProblem, QuadraticForm, Sense, _RowClasses, assess, evaluate
from qcqp.errors import InfeasibleConstraintError, NotConvexError, NotScalableError, NumericalFailureError
from qcqp.generators import (
    brute_force,
    gen_3sat,
    gen_beamforming,
    gen_boolean_ls,
    gen_maxclique,
    gen_maxcut,
    gen_partitioning,
)
from qcqp.improve import (
    EPS_FEAS,
    _AffineRows,
    _ConvexRows,
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
from qcqp.oneconstraint import FEAS_TOL, ConstraintProjector, ProjectionResult
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


def test_covering_forms_are_the_rows_of_shape_x_m_x_at_least_r():
    # the covering rows are read from the problem's row table; the objective,
    # its row 0, has the covering shape here and must not be taken for one
    p = gen_beamforming(3, 4, 2, tau=20.0, eta=2.0, seed=0)
    objective = QuadraticForm.from_dense(-np.eye(p.n), None, 3.0)
    rows = [*p.constraints, Constraint(QuadraticForm.from_dense(-np.eye(p.n), np.ones(p.n), 1.0))]
    rows.append(Constraint(QuadraticForm.from_dense(-np.eye(p.n), None, 1.0), Sense.EQ))
    problem = QcqpProblem.create(objective, rows)
    want = []
    for c in problem.constraints:  # the rule, row by row
        M = -c.form.dense_p
        if c.sense is Sense.LE and c.form.r > 0.0 and not c.form.q_vec.any():
            if np.linalg.eigvalsh(M)[0] >= -1e-9 * (1.0 + np.linalg.norm(M)):
                want.append(M / c.form.r)
    got = qcqp.improve._covering_forms(problem)
    assert len(want) == len(got) == 4
    assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


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


def _cd_output(rep):
    return {
        "x": [float(v).hex() for v in rep.x],
        "iterations": rep.iterations,
        "converged": rep.converged,
        "phase_trace": [(float(a).hex(), float(b).hex()) for a, b in rep.phase_trace],
    }


def _scan_case(family: str, seed: int) -> QcqpProblem:
    """A boolean problem whose every x_i^2 = 1 row is its coordinate's only row, n <= 12.

    diagonal has a diagonal objective with q = 0, so the roots +-1 tie,
    except on coordinates where P_jj and q_j are nonzero but below
    AFFINE_EPS: an objective flat in x_j that still favours x_j = 1.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 13))
    if family == "boolean_ls":
        return gen_boolean_ls(n + 3, n, seed=seed)
    if family in ("maxcut", "partitioning"):
        W = np.triu(rng.standard_normal((n, n)), 1)
        return (gen_maxcut if family == "maxcut" else gen_partitioning)(W + W.T)
    if family == "diagonal":
        d = rng.choice([5e-13, 1.5, -0.5], n)
        objective = QuadraticForm.from_dense(np.diag(d), np.where(d == 5e-13, -5e-13, 0.0), 1.0)
        return QcqpProblem.create(objective, gen_maxcut(np.zeros((n, n))).constraints)
    # boolean LS with one LE row on two coordinates: their visits are scalar
    # and interleave with the scanned visits of the others in each sweep
    p = gen_boolean_ls(n + 3, n, seed=seed)
    i, j = sorted(rng.choice(n, size=2, replace=False).tolist())
    extra = Constraint(QuadraticForm.create(n, [(i, j, float(rng.standard_normal()))], None, -0.5), Sense.LE)
    return QcqpProblem.create(p.objective, [*p.constraints, extra])


@pytest.mark.parametrize("start", ["normal", "sign", "admm"])
@pytest.mark.parametrize("family", ["boolean_ls", "maxcut", "mixed", "partitioning", "diagonal"])
def test_cd_block_scan_matches_the_scalar_visits(family, start):
    # each x_i^2 = 1 row listed twice gives x_i two rows, so no coordinate of
    # the copy is a block coordinate and every phase I and phase II visit is
    # scalar; the two problems have the same solution sets, so cd must agree
    # bit for bit
    for seed in range(6):
        problem = _scan_case(family, seed)
        n = problem.n
        rows = problem.constraints
        doubled = QcqpProblem.create(problem.objective, [*rows, *(c for c in rows if c.form.support.size == 1)])
        blocks = problem._coordinate_rows.block_j.size
        assert blocks == (n - 2 if family == "mixed" else n)
        assert doubled._coordinate_rows.block_j.size == 0
        x0 = np.random.default_rng(100 + seed).standard_normal(n)
        if start == "sign":
            x0 = round_sign(x0)
        elif start == "admm":
            x0 = improve_admm(problem, x0, max_iter=5).x
        got = _cd_output(improve_coordinate_descent(problem, x0))
        assert got == _cd_output(improve_coordinate_descent(doubled, x0)), seed


def _sweep_case(rng, off_values, n: int = 10):
    """A problem with every kind of coordinate phase II meets, and a point that need not be feasible.

    Block rows a x^2 + b x + r = 0 come as x^2 = 1, with random a and b,
    with |a| < AFFINE_EPS, as x^2 = 0 (a double root) and with a < 0.  Other
    coordinates have no row, two rows, or share an LE row.  The objective is
    dense, or diagonal with q = 0 (the roots +-1 tie), with some P_jj and
    q_j zero or below AFFINE_EPS (an objective flat in x_j).  The point mixes
    +-1, 0, normal draws, values whose square pow rounds differently from
    x * x (off_values), a huge value and NaN.
    """
    rows = []
    for j in range(n):
        kind = int(rng.integers(9))
        e = np.eye(n)[j]
        a, b = float(rng.uniform(0.3, 3.0)), float(rng.standard_normal())
        row = {
            0: (1.0, 0.0, -1.0),
            1: (a, b, -1.0),
            2: (1e-13, b, -0.5),
            3: (1.0, 0.0, 0.0),
            4: (-a, b, 1.0),
        }.get(kind)
        if row is not None:
            rows.append(Constraint(QuadraticForm.create(n, [(j, j, row[0])], row[1] * e, row[2]), Sense.EQ))
        elif kind == 5:  # two rows: scalar visits
            rows += [Constraint(QuadraticForm.create(n, [(j, j, 1.0)], None, -1.0), Sense.EQ)] * 2
        elif kind == 6 and j + 1 < n:  # an LE row shared with x_{j+1}
            rows.append(Constraint(QuadraticForm.create(n, [(j, j + 1, 1.0)], None, -0.5), Sense.LE))
    if rng.random() < 0.5:
        A = rng.standard_normal((n, n))
        P, q = A + A.T, rng.standard_normal(n)
    else:
        P, q = np.diag(rng.uniform(-1.0, 2.0, n)), np.zeros(n)
    for j in rng.choice(n, size=3, replace=False):
        tiny = float(rng.choice([0.0, 5e-13]))
        P[j, :] = P[:, j] = 0.0
        P[j, j], q[j] = tiny, float(rng.choice([0.0, tiny]))
    problem = QcqpProblem.create(QuadraticForm.from_dense(P, q), rows)
    pool = [1.0, -1.0, 0.0, float(rng.standard_normal()), *rng.choice(off_values, size=2).tolist()]
    x = np.array([pool[int(rng.integers(len(pool)))] for _ in range(n)])
    if rng.random() < 0.1:
        x[int(rng.integers(n))] = float(rng.choice([1e200, np.nan]))
    return problem, x


def test_phase2_sweep_matches_a_sweep_of_scalar_visits():
    # block_step's closed form must take the scalar visit's decisions, bit
    # for bit, at any state: ties, guards, non-finite values, and a violated
    # row that freezes the coordinates outside it
    rng = np.random.default_rng(0)
    off_values = [v for v in rng.standard_normal(20000) if v**2 != v * v]
    assert len(off_values) > 5
    scans = 0
    for _ in range(400):
        problem, x = _sweep_case(rng, off_values)
        with np.errstate(all="ignore"):
            fast, slow = qcqp.improve._CoordState(problem, x), qcqp.improve._CoordState(problem, x)
            # the point need not be feasible: count no row, or one, as violated
            fast.violated = {int(rng.integers(1, problem.m + 1))} if rng.random() < 0.3 and problem.m else set()
            slow.violated = set(fast.violated)
            scans += fast.cr.block_j.size > 0 and not fast.violated
            got = qcqp.improve._phase2_sweep(fast)
            want = False
            for j in range(problem.n):
                want |= qcqp.improve._phase2_visit(slow, j)
        assert got == want
        for u, v in ((fast.x, slow.x), (fast.fval, slow.fval), (fast.g, slow.g)):
            assert u.tobytes() == v.tobytes()
        assert fast.violated == slow.violated
    assert scans > 200


def test_cd_phase2_decides_block_coordinates_without_minimize_over_set():
    # from a sign-rounded start on boolean LS phase I has nothing to do, and
    # phase II scans every coordinate in closed form
    p = gen_boolean_ls(12, 8, seed=1)
    x0 = round_sign(np.random.default_rng(5).standard_normal(8))
    spy = mock.Mock(wraps=qcqp.improve.minimize_over_set)
    with mock.patch.object(qcqp.improve, "minimize_over_set", spy):
        rep = improve_coordinate_descent(p, x0)
    assert spy.call_count == 0
    assert rep.converged and rep.iterations >= 2  # phase II moved some x_j
    assert not np.array_equal(rep.x, x0)


@pytest.mark.parametrize("family", ["boolean_ls", "partitioning", "maxcut", "diagonal", "mixed"])
def test_phase1_visit_matches_the_scalar_visit_after_drifting_moves(family):
    # moves leave g[k, j] off a x_j by rounding, so the row's linear term q is
    # a residue rather than 0; at every such state the closed form must take
    # the scalar visit's step (block_root declining gives it), bit for bit
    rng = np.random.default_rng(1)
    drifted = decided = 0
    for seed in range(12):
        problem = _scan_case(family, seed)
        cr = problem._coordinate_rows
        x0 = rng.standard_normal(problem.n)
        if seed % 2:
            x0 = improve_admm(problem, x0, max_iter=3).x
        fast, slow = qcqp.improve._CoordState(problem, x0), qcqp.improve._CoordState(problem, x0)
        for _ in range(3 * problem.n):
            j, t = int(rng.integers(problem.n)), float(rng.standard_normal())
            fast.move(j, t)
            slow.move(j, t)
        drifted += int(np.count_nonzero(fast.g[cr.block_k, cr.block_j] != cr.block_a * fast.x[cr.block_j]))
        for j in range(problem.n):
            decided += cr.run_end[j] > j and fast.block_root(j) is not None  # a block coordinate's closed form
            qcqp.improve._phase1_visit(fast, j)
            with mock.patch.object(qcqp.improve._CoordState, "block_root", return_value=None):
                qcqp.improve._phase1_visit(slow, j)
            for u, v in ((fast.x, slow.x), (fast.fval, slow.fval), (fast.g, slow.g)):
                assert u.tobytes() == v.tobytes()
    assert drifted > 10 and decided > 50


def test_refresh_writes_the_dense_products():
    # refresh() writes a x_i for a row of one variable, read only at x_i, and
    # the dense product for every other row; a point with a non-finite entry
    # takes the dense product everywhere
    rng = np.random.default_rng(3)
    for trial in range(60):
        n = int(rng.integers(1, 9))
        rows = []
        for j in range(n):
            e = np.eye(n)[j]
            a, b = float(rng.choice([1.0, -2.5, rng.standard_normal()])), float(rng.choice([0.0, 0.7]))
            sense = Sense.EQ if rng.random() < 0.7 else Sense.LE
            rows.append(Constraint(QuadraticForm.create(n, [(j, j, a)], b * e, -1.0), sense))
        if n > 1:
            rows.append(Constraint(QuadraticForm.create(n, [(0, n - 1, 1.0)], None, -0.5), Sense.LE))
        A = rng.standard_normal((n, n))
        problem = QcqpProblem.create(QuadraticForm.from_dense(A + A.T, rng.standard_normal(n)), rows)
        x = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4, n)
        x[rng.random(n) < 0.3] = float(rng.choice([0.0, -0.0, 1.0, -1.0]))
        if trial % 6 == 0:
            x[int(rng.integers(n))] = float(rng.choice([np.inf, np.nan]))
        with np.errstate(all="ignore"):
            st_ = qcqp.improve._CoordState(problem, x)
            dense = [P @ x for P in st_.P]
        rc = problem._row_classes
        for k, g in enumerate(dense):
            if k - 1 in rc.one.tolist() and np.isfinite(x).all():
                i = rc.i[rc.one.tolist().index(k - 1)]
                assert st_.g[k, i].tobytes() == g[i].tobytes()
            else:
                assert st_.g[k].tobytes() == g.tobytes()


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


@pytest.mark.parametrize(
    "improve",
    [improve_admm, improve_ccp, partial(improve_sequence, methods=["sign", "cd", "admm"])],
    ids=["admm", "ccp", "sequence"],
)
def test_improve_returns_on_a_problem_of_no_variables(improve):
    # a 0 x 0 objective has no smallest eigenvalue to read (min_eig_bound
    # takes +inf); improving the empty point returns it
    problem = QcqpProblem.create(QuadraticForm.create(0, (), None, 2.0))
    rep = improve(problem, np.zeros(0))
    assert rep.x.shape == (0,)
    assert rep.assessment.as_tuple() == (0.0, 2.0)


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
    # a sequence's options must name its methods, and come as a dict
    with pytest.raises(TypeError, match="admn"):
        improve_sequence(p, x0, ["admm"], {"admn": {"max_iter": 1}})
    with pytest.raises(TypeError):
        improve_sequence(p, x0, ["admm"], [("admm", {"max_iter": 1})])
    with pytest.raises(TypeError, match="ccp"):
        run_pipeline(p, PipelineConfig(improve=("admm",), improve_opts={"ccp": {"max_iter": 1}}, seed=0))
    assert improve_sequence(p, x0, ["admm"], {"admm": {"max_iter": 1}}).iterations == 1


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
    block = _Rows.of(problem).blocks[0][1]
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
    block = _Rows.of(QcqpProblem.create(QuadraticForm.create(3), [zero, other])).blocks[0][1]
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


def _ccp_case(name: str):
    """(problem, x0) of a pinned CCP run."""
    if name == "3sat":  # rows x_i^2 - x_i = 0: the convex block's rows have a linear term in x_i
        rng = np.random.default_rng(6)
        literals = [rng.choice(np.arange(1, 9), 3, replace=False) * rng.choice([-1, 1], 3) for _ in range(12)]
        return gen_3sat([tuple(map(int, c)) for c in literals], 8), rng.random(8)
    if name == "maxcut":
        W = np.triu(np.random.default_rng(3).random((8, 8)), 1)
        return gen_maxcut(W + W.T), np.random.default_rng(4).standard_normal(8)
    problem, x0, _ = _cd_case(name)
    return problem, x0


def _digest(rep) -> str:
    """sha256 of a report's point, assessment and trace (float64 bytes), iteration count and convergence."""
    h = hashlib.sha256()
    for part in (rep.x, np.array(rep.assessment.as_tuple()), np.array(rep.phase_trace, dtype=float)):
        h.update(np.ascontiguousarray(part, dtype=float).tobytes())
    h.update(f"{rep.iterations} {rep.converged}".encode())
    return h.hexdigest()


# _digest of improve_ccp (max_iter=6) and of ["ccp", "cd"] on the same start,
# as recorded when CCP set its subproblem up as one QcqpProblem of lifted rows
# and projected each row a x_i^2 + w'x + r - s_k <= 0 by the closed form in
# x_i; its convex block projects those rows bit for bit as that form did
CCP_PINS = {
    "boolean_ls": (
        "0875455c91c6588a835b6720d2cba79676099a201374e6b915d95e4f86b1be92",
        "1f2fd28f0dd7dff1fc30aefa9229db990a89ed5ae33a5d74213d797559d89587",
    ),
    "partitioning": (
        "96fbbbe45d661fd459f535df1155280387f35e25c31f6694e941cde265d56f8d",
        "40f67e819983eeb0adb52537ca09c8f1bd9c9e1717d0739f8c44be85589ff51b",
    ),
    "maxcut": (
        "146fc16eaa500ae34c08db68468d1d703a7e6f9aaa350526c26cc37018a0a83a",
        "1cfc0e579fa0ac3f4b164e7c47df21ffbc90e64ebbcf97b6d05c264b3106e238",
    ),
    "3sat": (
        "b69c6de02db4b1c4bb7bfbd9af55d3d4d6cf5c06158cab94415998359de72f69",
        "ac222bb93ff107158bd8031d6e39113cdbe4b20b1388947416f431c7a499c7ca",
    ),
}


@pytest.mark.parametrize("name", list(CCP_PINS))
def test_ccp_outputs_pinned(name):
    problem, x0 = _ccp_case(name)
    ccp = improve_ccp(problem, x0, max_iter=6)
    ccp_cd = improve_sequence(problem, x0, ["ccp", "cd"], {"ccp": {"max_iter": 6}})
    assert (_digest(ccp), _digest(ccp_cd)) == CCP_PINS[name]


# _digest of improve_ccp (max_iter=6) and of ["ccp", "cd"] on rows of several
# variables, whose products are sums of several terms, as recorded when CCP
# split and evaluated one row at a time
CCP_GENERAL_PINS = {
    "beamforming": (
        "8aad61faeb9a464cf28ad2bffac123c57982e164fb21495c3c2518e6c5dce4e7",
        "03bc4b569c9df191c7588545cad0d1f0fbf9d3c80331f8ac708ad2ca194fe287",
    ),
    "maxclique": (
        "252aa237b28abb25e6307255935a8fc664256a63e90ee67ed3f5eef79bb919dd",
        "48d68b9d82c7957deb7d6be4a14f409f85990b4e4a257bf4c64d5e9d1269b7d5",
    ),
}


def _three_non_edges():
    adjacency = np.ones((6, 6), dtype=int)
    for i, j in ((0, 3), (1, 4), (2, 5)):
        adjacency[i, j] = adjacency[j, i] = 0
    return adjacency


@pytest.mark.parametrize("name", list(CCP_GENERAL_PINS))
def test_ccp_outputs_pinned_on_rows_of_several_variables(name):
    if name == "beamforming":
        problem, x0 = gen_beamforming(4, 6, 2, seed=3), np.random.default_rng(4).standard_normal(8)
    else:
        problem, x0 = gen_maxclique(_three_non_edges()), np.random.default_rng(4).standard_normal(6)
    ccp = improve_ccp(problem, x0, max_iter=6)
    ccp_cd = improve_sequence(problem, x0, ["ccp", "cd"], {"ccp": {"max_iter": 6}})
    assert (_digest(ccp), _digest(ccp_cd)) == CCP_GENERAL_PINS[name]


def test_ccp_splits_the_objective_and_every_row_in_one_call():
    # beamforming's rows are LE, 3-SAT's x_i^2 - x_i = 0 are EQ and give two rows each
    for p, x0 in ((gen_beamforming(4, 6, 2, seed=3), np.random.default_rng(4).standard_normal(8)), _ccp_case("3sat")):
        splitter = mock.Mock(side_effect=split_eigen)
        with mock.patch.dict(qcqp.improve._SPLITTERS, {"eigen": splitter}):
            rep = improve_ccp(p, x0, max_iter=3, subsolver_opts={"max_iter": 20})
        assert rep.iterations >= 2 and splitter.call_count == 1
        (stack,) = splitter.call_args.args
        assert stack.shape == (p.m + 1, p.n, p.n)
        forms = [p.objective] + [c.form for c in p.constraints]
        assert all(np.array_equal(P, f.dense_p) for P, f in zip(stack, forms))


def test_ccp_builds_no_projector_and_classifies_no_row():
    # CCP's subproblem is an affine block and a convex block whose curvature
    # comes from the eigenpairs split_eigen computed, so no row of it is
    # classified, gets a ConstraintProjector or solves a secular equation.
    # Beamforming's coverage rows are concave and reach the subproblem
    # affine, and its 2 power caps are PSD of rank two.  Max-clique's rows
    # x_i x_j = 0 split into rank-one parts along (e_i +- e_j) / sqrt(2).
    cases = [
        # (problem, affine rows, convex rows, the convex block's rank)
        (gen_beamforming(4, 6, 2, seed=3), 6 + 8, 2, 2),
        (gen_maxclique(_three_non_edges()), 6 + 18, 6 + 6, 1),
    ]
    init, secular, scan = ConstraintProjector.__init__, ConstraintProjector._solve_secular, _RowClasses.__init__
    for p, n_aff, n_cvx, rank in cases:
        x0 = np.random.default_rng(4).standard_normal(p.n)
        assess(p, x0)  # the problem's own row classes, which it keeps
        with (
            mock.patch.object(qcqp.improve, "_admm", autospec=True, side_effect=qcqp.improve._admm) as subsolves,
            mock.patch.object(ConstraintProjector, "__init__", autospec=True, side_effect=init) as inits,
            mock.patch.object(ConstraintProjector, "_solve_secular", autospec=True, side_effect=secular) as solves,
            mock.patch.object(_RowClasses, "__init__", autospec=True, side_effect=scan) as scans,
        ):
            rep = improve_ccp(p, x0, max_iter=3, subsolver_opts={"max_iter": 20})
        assert inits.call_count == solves.call_count == scans.call_count == 0
        assert subsolves.call_count == rep.iterations >= 2
        for call in subsolves.call_args_list:
            rows = call.args[1]
            (aff, affine), (cvx, convex) = rows.blocks
            assert isinstance(affine, _AffineRows) and isinstance(convex, _ConvexRows) and not rows.general
            assert (aff.size, cvx.size, convex.U.shape) == (n_aff, n_cvx, (n_cvx, p.n, rank))
            assert rows.m == aff.size + cvx.size


def ccp_subproblem(problem: QcqpProblem, xk: np.ndarray, tau: float) -> QcqpProblem:
    """CCP's convex subproblem at xk in (x, s), built as one QcqpProblem.

    Row 2k is the k-th convexified row x'(plus)x + (q - 2 minus xk)'x + r +
    xk'(minus)xk - s_k <= 0 and row 2k+1 is s_k >= 0, the order improve_ccp uses.
    """
    n = problem.n
    rows = []
    for c in problem.constraints:
        sp = split_eigen(c.form.dense_p)
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
    sp0 = split_eigen(problem.objective.dense_p)
    P0 = np.zeros((dim, dim))
    P0[:n, :n] = sp0.plus
    q0 = np.concatenate([problem.objective.q_vec - 2.0 * (sp0.minus @ xk), np.full(K, tau)])
    r0 = problem.objective.r + float(xk @ (sp0.minus @ xk))
    return QcqpProblem.create(QuadraticForm.from_dense(P0, q0, r0), cons)


def test_admm_on_ccp_subproblem_matches_per_row_reference_without_secular_solves():
    # boolean LS: each x_i^2 = 1 gives the convexified row x_i^2 - 1 - s <= 0,
    # a row of CCP's convex block, and an affine linearized row.  ADMM on the
    # rows CCP builds projects as each row's ConstraintProjector does on the
    # subproblem written out as one QcqpProblem.
    p = gen_boolean_ls(8, 5, seed=0)
    xk = np.random.default_rng(1).standard_normal(5)
    admm = qcqp.improve._admm
    with mock.patch.object(qcqp.improve, "_admm", autospec=True, side_effect=admm) as subsolves:
        improve_ccp(p, xk, tau0=4.0, max_iter=1, subsolver_opts={"max_iter": 1})
    objective, rows = subsolves.call_args.args[:2]
    sub = ccp_subproblem(p, xk, tau=4.0)
    assert rows.blocks[1][0].tolist() == [0, 4, 8, 12, 16] and not rows.general
    assert np.array_equal(objective.dense_p, sub.objective.dense_p)
    assert np.array_equal(objective.q_vec, sub.objective.q_vec) and objective.r == sub.objective.r
    z0 = np.concatenate([xk, np.full(10, 0.5)])
    assert rows.assess(objective, z0).as_tuple() == pytest.approx(assess(sub, z0).as_tuple(), rel=1e-12)
    secular = ConstraintProjector._solve_secular
    with mock.patch.object(ConstraintProjector, "_solve_secular", autospec=True, side_effect=secular) as calls:
        rep = admm(objective, rows, z0, 2.0, max_iter=40, two_phase=False, resid_tol=0.0, record_iterates=True)
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


# -- the convex block ------------------------------------------------------


@st.composite
def convex_rows_and_points(draw):
    """LE rows x'U diag(d) U'x + w'x + r <= 0, U of rank 1-3 over the first n <= 5
    of n + 1 coordinates and w nonzero on the last, slack-like one, each with a
    point v at f(v) = gap (inside the set for gap <= 0).  U is a signed axis
    column or has orthonormal columns in general position."""
    n = draw(st.integers(1, 5))
    rows, points, curvature = [], [], []
    for _ in range(draw(st.integers(1, 4))):
        rank = draw(st.integers(1, min(3, n)))
        if rank == 1 and draw(st.booleans()):
            U = np.zeros((n, 1))
            U[draw(st.integers(0, n - 1)), 0] = draw(st.sampled_from([1.0, -1.0]))
        else:
            U = np.linalg.qr(np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((n, rank)))[0]
        d = 10.0 ** np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=rank, max_size=rank)))
        P = np.zeros((n + 1, n + 1))
        P[:n, :n] = (U * d) @ U.T
        q = np.array(draw(st.lists(coefficient, min_size=n + 1, max_size=n + 1)))
        q[n] = draw(nonzero)
        v = np.array(draw(st.lists(coefficient, min_size=n + 1, max_size=n + 1)))
        r = draw(coefficient) - evaluate(QuadraticForm.from_dense(P, q), v)
        rows.append(Constraint(QuadraticForm.from_dense(P, q, r), Sense.LE))
        points.append(v)
        curvature.append((U, d))
    p = max(d.size for _, d in curvature)
    U, d = np.zeros((len(rows), n, p)), np.ones((len(rows), p))
    for k, (Uk, dk) in enumerate(curvature):
        U[k, :, : dk.size], d[k, : dk.size] = Uk, dk
    Q = np.array([c.form.q_vec for c in rows])
    R = np.array([c.form.r for c in rows])
    return QcqpProblem.create(QuadraticForm.create(n + 1), rows), _ConvexRows(U, d, Q, R), np.array(points)


@given(convex_rows_and_points())
def test_curved_block_matches_per_row_projection(case):
    problem, block, V = case
    X = block.project(V)
    ref = per_row_projections(problem, V)
    assert np.all(np.max(np.abs(X - ref), axis=1) <= 1e-9 * (1.0 + np.max(np.abs(ref), axis=1)))
    for k, c in enumerate(problem.constraints):
        proj = ConstraintProjector(c.form)
        fx = evaluate(c.form, X[k])
        assert fx <= FEAS_TOL * proj.scale
        # the KKT residual of X[k] at the multiplier nu >= 0 that fits 2 (x - v) + nu grad f(x) = 0 best
        g, step = c.form.gradient(X[k]), 2.0 * (X[k] - V[k])
        nu = max(-float(step @ g) / float(g @ g), 0.0) if g.any() else 0.0
        moved = evaluate(c.form, V[k]) > 0.0
        assert ProjectionResult(X[k], nu, c.form, V[k], moved).kkt_residual <= 1e-8 * proj.scale
        if evaluate(c.form, V[k]) < -1e-9 * proj.scale:  # feasible beyond rounding: v unchanged
            assert np.array_equal(X[k], V[k])
        assert np.array_equal(block.project(V[k : k + 1], [k])[0], X[k])
    v = V[0]
    want = [c.violation(v) for c in problem.constraints]
    atol = 1e-12 * max(1.0, float(np.abs(v).max()) ** 2)
    assert np.allclose(np.maximum(block.values(v), 0.0), want, rtol=1e-12, atol=atol)
    assert math.isclose(max(0.0, block.max_violation(v)), max(want), rel_tol=1e-12, abs_tol=atol)


def test_admm_projects_every_quadratic_row_of_several_variables_through_its_projector():
    # only affine rows are stacked for ADMM: a convex row a x_0^2 + w'x + r <= 0
    # is a general row, as every other quadratic row is
    def row(P, q, sense=Sense.LE):
        return Constraint(QuadraticForm.from_dense(np.array(P, dtype=float), q, -1.0), sense)

    rows = [
        row([[2.0, 0.0], [0.0, 0.0]], [0.0, -1.0]),  # one convex coordinate and a flat term
        row([[2.0, 0.0], [0.0, 0.0]], [0.0, -1.0], Sense.EQ),  # equality
        row([[-2.0, 0.0], [0.0, 0.0]], [0.0, -1.0]),  # concave
        row([[2.0, 0.0], [0.0, 0.0]], [1.0, 0.0]),  # one variable: closed form in ConstraintProjector
        row([[2.0, 0.0], [0.0, 1.0]], [0.0, -1.0]),  # two curved coordinates
        row([[0.0, 1.0], [1.0, 0.0]], [0.0, -1.0]),  # off-diagonal curvature
        row([[0.0, 0.0], [0.0, 0.0]], [1.0, -1.0]),  # affine
    ]
    problem = QcqpProblem.create(QuadraticForm.create(2), rows)
    admm_rows = problem._admm_rows
    assert list(admm_rows.general) == [0, 1, 2, 3, 4, 5]
    assert [r.tolist() for r, _ in admm_rows.blocks] == [[6]]
    V = np.random.default_rng(5).standard_normal((len(rows), 2)) * 3.0
    assert np.array_equal(admm_rows.project(V)[:6], per_row_projections(problem, V)[:6])

def test_rows_are_classified_once_per_problem_and_once_per_ccp_call():
    # improve_admm and cd read the problem's cached row classes, and ADMM's
    # rows, with a projector for each of beamforming's 8 quadratic rows, are
    # kept with the problem too: a second candidate scans no row and builds
    # no projector.  CCP on a fresh problem scans only that problem's rows
    # (for assess), never its subproblem's.
    p = gen_beamforming(4, 6, 2, seed=3)
    x0 = np.random.default_rng(4).standard_normal(8)
    init, scan = ConstraintProjector.__init__, _RowClasses.__init__
    with (
        mock.patch.object(_RowClasses, "__init__", autospec=True, side_effect=scan) as scans,
        mock.patch.object(ConstraintProjector, "__init__", autospec=True, side_effect=init) as inits,
    ):
        first = improve_admm(p, x0, max_iter=20)
        assert (scans.call_count, inits.call_count) == (1, 8)
        improve_admm(p, -x0, max_iter=20)
        improve_coordinate_descent(p, x0)
        again = improve_admm(p, x0, max_iter=20)
        assert (scans.call_count, inits.call_count) == (1, 8)
        improve_ccp(gen_beamforming(4, 6, 2, seed=3), x0, max_iter=3, subsolver_opts={"max_iter": 20})
    assert (scans.call_count, inits.call_count) == (2, 8)
    assert again.x.tobytes() == first.x.tobytes()



# -- ADMM's stacked assessment ---------------------------------------------


@st.composite
def rows_objective_and_stack(draw):
    """ADMM's rows of a problem, or CCP's two blocks, with an objective and a stack of t <= 60 points.

    ADMM's rows (n <= 40, m <= 6, m = 0 included) are rows of one variable,
    general rows and affine rows, EQ or LE; an affine row may be flat (q =
    0).  CCP's rows are an affine block and a convex block of rank 1-3.  A
    few entries of the points are +-inf, NaN or 1e200.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(0, 40))
    M = rng.standard_normal((n, n))
    objective = QuadraticForm.from_dense(M + M.T, rng.standard_normal(n), float(rng.standard_normal()))
    if n == 0 or draw(st.booleans()):
        kinds = ("one", "gen", "aff", "flat") if n else ("flat",)
        rows = []
        for kind in draw(st.lists(st.sampled_from(kinds), max_size=6)):
            sense = draw(st.sampled_from([Sense.EQ, Sense.LE]))
            r = float(rng.standard_normal())
            if kind == "one":
                i, (a, b) = int(rng.integers(n)), rng.standard_normal(2)
                form = QuadraticForm.create(n, [(i, i, float(a))], b * np.eye(n)[i], r)
            elif kind == "gen":
                B = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.5)
                form = QuadraticForm.from_dense(B + B.T + np.eye(n), rng.standard_normal(n), r)
            else:
                form = QuadraticForm.create(n, (), rng.standard_normal(n) if kind == "aff" else None, r)
            rows.append(Constraint(form, sense))
        admm_rows = _Rows.of(QcqpProblem.create(objective, rows))
    else:
        k_aff, k_cvx = draw(st.integers(0, 4)), draw(st.integers(1, 4))
        nc = draw(st.integers(1, n))
        rank = min(draw(st.integers(1, 3)), nc)
        # each row of rank 1 to rank over the first nc coordinates, padded as CCP pads it
        U, d = np.zeros((k_cvx, nc, rank)), np.ones((k_cvx, rank))
        for k in range(k_cvx):
            p = draw(st.integers(1, rank))
            U[k, :, :p] = np.linalg.qr(rng.standard_normal((nc, p)))[0]
            d[k, :p] = 10.0 ** rng.uniform(-3.0, 3.0, p)
        convex = _ConvexRows(U, d, rng.standard_normal((k_cvx, n)), rng.standard_normal(k_cvx))
        affine = _AffineRows(np.zeros(k_aff, dtype=bool), rng.standard_normal((k_aff, n)), rng.standard_normal(k_aff))
        order = rng.permutation(k_aff + k_cvx)
        admm_rows = _Rows(n, k_aff + k_cvx, [(np.sort(order[:k_aff]), affine), (np.sort(order[k_aff:]), convex)])
    t = draw(st.integers(1, 60))
    Z = rng.standard_normal((t, n)) * 10.0 ** rng.integers(-3, 4, (t, n))
    if n:
        for value in draw(st.lists(st.sampled_from([math.inf, -math.inf, math.nan, 1e200]), max_size=4)):
            Z[rng.integers(t), rng.integers(n)] = value
    return admm_rows, objective, Z


def _hex(a):
    return a.violation.hex(), a.objective.hex()


@given(rows_objective_and_stack())
def test_assess_stack_is_assess_of_each_point_bit_for_bit(case):
    rows, objective, Z = case
    with np.errstate(all="ignore"):  # NaN and inf in a point's products
        want = [_hex(rows.assess(objective, z)) for z in Z]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and quietly in the stack
        got = [_hex(a) for a in rows.assess_stack(objective, Z)]
    assert got == want


# _digest of solve_convex and of improve_admm from sign-rounded starts, which
# are feasible on boolean LS and partitioning and so run phase II at once, as
# recorded when ADMM assessed every iterate as it went
ADMM_PINS = {
    "convex": "7efcb9b5ec92ed3d9a603834548dad5d1c9b9e85e3562e9e9356fff3fe720848",
    "boolean_ls": "b93b5d0037cd632479c0a8860d24530c1eb4c08db78b4a80c20d0663e2e63aab",
    "partitioning": "ddfafb35e57f59de5b4626f68d7174ed3818f2f04d6b0666533a448d49a9c307",
}


def _convex_case():
    """A convex QCQP: rank-two convex rows, affine EQ and LE rows and a bound on x_0^2."""
    rng = np.random.default_rng(11)
    n = 5
    M = rng.standard_normal((n, n))
    obj = QuadraticForm.from_dense(M @ M.T + 0.1 * np.eye(n), rng.standard_normal(n), 1.0)
    cons = []
    for _ in range(3):
        B = rng.standard_normal((n, 2))
        cons.append(Constraint(QuadraticForm.from_dense(B @ B.T, rng.standard_normal(n), -2.0), Sense.LE))
    cons.append(Constraint(QuadraticForm.create(n, (), rng.standard_normal(n), 0.5), Sense.EQ))
    cons.append(Constraint(QuadraticForm.create(n, (), rng.standard_normal(n), -1.0), Sense.LE))
    cons.append(Constraint(QuadraticForm.create(n, [(0, 0, 1.0)], None, -4.0), Sense.LE))
    return QcqpProblem.create(obj, cons), rng.standard_normal(n)


@pytest.mark.parametrize("name", list(ADMM_PINS))
def test_admm_phase2_outputs_pinned(name):
    if name == "convex":
        problem, x0 = _convex_case()
        rep = solve_convex(problem, x0, max_iter=300)
    else:
        problem, x0, _ = _cd_case(name)
        rep = improve_admm(problem, round_sign(x0), max_iter=60)
    assert _digest(rep) == ADMM_PINS[name]


# _digest of improve_admm (max_iter=50) and of ["admm", "cd"] from normal
# starts, as recorded when phase I computed both residuals every iteration.
# The first three run all 50 iterations in phase I; beamforming's general
# rows reach feasibility and go on in phase II.
ADMM_PHASE1_PINS = {
    "boolean_ls": (
        "879cbc7a3ab551a5637c6ee26f562ca6dff0e44169a76e8735e63bff34f65d2e",
        "fa6095330f2592e94257f493c122fe205f718a9e95df2df2ad275d8f975ca292",
    ),
    "partitioning": (
        "2cbe395b64918d5a6647beb4e96a2290bc5bafdd46a17d9a5858674f6e669f9d",
        "a723fe203ae5ee82a4b055450ed133419a909b2be2affd595844f616d783ac87",
    ),
    "maxcut": (
        "8eab48cace24ad07ac6edbd8f367b67a00d9470dfbe99a441c281cc87b3a98f6",
        "264db1bb620515746e7f982d91f26e462bc80950934ac6eb2d389a856787d010",
    ),
    "beamforming": (
        "2fd54917dba8ce3afb87dca451f1ab5e03b088ee755538e02ba5730b49ae39ef",
        "0edad1469981ee855415552574dc460a3437d909b3653c4e1db4e91766594fab",
    ),
}


def _admm_phase1_case(name: str):
    """(problem, x0) of a pinned ADMM run from a normal start."""
    if name == "boolean_ls":
        return gen_boolean_ls(25, 16, seed=0), np.random.default_rng(4).standard_normal(16)
    if name == "maxcut":
        W = np.triu(np.random.default_rng(3).random((8, 8)), 1)
        return gen_maxcut(W + W.T), np.random.default_rng(4).standard_normal(8)
    problem, x0, _ = _cd_case(name)
    return problem, x0


@pytest.mark.parametrize("name", list(ADMM_PHASE1_PINS))
def test_admm_phase1_outputs_pinned(name):
    problem, x0 = _admm_phase1_case(name)
    admm = improve_admm(problem, x0, max_iter=50)
    admm_cd = improve_sequence(problem, x0, ["admm", "cd"], {"admm": {"max_iter": 50}})
    assert (_digest(admm), _digest(admm_cd)) == ADMM_PHASE1_PINS[name]


def test_admm_assesses_phase1_iterates_one_at_a_time_and_phase2_as_one_stack():
    # CCP's subsolves have no phase I: their loops assess nothing, and each
    # assesses its iterates in one stack.  On boolean LS from a random start
    # every one of ADMM's 50 iterations is in phase I: x0 and each iterate
    # are assessed one at a time, and there is no stack.
    one, stack = _Rows.assess, _Rows.assess_stack
    cases = [
        (partial(improve_ccp, max_iter=3, subsolver_opts={"max_iter": 20}), gen_beamforming(4, 6, 2, seed=3), 8),
        (partial(improve_admm, max_iter=50), gen_boolean_ls(25, 16, seed=0), 16),
    ]
    counts = []
    for improve, p, n in cases:
        x0 = np.random.default_rng(4).standard_normal(n)
        with (
            mock.patch.object(_Rows, "assess", autospec=True, side_effect=one) as singles,
            mock.patch.object(_Rows, "assess_stack", autospec=True, side_effect=stack) as stacks,
        ):
            rep = improve(p, x0)
        counts.append((rep.iterations, singles.call_count, stacks.call_count))
    (ccp_iters, ccp_singles, ccp_stacks), (admm_iters, admm_singles, admm_stacks) = counts
    assert ccp_iters == 3 and ccp_singles == 0 and ccp_stacks == 3
    assert admm_iters == 50 and admm_singles == 51 and admm_stacks == 0


def test_admm_stopped_by_a_failed_projection_in_phase1_ends_at_its_last_iterate(monkeypatch):
    # phase I reads no residual but still keeps the previous z: a projection
    # that finds no KKT point ends the loop at the iterate before it
    p = gen_boolean_ls(12, 8, seed=7)
    x0 = np.random.default_rng(8).standard_normal(8)
    project, calls = _Rows.project, []

    def fails_fourth(self, V):
        calls.append(V)
        if len(calls) == 4:
            raise NumericalFailureError("no KKT point found for the projection")
        return project(self, V)

    monkeypatch.setattr(_Rows, "project", fails_fourth)
    rep = improve_admm(p, x0, max_iter=10, record_iterates=True)
    assert rep.iterations == 3 and len(rep.iterates) == 3 and not rep.converged
    assert all(v > EPS_FEAS for v, _ in rep.phase_trace)  # every iterate was in phase I
    assert np.array_equal(rep.final_state[0], rep.iterates[-1][0])


def test_admm_keeps_the_first_of_equally_good_iterates():
    # a constant objective and a start inside the ball: x0 and every later
    # iterate, each feasible, tie, and the strict order keeps x0
    ball = Constraint(QuadraticForm.from_dense(np.eye(2), None, -4.0), Sense.LE)
    p = QcqpProblem.create(QuadraticForm.create(2), [ball])
    x0 = np.array([0.5, 0.0])
    for two_phase in (True, False):
        rep = improve_admm(p, x0, two_phase=two_phase, init_x=[[1.0, 1.0]], max_iter=5, record_iterates=True)
        assert rep.phase_trace == ((0.0, 0.0),) * rep.iterations
        assert not np.array_equal(rep.iterates[0][0], x0) and np.array_equal(rep.x, x0)

@pytest.mark.parametrize("seed", range(6))
def test_pipeline_survives_admm_diverging_on_partitioning(seed):
    # from the point sign and cd reach, ADMM's iterates on these problems grow
    # until a row's projector finds no KKT point; ADMM then stops at its best
    # iterate, which is never worse than where it started
    B = np.random.default_rng(seed).standard_normal((8, 8))
    p = gen_partitioning(B + B.T)
    for suggest in ("sdr", "spectral", "random"):
        config = PipelineConfig(suggest=suggest, improve=("sign", "cd", "admm", "cd"), seed=1)
        report = run_pipeline(p, config)
        for cand, x0 in zip(report["candidates"], _suggest(p, config).candidates):
            assert "error" not in cand
            assert (cand["violation"], cand["objective"]) <= assess(p, x0).as_tuple()


def test_admm_stops_at_its_best_iterate_when_a_projection_fails():
    # the partitioning problem above (seed 0) after sign and cd
    B = np.random.default_rng(0).standard_normal((8, 8))
    p = gen_partitioning(B + B.T)
    x0 = improve_sequence(p, np.random.default_rng(1).standard_normal(8), ["sign", "cd"]).x
    rep = improve_admm(p, x0)
    assert not rep.converged and rep.iterations == len(rep.phase_trace) < 500
    assert not assess(p, x0).better_than(rep.assessment)


@pytest.mark.parametrize("family", ["beamforming", "boolean_ls"])
def test_ccp_returns_a_start_with_a_nan_coordinate(family):
    p = gen_beamforming(4, 6, 2, seed=3) if family == "beamforming" else gen_boolean_ls(12, 8, seed=1)
    x0 = np.random.default_rng(4).standard_normal(p.n)
    x0[1] = math.nan
    rep = improve_ccp(p, x0)
    assert (rep.iterations, rep.converged, rep.phase_trace) == (0, False, ())
    assert np.array_equal(rep.x, x0, equal_nan=True) and _hex(rep.assessment) == _hex(assess(p, x0)) == ("inf", "nan")
    assert _hex(improve_sequence(p, x0, ["ccp", "cd"]).assessment) == ("inf", "nan")


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


@pytest.mark.parametrize(
    "methods, opts, points",
    [(["sign", "cd"], {}, 3), (["admm", "cd"], {"admm": {"max_iter": 20}}, 3), (["scale", "sign"], {}, 2)],
)
def test_improve_sequence_assesses_each_point_once(methods, opts, points):
    # x0 and each method's point: a method of METHODS is handed the
    # assessment of its start, and scale (no covering row here) moves nothing
    p = gen_boolean_ls(10, 6, seed=6)
    x0 = np.random.default_rng(7).standard_normal(6)
    with mock.patch.object(qcqp.improve, "assess", autospec=True, side_effect=assess) as calls:
        rep = improve_sequence(p, x0, methods, opts)
    assert calls.call_count == points
    assert rep.assessment == assess(p, rep.x)


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

