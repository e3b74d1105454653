import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import qcqp.core
import qcqp.improve
from qcqp.core import (
    Assessment,
    Constraint,
    QcqpProblem,
    QuadraticForm,
    Sense,
    assess,
    dehomogenize,
    evaluate,
    to_epigraph,
    to_homogeneous,
    _max_violation,
    _row_class,
    _senses,
    _value,
)
from qcqp.errors import DegenerateHomogeneousError, DimensionMismatchError
from qcqp.generators import gen_beamforming


def evaluate_triplets(form: QuadraticForm, x) -> float:
    """Triplet-wise reference evaluation of a form."""
    total = form.r + float(form.q_vec @ x)
    for i, j, v in form.triplets:
        total += (v if i == j else 2.0 * v) * x[i] * x[j]
    return total


def dense_reference(n, triplets) -> np.ndarray:
    """Loop reference: fold to the upper triangle, sum in input order, drop zeros, mirror."""
    acc = {}
    for i, j, v in triplets:
        key = (min(i, j), max(i, j))
        acc[key] = acc.get(key, 0.0) + float(v)
    P = np.zeros((n, n))
    for (i, j), v in acc.items():
        if v != 0.0:
            P[i, j] = P[j, i] = v
    return P


def test_triplets_merge_and_fold_to_upper_triangle():
    trips = [(1, 0, 2.0), (0, 1, 1.0), (2, 2, 5.0), (2, 2, -5.0)]
    f = QuadraticForm.create(3, trips)
    assert f.triplets == ((0, 1, 3.0),)
    P = f.dense_p
    assert P[0, 1] == 3.0 and P[1, 0] == 3.0
    # duplicates are summed in input order, whichever triangle they name
    sums = [(0, 1, 0.1), (1, 0, 0.2), (0, 1, 0.3), (1, 1, -0.0)]
    # a cancelled diagonal pair, and -0.0 entries, leave no negative zero
    cancelled = [(1, 1, 0.1), (1, 1, -0.1), (0, 1, -0.0)]
    cases = [(f, trips), (QuadraticForm.create(2, sums), sums), (QuadraticForm.create(2, cancelled), cancelled)]
    D = np.array([[-0.0, -0.0], [0.0, -0.0]])
    S = 0.5 * (D + D.T)
    cases.append((QuadraticForm.from_dense(D), [(i, j, S[i, j]) for i in range(2) for j in range(i, 2)]))
    for g, t in cases:
        assert np.array_equal(g.dense_p, dense_reference(g.n, t))
        assert not np.any(np.signbit(g.dense_p))
        assert not g.dense_p.flags.writeable
    for g, _ in cases[2:]:
        assert g.triplets == () and g.is_affine
    assert not f.is_affine


def test_one_diagonal_triplet_builds_the_form_that_summing_builds():
    # create() writes a lone diagonal triplet straight into P; adding an
    # explicit zero triplet sends the same entry through the summed and
    # mirrored path, which must give the same matrix bit for bit
    for v in (1.0, -2.5, 0.0, -0.0, 5e-324, -1e300, 0.1):
        for n, i in ((1, 0), (4, 0), (4, 3), (7, 2)):
            lone = QuadraticForm.create(n, [(i, i, v)], np.arange(n, dtype=float), -1.0)
            summed = QuadraticForm.create(n, [(i, i, v), (0, 0, 0.0)], np.arange(n, dtype=float), -1.0)
            assert lone.dense_p.tobytes() == summed.dense_p.tobytes()
            assert lone.triplets == summed.triplets
            assert not lone.dense_p.flags.writeable
    with pytest.raises(ValueError):
        QuadraticForm.create(2, [(1, 1, math.inf)])


def test_from_dense_symmetrizes():
    f = QuadraticForm.from_dense([[1.0, 4.0], [0.0, 2.0]])
    assert np.allclose(f.dense_p, [[1.0, 2.0], [2.0, 2.0]])


def test_evaluate_matches_triplet_path():
    rng = np.random.default_rng(0)
    for _ in range(25):
        n = rng.integers(1, 8)
        P = rng.standard_normal((n, n))
        q = rng.standard_normal(n)
        r = float(rng.standard_normal())
        f = QuadraticForm.from_dense(P, q, r)
        x = rng.standard_normal(n)
        assert evaluate(f, x) == pytest.approx(evaluate_triplets(f, x), rel=1e-12, abs=1e-12)


def test_evaluate_known_value():
    # f(x) = x1^2 + 2 x1 x2 + 3 x2 + 1 at (2, -1): 4 - 4 - 3 + 1 = -2
    f = QuadraticForm.create(2, [(0, 0, 1.0), (0, 1, 1.0)], [0.0, 3.0], 1.0)
    assert evaluate(f, [2.0, -1.0]) == pytest.approx(-2.0)


def test_gradient():
    f = QuadraticForm.from_dense([[2.0, 1.0], [1.0, 0.0]], [1.0, -1.0], 0.0)
    x = np.array([1.0, 2.0])
    g = f.gradient(x)
    # 2 P x + q
    assert np.allclose(g, 2.0 * f.dense_p @ x + f.q_vec)


def test_support_is_rows_of_p_or_q_that_are_nonzero():
    # x0 and x3 through P's off-diagonal, x2 through q alone, x1 nowhere
    f = QuadraticForm.create(4, [(0, 3, 1.5)], [0.0, 0.0, 1.0, 0.0], 3.0)
    assert f.support.tolist() == [0, 2, 3]
    assert f.support is f.support
    assert QuadraticForm.create(3, (), None, 1.0).support.size == 0


def test_dimension_checks():
    for index in (2, -1, 0.5, 1e300, math.inf, math.nan):
        with pytest.raises(DimensionMismatchError):
            QuadraticForm.create(2, [(0, index, 1.0)])
    assert QuadraticForm.create(2, [(0.0, 1.0, 1.0)]).triplets == ((0, 1, 1.0),)
    with pytest.raises(DimensionMismatchError):
        QuadraticForm.create(2, (), [1.0, 2.0, 3.0])
    f = QuadraticForm.create(2)
    with pytest.raises(DimensionMismatchError):
        evaluate(f, [1.0])


def test_nonfinite_coefficients_rejected():
    with pytest.raises(ValueError):
        QuadraticForm.create(2, [(0, 1, np.inf)])
    with pytest.raises(ValueError):
        QuadraticForm.from_dense(np.eye(2), [0.0, np.nan])
    with pytest.raises(ValueError):
        QuadraticForm.create(2, (), None, np.nan)


def test_constraint_violation_senses():
    f = QuadraticForm.create(1, [(0, 0, 1.0)], None, -1.0)  # x^2 - 1
    le = Constraint(f, Sense.LE)
    eq = Constraint(f, Sense.EQ)
    assert le.violation([2.0]) == pytest.approx(3.0)
    assert le.violation([0.5]) == 0.0
    assert eq.violation([0.5]) == pytest.approx(0.75)


def test_assessment_lexicographic_order():
    a = Assessment(0.0, 5.0)
    b = Assessment(0.1, -100.0)
    assert a.better_than(b)
    assert not b.better_than(a)
    assert Assessment(0.0, 1.0).better_than(Assessment(0.0, 2.0))


def test_assess_takes_max_violation():
    n = 2
    obj = QuadraticForm.create(n)
    c1 = Constraint(QuadraticForm.create(n, (), [1.0, 0.0], -1.0), Sense.LE)  # x1 <= 1
    c2 = Constraint(QuadraticForm.create(n, (), [0.0, 1.0], 0.0), Sense.EQ)  # x2 = 0
    p = QcqpProblem.create(obj, [c1, c2])
    a = assess(p, [3.0, 0.5])
    assert a.violation == pytest.approx(2.0)


def test_assess_nonfinite_point_is_infinitely_violated():
    obj = QuadraticForm.create(2, [(0, 0, 1.0)])
    c = Constraint(QuadraticForm.create(2, [(1, 1, 1.0)], None, -1.0), Sense.EQ)
    x = [0.5, np.nan]
    assert assess(QcqpProblem.create(obj, [c]), x).violation == np.inf
    # with no constraint a non-finite objective alone counts as violated
    assert assess(QcqpProblem.create(c.form), x).violation == np.inf
    assert assess(QcqpProblem.create(obj, [c]), [0.5, 1.0]).violation == 0.0


def test_epigraph_transform():
    obj = QuadraticForm.create(1, [(0, 0, 1.0)])
    c = Constraint(QuadraticForm.create(1, (), [1.0], -2.0), Sense.LE)
    p = QcqpProblem.create(obj, [c])
    epi = to_epigraph(p)
    assert epi.n == 2
    assert epi.objective.is_affine
    # at (x, t) = (3, 9) the epigraph constraint is tight
    assert evaluate(epi.constraints[0].form, [3.0, 9.0]) == pytest.approx(0.0)
    # original constraint carried over unchanged in x
    assert evaluate(epi.constraints[1].form, [5.0, 0.0]) == pytest.approx(3.0)


def test_homogeneous_transform_round_trip():
    rng = np.random.default_rng(3)
    P = rng.standard_normal((3, 3))
    q = rng.standard_normal(3)
    obj = QuadraticForm.from_dense(P, q, 1.5)
    p = QcqpProblem.create(obj, [Constraint(QuadraticForm.from_dense(np.eye(3), None, -1.0), Sense.LE)])
    h = to_homogeneous(p)
    assert h.n == 4
    # last constraint pins the homogenizing coordinate
    assert h.constraints[-1].sense is Sense.EQ
    x = rng.standard_normal(3)
    z = np.concatenate([x, [1.0]])
    assert evaluate(h.objective, z) == pytest.approx(evaluate(obj, x), rel=1e-12)
    assert np.allclose(dehomogenize(z), x)
    # negated homogeneous point maps to the same x
    assert np.allclose(dehomogenize(-z), x)


def test_dehomogenize_degenerate():
    with pytest.raises(DegenerateHomogeneousError):
        dehomogenize([1.0, 2.0, 0.0])


def test_scaled_and_negated():
    f = QuadraticForm.create(2, [(0, 1, 1.0)], [1.0, 0.0], 2.0)
    g = f.scaled(-3.0)
    x = np.array([1.0, 1.0])
    assert evaluate(g, x) == pytest.approx(-3.0 * evaluate(f, x))
    assert evaluate(f.negated(), x) == pytest.approx(-evaluate(f, x))


# -- the stacked rows of one variable ----------------------------------------

number = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-1e3, 1e3))
curvature = st.floats(1e-3, 1e3).flatmap(lambda a: st.sampled_from([a, -a]))


@st.composite
def one_variable_rows_and_points(draw):
    """Rows a x_i^2 + b x_i + r (= or <=) 0, mixed with dense rows, and a point."""
    n = draw(st.integers(1, 5))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        sense = draw(st.sampled_from([Sense.EQ, Sense.LE]))
        if draw(st.booleans()):
            i = draw(st.integers(0, n - 1))
            q = np.zeros(n)
            q[i] = draw(number)
            form = QuadraticForm.create(n, [(i, i, draw(curvature))], q, draw(number))
        else:
            P = np.array(draw(st.lists(number, min_size=n * n, max_size=n * n))).reshape(n, n)
            form = QuadraticForm.from_dense(P, draw(st.lists(number, min_size=n, max_size=n)), draw(number))
        rows.append(Constraint(form, sense))
    x = np.array(draw(st.lists(number, min_size=n, max_size=n)))
    return QcqpProblem.create(QuadraticForm.create(n), rows), x


def same(a, b) -> bool:
    """a and b are the same float bit for bit, or both NaN (whose sign bit is not kept)."""
    return (math.isnan(a) and math.isnan(b)) or np.float64(a).tobytes() == np.float64(b).tobytes()


@given(one_variable_rows_and_points())
def test_one_variable_block_matches_each_row_bit_for_bit(case):
    problem, x = case
    block = problem._row_classes
    values = block.values(x)
    for j, k in enumerate(block.one.tolist()):
        c = problem.constraints[k]
        assert c.form.support.size == 1
        assert same(values[j], _value(c.form, x))
        row = max(0.0, _max_violation(values[j : j + 1], block.eq[j : j + 1]))
        assert same(row, max(0.0, c._violation_of(_value(c.form, x))))
    held = set(block.one.tolist())
    assert sorted(block.dense.tolist()) == [k for k in range(problem.m) if k not in held]
    # assess folds the block in with the other rows as the per-row loop does
    v = 0.0
    for c in problem.constraints:
        v = max(v, c._violation_of(_value(c.form, x)))
    assert same(assess(problem, x).violation, v)


@pytest.mark.parametrize("a, b", [(-1.0, -1.0), (1.0, -1.0), (-1.0, 1.0), (1.0, 0.0)])
@pytest.mark.parametrize("xi", [0.0, -0.0])
def test_one_variable_block_gives_plus_zero_where_the_dense_products_do(a, b, xi):
    # x_i = 0 with r = -0.0: the dense products sum exact zeros to +0.0
    form = QuadraticForm.create(3, [(1, 1, a)], [0.0, b, 0.0], -0.0)
    problem = QcqpProblem.create(QuadraticForm.create(3), [Constraint(form, Sense.LE)])
    x = np.array([2.0, xi, 1.0])
    assert same(problem._row_classes.values(x)[0], _value(form, x))


@given(one_variable_rows_and_points(), st.sampled_from([math.inf, -math.inf, math.nan]), st.integers(0, 4))
def test_assess_gives_violation_inf_at_a_nonfinite_point(case, bad, at):
    problem, x = case
    x[at % problem.n] = bad
    assert assess(problem, x).violation == math.inf
    block = problem._row_classes
    values = block.values(x)
    assert all(_max_violation(values[j : j + 1], block.eq[j : j + 1]) == math.inf for j in range(values.size))
    for j, k in enumerate(block.one.tolist()):
        # n = 1 leaves no zero term to turn an infinite value into NaN.  The
        # reference is the dense products, which warn at such a point: only
        # assess and values() have a path for it
        with np.errstate(invalid="ignore"):
            want = _value(problem.constraints[k].form, x)
        assert same(values[j], want)


# -- the dense stack ----------------------------------------------------------------

wide = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e200, -1e200, 1e-200]), st.floats(-1e3, 1e3))


def _rows_problem(n, rows, x):
    """(problem with a zero objective and rows (P, q, r, sense), x)."""
    constraints = [Constraint(QuadraticForm.from_dense(np.reshape(P, (n, n)), q, r), sense) for P, q, r, sense in rows]
    return QcqpProblem.create(QuadraticForm.create(n), constraints), np.array(x, dtype=float)


def _seeded_rows_and_point(seed):
    """Rows and a point over n = 5-40 variables from numpy's generator: sums long enough to be blocked.

    BLAS sums a long dot product in several partial sums, so a kernel
    that sums in another order rounds differently here.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 41))
    rows = []
    for _ in range(int(rng.integers(1, 7))):
        kind = rng.choice(["zero", "one", "dense"])
        P = np.zeros((n, n))
        if kind == "one":
            P[rng.integers(n), rng.integers(n)] = rng.standard_normal()
        elif kind == "dense":
            P = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-3, 3)
        q = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
        rows.append((P + P.T, q, float(rng.standard_normal()), rng.choice([Sense.EQ, Sense.LE])))
    x = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
    if rng.random() < 0.2:
        x[rng.integers(n)] = rng.choice([math.inf, -math.inf, math.nan])
    return _rows_problem(n, rows, x)


@st.composite
def dense_rows_and_points(draw):
    """Rows over n = 0-4 variables (m = 0-5) with P zero, of one variable or dense, EQ or LE, and a point.

    Entries reach 1e200, whose products overflow, and the point may hold an
    inf or a NaN.  One case in four is _seeded_rows_and_point's instead.
    """
    if draw(st.integers(0, 3)) == 0:
        return _seeded_rows_and_point(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(0, 4))
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["zero", "one", "dense"])) if n else "zero"
        P = np.zeros((n, n))
        if kind == "one":
            i = draw(st.integers(0, n - 1))
            P[i, i] = draw(wide)
        elif kind == "dense":
            U = np.triu(np.array(draw(st.lists(wide, min_size=n * n, max_size=n * n))).reshape(n, n))
            P = U + np.triu(U, 1).T
        q = draw(st.lists(wide, min_size=n, max_size=n))
        rows.append((P, q, draw(wide), draw(st.sampled_from([Sense.EQ, Sense.LE]))))
    x = draw(st.lists(wide, min_size=n, max_size=n))
    if n and draw(st.booleans()):
        x[draw(st.integers(0, n - 1))] = draw(st.sampled_from([math.inf, -math.inf, math.nan]))
    return _rows_problem(n, rows, x)


@given(dense_rows_and_points())
@example(_rows_problem(0, [], []))
@example(_rows_problem(0, [(np.zeros((0, 0)), [], -0.0, Sense.EQ), (np.zeros((0, 0)), [], 2.0, Sense.LE)], []))
@example(_rows_problem(1, [([[2.0]], [1.0], -1.0, Sense.EQ), ([[0.0]], [-0.0], -0.0, Sense.LE)], [-0.0]))
@example(_rows_problem(2, [([[1e200, 1e200], [1e200, 0.0]], [0.0, 1.0], -1e200, Sense.LE)], [1e200, -1e200]))
@example(_rows_problem(2, [([[0.0, 1.0], [1.0, 0.0]], [0.0, -0.0], -0.0, Sense.EQ)], [-0.0, 0.0]))
def test_dense_stack_matches_each_row_bit_for_bit(case):
    problem, x = case
    rc = problem._row_classes
    assert sorted(rc.dense.tolist()) == sorted(rc.gen.tolist() + rc.aff.tolist())
    assert rc.dense.tolist() == rc.gen.tolist() + rc.aff.tolist()  # general rows first
    # 1e200 overflows and 0 * inf is NaN, in the per-row reference as in the stack
    with np.errstate(all="ignore"):
        values = rc.dense_values(x, rc.P @ x)
        fold = 0.0
        for j, k in enumerate(rc.dense.tolist()):
            c = problem.constraints[k]
            assert values[j].hex() == _value(c.form, x).hex()  # NaN's sign is not compared
            row = max(0.0, _max_violation(values[j : j + 1], rc.dense_eq[j : j + 1]))
            assert row.hex() == max(0.0, c.violation(x)).hex()
            fold = max(fold, c.violation(x))
        for c in problem.constraints:
            fold = max(fold, c.violation(x))
        if np.isfinite(x).all():
            assert rc.max_violation(x).hex() == fold.hex()
            assert rc.max_violation(x, rc.gen.size).hex() == max(
                [0.0] + [problem.constraints[k].violation(x) for k in rc.gen.tolist() + rc.one.tolist()]
            ).hex()
            a = assess(problem, x)
            assert a.objective.hex() == _value(problem.objective, x).hex()
            assert a.violation.hex() == (fold if math.isfinite(a.objective) else math.inf).hex()


@given(st.lists(st.one_of(wide, st.sampled_from([math.inf, -math.inf, math.nan])), max_size=6), st.data())
def test_max_violation_folds_the_values_as_assess_folds_the_rows(values, data):
    f = np.array(values, dtype=float)
    eq = np.array(data.draw(st.lists(st.booleans(), min_size=f.size, max_size=f.size)), dtype=bool)
    every_le, every_eq = np.zeros(f.size, dtype=bool), np.ones(f.size, dtype=bool)
    for senses, arg in ((eq, eq), (eq, _senses(eq)), (every_le, None), (every_eq, True)):
        fold = 0.0
        for v, is_eq in zip(f.tolist(), senses.tolist()):
            fold = max(fold, Constraint(QuadraticForm.create(0), Sense.EQ if is_eq else Sense.LE)._violation_of(v))
        assert max(0.0, _max_violation(f, arg)).hex() == fold.hex()


nonfinite = st.sampled_from([math.inf, -math.inf, math.nan])


@st.composite
def one_variable_stacks_and_points(draw):
    """Rows a x_i^2 + b x_i + r alone, all EQ, all LE or mixed, with a row on every x_i, and points.

    Coefficients and coordinates reach 1e200, whose squares overflow, and a
    coordinate may be inf or NaN.  Every x_i has a row, as x_i^2 = 1 gives
    boolean LS, so a non-finite x_i makes the stack's violation inf as it
    makes the fold's, whose dense products are NaN in every row.
    """
    n = draw(st.integers(1, 4))
    senses = draw(st.sampled_from(["eq", "le", "mixed"]))
    coords = list(range(n)) + draw(st.lists(st.integers(0, n - 1), max_size=4))
    rows = []
    for i in coords:
        a = draw(wide.filter(lambda v: v != 0.0))
        q = np.zeros(n)
        q[i] = draw(wide)
        eq = senses == "eq" or (senses == "mixed" and draw(st.booleans()))
        rows.append(Constraint(QuadraticForm.create(n, [(i, i, a)], q, draw(wide)), Sense.EQ if eq else Sense.LE))
    points = draw(st.lists(st.lists(st.one_of(wide, nonfinite), min_size=n, max_size=n), min_size=1, max_size=3))
    return QcqpProblem.create(QuadraticForm.create(n), rows), np.array(points, dtype=float)


def _boolean_row_problem():
    """x^2 - 1 = 0 over n = 1, with a zero objective."""
    row = Constraint(QuadraticForm.create(1, [(0, 0, 1.0)], r=-1.0), Sense.EQ)
    return QcqpProblem.create(QuadraticForm.create(1), [row])


@given(one_variable_stacks_and_points())
@example((_boolean_row_problem(), np.array([[math.nan], [1e200], [-math.inf]])))
def test_one_variable_stack_max_violation_is_the_fold_bit_for_bit(case):
    problem, Z = case
    rc = problem._row_classes
    assert rc.one.tolist() == list(range(problem.m)) and rc.dense.size == 0
    with np.errstate(all="ignore"):  # 1e200 overflows and inf - inf is NaN, in both
        folds = [max([0.0] + [c.violation(z) for c in problem.constraints]) for z in Z]
        got = [rc.max_violation(z) for z in Z]
        stacked = rc.max_violations(Z).tolist()
        assessed = [assess(problem, z).violation for z in Z]
    assert [v.hex() for v in got] == [v.hex() for v in folds]
    assert [v.hex() for v in stacked] == [v.hex() for v in folds]
    assert [v.hex() for v in assessed] == [v.hex() for v in folds]


@pytest.mark.parametrize(
    "P, q, want",
    [
        ({}, [0.0, 0.0, 0.0], ("aff", -1)),
        ({}, [0.0, 2.0, 0.0], ("aff", -1)),
        ({(1, 1): 3.0}, [0.0, 0.0, 0.0], ("one", 1)),
        ({(1, 1): 3.0}, [0.0, -0.5, 0.0], ("one", 1)),
        ({(1, 1): 3.0}, [1.0, 0.0, 0.0], ("gen", -1)),  # q reads a second variable
        ({(1, 1): 3.0}, [0.0, 0.0, -1.0], ("gen", -1)),
        ({(0, 0): 1.0, (2, 2): 1.0}, [0.0, 0.0, 0.0], ("gen", -1)),
        ({(0, 2): 1.0}, [0.0, 0.0, 0.0], ("gen", -1)),
    ],
)
def test_row_class_of_each_kind_of_row(P, q, want):
    form = QuadraticForm.create(3, [(i, j, v) for (i, j), v in P.items()], q)
    assert _row_class(form) == want


def test_assess_evaluates_only_the_objective_row_by_row():
    # beamforming's rows are all general: they are read from the dense stack
    p = gen_beamforming(4, 6, 2, seed=3)
    x = np.random.default_rng(4).standard_normal(p.n)
    assert p._row_classes.gen.size == p.m
    want = assess(p, x)
    for module, run in ((qcqp.core, lambda: assess(p, x)), (qcqp.improve, lambda: p._admm_rows.assess(p.objective, x))):
        with mock.patch.object(module, "_value", autospec=True, side_effect=qcqp.core._value) as values:
            assert run() == want
        assert values.call_count == 1 and values.call_args.args[0] is p.objective


# -- the row classes ------------------------------------------------------------


def edge_rows(n: int) -> list[Constraint]:
    """Rows in x_0, x_1 (of n variables) on the edges of the classes one, aff and gen."""

    def row(P, q, sense=Sense.LE):
        Pn = np.zeros((n, n))
        Pn[:2, :2] = P
        return Constraint(QuadraticForm.from_dense(Pn, q + [0.0] * (n - 2), -1.0), sense)

    return [
        row([[2.0, 0.0], [0.0, 0.0]], [0.0, -1.0]),  # one convex coordinate and a flat term: gen
        row([[2.0, 0.0], [0.0, 0.0]], [0.0, -1.0], Sense.EQ),  # equality
        row([[-2.0, 0.0], [0.0, 0.0]], [0.0, -1.0]),  # concave
        row([[2.0, 0.0], [0.0, 0.0]], [1.0, 0.0]),  # one variable
        row([[2.0, 0.0], [0.0, 1.0]], [0.0, -1.0]),  # two curved coordinates
        row([[0.0, 1.0], [1.0, 0.0]], [0.0, -1.0]),  # off-diagonal curvature
        row([[0.0, 0.0], [0.0, 0.0]], [1.0, 0.0]),  # affine
    ]


@st.composite
def rows_of_every_class(draw):
    """The edge rows and rows whose P and q entries are mostly zero, on 2-4 variables."""
    n = draw(st.integers(2, 4))
    entry = st.sampled_from([0.0, 0.0, 0.0, 1.5, -2.0])
    rows = edge_rows(n)
    for _ in range(draw(st.integers(0, 8))):
        U = np.triu(np.array(draw(st.lists(entry, min_size=n * n, max_size=n * n))).reshape(n, n))
        form = QuadraticForm.from_dense(U + np.triu(U, 1).T, draw(st.lists(entry, min_size=n, max_size=n)), -1.0)
        rows.append(Constraint(form, draw(st.sampled_from([Sense.EQ, Sense.LE]))))
    return QcqpProblem.create(QuadraticForm.create(n), rows)


@given(rows_of_every_class())
def test_each_row_lands_in_the_one_class_its_definition_gives(problem):
    rc = problem._row_classes
    classes = {"one": rc.one, "aff": rc.aff, "gen": rc.gen}
    assert sorted(np.concatenate(list(classes.values())).tolist()) == list(range(problem.m))
    for name, rows in classes.items():
        assert rows.tolist() == sorted(rows.tolist())
        for k in rows.tolist():
            c = problem.constraints[k]
            P, q = c.form.dense_p, c.form.q_vec
            entries = np.argwhere(P != 0.0)  # the nonzero (i, j) of all of P
            support = set(entries.ravel().tolist()) | set(np.flatnonzero(q).tolist())
            if not entries.size:
                want = "aff"
            elif len(support) == 1:
                want = "one"
            else:
                want = "gen"
            assert name == want, (k, name, want)
    assert [row for row in rc.one.tolist() if row < 7] == [3]
    assert [row for row in rc.gen.tolist() if row < 7] == [0, 1, 2, 4, 5]
    for j, k in enumerate(rc.one.tolist()):
        c, i = problem.constraints[k], rc.i[j]
        assert (rc.a[j], rc.b[j], rc.r[j]) == (c.form.dense_p[i, i], c.form.q_vec[i], c.form.r)
        assert rc.eq[j] == (c.sense is Sense.EQ)


@st.composite
def row_tables(draw):
    """Problems over n = 0-6 variables with m = 0-6 rows: zero, affine, one-variable and dense, EQ and LE.

    Entries include -0.0, which a form keeps in q and r, and a row drawn as
    one-variable gets a zero P where its triplets' values are zeros.
    """
    n = draw(st.integers(0, 6))
    entry = st.sampled_from([0.0, -0.0, 1.0, -2.5, 3e-300])

    def form(kind):
        q = np.array(draw(st.lists(entry, min_size=n, max_size=n)), dtype=float)
        triplets = []
        if kind == "zero":
            q = np.where(q == 0.0, q, 0.0)  # only the zeros, of either sign
        elif kind == "one":
            i = draw(st.integers(0, n - 1))
            q = np.where(np.arange(n) == i, q, np.copysign(0.0, q))
            triplets = [(i, i, draw(entry)) for _ in range(draw(st.integers(1, 2)))]
        elif kind == "dense":
            triplets = [(draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)), draw(entry)) for _ in range(4)]
        return QuadraticForm.create(n, triplets, q, draw(entry))

    kinds = st.sampled_from(["zero", "affine", "one", "dense"] if n else ["zero", "affine"])
    senses = st.sampled_from([Sense.EQ, Sense.LE])
    rows = [Constraint(form(draw(kinds)), draw(senses)) for _ in range(draw(st.integers(0, 6)))]
    return QcqpProblem.create(form(draw(kinds)), rows)


def same_bytes(a, b) -> bool:
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


@given(row_tables())
@example(QcqpProblem.create(QuadraticForm.create(0), [Constraint(QuadraticForm.create(0, (), None, -0.0), Sense.EQ)]))
def test_row_table_matches_each_form_alone_bit_for_bit(problem):
    rc = problem._row_classes
    n, constraints = problem.n, problem.constraints
    forms = [problem.objective] + [c.form for c in constraints]
    assert rc.all_P.shape == (problem.m + 1, n, n) and rc.all_q.shape == (problem.m + 1, n)
    for k, f in enumerate(forms):
        assert same_bytes(rc.all_P[k], f.dense_p) and same_bytes(rc.all_q[k], f.q_vec)
        assert same_bytes(rc.all_r[k], f.r)
        assert rc.all_eq[k] == (k > 0 and constraints[k - 1].sense is Sense.EQ)
        assert np.flatnonzero(rc.support[k]).tolist() == f.support.tolist()
    kinds = [_row_class(c.form) for c in constraints]
    for c, kind in zip(constraints, kinds):  # the rule of one row, from its own fields
        want = "aff" if not c.form.dense_p.any() else "one" if c.form.support.size == 1 else "gen"
        assert kind == (want, int(c.form.support[0]) if want == "one" else -1)
    for name in ("one", "aff", "gen"):
        assert getattr(rc, name).tolist() == [k for k, (kind, _) in enumerate(kinds) if kind == name]
    assert rc.i.tolist() == [kinds[k][1] for k in rc.one.tolist()]
    for j, (k, i) in enumerate(zip(rc.one.tolist(), rc.i.tolist())):
        f = constraints[k].form
        assert same_bytes(rc.a[j], f.dense_p[i, i]) and same_bytes(rc.b[j], f.q_vec[i])
        assert same_bytes(rc.r[j], f.r + 0.0)
        assert rc.eq[j] == (constraints[k].sense is Sense.EQ)
    assert rc.dense.tolist() == rc.gen.tolist() + rc.aff.tolist()
    assert rc.P.shape == (rc.dense.size, n, n) and rc.q.shape == (rc.dense.size, n)
    for j, k in enumerate(rc.dense.tolist()):
        f = constraints[k].form
        assert same_bytes(rc.P[j], f.dense_p) and same_bytes(rc.q[j], f.q_vec) and same_bytes(rc.c[j], f.r)
        assert rc.dense_eq[j] == (constraints[k].sense is Sense.EQ)
    # cd's rows of each coordinate are the rows whose support holds it
    rows = problem._coordinate_rows.rows
    assert rows == [[k + 1 for k, c in enumerate(constraints) if j in c.form.support.tolist()] for j in range(n)]
