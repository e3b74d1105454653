import numpy as np
import pytest

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
)
from qcqp.errors import DegenerateHomogeneousError, DimensionMismatchError


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
    with pytest.raises(DimensionMismatchError):
        QuadraticForm.create(2, [(0, 2, 1.0)])
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
