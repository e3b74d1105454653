import numpy as np
import pytest

from qcqp.core import QuadraticForm, Sense, assess, evaluate
from qcqp.errors import TooLargeError
from qcqp.generators import (
    brute_force,
    gen_beamforming,
    gen_boolean_ls,
    gen_maxbisection,
    gen_maxclique,
    gen_maxcut,
    gen_partitioning,
    gen_3sat,
    laplacian,
)


def test_boolean_ls_encoding():
    p = gen_boolean_ls(6, 4, seed=0)
    assert p.n == 4 and p.m == 4
    # the objective at any sign vector equals ||Ax - b||^2 >= 0
    rng = np.random.default_rng(1)
    x = np.where(rng.standard_normal(4) > 0, 1.0, -1.0)
    assert evaluate(p.objective, x) >= 0.0
    assert assess(p, x).violation == 0.0
    # same seed, same instance
    q = gen_boolean_ls(6, 4, seed=0)
    assert p.objective.triplets == q.objective.triplets


def test_boolean_ls_validates_dims():
    with pytest.raises(ValueError):
        gen_boolean_ls(0, 4)


def test_laplacian():
    W = np.array([[0.0, 2.0], [2.0, 0.0]])
    L = laplacian(W)
    assert np.allclose(L, [[2.0, -2.0], [-2.0, 2.0]])


def test_partitioning_objective_sign():
    W = np.array([[0.0, 1.0], [1.0, 0.0]])
    p = gen_partitioning(W)
    # maximization of x'Wx encoded as minimization of -x'Wx
    assert evaluate(p.objective, [1.0, 1.0]) == pytest.approx(-2.0)
    assert all(c.sense is Sense.EQ for c in p.constraints)


def test_maxcut_value_identity():
    # triangle graph: any 2-1 split cuts two edges
    W = np.ones((3, 3)) - np.eye(3)
    p = gen_maxcut(W)
    x = np.array([1.0, 1.0, -1.0])
    # objective is -(cut value)
    assert evaluate(p.objective, x) == pytest.approx(-2.0)


def test_maxbisection_adds_balance_row():
    W = np.ones((4, 4)) - np.eye(4)
    p = gen_maxbisection(W)
    assert p.m == 5
    bal = p.constraints[-1]
    assert bal.sense is Sense.EQ and bal.form.is_affine
    assert assess(p, [1.0, 1.0, -1.0, -1.0]).violation == 0.0
    assert assess(p, [1.0, 1.0, 1.0, -1.0]).violation > 0.0


def test_maxclique_encoding_and_brute():
    # path graph 0-1-2: the best clique has two vertices
    A = np.array([[1, 1, 0], [1, 1, 1], [0, 1, 1]])
    p = gen_maxclique(A)
    x, f = brute_force(p)
    assert f == pytest.approx(-2.0)
    assert x[1] == 1.0  # the middle vertex is in every maximum clique
    with pytest.raises(ValueError):
        gen_maxclique(np.zeros((2, 2), dtype=int))


def test_3sat_satisfiable_instance():
    clauses = [(1, 2, 3), (-1, 2, 3), (1, -2, 3), (1, 2, -3)]
    p = gen_3sat(clauses)
    x, f = brute_force(p)
    assert x is not None  # a satisfying assignment exists
    assert assess(p, x).violation <= 1e-9
    # all-true satisfies every clause here
    assert assess(p, np.ones(3)).violation == 0.0


def test_3sat_validates_clauses():
    with pytest.raises(ValueError):
        gen_3sat([(1, 1, 2)])
    with pytest.raises(ValueError):
        gen_3sat([(1, 2)])
    with pytest.raises(ValueError):
        gen_3sat([(1, 2, 5)], n_vars=3)


def _clause_row(n, clause):
    """A 3-SAT clause's row built alone: sum of literals >= 1 as -a'x + (1 - b) <= 0."""
    a, b = np.zeros(n), 0.0
    for lit in clause:
        if lit > 0:
            a[lit - 1] += 1.0
        else:
            a[-lit - 1] -= 1.0
            b += 1.0
    return QuadraticForm.create(n, (), -a, 1.0 - b)


def test_generated_rows_equal_create_of_each_entry_bit_for_bit():
    # the generators build their rows in one pass; each row must be the form
    # QuadraticForm.create builds of the same entry alone, -0.0 included
    n = 7
    rng = np.random.default_rng(0)
    W = np.triu(rng.uniform(size=(n, n)), 1)
    W = W + W.T
    A = np.triu((rng.uniform(size=(n, n)) < 0.5).astype(int), 1)
    A = A + A.T + np.eye(n, dtype=int)
    clauses = [(1, -2, 3), (-4, -5, -6), (7, 2, -1), (3, 4, 5)]
    e = np.eye(n)
    sign = [(QuadraticForm.create(n, [(i, i, 1.0)], None, -1.0), Sense.EQ) for i in range(n)]
    binary = [(QuadraticForm.create(n, [(i, i, 1.0)], -e[i], 0.0), Sense.EQ) for i in range(n)]
    non_edges = [
        (QuadraticForm.create(n, [(i, j, 0.5)], None, 0.0), Sense.EQ)
        for i in range(n)
        for j in range(i + 1, n)
        if not A[i, j]
    ]
    assert non_edges
    cases = {
        "boolean-ls": (gen_boolean_ls(9, n, seed=0), sign),
        "partitioning": (gen_partitioning(W), sign),
        "maxcut": (gen_maxcut(W), sign),
        "maxbisection": (gen_maxbisection(W), sign + [(QuadraticForm.create(n, (), np.ones(n), 0.0), Sense.EQ)]),
        "maxclique": (gen_maxclique(A), binary + non_edges),
        "3sat": (gen_3sat(clauses), binary + [(_clause_row(n, cl), Sense.LE) for cl in clauses]),
    }
    for name, (p, want) in cases.items():
        assert p.m == len(want), name
        for k, (c, (form, sense)) in enumerate(zip(p.constraints, want)):
            assert c.sense is sense, (name, k)
            assert c.form.dense_p.tobytes() == form.dense_p.tobytes(), (name, k)
            assert c.form.q_vec.tobytes() == form.q_vec.tobytes(), (name, k)
            assert np.float64(c.form.r).tobytes() == np.float64(form.r).tobytes(), (name, k)
            assert not (c.form.dense_p.flags.writeable or c.form.q_vec.flags.writeable)


def test_beamforming_structure():
    p = gen_beamforming(3, 4, 2, tau=20.0, eta=2.0, seed=0)
    assert p.n == 6 and p.m == 6
    # objective is the squared norm
    assert evaluate(p.objective, np.ones(6)) == pytest.approx(6.0)
    # lower-bound rows are concave with r = tau, upper rows convex with r = -eta
    for c in p.constraints[:4]:
        assert c.form.r == pytest.approx(20.0)
        assert np.linalg.eigvalsh(c.form.dense_p)[-1] <= 1e-12
    for c in p.constraints[4:]:
        assert c.form.r == pytest.approx(-2.0)
        assert np.linalg.eigvalsh(c.form.dense_p)[0] >= -1e-12


def test_brute_force_boolean_oracle():
    p = gen_boolean_ls(8, 6, seed=2)
    x, f = brute_force(p)
    assert set(np.unique(x)) <= {-1.0, 1.0}
    # exhaustive cross-check by direct enumeration
    best = min(
        evaluate(p.objective, np.array(bits))
        for bits in __import__("itertools").product([-1.0, 1.0], repeat=6)
    )
    assert f == pytest.approx(best)


def brute_force_reference(p, domain):
    """brute_force's boolean mode as a plain loop over domain^n, every row assessed."""
    best_x, best_f = None, np.inf
    for combo in __import__("itertools").product(domain, repeat=p.n):
        a = assess(p, np.array(combo))
        if a.violation <= 1e-9 and a.objective < best_f:
            best_x, best_f = np.array(combo), a.objective
    return best_x, best_f


def test_brute_force_skips_only_the_rows_that_set_a_domain():
    # brute_force assesses every row but those that set a domain, which are
    # exactly 0 on it.  In the last case x_0 carries x_0^2 = 1 and then
    # x_0(x_0 - 1) = 0, which sets {0, 1}; the first row is still assessed,
    # so it forces x_0 = 1, where the clique alone picks {1, 2}.
    from qcqp.core import Constraint, QcqpProblem, QuadraticForm

    clique = gen_maxclique(np.array([[1, 1, 0], [1, 1, 1], [0, 1, 1]]))
    sign_row = Constraint(QuadraticForm.create(3, [(0, 0, 1.0)], None, -1.0), Sense.EQ)
    cases = [
        (gen_boolean_ls(8, 6, seed=2), (-1.0, 1.0)),
        (gen_3sat([(1, 2, 3), (-1, 2, 3), (1, -2, -3)]), (0.0, 1.0)),
        (clique, (0.0, 1.0)),
        (QcqpProblem.create(clique.objective, [sign_row] + list(clique.constraints)), (0.0, 1.0)),
    ]
    for p, domain in cases:
        x, f = brute_force(p)
        want_x, want_f = brute_force_reference(p, domain)
        assert f == want_f and np.array_equal(x, want_x)
    assert x.tolist() == [1.0, 1.0, 0.0] and brute_force(clique)[0].tolist() == [0.0, 1.0, 1.0]


def test_brute_force_grid_mode():
    # min (x - 0.3)^2 on a grid over [-1, 1]
    from qcqp.core import QcqpProblem, QuadraticForm

    p = QcqpProblem.create(QuadraticForm.create(1, [(0, 0, 1.0)], [-0.6], 0.09))
    x, f = brute_force(p, mode="grid", steps=21)
    assert x[0] == pytest.approx(0.3, abs=0.06)


def test_brute_force_size_caps():
    p = gen_boolean_ls(2, 25, seed=0)
    with pytest.raises(TooLargeError):
        brute_force(p)
    with pytest.raises(ValueError):
        brute_force(gen_beamforming(2, 1, 1, seed=0), mode="boolean")
