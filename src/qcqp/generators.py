"""Reference instance generators and brute-force oracles.

All random data comes from numpy's default PCG64 generator seeded
explicitly, so an identical call signature reproduces the instance
bit-for-bit.  Maximization families are negated into minimization form at
generation time.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .core import Assessment, Constraint, QcqpProblem, QuadraticForm, Sense, assess
from .errors import TooLargeError

BRUTE_MAX_N = 24
# brute_force's grid mode spans [GRID_LO, GRID_HI] on every axis, and its
# boolean mode counts a point feasible up to violation BRUTE_FEAS_TOL
GRID_LO, GRID_HI = -1.0, 1.0
BRUTE_FEAS_TOL = 1e-9


def _rng(seed):
    return np.random.default_rng(seed)


def _rows(n: int, parts, sense: Sense) -> list[Constraint]:
    """A row of this sense for each (triplets, q, r) of parts, all built in one pass (QuadraticForm._create_all)."""
    return [Constraint(form, sense) for form in QuadraticForm._create_all(n, parts)]


def _sign_rows(n: int) -> list[Constraint]:
    """The rows x_i^2 = 1, which keep each x_i in {-1, 1}."""
    return _rows(n, [([(i, i, 1.0)], None, -1.0) for i in range(n)], Sense.EQ)


def _binary_rows(n: int) -> list[Constraint]:
    """The rows x_i (x_i - 1) = 0, which keep each x_i in {0, 1}."""
    minus_e = -np.eye(n)  # row i is q = -e_i
    return _rows(n, [([(i, i, 1.0)], minus_e[i], 0.0) for i in range(n)], Sense.EQ)


def gen_boolean_ls(m: int, n: int, seed=None) -> QcqpProblem:
    """min ||Ax - b||^2 s.t. x_i^2 = 1, with A, b entries i.i.d. N(0, 1)."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    rng = _rng(seed)
    A = rng.standard_normal((m, n))
    b = rng.standard_normal(m)
    obj = QuadraticForm.from_dense(A.T @ A, -2.0 * (A.T @ b), float(b @ b))
    return QcqpProblem.create(obj, _sign_rows(n))


def laplacian(W) -> np.ndarray:
    W = np.asarray(W, dtype=float)
    return np.diag(W.sum(axis=1)) - W


def gen_partitioning(W) -> QcqpProblem:
    """Two-way partitioning: maximize x'Wx over x in {-1,1}^n, as a minimization."""
    W = np.asarray(W, dtype=float)
    n = W.shape[0]
    obj = QuadraticForm.from_dense(-W)
    return QcqpProblem.create(obj, _sign_rows(n))


def gen_maxcut(W) -> QcqpProblem:
    """Max-cut: maximize (1/4)(1'W1 - x'Wx), encoded as minimization."""
    W = np.asarray(W, dtype=float)
    n = W.shape[0]
    total = float(np.sum(W))
    obj = QuadraticForm.from_dense(0.25 * W, None, -0.25 * total)
    return QcqpProblem.create(obj, _sign_rows(n))


def gen_maxbisection(W) -> QcqpProblem:
    """Max-cut plus the balance constraint 1'x = 0 (n must be even to be feasible)."""
    base = gen_maxcut(W)
    n = base.n
    balance = Constraint(QuadraticForm.create(n, (), np.ones(n), 0.0), Sense.EQ)
    return QcqpProblem.create(base.objective, list(base.constraints) + [balance])


def gen_maxclique(adjacency) -> QcqpProblem:
    """Max clique with 0/1 variables: maximize 1'x s.t. x_i x_j = 0 for non-edges."""
    A = np.asarray(adjacency)
    n = A.shape[0]
    if not np.array_equal(A, A.T) or not np.all(np.diag(A) == 1):
        raise ValueError("adjacency must be symmetric with unit diagonal")
    obj = QuadraticForm.create(n, (), -np.ones(n), 0.0)
    non_edges = [([(i, j, 0.5)], None, 0.0) for i in range(n) for j in range(i + 1, n) if not A[i, j]]
    return QcqpProblem.create(obj, _binary_rows(n) + _rows(n, non_edges, Sense.EQ))


def gen_3sat(clauses, n_vars: int | None = None) -> QcqpProblem:
    """3-SAT feasibility with 0/1 variables.

    Clauses are triples of nonzero ints: +k for variable k, -k for its
    negation (1-based).  Each clause contributes the linear row
    sum of literals >= 1, with negated variables entering as (1 - x).
    """
    clauses = [tuple(cl) for cl in clauses]
    max_var = 0
    for cl in clauses:
        if len(cl) != 3:
            raise ValueError(f"clause {cl} does not have three literals")
        vs = [abs(l) for l in cl]
        if 0 in vs or len(set(vs)) != 3:
            raise ValueError(f"clause {cl} has repeated or zero literals")
        max_var = max(max_var, *vs)
    n = n_vars if n_vars is not None else max_var
    if max_var > n:
        raise ValueError("clause references a variable beyond n_vars")
    obj = QuadraticForm.create(n, (), None, 0.0)  # pure feasibility
    rows = []
    for cl in clauses:
        a = np.zeros(n)
        b = 0.0
        for lit in cl:
            if lit > 0:
                a[lit - 1] += 1.0
            else:
                a[-lit - 1] -= 1.0
                b += 1.0
        # a'x + b >= 1  ->  -a'x + (1 - b) <= 0
        rows.append(((), -a, 1.0 - b))
    return QcqpProblem.create(obj, _binary_rows(n) + _rows(n, rows, Sense.LE))


def gen_beamforming(n: int, m: int, l: int, tau: float = 20.0, eta: float = 2.0, seed=None) -> QcqpProblem:
    """Beamforming-style QCQP over 2n reals.

    minimize ||x||^2 subject to m lower bounds (a_i'x)^2 + (b_i'x)^2 >= tau
    and l upper bounds (c_j'x)^2 + (d_j'x)^2 <= eta, with all vectors
    i.i.d. N(0, 1).
    """
    if n < 1 or m < 1 or l < 1:
        raise ValueError("dims must be >= 1")
    rng = _rng(seed)
    d2 = 2 * n
    obj = QuadraticForm.from_dense(np.eye(d2))
    cons = []
    for _ in range(m):
        a = rng.standard_normal(d2)
        b = rng.standard_normal(d2)
        P = -(np.outer(a, a) + np.outer(b, b))
        cons.append(Constraint(QuadraticForm.from_dense(P, None, tau), Sense.LE))
    for _ in range(l):
        c = rng.standard_normal(d2)
        d = rng.standard_normal(d2)
        P = np.outer(c, c) + np.outer(d, d)
        cons.append(Constraint(QuadraticForm.from_dense(P, None, -eta), Sense.LE))
    return QcqpProblem.create(obj, cons)


# -- brute force oracles ----------------------------------------------------


def _boolean_domains(problem: QcqpProblem):
    """Per-variable finite domains for Boolean-structured problems, and the rows that set them.

    Reads the problem's rows of one variable, a x_i^2 + b x_i + r: the EQ
    rows x_i^2 = 1 ({-1, 1}) and x_i(x_i - 1) = 0 ({0, 1}) are the markers,
    and the last one of a variable sets its domain.  Returns (domains, set
    of the indices of those rows), or None when some variable carries
    neither marker.
    """
    block = problem._row_classes
    domains: dict[int, tuple[float, ...]] = {}
    rows: dict[int, int] = {}
    columns = (block.one, block.i, block.a, block.b, block.r, block.eq)
    for k, i, a, b, r, eq in zip(*(c.tolist() for c in columns)):
        if eq and a == 1.0 and b == 0.0 and r == -1.0:
            domains[i], rows[i] = (-1.0, 1.0), k
        elif eq and a == 1.0 and b == -1.0 and r == 0.0:
            domains[i], rows[i] = (0.0, 1.0), k
    if len(domains) != problem.n:
        return None
    return [domains[i] for i in range(problem.n)], set(rows.values())


def brute_force(problem: QcqpProblem, mode: str = "boolean", steps: int = 11):
    """Exhaustive oracle for desk-scale instances.

    "boolean" enumerates the finite domains implied by x_i^2 = 1 or
    x_i(x_i - 1) = 0 rows, filters by feasibility of the remaining
    constraints, and returns the exact optimum.  "grid" evaluates a regular
    grid of `steps` points per axis on [GRID_LO, GRID_HI]^n and returns the
    best point by the lexicographic assessment (approximate by construction).
    """
    n = problem.n
    if mode == "boolean":
        if n > BRUTE_MAX_N:
            raise TooLargeError(f"n = {n} exceeds the {BRUTE_MAX_N}-variable enumeration cap")
        found = _boolean_domains(problem)
        if found is None:
            raise ValueError("problem is not Boolean-structured")
        domains, defining = found
        # a row that sets a domain evaluates to exactly 0 at every point of it
        # (x_i^2 - 1 at x_i = +-1, x_i^2 - x_i at x_i in {0, 1}), so assessing
        # the other rows gives the same assessment at a fraction of the cost
        others = [c for k, c in enumerate(problem.constraints) if k not in defining]
        rest = QcqpProblem.create(problem.objective, others)
        best_x, best_f = None, math.inf
        for combo in itertools.product(*domains):
            x = np.array(combo)
            a = assess(rest, x)
            if a.violation <= BRUTE_FEAS_TOL and a.objective < best_f:
                best_x, best_f = x, a.objective
        if best_x is None:
            return None, math.inf
        return best_x, best_f
    if mode == "grid":
        if steps**n > 2**BRUTE_MAX_N:
            raise TooLargeError("grid enumeration too large")
        best_x, best_a = None, Assessment(math.inf, math.inf)
        for combo in itertools.product(np.linspace(GRID_LO, GRID_HI, steps), repeat=n):
            x = np.array(combo)
            a = assess(problem, x)
            if a.better_than(best_a):
                best_x, best_a = x, a
        return best_x, best_a.objective
    raise ValueError(f"unknown mode {mode!r}")
