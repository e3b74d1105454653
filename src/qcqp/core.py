"""Problem representation, evaluation, and equivalent-form transforms.

Quadratic functions f(x) = x'Px + q'x + r are stored as a read-only
symmetric matrix P, a read-only vector q and a float r.  Upper-triangle
(i, j, v) triplets are the problem-file format only: `create` reads them
and `triplets` writes them back.  All types are immutable after
construction; what they add later are caches of values derived from
their fields (`QuadraticForm.support`, a problem's stacked rows of one
variable), which `assess` and the improve methods share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import DegenerateHomogeneousError, DimensionMismatchError

Triplet = tuple[int, int, float]


@dataclass(frozen=True, eq=False)
class QuadraticForm:
    """f(x) = x'Px + q'x + r with P symmetric; dense_p and q_vec are read-only."""

    n: int
    dense_p: np.ndarray
    q_vec: np.ndarray
    r: float

    @classmethod
    def _of_symmetric(cls, P: np.ndarray, q=None, r=0.0) -> "QuadraticForm":
        """Wrap a symmetric P; adding 0.0 turns every -0.0 into 0.0."""
        P = P + 0.0
        n = P.shape[0]
        q = np.zeros(n) if q is None else np.array(q, dtype=float)
        if q.shape != (n,):
            raise DimensionMismatchError(f"q has shape {q.shape}, expected ({n},)")
        r = float(r)
        if not (np.isfinite(P).all() and np.isfinite(q).all() and math.isfinite(r)):
            raise ValueError("quadratic form has non-finite coefficients")
        P.setflags(write=False)
        q.setflags(write=False)
        return cls(n=n, dense_p=P, q_vec=q, r=r)

    @classmethod
    def create(cls, n, triplets: Iterable[Triplet] = (), q=None, r=0.0) -> "QuadraticForm":
        """Build from (i, j, v) triplets: folded to the upper triangle, duplicates summed.

        Each index must be an integer (an integral float counts) in [0, n).
        """
        n = int(n)
        if n < 0:
            raise DimensionMismatchError("dimension must be nonnegative")
        t = np.array(list(triplets), dtype=float)
        if t.size and t.shape[1:] != (3,):
            raise DimensionMismatchError("triplets must be (i, j, v) rows")
        t = t.reshape(-1, 3)
        ij = t[:, :2]
        bad = (ij < 0) | (ij >= n) | (ij != np.trunc(ij))
        if bad.any():
            k = int(np.argmax(bad.any(axis=1)))
            raise DimensionMismatchError(f"triplet index ({ij[k, 0]:g},{ij[k, 1]:g}) is not an integer in [0, {n})")
        i, j = ij.T.astype(int)
        U = np.zeros((n, n))
        np.add.at(U, (np.minimum(i, j), np.maximum(i, j)), t[:, 2])  # in input order
        return cls._of_symmetric(U + np.triu(U, 1).T, q, r)

    @classmethod
    def from_dense(cls, P, q=None, r=0.0) -> "QuadraticForm":
        """Build from a dense matrix; P is symmetrized as (P + P') / 2."""
        P = np.atleast_2d(np.asarray(P, dtype=float))
        n = P.shape[0]
        if P.shape != (n, n):
            raise DimensionMismatchError("P must be square")
        return cls._of_symmetric(0.5 * (P + P.T), q, r)

    @property
    def triplets(self) -> tuple[Triplet, ...]:
        """Nonzero upper-triangle entries (i, j, P_ij) in row-major order."""
        iu, ju = np.triu_indices(self.n)
        v = self.dense_p[iu, ju]
        keep = v != 0.0
        return tuple(zip(iu[keep].tolist(), ju[keep].tolist(), v[keep].tolist()))

    @property
    def is_affine(self) -> bool:
        return not self.dense_p.any()

    @cached_property
    def support(self) -> np.ndarray:
        """Sorted indices j where row j of P or q_j is nonzero; f is constant in every other x_j."""
        s = np.flatnonzero(self.dense_p.any(axis=0) | (self.q_vec != 0.0))
        s.setflags(write=False)
        return s

    def __call__(self, x) -> float:
        return evaluate(self, x)

    def scaled(self, alpha: float) -> "QuadraticForm":
        return QuadraticForm._of_symmetric(alpha * self.dense_p, alpha * self.q_vec, alpha * self.r)

    def negated(self) -> "QuadraticForm":
        return self.scaled(-1.0)

    def gradient(self, x) -> np.ndarray:
        x = _check_vector(x, self.n)
        return 2.0 * (self.dense_p @ x) + self.q_vec


def _check_vector(x, n: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise DimensionMismatchError(f"point has shape {x.shape}, expected ({n},)")
    return x


def evaluate(form: QuadraticForm, x) -> float:
    """Evaluate x'Px + q'x + r with P treated as a full symmetric matrix."""
    return _value(form, _check_vector(x, form.n))


def _value(form: QuadraticForm, x: np.ndarray) -> float:
    """evaluate for a point already checked against form.n."""
    return float(x @ (form.dense_p @ x) + form.q_vec @ x + form.r)


class Sense(Enum):
    """Constraint sense: f(x) <= 0 or f(x) = 0."""

    LE = "le"
    EQ = "eq"


@dataclass(frozen=True)
class Constraint:
    form: QuadraticForm
    sense: Sense = Sense.LE

    def violation(self, x) -> float:
        """Amount by which x violates the row; inf when f(x) is not finite."""
        return self._violation_of(evaluate(self.form, x))

    def _violation_of(self, v: float) -> float:
        if not math.isfinite(v):
            return math.inf
        return abs(v) if self.sense is Sense.EQ else max(v, 0.0)


class _OneVariableRows:
    """The rows a x_i^2 + b x_i + r (= or <=) 0 of a constraint list, a != 0, stacked as arrays.

    A row whose support is one variable x_i and whose P is nonzero has P =
    a e_i e_i' and q = b e_i, so _value computes round(round(x_i a x_i) +
    round(b x_i)) + r: every other term of its dense products is an exact
    zero.  values() computes the same roundings for every such row at once.
    The dense products give +0.0 where the row's terms cancel exactly, and so
    does r + 0.0.  With n > 1 they give NaN at a point with any non-finite
    coordinate (0 * inf is NaN), and so does values().
    """

    def __init__(self, constraints: Sequence[Constraint]):
        rows, i = [], []
        for k, c in enumerate(constraints):
            s = c.form.support
            if s.size == 1 and c.form.dense_p[s[0], s[0]] != 0.0:
                rows.append(k)
                i.append(int(s[0]))
        self.rows = np.array(rows, dtype=int)  # each row's index in the constraint list
        self.i = np.array(i, dtype=int)
        forms = [constraints[k].form for k in rows]
        self.a = np.array([f.dense_p[j, j] for f, j in zip(forms, i)], dtype=float)
        self.b = np.array([f.q_vec[j] for f, j in zip(forms, i)], dtype=float)
        self.r = np.array([f.r for f in forms], dtype=float) + 0.0
        self.eq = np.array([constraints[k].sense is Sense.EQ for k in rows], dtype=bool)
        held = set(rows)
        self.others = tuple(c for k, c in enumerate(constraints) if k not in held)  # evaluated per row

    def values(self, x: np.ndarray) -> np.ndarray:
        """Each row's f(x), equal bit for bit to _value(form, x)."""
        xi = x[self.i]
        f = xi * (self.a * xi) + self.b * xi + self.r
        if x.size > 1 and not np.isfinite(x).all():
            f[:] = math.nan
        return f

    def violations(self, x: np.ndarray) -> np.ndarray:
        """Each row's Constraint._violation_of(f(x)), bit for bit (max(f, 0.0) keeps f = -0.0)."""
        f = self.values(x)
        v = np.where(self.eq, np.abs(f), np.where(f < 0.0, 0.0, f))
        return np.where(np.isfinite(f), v, math.inf)

    def max_violation(self, x: np.ndarray) -> float:
        """The largest violation over every constraint at x, folded as assess folds it."""
        v = 0.0
        for c in self.others:
            v = max(v, c._violation_of(_value(c.form, x)))
        if self.rows.size:
            v = max(v, float(np.max(self.violations(x))))
        return v


@dataclass(frozen=True)
class Assessment:
    """Pair (max constraint violation, objective value), ordered lexicographically."""

    violation: float
    objective: float

    def as_tuple(self) -> tuple[float, float]:
        return (self.violation, self.objective)

    def better_than(self, other: "Assessment") -> bool:
        return self.as_tuple() < other.as_tuple()

    def __le__(self, other: "Assessment") -> bool:
        return self.as_tuple() <= other.as_tuple()

    def __lt__(self, other: "Assessment") -> bool:
        return self.as_tuple() < other.as_tuple()


@dataclass(frozen=True)
class QcqpProblem:
    """Minimize objective(x) subject to a list of quadratic constraints."""

    n: int
    objective: QuadraticForm
    constraints: tuple[Constraint, ...]

    @classmethod
    def create(cls, objective: QuadraticForm, constraints: Sequence[Constraint] = ()) -> "QcqpProblem":
        n = objective.n
        for k, c in enumerate(constraints):
            if c.form.n != n:
                raise DimensionMismatchError(f"constraint {k} has dimension {c.form.n}, expected {n}")
        return cls(n=n, objective=objective, constraints=tuple(constraints))

    @property
    def m(self) -> int:
        return len(self.constraints)

    @cached_property
    def _one_variable_rows(self) -> _OneVariableRows:
        return _OneVariableRows(self.constraints)


def assess(problem: QcqpProblem, x) -> Assessment:
    """Maximum constraint violation and objective value at x.

    A non-finite objective counts as violation inf, like a non-finite
    constraint value, so such a point never beats a finite one.  x is
    checked once; every row is then evaluated as `evaluate` would, the rows
    of one variable all at once.
    """
    x = _check_vector(x, problem.n)
    v = problem._one_variable_rows.max_violation(x)
    f = _value(problem.objective, x)
    if not math.isfinite(f):
        v = math.inf
    return Assessment(violation=v, objective=f)


def _lift_form(form: QuadraticForm, n_new: int, extra_q: Sequence[tuple[int, float]] = ()) -> QuadraticForm:
    """Embed a form into a larger variable space, optionally adding linear terms."""
    P = np.zeros((n_new, n_new))
    P[: form.n, : form.n] = form.dense_p
    q = np.zeros(n_new)
    q[: form.n] = form.q_vec
    for idx, val in extra_q:
        q[idx] += val
    return QuadraticForm._of_symmetric(P, q, form.r)


def to_epigraph(problem: QcqpProblem) -> QcqpProblem:
    """Epigraph form: minimize t subject to f0(x) - t <= 0 and the original constraints."""
    n = problem.n
    t_idx = n
    obj_q = np.zeros(n + 1)
    obj_q[t_idx] = 1.0
    new_obj = QuadraticForm.create(n + 1, (), obj_q, 0.0)
    epi = Constraint(_lift_form(problem.objective, n + 1, [(t_idx, -1.0)]), Sense.LE)
    lifted = [Constraint(_lift_form(c.form, n + 1), c.sense) for c in problem.constraints]
    return QcqpProblem.create(new_obj, [epi] + lifted)


def _homogenize_form(form: QuadraticForm) -> QuadraticForm:
    """Block form [[P, q/2], [q'/2, r]] acting on (x, z_{n+1}).

    Its matrix F is the lifted form: f(x) = <F, [[xx', x], [x', 1]]>.
    """
    n = form.n
    P = np.empty((n + 1, n + 1))
    P[:n, :n] = form.dense_p
    P[:n, n] = P[n, :n] = 0.5 * form.q_vec
    P[n, n] = form.r
    return QuadraticForm._of_symmetric(P)


def to_homogeneous(problem: QcqpProblem) -> QcqpProblem:
    """Homogeneous form in n+1 variables with the added constraint z_{n+1}^2 = 1."""
    n = problem.n
    new_obj = _homogenize_form(problem.objective)
    constraints = [Constraint(_homogenize_form(c.form), c.sense) for c in problem.constraints]
    unit = QuadraticForm.create(n + 1, [(n, n, 1.0)], None, -1.0)
    constraints.append(Constraint(unit, Sense.EQ))
    return QcqpProblem.create(new_obj, constraints)


def dehomogenize(z) -> np.ndarray:
    """Recover x = (z_1/z_{n+1}, ..., z_n/z_{n+1}) from a homogeneous point."""
    z = np.asarray(z, dtype=float)
    if z.ndim != 1 or z.size < 2:
        raise DimensionMismatchError("homogeneous point must be a vector of length >= 2")
    if z[-1] == 0.0:
        raise DegenerateHomogeneousError("homogenizing coordinate is zero")
    return z[:-1] / z[-1]
