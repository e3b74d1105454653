"""Problem representation, evaluation, and equivalent-form transforms.

Quadratic functions f(x) = x'Px + q'x + r are stored as a read-only
symmetric matrix P, a read-only vector q and a float r.  Upper-triangle
(i, j, v) triplets are the problem-file format only: `create` reads them
and `triplets` writes them back.  All types are immutable after
construction; what they add later are caches of values derived from
their fields: `QuadraticForm.support`, and per problem its row table
(`_RowClasses`: every form gathered once into stacks, and each row's
class) with the rows of each coordinate and ADMM's rows sliced from it.
`assess`, the improve methods and the SDR share them.
"""

from __future__ import annotations

import itertools
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
        return cls._create_all(n, [(triplets, q, r)])[0]

    @classmethod
    def _create_all(cls, n, parts: Sequence[tuple]) -> list["QuadraticForm"]:
        """create(n, triplets, q, r) of each (triplets, q, r) in parts, all in one pass.

        One array takes every triplet and one np.add.at sums each value, in
        input order, into its cell of an (len(parts), n, n) stack and into
        the mirror cell below the diagonal.  Each sum starts at 0.0, so no
        cell holds -0.0, and each mirror cell gets the same sum as its
        upper cell.  Each form's P and q are read-only views of one stack.
        The checks are create's, in its order, each over every part at
        once.
        """
        n = int(n)
        if n < 0:
            raise DimensionMismatchError("dimension must be nonnegative")
        triplets = [list(t) for t, _, _ in parts]
        t = np.array(list(itertools.chain.from_iterable(triplets)), dtype=float)
        if t.size and t.shape[1:] != (3,):
            raise DimensionMismatchError("triplets must be (i, j, v) rows")
        t = t.reshape(-1, 3)
        ij = t[:, :2]
        bad = (ij < 0) | (ij >= n) | (ij != np.trunc(ij))
        if bad.any():
            k = int(np.argmax(bad.any(axis=1)))
            raise DimensionMismatchError(f"triplet index ({ij[k, 0]:g},{ij[k, 1]:g}) is not an integer in [0, {n})")
        i, j = ij.T.astype(int)
        lo, hi, v = np.minimum(i, j), np.maximum(i, j), t[:, 2]
        form = np.arange(len(parts)).repeat(list(map(len, triplets)))  # each triplet's part
        P = np.zeros((len(parts), n, n))
        np.add.at(P, (form, lo, hi), v)
        off = lo != hi
        np.add.at(P, (form[off], hi[off], lo[off]), v[off])
        Q = np.zeros((len(parts), n))
        given = [k for k, (_, q, _) in enumerate(parts) if q is not None]
        if given:
            q = np.array([parts[k][1] for k in given], dtype=float)
            if q.shape[1:] != (n,):
                raise DimensionMismatchError(f"q has shape {q.shape[1:]}, expected ({n},)")
            Q[given] = q
        r = [float(r) for _, _, r in parts]
        if not (np.isfinite(P).all() and np.isfinite(Q).all() and all(map(math.isfinite, r))):
            raise ValueError("quadratic form has non-finite coefficients")
        P.setflags(write=False)
        Q.setflags(write=False)
        return [cls(n=n, dense_p=P[k], q_vec=Q[k], r=r[k]) for k in range(len(parts))]

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


def _row_class(form: QuadraticForm) -> tuple[str, int]:
    """The class in _RowClasses of a row with this form, and its x_i (-1 where it has none).

    It is _RowClasses' rule on one row: aff where P = 0, else one where the
    support is one x_i, else gen.  A symmetric P != 0 reads x_i alone when
    its one nonzero entry is P_ii, and then q must be zero off x_i.
    """
    nz = np.flatnonzero(form.dense_p)
    if not nz.size:
        return "aff", -1
    i, j = divmod(int(nz[0]), form.n)
    if nz.size == 1 and i == j and np.count_nonzero(form.q_vec) == (form.q_vec[i] != 0.0):
        return "one", i
    return "gen", -1


def _senses(eq: np.ndarray):
    """The eq argument of _max_violation for rows with this EQ mask: None if none is EQ, True if all are."""
    if eq.all():
        return True
    return eq if eq.any() else None


def _max_violation(f: np.ndarray, eq=None, axis=None):
    """The largest Constraint._violation_of of the values f, EQ where eq (None: every row is LE; True: every row is EQ).

    A value that is not finite counts as inf: NaN carries through max, and
    an LE row at -inf shows in min.  Rows that are all EQ take one max of
    |f|, which is never -inf.  The result can be below 0.0 (LE rows with f <
    0, or no row at all): what counts is max(v, it), which for any v >= 0.0
    is the fold max(v, violation) over the rows.  With axis=1, row t of f
    holds the rows' values at point t, and the result is an array of one
    such value per point.
    """
    if eq is True:
        hi = np.maximum.reduce(np.abs(f), axis=axis, initial=-math.inf)
        if axis is not None:
            return np.where(np.isnan(hi), math.inf, hi)
        hi = float(hi)
        return math.inf if math.isnan(hi) else hi
    g = f if eq is None else np.where(eq, np.abs(f), f)
    lo, hi = g.min(axis=axis, initial=math.inf), g.max(axis=axis, initial=-math.inf)
    if axis is not None:
        return np.where((lo == -math.inf) | np.isnan(hi), math.inf, hi)
    lo, hi = float(lo), float(hi)
    return math.inf if lo == -math.inf or math.isnan(hi) else hi


class _RowClasses:
    """A problem's one row table: every form gathered once, each constraint row in one class.

    Row 0 is the objective and row k >= 1 constraint k - 1, as in the
    loader's stack, cd and CCP.  all_P (m+1, n, n), all_q, all_r and all_eq
    (row 0 False) hold the forms' fields as they are, -0.0 included, and
    support the x_j each row reads, as QuadraticForm.support does; all are
    read-only.  One vectorized pass over the table puts each constraint in
    one class, by _row_class's rule:

    one: a x_i^2 + b x_i + r (= or <=) 0 with a != 0, stacked as arrays i,
    a, b, r and eq (one_senses: eq as _senses gives it).  aff: P = 0.  gen:
    every other row.  Each class lists its constraints' indices in
    ascending order.  The rows outside the one stack, general rows first
    (dense = gen then aff), are stacked as they are: P (k, n, n), q (k, n),
    c (their r) and dense_eq.

    A stacked row has P = a e_i e_i' and q = b e_i, so _value computes
    round(round(x_i a x_i) + round(b x_i)) + r: every other term of its
    dense products is an exact zero.  values() computes the same roundings
    for every such row at once.  The dense products give +0.0 where the
    row's terms cancel exactly, and so does r + 0.0.  With n > 1 they give
    NaN at a point with any non-finite coordinate (0 * inf is NaN), and so
    does values(), without numpy's warnings about invalid values.

    dense_values() runs _value's own products on the dense stack: the
    stacked matmul and vecdot call the same BLAS kernels on each row that
    P @ x and x @ y call on one, so each value is _value's, bit for bit.
    """

    def __init__(self, problem: "QcqpProblem"):
        forms = [problem.objective] + [c.form for c in problem.constraints]
        self.all_P = np.array([f.dense_p for f in forms], dtype=float)
        self.all_q = np.array([f.q_vec for f in forms], dtype=float)
        self.all_r = np.array([f.r for f in forms], dtype=float)
        self.all_eq = np.array([False] + [c.sense is Sense.EQ for c in problem.constraints], dtype=bool)
        self.support = self.all_P.any(axis=1) | (self.all_q != 0.0)
        curved = self.all_P.reshape(len(forms), -1).any(axis=1)
        one = curved & (self.support.sum(axis=1) == 1)
        self.one, self.aff, self.gen = (np.flatnonzero(c[1:]) for c in (one, ~curved, curved & ~one))
        rows = self.one + 1
        self.i = i = np.nonzero(self.support[rows])[1]  # each row's one True, in row order
        self.a, self.b = self.all_P[rows, i, i], self.all_q[rows, i]
        self.r, self.eq = self.all_r[rows] + 0.0, self.all_eq[rows]
        self.one_senses = _senses(self.eq)
        self.dense = np.concatenate([self.gen, self.aff])
        rows = self.dense + 1
        self.P, self.q, self.c, self.dense_eq = self.all_P[rows], self.all_q[rows], self.all_r[rows], self.all_eq[rows]
        for field in (self.all_P, self.all_q, self.all_r, self.all_eq, self.support):
            field.setflags(write=False)

    def values(self, x: np.ndarray) -> np.ndarray:
        """Each stacked row's f(x), equal bit for bit to _value(form, x)."""
        if np.isfinite(x).all():
            return self._finite_values(x)
        with np.errstate(invalid="ignore"):  # 0 * inf and inf - inf are NaN, as in _value
            f = self._finite_values(x)
        if x.size > 1:
            f[:] = math.nan
        return f

    def _finite_values(self, x: np.ndarray) -> np.ndarray:
        """The one stack's values at x, or at each row of a stack of points x."""
        xi = x.take(self.i, axis=-1)
        return xi * (self.a * xi) + self.b * xi + self.r

    def dense_values(self, x: np.ndarray, Px: np.ndarray) -> np.ndarray:
        """f(x) of the first len(Px) dense rows, given their products P_k x, each equal to _value(form, x)."""
        k = len(Px)
        return np.vecdot(x, Px) + np.vecdot(self.q[:k], x) + self.c[:k]

    def max_violation(self, x: np.ndarray, k: int | None = None) -> float:
        """The largest violation at x over the first k dense rows (all by default) and the one stack.

        It is the value assess's fold over those rows gives.  Both stacks are
        evaluated as at a finite x: elsewhere the objective is not finite, so
        assess gives inf.
        """
        v = 0.0
        if k != 0 and self.dense.size:
            P = self.P[:k]
            v = max(v, _max_violation(self.dense_values(x, P @ x), self.dense_eq[:k]))
        if self.one.size:
            v = max(v, _max_violation(self._finite_values(x), self.one_senses))
        return v

    def max_violations(self, Z: np.ndarray, k: int | None = None) -> np.ndarray:
        """max_violation(z, k) of each row z of Z, by the same products on every point at once."""
        P, v = self.P[:k], np.zeros(len(Z))
        if len(P):
            Zk = Z[:, None, :]  # each point against each row
            f = np.vecdot(Zk, np.matmul(P, Zk[..., None])[..., 0]) + np.vecdot(self.q[:k], Zk) + self.c[:k]
            v = np.maximum(v, _max_violation(f, self.dense_eq[:k], axis=1))
        if self.one.size:
            v = np.maximum(v, _max_violation(self._finite_values(Z), self.one_senses, axis=1))
        return v


class _CoordinateRows:
    """The rows each coordinate x_j enters, set up once per problem for coordinate descent.

    Row k = 0 is the objective and rows k >= 1 are the constraints: P, q
    and eq are the problem's row table (_RowClasses' all_P, all_q and
    all_eq).  rows[j] lists the constraint rows whose support holds x_j.  A
    block coordinate is one whose only row is an EQ row of the stacked rows
    of one variable, a x_j^2 + b x_j + r = 0.  block_j lists them in order,
    block_k their rows, block_a and block_b those rows' a and b, and
    block_p0 and block_q0 the objective's P_jj and q_j.  run_end[j] is the
    first coordinate from j on that is not a block coordinate (n if none),
    and block_at[j] counts the block coordinates before j.  stacked lists
    the rows of the stacked block of one variable, and dense the rows of the
    dense stack, in its order.
    """

    def __init__(self, problem: "QcqpProblem"):
        n, rc = problem.n, problem._row_classes
        self.P, self.q, self.eq = rc.all_P, rc.all_q, rc.all_eq
        self.rows: list[list[int]] = [[] for _ in range(n)]
        for j, k in np.argwhere(rc.support[1:].T).tolist():  # by j, then by row
            self.rows[j].append(k + 1)
        self.stacked = rc.one + 1
        self.dense = rc.dense + 1
        pairs = enumerate(zip(rc.i.tolist(), self.stacked.tolist()))
        b = np.array([b for b, (j, k) in pairs if rc.eq[b] and self.rows[j] == [k]], dtype=int)
        b = b[np.argsort(rc.i[b])]  # in coordinate order
        self.block_j = rc.i[b]
        self.block_k = self.stacked[b]
        self.block_a = rc.a[b]
        self.block_b = rc.b[b]
        self.block_p0 = self.P[0, self.block_j, self.block_j]
        self.block_q0 = self.q[0, self.block_j]
        is_block = np.zeros(n, dtype=bool)
        is_block[self.block_j] = True
        self.block_at = [0] + np.cumsum(is_block).tolist()
        self.run_end = [0] * n
        end = n
        for j in range(n - 1, -1, -1):
            if not is_block[j]:
                end = j
            self.run_end[j] = end


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
    def _row_classes(self) -> _RowClasses:
        return _RowClasses(self)

    @cached_property
    def _coordinate_rows(self) -> _CoordinateRows:
        return _CoordinateRows(self)

    @cached_property
    def _admm_rows(self):
        """improve._Rows of this problem, which every ADMM call on it projects through."""
        from .improve import _Rows  # improve imports this module

        return _Rows.of(self)


def assess(problem: QcqpProblem, x) -> Assessment:
    """Maximum constraint violation and objective value at x.

    A non-finite objective counts as violation inf, like a non-finite
    constraint value, so such a point never beats a finite one.  x is
    checked once; every row is then evaluated as `evaluate` would, in two
    stacks: the rows of one variable and the rest.  At a non-finite point
    the objective is not finite either (0 * inf is NaN), so it alone is
    evaluated, quietly.
    """
    x = _check_vector(x, problem.n)
    if not np.isfinite(x).all():
        with np.errstate(invalid="ignore"):
            return Assessment(violation=math.inf, objective=_value(problem.objective, x))
    v = problem._row_classes.max_violation(x)
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
