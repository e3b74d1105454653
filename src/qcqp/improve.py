"""Improvement methods: maps from a candidate point to a point that is never
lexicographically worse under (max violation, objective).

Contents: the closed-form rounders for special problem classes, two-phase
coordinate descent, a convex-QCQP solver, penalty convex-concave, and
two-phase consensus ADMM.  Every public method recomputes the assessment of
its output and falls back to the input point if it would otherwise return
something worse, so composition is always safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .core import (
    Assessment,
    QcqpProblem,
    QuadraticForm,
    Sense,
    _check_vector,
    _max_violation,
    _senses,
    _value,
    assess,
)
from .errors import InfeasibleConstraintError, NotConvexError, NotScalableError, NumericalFailureError
from .linalg import inv_chol, min_eig_bound
from .onevar import (
    AFFINE_EPS,
    IntervalSet,
    OneVarStatus,
    _stable_roots,
    constraint_solution_set,
    intersect,
    minimize_over_set,
)
from .oneconstraint import FEAS_TOL, SECULAR_STEP_MAX, ConstraintProjector
# the benchmark's tracer patches solve_one_constraint by this name
from .oneconstraint import solve_one_constraint
from .split import split_eigen


@dataclass(frozen=True)
class ImproveReport:
    x: np.ndarray
    assessment: Assessment
    iterations: int
    phase_trace: tuple[tuple[float, float], ...]
    converged: bool
    method: str
    # ADMM only: the final (z, X, U), which warm-starts CCP's next subsolve,
    # and every iteration's (z, X, U) when record_iterates is set
    final_state: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
    iterates: tuple | None = None


def _report(problem, x0, x, iterations, trace, converged, method, a0=None, a=None) -> ImproveReport:
    """Assemble a report, enforcing the never-worse contract against x0.

    a0 and a are assess() of x0 and of x where the caller has them already.
    """
    a0 = assess(problem, x0) if a0 is None else a0
    if a is None:
        a = a0 if x is x0 else assess(problem, x)
    if a0.better_than(a):
        x, a = np.asarray(x0, dtype=float).copy(), a0
    return ImproveReport(
        x=np.asarray(x, dtype=float),
        assessment=a,
        iterations=iterations,
        phase_trace=tuple(trace),
        converged=converged,
        method=method,
    )


def _reassessed(problem, x0, rep: ImproveReport, a0=None) -> ImproveReport:
    """rep with its point checked as _report checks one: by assess(), and never worse than x0."""
    checked = _report(problem, x0, rep.x, rep.iterations, rep.phase_trace, rep.converged, rep.method, a0)
    return replace(rep, x=checked.x, assessment=checked.assessment)


# -- closed-form rounders ---------------------------------------------------


def round_sign(x) -> np.ndarray:
    """Elementwise sign with sign(0) = +1."""
    x = np.asarray(x, dtype=float)
    return np.where(x >= 0.0, 1.0, -1.0)


def round_balanced_sign(x) -> np.ndarray:
    """+1 on the n/2 largest entries (ties to the lower index), -1 elsewhere."""
    x = np.asarray(x, dtype=float)
    n = x.size
    if n % 2 != 0:
        raise ValueError("balanced rounding needs an even dimension")
    # stable sort on (-x, index): equal values keep index order
    order = np.argsort(-x, kind="stable")
    z = -np.ones(n)
    z[order[: n // 2]] = 1.0
    return z


def scale_to_cover(x, forms) -> np.ndarray:
    """Smallest positive multiple of x with min_i z'P_i z = 1.

    Each form is a PSD matrix (or QuadraticForm whose matrix is used) read
    as a covering constraint x'P_i x >= 1.
    """
    x = np.asarray(x, dtype=float)
    t = math.inf
    for f in forms:
        P = f.dense_p if isinstance(f, QuadraticForm) else np.asarray(f, dtype=float)
        t = min(t, float(x @ (P @ x)))
    if not (t > 0.0):
        raise NotScalableError("candidate has no component in some covering constraint")
    return x / math.sqrt(t)


def greedy_clique(x, adjacency) -> np.ndarray:
    """Greedy maximal clique indicator, visiting vertices by descending x."""
    x = np.asarray(x, dtype=float)
    A = np.asarray(adjacency)
    n = x.size
    order = sorted(range(n), key=lambda i: (-x[i], i))
    chosen: list[int] = []
    for i in order:
        if all(A[i, j] for j in chosen):
            chosen.append(i)
    z = np.zeros(n)
    z[chosen] = 1.0
    return z


# Every method of METHODS takes _a0, assess(problem, x0) where its caller
# (improve_sequence) has it, so that no point of a sequence is assessed twice.


def improve_round_sign(problem: QcqpProblem, x0, *, _a0=None) -> ImproveReport:
    z = round_sign(x0)
    a = assess(problem, z)
    return _report(problem, x0, z, 1, [a.as_tuple()], True, "sign", _a0, a)


def improve_round_balanced_sign(problem: QcqpProblem, x0, *, _a0=None) -> ImproveReport:
    z = round_balanced_sign(x0)
    a = assess(problem, z)
    return _report(problem, x0, z, 1, [a.as_tuple()], True, "balanced-sign", _a0, a)


def _covering_forms(problem: QcqpProblem):
    """Constraints of shape x'Mx >= r with M PSD, normalized to x'Px >= 1."""
    rc = problem._row_classes
    cover = ~rc.all_eq & (rc.all_r > 0.0) & ~rc.all_q.any(axis=1)
    out = []
    for k in (np.flatnonzero(cover[1:]) + 1).tolist():
        M = -rc.all_P[k]
        if min_eig_bound(M) >= -1e-9 * (1.0 + np.linalg.norm(M)):
            out.append(M / rc.all_r[k])
    return out


def improve_scale_to_cover(problem: QcqpProblem, x0, *, _a0=None) -> ImproveReport:
    forms = _covering_forms(problem)
    if not forms:
        return _report(problem, x0, x0, 0, [], True, "scale", _a0)
    try:
        z = scale_to_cover(x0, forms)
    except NotScalableError:
        return _report(problem, x0, x0, 0, [], False, "scale", _a0)
    a = assess(problem, z)
    return _report(problem, x0, z, 1, [a.as_tuple()], True, "scale", _a0, a)


# -- two-phase coordinate descent ------------------------------------------


class _CoordState:
    """Incrementally maintained values f_k(x) and gradientlike products P_k x.

    Row k = 0 is the objective, rows k >= 1 the constraints, classified once
    per problem (`_CoordinateRows`).  g[k] = P_k x is row k of one
    (m+1) x n array and fval[k] = f_k(x) entry k of one vector.  rows[j]
    lists the constraint rows whose support contains x_j; every other row is
    constant in x_j, so move(j, t) updates only the objective and rows[j].
    violated holds the constraint rows that a constant in x_j could not
    satisfy in phase II (|f| > EQ_TOL for EQ, f > EQ_TOL for LE): it is
    rebuilt by refresh(), which evaluates every row exactly (the constraints
    as the two stacks of the problem's _RowClasses), and updated by move().

    A row of one variable a x_i^2 + b x_i + r is read only at x_i, so
    refresh() writes just g[k, i] = a x_i + 0.0 there: the dense product's
    one nonzero term, with -0.0 made 0.0 as the product's sum of zeros makes
    it.  That is the dense product bit for bit except for the sign of a zero
    where a x_i underflows, which the BLAS kernel's order of summation sets
    and which g[k, i] - a x_i does not see.  Where x has a non-finite entry
    every row takes the dense product: 0 * inf is NaN there.
    """

    def __init__(self, problem: QcqpProblem, x0):
        self.cr = problem._coordinate_rows
        self.block = problem._row_classes
        self.f0 = problem.objective
        self.P, self.qv, self.eq, self.rows = self.cr.P, self.cr.q, self.cr.eq, self.cr.rows
        self.x = _check_vector(x0, problem.n).copy()
        self.g = np.zeros((len(self.P), problem.n))
        self.fval = np.empty(len(self.P))
        self.refresh()

    def refresh(self):
        x, rc, cr = self.x, self.block, self.cr
        if np.isfinite(x).all():
            self.g[cr.stacked, rc.i] = rc.a * x[rc.i] + 0.0
        else:
            for k in cr.stacked.tolist():
                self.g[k] = self.P[k] @ x
        self.g[0] = self.P[0] @ x
        Px = rc.P @ x
        self.g[cr.dense] = Px
        self.fval[0] = _value(self.f0, x)
        self.fval[cr.stacked] = rc.values(x)
        self.fval[cr.dense] = rc.dense_values(x, Px)
        f = self.fval[1:]
        out = ~(np.where(cr.eq[1:], np.abs(f), f) <= EQ_TOL)  # _is_violated of every row
        self.violated = set((np.flatnonzero(out) + 1).tolist())

    def _is_violated(self, k: int) -> bool:
        # written as "not within" so that a NaN value counts as violated
        f = self.fval[k]
        return not ((abs(f) if self.eq[k] else f) <= EQ_TOL)

    def coeffs(self, k: int, j: int):
        """(p, q, c) of f_k as a quadratic in x_j with the rest fixed."""
        p = self.P[k, j, j]
        ql = 2.0 * (self.g[k, j] - p * self.x[j]) + self.qv[k, j]
        c = self.fval[k] - p * self.x[j] ** 2 - ql * self.x[j]
        return p, ql, c

    def move(self, j: int, t: float):
        if t == self.x[j]:
            return
        d = t - self.x[j]
        for k in [0] + self.rows[j]:
            p, ql, c = self.coeffs(k, j)
            self.fval[k] = p * t * t + ql * t + c
            self.g[k] += d * self.P[k, :, j]
        for k in self.rows[j]:
            if self._is_violated(k):
                self.violated.add(k)
            else:
                self.violated.discard(k)
        self.x[j] = t

    def violation(self) -> float:
        """The largest |f| (EQ) or f (LE) over the constraints, 0.0 if none is positive; NaN is skipped."""
        f = self.fval[1:]
        v = np.where(self.cr.eq[1:], np.abs(f), f)
        v = v[v > 0.0]
        return float(v.max()) if v.size else 0.0

    def objective(self) -> float:
        return float(self.fval[0])

    def block_step(self, lo: int, hi: int):
        """The first of the block coordinates cr.block_j[lo:hi] whose phase II visit would act.

        Each visit is the scalar one in closed form, with the same
        operations: coeffs, _equality_root_set, minimize_over_set and the
        strict-decrease test.  Returns (j, t) to move x_j to t, or (j, None)
        where that closed form does not hold (|p| < AFFINE_EPS, a double
        root, an objective flat in x_j, or a value that is not finite) and
        x_j takes the scalar visit; None when no visit would act.
        """
        cr = self.cr
        J, K = cr.block_j[lo:hi], cr.block_k[lo:hi]
        x = self.x[J]
        # x[j] ** 2 of a numpy scalar is libm's pow, which float_power calls
        # too; x * x rounds differently in about one case in a thousand
        xx = np.float_power(x, 2.0)
        with np.errstate(all="ignore"):
            p = cr.block_a[lo:hi]
            q = 2.0 * (self.g[K, J] - p * x) + cr.block_b[lo:hi]
            c = self.fval[K] - p * xx - q * x
            disc = q * q - 4.0 * p * c
            # -(q + sq) / 2.0 where q >= 0.0, else -(q - sq) / 2.0: the same bits
            sq = np.sqrt(disc)
            big = (q + np.where(q >= 0.0, sq, -sq)) / -2.0
            r1, r2 = big / p, c / big
            # min(r1, r2) and max(r1, r2) as Python picks them
            a, b = np.where(r2 < r1, r2, r1), np.where(r2 > r1, r2, r1)
            p0 = cr.block_p0[lo:hi]
            q0 = 2.0 * (self.g[0, J] - p0 * x) + cr.block_q0[lo:hi]
            c0 = self.fval[0] - p0 * xx - q0 * x
            va, vb = p0 * a * a + q0 * a + c0, p0 * b * b + q0 * b + c0
        upper = vb < va  # min() over the candidates keeps the first of equal values
        t, v = np.where(upper, b, a), np.where(upper, vb, va)
        f0 = self.fval[0]
        roots = ~(disc < 0.0)
        finite = np.isfinite(va) & np.isfinite(vb)  # and so are a and b
        flat = (np.abs(p0) <= AFFINE_EPS) & (np.abs(q0) <= AFFINE_EPS)
        scalar = (np.abs(p) < AFFINE_EPS) | roots & ((big == 0.0) | flat | ~finite)
        act = scalar | roots & (v < f0 - 1e-12 * (1.0 + abs(f0)))
        i = int(act.argmax())
        if not act[i]:
            return None
        return int(J[i]), None if scalar[i] else float(t[i])

    def block_root(self, j: int) -> float | None:
        """Phase I's choice for the block coordinate x_j, or None where the scalar visit must decide.

        The scalar visit intersects {f <= 0} and {-f <= 0} for x_j's row f =
        p t^2 + q t + c (coeffs) and minimizes the objective over that set.
        Where both sides have the same real roots the set is that pair, its
        lower root as the side with the positive leading term computes it
        and its upper root as the other side does.  The lower root wins
        unless the upper one has a strictly lower objective value, as min()
        over minimize_over_set's candidates decides.  None where this does
        not hold: |p| < AFFINE_EPS, no real root, sides that round apart
        (possible when q == 0), an objective flat in x_j, or a value that is
        not finite.
        """
        p, q, c = (float(v) for v in self.coeffs(int(self.cr.block_k[self.cr.block_at[j]]), j))
        if abs(p) < AFFINE_EPS:
            return None
        roots, flipped = _stable_roots(p, q, c), _stable_roots(-p, -q, -c)
        if roots is None or roots != flipped:
            return None
        pos, neg = (roots, flipped) if p > 0.0 else (flipped, roots)
        lo, hi = pos[0], neg[1]
        p0, q0, c0 = (float(v) for v in self.coeffs(0, j))
        if abs(p0) <= AFFINE_EPS and abs(q0) <= AFFINE_EPS:
            return None
        v_lo, v_hi = p0 * lo * lo + q0 * lo + c0, p0 * hi * hi + q0 * hi + c0
        if not (math.isfinite(v_lo) and math.isfinite(v_hi)):  # then lo and hi are finite too
            return None
        return hi if v_hi < v_lo else lo


def _phase1_set(rows, s: float) -> IntervalSet:
    """Feasible x_j values for max restricted violation <= s; rows holds (p, q, c, eq) of each row."""
    S = IntervalSet.full()
    for p, q, c, eq in rows:
        S = intersect(S, constraint_solution_set(p, q, c - s))
        if S.is_empty:
            return S
        if eq:
            S = intersect(S, constraint_solution_set(-p, -q, -c - s))
            if S.is_empty:
                return S
    return S


def _phase1_visit(st: _CoordState, j: int) -> None:
    """Phase I's step on x_j: the least worst violation of its rows, ties broken by the objective.

    A block coordinate takes its root pair in closed form (block_root)
    where that holds, which is the step below, bit for bit.
    """
    if st.cr.run_end[j] > j and (t := st.block_root(j)) is not None:
        st.move(j, t)
        return
    # rows not involving x_j are constants the coordinate cannot fix;
    # minimize the worst violation among the rows it can influence
    rows = [
        st.coeffs(k, j) + (st.eq[k],)
        for k in st.rows[j]
        if st.P[k, j, j] != 0.0 or st.g[k, j] != 0.0 or st.qv[k, j] != 0.0
    ]
    if not rows:
        return
    S0 = _phase1_set(rows, 0.0)
    if not S0.is_empty:
        S = S0
    else:
        t = st.x[j]
        hi = 0.0
        for p, q, c, eq in rows:
            f = p * t * t + q * t + c
            hi = max(hi, abs(f) if eq else max(f, 0.0))
        lo = 0.0
        S = _phase1_set(rows, hi)
        if S.is_empty:
            return  # numerical guard; current x_j attains hi
        while hi - lo > BISECTION_TOL:
            mid = 0.5 * (lo + hi)
            Sm = _phase1_set(rows, mid)
            if Sm.is_empty:
                lo = mid
            else:
                hi, S = mid, Sm
    p0, q0, c0 = st.coeffs(0, j)
    res = minimize_over_set(p0, q0, c0, S)
    if res.status is OneVarStatus.OPTIMAL:
        st.move(j, res.x)
    else:
        st.move(j, S.closest_point(st.x[j]))


def _equality_root_set(p: float, q: float, c: float) -> IntervalSet:
    """Exact solution set of p t^2 + q t + c = 0 as degenerate intervals."""
    if abs(p) < AFFINE_EPS and abs(q) < AFFINE_EPS:
        return IntervalSet.full() if abs(c) <= EQ_TOL else IntervalSet.empty()
    if abs(p) < AFFINE_EPS:
        t = -c / q
        return IntervalSet.of((t, t))
    roots = _stable_roots(p, q, c)
    if roots is None:
        return IntervalSet.empty()
    a, b = roots
    if a == b:
        return IntervalSet.of((a, a))
    return IntervalSet.of((a, a), (b, b))


def _phase2_set(rows) -> IntervalSet:
    S = IntervalSet.full()
    for p, q, c, eq in rows:
        if eq:
            S = intersect(S, _equality_root_set(p, q, c))
        else:
            S = intersect(S, constraint_solution_set(p, q, c))
        if S.is_empty:
            return S
    return S


def _phase2_visit(st: _CoordState, j: int) -> bool:
    """Phase II's step on x_j: the exact minimizer over its rows' solution set, taken if it lowers f strictly."""
    if st.violated and not st.violated.issubset(st.rows[j]):
        return False
    rows = [st.coeffs(k, j) + (st.eq[k],) for k in st.rows[j]]
    S = _phase2_set(rows)
    if S.is_empty:
        return False
    p0, q0, c0 = st.coeffs(0, j)
    res = minimize_over_set(p0, q0, c0, S)
    if res.status is not OneVarStatus.OPTIMAL:
        return False
    if res.value < st.fval[0] - 1e-12 * (1.0 + abs(st.fval[0])):
        st.move(j, res.x)
        return True
    return False


def _phase2_sweep(st: _CoordState) -> bool:
    """One phase II sweep over x_0, ..., x_{n-1}; True when some visit improved.

    A run of block coordinates is visited in one numpy pass (block_step) up
    to the first coordinate that acts, and the pass starts again after it.
    The state changes only on a move, so this is the sweep of scalar visits.
    """
    cr = st.cr
    improved = False
    j = 0
    while j < st.x.size:
        end = cr.run_end[j]
        if j < end and not st.violated:
            step = st.block_step(cr.block_at[j], cr.block_at[end])
            if step is None:
                j = end
                continue
            j, t = step
            if t is not None:
                st.move(j, t)
                improved = True
                j += 1
                continue
        improved |= _phase2_visit(st, j)
        j += 1
    return improved


# phase I of cd: the bisection on the restricted violation s stops at this
# width, and a sweep that lowers the violation by less than STALL_TOL stalls
BISECTION_TOL = 1e-9
STALL_TOL = 1e-7
# phase II of cd counts a row with |f| <= EQ_TOL (EQ) or f <= EQ_TOL (LE) as satisfied
EQ_TOL = 1e-8


def improve_coordinate_descent(problem: QcqpProblem, x0, max_sweeps: int = 100, *, _a0=None) -> ImproveReport:
    """Greedy coordinate updates in two phases.

    Phase I ignores the objective and reduces the maximum violation: each
    coordinate solves min s subject to all restricted constraints being
    within s, by bisection on s (ties between minimizers broken by the
    objective).  When a feasible point appears, Phase II performs exact
    one-variable minimizations, accepting only strict objective decreases;
    on Boolean problems this is exactly 1-opt local search.

    A coordinate step reads and updates only the rows whose support holds
    x_j.  A row outside it is a constant in x_j: phase I cannot reduce its
    violation, and in phase II it admits every x_j or none.  So phase II
    skips x_j while some violated row (|f| > EQ_TOL for EQ, f > EQ_TOL for
    LE, after the exact re-evaluation that ends phase I) lies outside its
    support.  EQ_TOL serves LE rows too: phase I stops on running values,
    and the exact values can leave a row it satisfied at a rounding residue
    such as f = 4e-16, which must not freeze every other coordinate.
    """
    st = _CoordState(problem, x0)
    n = problem.n
    trace: list[tuple[float, float]] = []
    sweeps = 0
    converged = False
    phase1 = st.violation() > 0.0
    while sweeps < max_sweeps and phase1:
        v_before = st.violation()
        for j in range(n):
            _phase1_visit(st, j)
        sweeps += 1
        v_after = st.violation()
        trace.append((v_after, st.objective()))
        if v_after <= 0.0:
            phase1 = False
        elif v_before - v_after < STALL_TOL:
            # stalled without reaching feasibility
            return _report(problem, x0, st.x, sweeps, trace, False, "cd", _a0)
    if sweeps:
        # without a phase I sweep no x_j moved: the state is the fresh one
        st.refresh()
    while sweeps < max_sweeps:
        improved = _phase2_sweep(st)
        sweeps += 1
        trace.append((st.violation(), st.objective()))
        if not improved:
            converged = True
            break
    return _report(problem, x0, st.x, sweeps, trace, converged, "cd", _a0)


# -- consensus ADMM ---------------------------------------------------------


def _select(fields: tuple, rows) -> tuple:
    """A block's per-row arrays fields, each cut to rows (None: all of them, as they are)."""
    return fields if rows is None else tuple(a[rows] for a in fields)


class _AffineRows:
    """Affine rows A[k]'x + b[k] = 0 (where eq[k]) or <= 0, stacked to project as one block.

    project(V) moves row i of V onto row i's set by the formula that
    ConstraintProjector uses for one affine row: x = v - (s / ||q||^2) q with
    s = f(v) on EQ rows and max(f(v), 0) on LE rows.  A row with q = 0 leaves
    v unchanged, and raises InfeasibleConstraintError where ConstraintProjector
    does: when r is off the row's set by more than FEAS_TOL * (1 + |r|).
    Whether any row is flat or infeasible and whether every row is LE or
    every row EQ (senses, see core._senses) are decided once, here.
    project(V) without rows projects every row.
    """

    def __init__(self, eq: np.ndarray, A: np.ndarray, b: np.ndarray):
        self.eq, self.A, self.b = eq, A, b
        norm2 = np.einsum("ij,ij->i", A, A)
        self.flat = norm2 == 0.0
        self.norm2 = np.where(self.flat, 1.0, norm2)
        tol = FEAS_TOL * (1.0 + np.abs(b))
        self.infeasible = self.flat & np.where(self.eq, np.abs(b) > tol, b > tol)
        self.any_flat, self.any_infeasible = bool(self.flat.any()), bool(self.infeasible.any())
        self.senses = _senses(eq)
        self._fields = (A, b, eq, self.flat, self.norm2, self.infeasible)

    def max_violation(self, z: np.ndarray) -> float:
        """The largest violation at z (see core._max_violation)."""
        return _max_violation(self.A @ z + self.b, self.senses)

    def max_violations(self, Z: np.ndarray) -> np.ndarray:
        """max_violation(z) of each row z of Z, by the same products on every point at once."""
        f = np.matmul(self.A, Z[..., None])[..., 0] + self.b
        return _max_violation(f, self.senses, axis=1)

    def project(self, V: np.ndarray, rows=None) -> np.ndarray:
        """Project V[k] onto the set of rows[k], for every k at once."""
        A, b, eq, flat, norm2, infeasible = _select(self._fields, rows)
        if self.any_infeasible and infeasible.any():
            raise InfeasibleConstraintError("affine row with q = 0 has an empty feasible set")
        f = np.einsum("ij,ij->i", V, A) + b
        s = np.maximum(f, 0.0) if self.senses is None else np.where(eq, f, np.maximum(f, 0.0))
        if self.any_flat:
            s[flat] = 0.0
        return V - (s / norm2)[:, None] * A


class _ConvexRows:
    """LE rows x'U diag(d) U'x + w'x + r <= 0, stacked to project as one block.

    Row k has U[k], orthonormal columns over the first U.shape[1]
    coordinates (zero columns with d = 1 pad a row of lower rank), d[k] >
    0, w = W[k] with a part w_perp = w - UU'w off span(U) (every CCP row has
    its slack) and r[k].  The projection of v onto a row's set is x(nu) =
    (y - UU'y) + U c, y = v - nu w and c = U'y / (1 + 2 d nu), at the root
    nu >= 0 of phi(nu) = f(x(nu)) (Parikh & Boyd 2014, "Proximal
    Algorithms", section 6).  phi is convex and decreases with slope at
    most -||w_perp||^2, and its root lies in a bracket known in closed form,
    so safeguarded Newton steps (clipped to the bracket) from its lower end
    approach the root from below (Moré & Sorensen 1983).  All rows step at
    once, each until its own step is below 1e-13 (1 + nu), so a row's result
    does not depend on the other rows.  A row feasible at v leaves v
    unchanged, as ConstraintProjector.project_ineq does.  With U = +-e_i
    every sum over U's columns has one term: a x_i^2 + w'x + r takes the
    closed form in x_i, bit for bit up to the sign of a zero.
    """

    def __init__(self, U: np.ndarray, d: np.ndarray, W: np.ndarray, r: np.ndarray):
        self.U, self.d, self.W, self.r = U, d, W, r
        nc = U.shape[1]
        self.b = np.einsum("kip,ki->kp", U, W[:, :nc])
        self.W_perp = W.copy()
        self.W_perp[:, :nc] -= np.einsum("kip,kp->ki", U, self.b)
        self.omega = np.einsum("ij,ij->i", self.W_perp, self.W_perp)
        self._fields = (U, d, self.b, self.omega, self.W_perp, r, W)

    def values(self, z: np.ndarray) -> np.ndarray:
        """Each row's f(z); of a stack of points z, one row of values per point."""
        uz = np.einsum("kip,...i->...kp", self.U, z[..., : self.U.shape[1]])
        return (self.d * uz**2).sum(axis=-1) + np.matmul(self.W, z[..., None])[..., 0] + self.r

    def max_violation(self, z: np.ndarray) -> float:
        """The largest violation at z (see core._max_violation)."""
        return _max_violation(self.values(z))

    def max_violations(self, Z: np.ndarray) -> np.ndarray:
        """max_violation(z) of each row z of Z, by the same products on every point at once."""
        return _max_violation(self.values(Z), axis=1)

    def project(self, V: np.ndarray, rows=None) -> np.ndarray:
        """Project V[k] onto the set of rows[k], for every k at once; V itself when no row moves."""
        U, d, b, omega, W_perp, r, W = _select(self._fields, rows)
        nc = U.shape[1]
        a = np.einsum("kip,ki->kp", U, V[:, :nc])  # U'v, as b is U'w
        rest = np.einsum("ij,ij->i", V, W_perp) + r  # w_perp'v + r
        f0 = ((d * a + b) * a).sum(axis=1) + rest
        moved = f0 > 0.0  # a row feasible at v keeps v
        if not moved.any():
            return V
        # phi(nu) = sum_j s2_j / (4 d_j t_j^2) + kappa - omega nu with t = 1 +
        # 2 d nu, so max(kappa, 0) / omega <= root <= f0 / omega
        s2 = (2.0 * d * a + b) ** 2
        kappa = rest - (b * b / (4.0 * d)).sum(axis=1)
        hi = np.maximum(f0, 0.0) / omega
        nu = np.clip(kappa / omega, 0.0, hi)
        active = moved.copy()
        for _ in range(SECULAR_STEP_MAX):
            if not active.any():
                break
            t = 1.0 + 2.0 * d * nu[:, None]
            c = (a - nu[:, None] * b) / t
            phi = ((d * c + b) * c).sum(axis=1) + rest - nu * omega
            new = np.clip(nu + phi / ((s2 / t**3).sum(axis=1) + omega), 0.0, hi)
            active &= np.abs(new - nu) > 1e-13 * (1.0 + nu)
            nu = np.where(active, new, nu)
        X = V - nu[:, None] * W
        Y = X[:, :nc]
        uy = np.einsum("kip,ki->kp", U, Y)
        c = uy / (1.0 + 2.0 * d * nu[:, None])
        X[:, :nc] = (Y - np.einsum("kip,kp->ki", U, uy)) + np.einsum("kip,kp->ki", U, c)
        return np.where(moved[:, None], X, V)


class _Rows:
    """The rows of an ADMM problem: stacked blocks, and general rows that project one at a time.

    blocks holds (rows, block) pairs, rows the ascending indices of the
    block's rows, which the block (_AffineRows or _ConvexRows) projects and
    measures all at once.  general maps every other row k to (constraint,
    its ConstraintProjector), and classes, when given, are the rows'
    _RowClasses, which assess() reads the general rows' values from.
    project() is ADMM's x-update, and assess() its assessment of a point
    and assess_stack() of many.  ADMM's rows of a problem are of(problem),
    which also holds the problem's default_rho as rho; improve_ccp builds
    the rows of its subproblem from two blocks.
    """

    def __init__(self, n: int, m: int, blocks, general: dict | None = None, classes=None, rho=None):
        self.n, self.m, self.rho = n, m, rho
        self.blocks = tuple((rows, block) for rows, block in blocks if rows.size)
        self.general = {} if general is None else general
        self.classes = classes
        self._projected = [(k, proj, c.sense is Sense.EQ) for k, (c, proj) in self.general.items()]

    @cached_property
    def _slot(self) -> dict:
        """Row index -> (block, row in that block), to project one row alone."""
        return {k: (block, j) for rows, block in self.blocks for j, k in enumerate(rows.tolist())}

    @classmethod
    def of(cls, problem: QcqpProblem) -> "_Rows":
        """ADMM's rows of problem: the affine rows as one block, every other row with its projector.

        The rows of one variable (boolean LS's x_i^2 = 1) are evaluated as
        the stack of the problem's _RowClasses, but still project one row at
        a time through their ConstraintProjector.
        """
        constraints, classes = problem.constraints, problem._row_classes
        A, b, eq = (field[classes.aff + 1] for field in (classes.all_q, classes.all_r, classes.all_eq))
        general = sorted(classes.one.tolist() + classes.gen.tolist())
        general = {k: (constraints[k], ConstraintProjector(constraints[k].form)) for k in general}
        blocks = [(classes.aff, _AffineRows(eq, A, b))] if classes.aff.size else []
        return cls(problem.n, problem.m, blocks, general, classes, default_rho(problem))

    def project(self, V: np.ndarray) -> np.ndarray:
        """Row k of V projected onto row k's set, for every row, into a new array."""
        X = np.empty_like(V)
        for rows, block in self.blocks:
            X[rows] = block.project(V[rows])
        for k, proj, eq in self._projected:
            X[k] = proj.project(V[k], eq).x
        return X

    def project_row(self, k: int, x: np.ndarray) -> np.ndarray:
        """x projected onto row k's set alone."""
        if k in self.general:
            c, proj = self.general[k]
            return proj.project(x, equality=c.sense is Sense.EQ).x
        block, j = self._slot[k]
        return block.project(x[None, :], [j])[0]

    def assess(self, objective: QuadraticForm, x: np.ndarray) -> Assessment:
        """assess() of the problem with these rows, reading each block's violations at once.

        The general rows are read from the classes' dense stack, whose first
        rows they are, and the rows of one variable from their stack.
        """
        v = 0.0 if self.classes is None else self.classes.max_violation(x, self.classes.gen.size)
        for _, block in self.blocks:
            v = max(v, block.max_violation(x))
        f = _value(objective, x)
        return Assessment(violation=v if math.isfinite(f) else math.inf, objective=f)

    def assess_stack(self, objective: QuadraticForm, Z: np.ndarray) -> list[Assessment]:
        """[assess(objective, z) for z in Z], bit for bit, from one stacked product per kind of row.

        The stacked matmul and vecdot call, for each point, the BLAS kernels
        that assess's P @ z and z @ y call.  Values that are not finite are
        computed quietly: they make the violation inf.
        """
        with np.errstate(invalid="ignore", over="ignore"):
            v = np.zeros(len(Z)) if self.classes is None else self.classes.max_violations(Z, self.classes.gen.size)
            for _, block in self.blocks:
                v = np.maximum(v, block.max_violations(Z))
            PZ = np.matmul(objective.dense_p, Z[..., None])[..., 0]
            f = np.vecdot(Z, PZ) + np.vecdot(objective.q_vec, Z) + objective.r
        return [
            Assessment(violation=vi if math.isfinite(fi) else math.inf, objective=fi)
            for vi, fi in zip(v.tolist(), f.tolist())
        ]


def default_rho(problem: QcqpProblem) -> float:
    m = max(problem.m, 1)
    return max(1.0, 1.1 * (-min_eig_bound(problem.objective.dense_p)) / m)


# ADMM's phase I ends once v(z) <= EPS_FEAS, and the best iterate counts
# violations up to EPS_FEAS as feasible
EPS_FEAS = 1e-6


def improve_admm(problem: QcqpProblem, x0, rho: float | None = None, *, _a0=None, **opts) -> ImproveReport:
    """Consensus ADMM with one copy x_i per constraint.

    Phase I drops the objective: z is the mean of x_i - u_i, so iterates are
    rho-independent; it ends once v(z) <= EPS_FEAS.  Phase II minimizes the
    augmented objective in z, one linear solve: a matvec with the inverse of
    P0 + m rho I, built from a numpy Cholesky factorization when phase II
    starts, or least squares when that matrix is not positive definite, and
    stops once the primal and dual residuals are below resid_tol (Boyd et
    al. 2011, section 3.3).  Phase I computes only what it reads: z, the
    projections, the duals and the violation of each iterate as it comes,
    which its switch reads, but neither residual.  Constraints enter
    only through the copies, so a box or a ball is posed as constraint
    rows.  Each x_i is projected onto its constraint.  The rows and the
    default rho (default_rho) are set up once per problem (_Rows.of, kept
    with the problem for every later call): the affine rows project as one
    stacked block, every other row, x_i^2 = 1 included, still one at a time
    through its ConstraintProjector, and the assessment reads the same
    classes.  Phase II's iterates are assessed as one stack after the loop.
    Iterates can cycle on nonconvex problems, so the report returns
    the best iterate ever seen under the lexicographic order, assessed again
    by assess() and never worse than x0.  Iterates that diverge can reach a
    point whose projection finds no KKT point (NumericalFailureError); the
    loop ends there, unconverged.

    Options (keywords of _admm): max_iter=500, two_phase=True,
    init_x/init_u (a warm start of the copies and the duals),
    record_iterates=False and resid_tol=1e-6.  Any other keyword raises
    TypeError.
    """
    rows = problem._admm_rows
    rep = _admm(problem.objective, rows, x0, rows.rho if rho is None else rho, **opts)
    return _reassessed(problem, x0, rep, _a0)


def _z_solver(A: np.ndarray):
    """b -> A^-1 b by the inverse from a Cholesky factorization, or by least squares when A is not PD."""
    try:
        Li = inv_chol(A)
    except np.linalg.LinAlgError:
        return lambda b: np.linalg.lstsq(A, b, rcond=None)[0]
    A_inv = Li.T @ Li
    return lambda b: A_inv @ b


def _admm(
    objective: QuadraticForm,
    rows: _Rows,
    x0,
    rho: float,
    max_iter: int = 500,
    two_phase: bool = True,
    init_x=None,
    init_u=None,
    record_iterates: bool = False,
    resid_tol: float = 1e-6,
) -> ImproveReport:
    """The iterations of improve_admm on rows already set up; the options are improve_admm's."""
    x0 = np.asarray(x0, dtype=float)
    n, m = rows.n, rows.m

    z = x0.copy()
    X = np.array(init_x, dtype=float) if init_x is not None else np.tile(x0, (m, 1))
    U = np.array(init_u, dtype=float) if init_u is not None else np.zeros((m, n))

    half_q0 = 0.5 * objective.q_vec
    solve = None  # phase II's z-update, set up when phase II starts

    def assess_z(x):
        return rows.assess(objective, x)

    def best_key(a: Assessment):
        # violations below EPS_FEAS count as feasible, so late near-feasible
        # iterates with better objectives win over early interior points
        return (a.violation if a.violation > EPS_FEAS else 0.0, a.objective)

    trace: list[tuple[float, float]] = []
    iterates = []
    phase1 = ran_phase1 = two_phase and m > 0
    # phase I's switch reads each iterate's violation, so its iterates are
    # assessed one at a time; phase II's are kept (each z is a new array)
    # and assessed as one stack after the loop, with x0 where no phase I runs
    phase2: list[np.ndarray] = []
    if phase1:
        a0 = az = assess_z(x0)  # az: the assessment of the current z
        best_x, best_a = x0.copy(), a0
    converged = False
    it = 0
    z_prev = z
    for it in range(1, max_iter + 1):
        if phase1 and az.violation <= EPS_FEAS:
            phase1 = False
        if phase1:
            z = np.add.reduce(X - U, axis=0) / m  # np.mean's sum and division
        else:
            # minimize z'Az + (q0 - 2 rho t)'z, t the sum of x_i - u_i
            solve = solve or _z_solver(objective.dense_p + m * rho * np.eye(n))
            z = solve(rho * (np.add.reduce(X - U, axis=0) if m > 0 else np.zeros(n)) - half_q0)
        try:
            X = rows.project(z + U)
        except NumericalFailureError:
            # iterates that diverge can reach a point no projection solves
            # for: stop there, unconverged, with the iterations before it
            z, it = z_prev, it - 1
            break
        gap = z - X
        U += gap
        if phase1:
            az = assess_z(z)
            trace.append(az.as_tuple())
            if best_key(az) < best_key(best_a):
                best_a, best_x = az, z
        else:
            phase2.append(z)
        if record_iterates:
            iterates.append((z.copy(), X.copy(), U.copy()))
        if phase1:  # phase I (m > 0) stops on feasibility alone: it reads no residual
            z_prev = z
            continue
        # both residuals: movement of z itself and consensus mismatch
        dz = z - z_prev
        dual_resid = math.sqrt(float(dz @ dz))
        z_prev = z
        scale_z = 1.0 + math.sqrt(float(z @ z))
        if dual_resid > resid_tol * scale_z:
            continue  # then max(resid, dual_resid) cannot pass either: resid is not computed
        # the norms as np.linalg.norm computes them: a sum of squares, then its root
        resid = float(np.sqrt(np.add.reduce(gap * gap, axis=1)).max()) if m > 0 else 0.0
        if max(resid, dual_resid) <= resid_tol * scale_z:  # with m = 0, on dual_resid alone
            converged = True
            break
    points = phase2 if ran_phase1 else [x0] + phase2
    if points:
        assessed = rows.assess_stack(objective, np.array(points))
        if not ran_phase1:
            a0, assessed = assessed[0], assessed[1:]
            best_x, best_a = x0.copy(), a0
        for z_k, a in zip(phase2, assessed):  # in iteration order, as phase I's
            trace.append(a.as_tuple())
            if best_key(a) < best_key(best_a):
                best_a, best_x = a, z_k
    if 0.0 < best_a.violation <= 10.0 * EPS_FEAS and m > 0:
        # cyclic projection polish: a near-feasible best iterate can lose the
        # exact lexicographic comparison to a feasible x0 on violation alone
        xp = best_x.copy()
        for _ in range(50):
            if assess_z(xp).violation <= 0.0:
                break
            for k in range(m):
                xp = rows.project_row(k, xp)
        ap = assess_z(xp)
        if ap.better_than(best_a):
            best_x, best_a = xp, ap
    # never worse than x0 under the exact lexicographic order
    if a0.better_than(best_a):
        best_x, best_a = x0.copy(), a0
    return ImproveReport(
        x=best_x,
        assessment=best_a,
        iterations=it,
        phase_trace=tuple(trace),
        converged=converged,
        method="admm",
        final_state=(z.copy(), X.copy(), U.copy()),
        iterates=tuple(iterates) if record_iterates else None,
    )


def _check_convex(objective: QuadraticForm, rows: _Rows) -> None:
    """Raise NotConvexError unless the objective and every row are convex.

    Affine rows are convex by their class, so only the general rows are
    checked: an EQ row is not convex, and an LE row is when the smallest
    eigenvalue its projector already holds (lam ascends) is not negative.
    """
    scale = 1.0 + np.linalg.norm(objective.dense_p)
    if min_eig_bound(objective.dense_p) < -1e-9 * scale:
        raise NotConvexError("objective is not convex")
    for k, (c, proj) in rows.general.items():
        if c.sense is Sense.EQ:
            raise NotConvexError(f"equality constraint {k} is not affine")
        if proj.lam[0] < -1e-9 * (1.0 + np.linalg.norm(c.form.dense_p)):
            raise NotConvexError(f"constraint {k} is not convex")


_CONVEX_OPTS = {"max_iter": 2000, "two_phase": False, "resid_tol": 1e-8}


def solve_convex(problem: QcqpProblem, x0, rho: float | None = None, **admm_opts) -> ImproveReport:
    """ADMM specialization for convex QCQPs; raises if the problem is not convex."""
    rows = problem._admm_rows
    _check_convex(problem.objective, rows)
    rep = _admm(problem.objective, rows, x0, rows.rho if rho is None else rho, **{**_CONVEX_OPTS, **admm_opts})
    return _reassessed(problem, x0, replace(rep, method="convex"))


# -- penalty convex-concave -------------------------------------------------

# improve_ccp splits through this table so that the benchmark's tracer can patch split_eigen
_SPLITTERS = {"eigen": split_eigen}


# CCP multiplies its penalty weight tau by TAU_GROWTH each iteration, up to TAU_MAX
TAU_MAX = 1e4
TAU_GROWTH = 2.0


def improve_ccp(
    problem: QcqpProblem,
    x0,
    tau0: float = 1.0,
    max_iter: int = 30,
    feas_tol: float = 1e-6,
    subsolver_opts: dict | None = None,
    *,
    _a0=None,
) -> ImproveReport:
    """Penalty convex-concave procedure.

    Every form is written as a difference of convex quadratics by
    split_eigen; equalities become two inequalities split separately.  Each
    iteration linearizes the concave parts at the current point, adds one
    slack per constraint row with penalty tau, solves the convex subproblem
    by ADMM (one phase, as in solve_convex, warm-started from the previous
    subsolve), and doubles tau up to TAU_MAX.  The convexified rows overestimate the true
    constraints, so a near-zero slack sum certifies feasibility.

    Options: tau0=1.0, max_iter=30, feas_tol=1e-6 and subsolver_opts,
    which sets the ADMM subsolve's max_iter (600) and resid_tol (1e-7) and
    nothing else.  Any other keyword, here or in subsolver_opts, raises
    TypeError.

    Only the linear terms and constants of the subproblem move with the
    current point.  Its row 2k is convexified row k with -s_k and row 2k+1
    is s_k >= 0: the slack rows and the rows with plus_k = 0 form one
    affine block, and every other row one convex block with U diag(d) U' =
    plus_k from split_eigen's eigenpairs, all set up once per call.  Each
    iteration rebuilds the two blocks from the new linear terms and
    constants, and updates tau and the ADMM step size rho with the
    Cholesky factor of P0 + m rho I.
    """
    x0 = np.asarray(x0, dtype=float)
    n, m, rc = problem.n, problem.m, problem._row_classes
    sp = _SPLITTERS["eigen"](rc.all_P)
    # convexified row k, x'(plus_k - minus_k)x + q_k'x + r_k <= 0, is constraint
    # src[k]; an EQ constraint gives two rows, the second with the sides swapped
    eq = rc.all_eq[1:]
    src = np.repeat(np.arange(m), np.where(eq, 2, 1))
    K = src.size
    flip = np.zeros(K, dtype=bool)
    flip[np.cumsum(np.where(eq, 2, 1)) - 1] = eq
    plus, minus = sp.plus[1:][src], sp.minus[1:][src]
    plus, minus = np.where(flip[:, None, None], minus, plus), np.where(flip[:, None, None], plus, minus)
    q = rc.all_q[1:][src]
    q_rows = np.where(flip[:, None], -q, q)
    r = rc.all_r[1:][src]
    r_rows = np.where(flip, -r, r)
    dim = n + K

    def convexified(x, L):
        # x' plus_k x + L_k' x for every row k, each rounded as x @ (plus_k @ x) + L_k @ x
        return np.vecdot(x, plus @ x) + np.vecdot(L, x)

    def linearized(xk):
        # linear terms q_k - 2 minus_k xk of the convexified rows, and xk' minus_k xk
        Mx = minus @ xk
        return q_rows - 2.0 * Mx, np.vecdot(xk, Mx)

    # subproblem rows in (x, s), Q and R their linear terms and constants;
    # every row has -1 on its slack, so no row's set is empty
    Q = np.zeros((2 * K, dim))
    Q[0::2, n:] = Q[1::2, n:] = -np.eye(K)
    R = np.zeros(2 * K)
    # plus_k = U diag(d) U' from its positive eigenpairs, kept in order and
    # zero-padded (d = 1) to the largest rank; rows with plus_k = 0 are affine
    w = sp.eigen.values[1:][src]
    w = np.where(flip[:, None], -w, w)
    pos = w > 0.0
    convex = np.flatnonzero(pos.any(axis=1))
    cvx = 2 * convex
    aff = np.flatnonzero(~np.isin(np.arange(2 * K), cvx))
    rank = int(pos.sum(axis=1).max(initial=0))
    order = np.argsort(~pos[convex], axis=1, kind="stable")[:, :rank]
    keep = np.take_along_axis(pos[convex], order, axis=1)
    V = sp.eigen.vectors[1:][src[convex]]
    U = np.where(keep[:, None, :], np.take_along_axis(V, order[:, None, :], axis=2), 0.0)
    d = np.where(keep, np.take_along_axis(w[convex], order, axis=1), 1.0)
    sp0_plus, sp0_minus = sp.plus[0], sp.minus[0]
    Pq = np.zeros((dim, dim))
    Pq[:n, :n] = sp0_plus
    sub_objective = QuadraticForm.from_dense(Pq)
    sub_opts = {"max_iter": 600, "resid_tol": 1e-7, **(subsolver_opts or {})}
    if set(sub_opts) != {"max_iter", "resid_tol"}:
        raise TypeError(f"subsolver_opts takes only max_iter and resid_tol, got {sorted(subsolver_opts)}")
    warm = None  # (X, U) from the previous subsolve; rows only shift with xk

    xk = x0.copy()
    tau = tau0
    best_x = x0.copy()
    a0 = best_a = assess(problem, x0) if _a0 is None else _a0
    trace: list[tuple[float, float]] = []
    converged = False
    prev_slack = math.inf
    it = 0
    for it in range(1, max_iter + 1):
        # objective: convex part + linearized concave part + tau * sum(s)
        qq = np.zeros(dim)
        qq[:n] = problem.objective.q_vec - 2.0 * (sp0_minus @ xk)
        qq[n:] = tau
        rr = problem.objective.r + float(xk @ (sp0_minus @ xk))
        if not (np.isfinite(qq).all() and math.isfinite(rr)):
            # no subproblem linearizes the objective at xk (a NaN coordinate,
            # or a square that overflows): stop with the iterations before it
            it -= 1
            break
        L, lin_r = linearized(xk)
        Q[0::2, :n], R[0::2] = L, r_rows + lin_r
        affine = _AffineRows(np.zeros(aff.size, dtype=bool), Q[aff], R[aff])
        sub = _Rows(dim, 2 * K, [(aff, affine), (cvx, _ConvexRows(U, d, Q[cvx], R[cvx]))])
        s_init = np.maximum(0.0, convexified(xk, L) + R[0::2]) + 1e-6
        # the slack weight tau dominates the subproblem objective as it grows,
        # so the subsolver step size tracks it
        rho = max(1.0, math.sqrt(tau))
        z_init = np.concatenate([xk, s_init])
        # U is the rho-scaled dual, so rescale it when rho moves with tau
        warm_start = {} if warm is None else {"init_x": warm[0], "init_u": warm[1] * (warm[2] / rho)}
        objective = QuadraticForm._of_symmetric(sub_objective.dense_p, qq, rr)
        rep = _admm(objective, sub, z_init, rho, two_phase=False, **sub_opts, **warm_start)
        warm = (rep.final_state[1], rep.final_state[2], rho)

        def penalized(xc):
            # exact subproblem value at xc with the slacks eliminated:
            # the optimal s_k is the positive part of the convexified row
            val = float(xc @ (sp0_plus @ xc)) + float(qq[:n] @ xc) + rr
            res = np.maximum(0.0, convexified(xc, L) + r_rows + lin_r)
            return val + tau * float(np.sum(res)), res

        # the subsolver's contract point can lag its actual limit (its last
        # iterate) when the limit is only near-feasible; compare both under
        # the true penalty
        cand, last = rep.x[:n], rep.final_state[0][:n]
        val_c, s_c = penalized(cand)
        if not np.array_equal(cand, last):
            val_l, s_l = penalized(last)
            if val_l < val_c:
                cand, s_c = last, s_l
        xk = np.asarray(cand, dtype=float).copy()
        s = s_c
        a = assess(problem, xk)
        trace.append(a.as_tuple())
        if a.better_than(best_a):
            best_a, best_x = a, xk.copy()
        slack = float(np.sum(s))
        if slack <= feas_tol and a.violation <= math.sqrt(feas_tol):
            converged = True
            break
        if tau >= TAU_MAX and abs(prev_slack - slack) <= 1e-9 * (1.0 + slack):
            break
        prev_slack = slack
        tau = min(TAU_GROWTH * tau, TAU_MAX)
    return _report(problem, x0, best_x, it, trace, converged, "ccp", a0, best_a)


# -- composition ------------------------------------------------------------

METHODS = {
    "sign": improve_round_sign,
    "balanced-sign": improve_round_balanced_sign,
    "scale": improve_scale_to_cover,
    "cd": improve_coordinate_descent,
    "admm": improve_admm,
    "ccp": improve_ccp,
}


def improve_sequence(problem: QcqpProblem, x0, methods, method_opts=None, *, _memo=None) -> ImproveReport:
    """Thread a point through an ordered list of improvement methods.

    Entries may be method names from METHODS or callables with the same
    signature.  method_opts maps an entry's name (a callable's __name__) to
    its keyword options; a key that names no entry raises TypeError.  The
    composition is itself an improvement method: the output is never worse
    than any intermediate point.  A method of METHODS is handed the
    assessment of its start point, so each point is assessed once.

    A method of METHODS runs once per distinct start point: the memo maps
    (method name, bytes of the start point) to the ImproveReport the method
    returned, and a point it has already improved gets that report instead
    of a second run.  The methods are deterministic, so the result is the
    same.  Callables are never memoized, and a method that raises stores
    nothing.  _memo, a dict, shares the memo between calls that pass the
    same problem and method_opts, as the candidates of one pipeline run do;
    by default each call has its own.
    """
    method_opts = {} if method_opts is None else method_opts
    if not isinstance(method_opts, dict):
        raise TypeError(f"method_opts must be a dict, got {type(method_opts).__name__}")
    methods = list(methods)
    names = [entry if isinstance(entry, str) else getattr(entry, "__name__", "custom") for entry in methods]
    if unused := set(method_opts) - set(names):
        raise TypeError(f"method_opts names no method of the sequence: {sorted(map(str, unused))}")
    memo = {} if _memo is None else _memo
    x = np.asarray(x0, dtype=float)
    a = a0 = assess(problem, x)  # a is assess() of x, None after a callable's step
    best_x, best_a, best_known = x.copy(), a0, a0
    trace: list[tuple[float, float]] = [a0.as_tuple()]
    iterations = 0
    converged = True
    for name, entry in zip(names, methods):
        opts = method_opts.get(name, {})
        if isinstance(entry, str):
            key = (entry, x.tobytes())
            if (rep := memo.get(key)) is None:
                rep = memo[key] = METHODS[entry](problem, x, _a0=a, **opts)
        else:
            rep = entry(problem, x, **opts)
        x = rep.x
        # a method of METHODS reports assess() of its point; a callable may not
        a = rep.assessment if isinstance(entry, str) else None
        iterations += rep.iterations
        trace.extend(rep.phase_trace)
        converged = converged and rep.converged
        if rep.assessment.better_than(best_a):
            best_a, best_x, best_known = rep.assessment, x.copy(), a
    label = "+".join(names) if names else "identity"
    return _report(problem, x0, best_x, iterations, trace, converged, label, a0, best_known)
