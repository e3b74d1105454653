"""Improvement methods: maps from a candidate point to a point that is never
lexicographically worse under (max violation, objective).

Contents: the closed-form rounders for special problem classes, two-phase
coordinate descent, a convex-QCQP solver, penalty convex-concave, and
two-phase consensus ADMM.  Every public method recomputes the assessment of
its output and falls back to the input point if it would otherwise return
something worse, so composition is always safe.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    Assessment,
    Constraint,
    QcqpProblem,
    QuadraticForm,
    Sense,
    _OneVariableRows,
    _value,
    assess,
    evaluate,
)
from .errors import InfeasibleConstraintError, NotConvexError, NotScalableError
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
from .split import split_cholesky_diff, split_eigen, split_shift


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


def _report(problem, x0, x, iterations, trace, converged, method) -> ImproveReport:
    """Assemble a report, enforcing the never-worse contract against x0."""
    a0 = assess(problem, x0)
    a = assess(problem, x)
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


def _reassessed(problem, x0, rep: ImproveReport) -> ImproveReport:
    """rep with its point checked as _report checks one: by assess(), and never worse than x0."""
    checked = _report(problem, x0, rep.x, rep.iterations, rep.phase_trace, rep.converged, rep.method)
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


def improve_round_sign(problem: QcqpProblem, x0) -> ImproveReport:
    z = round_sign(x0)
    return _report(problem, x0, z, 1, [assess(problem, z).as_tuple()], True, "sign")


def improve_round_balanced_sign(problem: QcqpProblem, x0) -> ImproveReport:
    z = round_balanced_sign(x0)
    return _report(problem, x0, z, 1, [assess(problem, z).as_tuple()], True, "balanced-sign")


def _covering_forms(problem: QcqpProblem):
    """Constraints of shape x'Mx >= r with M PSD, normalized to x'Px >= 1."""
    out = []
    for c in problem.constraints:
        if c.sense is not Sense.LE or c.form.r <= 0.0:
            continue
        if np.any(c.form.q_vec != 0.0):
            continue
        M = -c.form.dense_p
        if min_eig_bound(M) >= -1e-9 * (1.0 + np.linalg.norm(M)):
            out.append(M / c.form.r)
    return out


def improve_scale_to_cover(problem: QcqpProblem, x0) -> ImproveReport:
    forms = _covering_forms(problem)
    if not forms:
        return _report(problem, x0, x0, 0, [], True, "scale")
    try:
        z = scale_to_cover(x0, forms)
    except NotScalableError:
        return _report(problem, x0, x0, 0, [], False, "scale")
    return _report(problem, x0, z, 1, [assess(problem, z).as_tuple()], True, "scale")


# -- two-phase coordinate descent ------------------------------------------


class _CoordState:
    """Incrementally maintained values f_k(x) and gradientlike products P_k x.

    Row k = 0 is the objective, rows k >= 1 the constraints.  rows[j] lists
    the constraint rows whose support contains x_j; every other row is
    constant in x_j, so move(j, t) updates only the objective and rows[j].
    violated holds the constraint rows that a constant in x_j could not
    satisfy in phase II (|f| > EQ_TOL for EQ, f > EQ_TOL for LE): it is
    rebuilt by refresh(), which evaluates every row exactly (the rows of one
    variable as the problem's stacked block), and updated by move().
    """

    def __init__(self, problem: QcqpProblem, x0):
        self.block = problem._one_variable_rows
        self.forms = [problem.objective] + [c.form for c in problem.constraints]
        self.senses = [None] + [c.sense for c in problem.constraints]
        self.P = [f.dense_p for f in self.forms]
        self.qv = [f.q_vec for f in self.forms]
        self.rows: list[list[int]] = [[] for _ in range(problem.n)]
        for k in range(1, len(self.forms)):
            for j in self.forms[k].support.tolist():
                self.rows[j].append(k)
        self.x = np.asarray(x0, dtype=float).copy()
        self.refresh()

    def refresh(self):
        self.g = [P @ self.x for P in self.P]
        known = dict(zip((self.block.rows + 1).tolist(), self.block.values(self.x).tolist()))
        self.fval = [known[k] if k in known else evaluate(f, self.x) for k, f in enumerate(self.forms)]
        self.violated = {k for k in range(1, len(self.forms)) if self._is_violated(k)}

    def _is_violated(self, k: int) -> bool:
        # written as "not within" so that a NaN value counts as violated
        f = self.fval[k]
        return not ((abs(f) if self.senses[k] is Sense.EQ else f) <= EQ_TOL)

    def coeffs(self, k: int, j: int):
        """(p, q, c) of f_k as a quadratic in x_j with the rest fixed."""
        p = self.P[k][j, j]
        ql = 2.0 * (self.g[k][j] - p * self.x[j]) + self.qv[k][j]
        c = self.fval[k] - p * self.x[j] ** 2 - ql * self.x[j]
        return p, ql, c

    def move(self, j: int, t: float):
        if t == self.x[j]:
            return
        d = t - self.x[j]
        for k in [0] + self.rows[j]:
            p, ql, c = self.coeffs(k, j)
            self.fval[k] = p * t * t + ql * t + c
            self.g[k] += d * self.P[k][:, j]
        for k in self.rows[j]:
            if self._is_violated(k):
                self.violated.add(k)
            else:
                self.violated.discard(k)
        self.x[j] = t

    def violation(self) -> float:
        v = 0.0
        for k in range(1, len(self.forms)):
            f = self.fval[k]
            v = max(v, abs(f) if self.senses[k] is Sense.EQ else max(f, 0.0))
        return v

    def objective(self) -> float:
        return self.fval[0]


def _phase1_set(rows, s: float) -> IntervalSet:
    """Feasible x_j values for max restricted violation <= s."""
    S = IntervalSet.full()
    for p, q, c, sense in rows:
        S = intersect(S, constraint_solution_set(p, q, c - s))
        if S.is_empty:
            return S
        if sense is Sense.EQ:
            S = intersect(S, constraint_solution_set(-p, -q, -c - s))
            if S.is_empty:
                return S
    return S


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
    for p, q, c, sense in rows:
        if sense is Sense.EQ:
            S = intersect(S, _equality_root_set(p, q, c))
        else:
            S = intersect(S, constraint_solution_set(p, q, c))
        if S.is_empty:
            return S
    return S


# phase I of cd: the bisection on the restricted violation s stops at this
# width, and a sweep that lowers the violation by less than STALL_TOL stalls
BISECTION_TOL = 1e-9
STALL_TOL = 1e-7
# phase II of cd counts a row with |f| <= EQ_TOL (EQ) or f <= EQ_TOL (LE) as satisfied
EQ_TOL = 1e-8


def improve_coordinate_descent(problem: QcqpProblem, x0, max_sweeps: int = 100) -> ImproveReport:
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
        if v_before <= 0.0:
            break
        for j in range(n):
            # rows not involving x_j are constants the coordinate cannot fix;
            # minimize the worst violation among the rows it can influence
            rows = [
                st.coeffs(k, j) + (st.senses[k],)
                for k in st.rows[j]
                if st.P[k][j, j] != 0.0 or st.g[k][j] != 0.0 or st.qv[k][j] != 0.0
            ]
            if not rows:
                continue
            S0 = _phase1_set(rows, 0.0)
            if not S0.is_empty:
                S = S0
            else:
                t = st.x[j]
                hi = 0.0
                for p, q, c, sense in rows:
                    f = p * t * t + q * t + c
                    hi = max(hi, abs(f) if sense is Sense.EQ else max(f, 0.0))
                lo = 0.0
                S = _phase1_set(rows, hi)
                if S.is_empty:
                    continue  # numerical guard; current x_j attains hi
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
        sweeps += 1
        v_after = st.violation()
        trace.append((v_after, st.objective()))
        if v_after <= 0.0:
            phase1 = False
        elif v_before - v_after < STALL_TOL:
            # stalled without reaching feasibility
            return _report(problem, x0, st.x, sweeps, trace, False, "cd")
    st.refresh()
    while sweeps < max_sweeps:
        improved = False
        for j in range(n):
            if st.violated and not st.violated.issubset(st.rows[j]):
                continue
            rows = [st.coeffs(k, j) + (st.senses[k],) for k in st.rows[j]]
            S = _phase2_set(rows)
            if S.is_empty:
                continue
            p0, q0, c0 = st.coeffs(0, j)
            res = minimize_over_set(p0, q0, c0, S)
            if res.status is not OneVarStatus.OPTIMAL:
                continue
            if res.value < st.fval[0] - 1e-12 * (1.0 + abs(st.fval[0])):
                st.move(j, res.x)
                improved = True
        sweeps += 1
        trace.append((st.violation(), st.objective()))
        if not improved:
            converged = True
            break
    return _report(problem, x0, st.x, sweeps, trace, converged, "cd")


# -- consensus ADMM ---------------------------------------------------------


class _StackedRows:
    """Rows of one class stacked as arrays: their linear terms (one row each) and constants.

    with_linear() gives the same rows with other linear terms and constants;
    a subclass keeps its curvature and senses, and its _set(A, b) stores the
    terms and what depends on them.
    """

    def __init__(self, constraints, n: int):
        self._set(
            np.array([c.form.q_vec for c in constraints]).reshape(len(constraints), n),
            np.array([c.form.r for c in constraints], dtype=float),
        )

    def with_linear(self, A: np.ndarray, b: np.ndarray):
        """The same rows with linear terms A and constants b."""
        new = copy.copy(self)
        new._set(A, b)
        return new


class _AffineRows(_StackedRows):
    """The affine rows q'x + r (= or <=) 0 of a problem, stacked to project as one block.

    project(V) moves row i of V onto row i's set by the formula that
    ConstraintProjector uses for one affine row: x = v - (s / ||q||^2) q with
    s = f(v) on EQ rows and max(f(v), 0) on LE rows.  A row with q = 0 leaves
    v unchanged, and raises InfeasibleConstraintError where ConstraintProjector
    does: when r is off the row's set by more than FEAS_TOL * (1 + |r|).
    """

    def __init__(self, constraints, n: int):
        self.eq = np.array([c.sense is Sense.EQ for c in constraints], dtype=bool)
        super().__init__(constraints, n)

    def _set(self, A: np.ndarray, b: np.ndarray) -> None:
        self.A, self.b = A, b
        norm2 = np.einsum("ij,ij->i", A, A)
        self.flat = norm2 == 0.0
        self.norm2 = np.where(self.flat, 1.0, norm2)
        tol = FEAS_TOL * (1.0 + np.abs(b))
        self.infeasible = self.flat & np.where(self.eq, np.abs(b) > tol, b > tol)

    def violations(self, z: np.ndarray) -> np.ndarray:
        """Each row's violation at one point z; inf where f(z) is not finite."""
        f = self.A @ z + self.b
        v = np.where(self.eq, np.abs(f), np.maximum(f, 0.0))
        return np.where(np.isfinite(f), v, math.inf)

    def project(self, V: np.ndarray, rows=slice(None)) -> np.ndarray:
        """Project V[k] onto the set of rows[k], for every k at once."""
        if self.infeasible[rows].any():
            raise InfeasibleConstraintError("affine row with q = 0 has an empty feasible set")
        A = self.A[rows]
        f = np.einsum("ij,ij->i", V, A) + self.b[rows]
        s = np.where(self.eq[rows], f, np.maximum(f, 0.0))
        s[self.flat[rows]] = 0.0
        return V - (s / self.norm2[rows])[:, None] * A


def _curved_coordinate(c: Constraint) -> int | None:
    """i when c is an LE row a x_i^2 + w'x + r <= 0 with a > 0 and w nonzero off x_i, else None."""
    P = c.form.dense_p
    if c.sense is not Sense.LE or np.count_nonzero(P) != 1:
        return None
    # P is symmetric, so its one nonzero entry lies on the diagonal
    i = int(np.argmax(np.diag(P)))
    return i if P[i, i] > 0.0 and c.form.support.size > 1 else None


class _CurvedRows(_StackedRows):
    """LE rows a x_i^2 + w'x + r <= 0, a > 0, w nonzero off x_i, stacked to project as one block.

    The projection of v onto a row's set is x(nu) with x_i = (v_i - nu w_i) /
    (1 + 2 a nu) and x_j = v_j - nu w_j elsewhere, at the root nu >= 0 of
    phi(nu) = f(x(nu)) (Parikh & Boyd 2014, "Proximal Algorithms", section 6).
    phi is convex and decreases with slope at most -omega, omega the sum of
    w_j^2 over j != i, and its root lies in a bracket known in closed form,
    so safeguarded Newton steps (clipped to the bracket) from its lower end
    approach the root from below (Moré & Sorensen 1983).  All rows step at
    once, each until its own step is below 1e-13 (1 + nu), so a row's result
    does not depend on the other rows in the block.  A row feasible at v
    leaves v unchanged, as ConstraintProjector.project_ineq does.
    """

    def __init__(self, constraints, n: int):
        self.i = np.array([_curved_coordinate(c) for c in constraints], dtype=int)
        self.a = np.array([c.form.dense_p[i, i] for c, i in zip(constraints, self.i)], dtype=float)
        super().__init__(constraints, n)

    def _set(self, W: np.ndarray, r: np.ndarray) -> None:
        self.W, self.r = W, r
        k = np.arange(r.size)
        self.wi = W[k, self.i]
        self.W_off = W.copy()  # w with its curved coordinate zeroed
        self.W_off[k, self.i] = 0.0
        # > 0 as long as every row keeps a term off x_i, which with_linear's callers ensure
        self.omega = np.einsum("ij,ij->i", self.W_off, self.W_off)

    def violations(self, z: np.ndarray) -> np.ndarray:
        """Each row's violation at one point z; inf where f(z) is not finite."""
        f = self.a * z[self.i] ** 2 + self.W @ z + self.r
        return np.where(np.isfinite(f), np.maximum(f, 0.0), math.inf)

    def project(self, V: np.ndarray, rows=slice(None)) -> np.ndarray:
        """Project V[k] onto the set of rows[k], for every k at once."""
        i, a, wi, omega = self.i[rows], self.a[rows], self.wi[rows], self.omega[rows]
        k = np.arange(V.shape[0])
        vi = V[k, i]
        rest = np.einsum("ij,ij->i", V, self.W_off[rows]) + self.r[rows]  # f(v) - a v_i^2 - w_i v_i
        f0 = (a * vi + wi) * vi + rest
        # phi(nu) = s2 / (4a t^2) + kappa - omega nu with t = 1 + 2 a nu, so
        # max(kappa, 0) / omega <= root <= f0 / omega
        s2 = (2.0 * a * vi + wi) ** 2
        kappa = rest - wi * wi / (4.0 * a)
        hi = np.maximum(f0, 0.0) / omega  # 0 on rows feasible at v, which keep nu = 0
        nu = np.clip(kappa / omega, 0.0, hi)
        active = f0 > 0.0
        for _ in range(SECULAR_STEP_MAX):
            if not active.any():
                break
            t = 1.0 + 2.0 * a * nu
            xi = (vi - nu * wi) / t
            phi = (a * xi + wi) * xi + rest - nu * omega
            new = np.clip(nu + phi / (s2 / t**3 + omega), 0.0, hi)
            active &= np.abs(new - nu) > 1e-13 * (1.0 + nu)
            nu = np.where(active, new, nu)
        X = V - nu[:, None] * self.W[rows]
        X[k, i] = (vi - nu * wi) / (1.0 + 2.0 * a * nu)
        return X


class _Rows:
    """The rows of an ADMM problem, each classified once into one of three stacked classes.

    Affine rows go to _AffineRows, LE rows with one curved coordinate to
    _CurvedRows, and every other row is a general row with its own
    ConstraintProjector.  project() is ADMM's x-update and assess() its
    assessment of a point; both read the classes' arrays.  with_linear()
    gives the same rows with new linear terms and constants: the step that
    CCP takes from one convex subproblem to the next.
    """

    def __init__(self, constraints, n: int):
        self.n, self.m = n, len(constraints)
        coords = [None if c.form.is_affine else _curved_coordinate(c) for c in constraints]
        self.aff = np.array([k for k, c in enumerate(constraints) if c.form.is_affine], dtype=int)
        self.cur = np.array([k for k, i in enumerate(coords) if i is not None], dtype=int)
        self.affine = _AffineRows([constraints[k] for k in self.aff], n)
        self.curved = _CurvedRows([constraints[k] for k in self.cur], n)
        self.general = {
            k: (c, ConstraintProjector(c.form))
            for k, c in enumerate(constraints)
            if not c.form.is_affine and coords[k] is None
        }
        self._general_rows = _OneVariableRows([c for c, _ in self.general.values()])
        # constraint index -> (class, row in that class), to project one row alone
        self._slot = {k: ("affine", j) for j, k in enumerate(self.aff.tolist())}
        self._slot.update({k: ("curved", j) for j, k in enumerate(self.cur.tolist())})

    def with_linear(self, Q: np.ndarray, R: np.ndarray) -> "_Rows":
        """The same rows with linear terms Q[k] and constants R[k].

        A general row keeps its projector when its terms did not move, and
        otherwise derives one from it: the row's curvature, and so its
        eigenbasis, is fixed.
        """
        new = copy.copy(self)
        new.affine = self.affine.with_linear(Q[self.aff], R[self.aff])
        new.curved = self.curved.with_linear(Q[self.cur], R[self.cur])
        new.general = {}
        for k, (c, proj) in self.general.items():
            if R[k] != c.form.r or not np.array_equal(Q[k], c.form.q_vec):
                c = Constraint(QuadraticForm._of_symmetric(c.form.dense_p, Q[k], R[k]), c.sense)
                proj = proj._with_linear(c.form)
            new.general[k] = (c, proj)
        new._general_rows = _OneVariableRows([c for c, _ in new.general.values()])
        return new

    def project(self, V: np.ndarray) -> np.ndarray:
        """Row k of V projected onto row k's set, for every row."""
        X = np.empty_like(V)
        if self.aff.size:
            X[self.aff] = self.affine.project(V[self.aff])
        if self.cur.size:
            X[self.cur] = self.curved.project(V[self.cur])
        for k, (c, proj) in self.general.items():
            X[k] = proj.project(V[k], equality=c.sense is Sense.EQ).x
        return X

    def project_row(self, k: int, x: np.ndarray) -> np.ndarray:
        """x projected onto row k's set alone."""
        if k in self.general:
            c, proj = self.general[k]
            return proj.project(x, equality=c.sense is Sense.EQ).x
        name, j = self._slot[k]
        return getattr(self, name).project(x[None, :], [j])[0]

    def assess(self, objective: QuadraticForm, x: np.ndarray) -> Assessment:
        """assess() of the problem with these rows, reading each class's violations at once.

        The general rows of one variable (boolean LS's x_i^2 = 1) are one
        stacked block too, for evaluation only: they still project one row at
        a time through their ConstraintProjector.
        """
        v = self._general_rows.max_violation(x)
        for rows, block in ((self.aff, self.affine), (self.cur, self.curved)):
            if rows.size:
                v = max(v, float(np.max(block.violations(x))))
        f = _value(objective, x)
        return Assessment(violation=v if math.isfinite(f) else math.inf, objective=f)


def default_rho(problem: QcqpProblem) -> float:
    m = max(problem.m, 1)
    return max(1.0, 1.1 * (-min_eig_bound(problem.objective.dense_p)) / m)


# ADMM's phase I ends once v(z) <= EPS_FEAS, and the best iterate counts
# violations up to EPS_FEAS as feasible
EPS_FEAS = 1e-6


def improve_admm(problem: QcqpProblem, x0, rho: float | None = None, **opts) -> ImproveReport:
    """Consensus ADMM with one copy x_i per constraint.

    Phase I drops the objective: z is the mean of x_i - u_i, so iterates are
    rho-independent; it ends once v(z) <= EPS_FEAS.  Phase II minimizes the
    augmented objective in z, one linear solve: a matvec with the inverse of
    P0 + m rho I, built once from a numpy Cholesky factorization, or least
    squares when that matrix is not positive definite.  Constraints enter
    only through the copies, so a box or a ball is posed as constraint
    rows.  Each x_i is projected onto its constraint.  The rows are set
    up once (_Rows): the affine rows and the LE rows with one curved
    coordinate each project as one stacked block, every other row through
    its ConstraintProjector, and the per-iteration assessment reads the same
    classes.  Iterates can cycle on nonconvex problems, so the report returns
    the best iterate ever seen under the lexicographic order, assessed again
    by assess() and never worse than x0.

    Options (keywords of _admm): max_iter=500, two_phase=True,
    init_z/init_x/init_u (a warm start), record_iterates=False and
    resid_tol=1e-6.  Any other keyword raises TypeError.
    """
    rho = default_rho(problem) if rho is None else rho
    rep = _admm(problem.objective, _Rows(problem.constraints, problem.n), x0, rho, **opts)
    return _reassessed(problem, x0, rep)


def _admm(
    objective: QuadraticForm,
    rows: _Rows,
    x0,
    rho: float,
    max_iter: int = 500,
    two_phase: bool = True,
    init_z=None,
    init_x=None,
    init_u=None,
    record_iterates: bool = False,
    resid_tol: float = 1e-6,
) -> ImproveReport:
    """The iterations of improve_admm on rows already set up; the options are improve_admm's."""
    x0 = np.asarray(x0, dtype=float)
    n, m = rows.n, rows.m

    z = np.asarray(init_z, dtype=float).copy() if init_z is not None else x0.copy()
    X = (
        np.array([np.asarray(v, dtype=float) for v in init_x])
        if init_x is not None
        else np.tile(x0, (m, 1))
    )
    U = (
        np.array([np.asarray(v, dtype=float) for v in init_u])
        if init_u is not None
        else np.zeros((m, n))
    )

    P0 = objective.dense_p
    q0 = objective.q_vec
    A = P0 + m * rho * np.eye(n)
    try:
        Li = inv_chol(A)
        A_inv = Li.T @ Li
    except np.linalg.LinAlgError:  # A not PD: phase II uses least squares
        A_inv = None

    def assess_z(x):
        return rows.assess(objective, x)

    def best_key(a: Assessment):
        # violations below EPS_FEAS count as feasible, so late near-feasible
        # iterates with better objectives win over early interior points
        return (a.violation if a.violation > EPS_FEAS else 0.0, a.objective)

    a0 = assess_z(x0)
    best_x, best_a = x0.copy(), a0
    trace: list[tuple[float, float]] = []
    iterates = []
    phase1 = two_phase and m > 0
    converged = False
    it = 0
    z_prev = z.copy()
    az = a0 if init_z is None else None  # assessment of the current z, once known
    for it in range(1, max_iter + 1):
        if phase1:
            if az is None:
                az = assess_z(z)
            if az.violation <= EPS_FEAS:
                phase1 = False
        if phase1:
            z = np.mean(X - U, axis=0)
        else:
            # minimize z'Az + (q0 - 2 rho t)'z, t the sum of x_i - u_i
            b = rho * (np.sum(X - U, axis=0) if m > 0 else np.zeros(n)) - 0.5 * q0
            z = A_inv @ b if A_inv is not None else np.linalg.lstsq(A, b, rcond=None)[0]
        X = rows.project(z + U)
        gap = z - X
        U += gap
        az = assess_z(z)
        trace.append(az.as_tuple())
        if best_key(az) < best_key(best_a):
            best_a, best_x = az, z.copy()
        if record_iterates:
            iterates.append((z.copy(), X.copy(), U.copy()))
        resid = float(np.max(np.linalg.norm(gap, axis=1))) if m > 0 else 0.0
        # both residuals: consensus mismatch and movement of z itself
        dual_resid = float(np.linalg.norm(z - z_prev))
        z_prev = z.copy()
        scale_z = 1.0 + float(np.linalg.norm(z))
        if not phase1 and max(resid, dual_resid) <= resid_tol * scale_z:
            converged = True
            break
        if m == 0 and dual_resid <= resid_tol * scale_z:
            converged = True
            break
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

    Affine rows and rows with one curved coordinate (a > 0) are convex by
    their class, so only the general rows are checked: an EQ row is not
    convex, and an LE row is when the smallest eigenvalue its projector
    already holds (lam ascends) is not negative.
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
    rows = _Rows(problem.constraints, problem.n)
    _check_convex(problem.objective, rows)
    rho = default_rho(problem) if rho is None else rho
    rep = _admm(problem.objective, rows, x0, rho, **{**_CONVEX_OPTS, **admm_opts})
    return _reassessed(problem, x0, replace(rep, method="convex"))


# -- penalty convex-concave -------------------------------------------------

_SPLITTERS = {
    "eigen": split_eigen,
    "shift": split_shift,
    "cholesky": split_cholesky_diff,
}


# CCP multiplies its penalty weight tau by TAU_GROWTH each iteration, up to TAU_MAX
TAU_MAX = 1e4
TAU_GROWTH = 2.0


def improve_ccp(
    problem: QcqpProblem,
    x0,
    tau0: float = 1.0,
    max_iter: int = 30,
    split_method: str = "eigen",
    feas_tol: float = 1e-6,
    subsolver_opts: dict | None = None,
) -> ImproveReport:
    """Penalty convex-concave procedure.

    Every form is written as a difference of convex quadratics; equalities
    become two inequalities split separately.  Each iteration linearizes the
    concave parts at the current point, adds one slack per constraint row
    with penalty tau, solves the convex subproblem by ADMM (one phase, as
    in solve_convex, warm-started from the previous subsolve), and doubles
    tau up to TAU_MAX.  The convexified rows overestimate the true
    constraints, so a near-zero slack sum certifies feasibility.

    Options: tau0=1.0, max_iter=30, split_method="eigen" (a key of
    _SPLITTERS), feas_tol=1e-6 and subsolver_opts, which sets the ADMM
    subsolve's max_iter (600) and resid_tol (1e-7) and nothing else.  Any
    other keyword, here or in subsolver_opts, raises TypeError.

    Only the linear terms and constants of the subproblem move with the
    current point, so it is set up once per call: the fixed curvature, the
    slack rows s_k >= 0, the row classes of _Rows with the projectors of
    the rows that have no concave part, and the convexity check.  Each
    iteration then updates the linear terms and constants, tau, and the
    ADMM step size rho with the Cholesky factor of P0 + m rho I.
    """
    splitter = _SPLITTERS[split_method]
    x0 = np.asarray(x0, dtype=float)
    n = problem.n
    sp0 = splitter(problem.objective.dense_p)
    rows = []  # (plus, minus, q, r) meaning x'(plus - minus)x + q'x + r <= 0
    for c in problem.constraints:
        sp = splitter(c.form.dense_p)
        rows.append((sp.plus, sp.minus, c.form.q_vec, c.form.r))
        if c.sense is Sense.EQ:
            rows.append((sp.minus, sp.plus, -c.form.q_vec, -c.form.r))
    K = len(rows)
    dim = n + K
    r_rows = np.array([r for _, _, _, r in rows], dtype=float)

    def convexified(x, L):
        # x' plus_k x + L_k' x for every row k; one dot product per row, as a
        # stacked product would round differently
        return np.array([float(x @ (p @ x)) + float(l @ x) for (p, _, _, _), l in zip(rows, L)])

    def linearized(xk):
        # linear terms q_k - 2 minus_k xk of the convexified rows, and xk' minus_k xk
        L = np.array([q - 2.0 * (minus @ xk) for _, minus, q, _ in rows]).reshape(K, n)
        return L, np.array([float(xk @ (minus @ xk)) for _, minus, _, _ in rows])

    # subproblem rows in (x, s): row 2k is convexified row k with -s_k, row
    # 2k+1 is s_k >= 0; Q and R hold their linear terms and constants
    Q = np.zeros((2 * K, dim))
    Q[0::2, n:] = Q[1::2, n:] = -np.eye(K)
    R = np.zeros(2 * K)
    L, lin_r = linearized(x0)
    Q[0::2, :n], R[0::2] = L, r_rows + lin_r
    sub_constraints = []
    for k, (plus, _, _, _) in enumerate(rows):
        Pk = np.zeros((dim, dim))
        Pk[:n, :n] = plus
        row = QuadraticForm.from_dense(Pk, Q[2 * k], R[2 * k])
        slack = QuadraticForm.create(dim, (), Q[2 * k + 1], 0.0)
        sub_constraints += [Constraint(row, Sense.LE), Constraint(slack, Sense.LE)]
    Pq = np.zeros((dim, dim))
    Pq[:n, :n] = sp0.plus
    sub_objective = QuadraticForm.from_dense(Pq)
    sub_rows = _Rows(sub_constraints, dim)
    _check_convex(sub_objective, sub_rows)
    del sub_constraints  # the dense forms of affine and curved rows are not needed again
    sub_opts = {"max_iter": 600, "resid_tol": 1e-7, **(subsolver_opts or {})}
    if set(sub_opts) != {"max_iter", "resid_tol"}:
        raise TypeError(f"subsolver_opts takes only max_iter and resid_tol, got {sorted(subsolver_opts)}")
    warm = None  # (X, U) from the previous subsolve; rows only shift with xk

    xk = x0.copy()
    tau = tau0
    best_x = x0.copy()
    best_a = assess(problem, x0)
    trace: list[tuple[float, float]] = []
    converged = False
    prev_slack = math.inf
    it = 0
    for it in range(1, max_iter + 1):
        # objective: convex part + linearized concave part + tau * sum(s)
        qq = np.zeros(dim)
        qq[:n] = problem.objective.q_vec - 2.0 * (sp0.minus @ xk)
        qq[n:] = tau
        rr = problem.objective.r + float(xk @ (sp0.minus @ xk))
        L, lin_r = linearized(xk)
        Q[0::2, :n], R[0::2] = L, r_rows + lin_r
        sub = sub_rows.with_linear(Q, R)
        s_init = np.maximum(0.0, convexified(xk, L) + R[0::2]) + 1e-6
        # the slack weight tau dominates the subproblem objective as it grows,
        # so the subsolver step size tracks it
        rho = max(1.0, math.sqrt(tau))
        z_init = np.concatenate([xk, s_init])
        # U is the rho-scaled dual, so rescale it when rho moves with tau
        warm_start = {} if warm is None else {"init_x": warm[0], "init_u": warm[1] * (warm[2] / rho)}
        objective = QuadraticForm._of_symmetric(sub_objective.dense_p, qq, rr)
        try:
            rep = _admm(objective, sub, z_init, rho, two_phase=False, **sub_opts, **warm_start)
        except InfeasibleConstraintError:
            # every subproblem row has its own slack, so no row's set is
            # empty; a projector finds one empty only when rounding has
            # swamped the row (a point near 1e31 makes its constant ~1e64),
            # and the iterations stop at the best point so far
            break
        warm = (rep.final_state[1], rep.final_state[2], rho)

        def penalized(xc):
            # exact subproblem value at xc with the slacks eliminated:
            # the optimal s_k is the positive part of the convexified row
            val = float(xc @ (sp0.plus @ xc)) + float(qq[:n] @ xc) + rr
            res = np.maximum(0.0, convexified(xc, L) + r_rows + lin_r)
            return val + tau * float(np.sum(res)), res

        # the subsolver's contract point can lag its actual limit (its last
        # iterate) when the limit is only near-feasible; compare both under
        # the true penalty
        cand, last = rep.x[:n], rep.final_state[0][:n]
        val_c, s_c = penalized(cand)
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
    return _report(problem, x0, best_x, it, trace, converged, "ccp")


# -- composition ------------------------------------------------------------

METHODS = {
    "sign": improve_round_sign,
    "balanced-sign": improve_round_balanced_sign,
    "scale": improve_scale_to_cover,
    "cd": improve_coordinate_descent,
    "admm": improve_admm,
    "ccp": improve_ccp,
}


def improve_sequence(problem: QcqpProblem, x0, methods, method_opts=None) -> ImproveReport:
    """Thread a point through an ordered list of improvement methods.

    Entries may be method names from METHODS or callables with the same
    signature.  The composition is itself an improvement method: the output
    is never worse than any intermediate point.
    """
    method_opts = method_opts or {}
    x = np.asarray(x0, dtype=float)
    best_x = x.copy()
    best_a = assess(problem, x)
    trace: list[tuple[float, float]] = [best_a.as_tuple()]
    iterations = 0
    converged = True
    names = []
    for entry in methods:
        fn = METHODS[entry] if isinstance(entry, str) else entry
        name = entry if isinstance(entry, str) else getattr(entry, "__name__", "custom")
        names.append(name)
        opts = method_opts.get(name, {}) if isinstance(method_opts, dict) else {}
        rep = fn(problem, x, **opts)
        x = rep.x
        iterations += rep.iterations
        trace.extend(rep.phase_trace)
        converged = converged and rep.converged
        if rep.assessment.better_than(best_a):
            best_a, best_x = rep.assessment, x.copy()
    label = "+".join(names) if names else "identity"
    return _report(problem, x0, best_x, iterations, trace, converged, label)
