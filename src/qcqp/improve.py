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

import numpy as np

from .core import (
    Assessment,
    Constraint,
    QcqpProblem,
    QuadraticForm,
    Sense,
    assess,
    evaluate,
)
from .errors import NotConvexError, NotScalableError
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
from .oneconstraint import ConstraintProjector, OneConstraintStatus, solve_one_constraint
from .split import split_cholesky_diff, split_eigen, split_shift


@dataclass(frozen=True)
class ImproveReport:
    x: np.ndarray
    assessment: Assessment
    iterations: int
    phase_trace: tuple[tuple[float, float], ...]
    converged: bool
    method: str
    last_x: np.ndarray | None = None  # raw final iterate, for diagnostics
    # ADMM only: the final (z, X, U), which warm-starts CCP's next subsolve,
    # and every iteration's (z, X, U) when record_iterates is set
    final_state: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
    iterates: tuple | None = None


def _report(problem, x0, x, iterations, trace, converged, method, last_x=None) -> ImproveReport:
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
        last_x=last_x,
    )


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


def improve_round_sign(problem: QcqpProblem, x0, **_) -> ImproveReport:
    z = round_sign(x0)
    return _report(problem, x0, z, 1, [assess(problem, z).as_tuple()], True, "sign")


def improve_round_balanced_sign(problem: QcqpProblem, x0, **_) -> ImproveReport:
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


def improve_scale_to_cover(problem: QcqpProblem, x0, **_) -> ImproveReport:
    forms = _covering_forms(problem)
    if not forms:
        return _report(problem, x0, x0, 0, [], True, "scale")
    try:
        z = scale_to_cover(x0, [QuadraticForm.from_dense(M) for M in forms])
    except NotScalableError:
        return _report(problem, x0, x0, 0, [], False, "scale")
    return _report(problem, x0, z, 1, [assess(problem, z).as_tuple()], True, "scale")


# -- two-phase coordinate descent ------------------------------------------


class _CoordState:
    """Incrementally maintained values f_k(x) and gradientlike products P_k x."""

    def __init__(self, problem: QcqpProblem, x0):
        self.problem = problem
        self.forms = [problem.objective] + [c.form for c in problem.constraints]
        self.senses = [None] + [c.sense for c in problem.constraints]
        self.P = [f.dense_p for f in self.forms]
        self.qv = [f.q_vec for f in self.forms]
        self.x = np.asarray(x0, dtype=float).copy()
        self.refresh()

    def refresh(self):
        self.g = [P @ self.x for P in self.P]
        self.fval = [evaluate(f, self.x) for f in self.forms]

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
        for k in range(len(self.forms)):
            p, ql, c = self.coeffs(k, j)
            self.fval[k] = p * t * t + ql * t + c
            self.g[k] += d * self.P[k][:, j]
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


def _equality_root_set(p: float, q: float, c: float, eq_tol: float) -> IntervalSet:
    """Exact solution set of p t^2 + q t + c = 0 as degenerate intervals."""
    if abs(p) < AFFINE_EPS and abs(q) < AFFINE_EPS:
        return IntervalSet.full() if abs(c) <= eq_tol else IntervalSet.empty()
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


def _phase2_set(rows, eq_tol: float) -> IntervalSet:
    S = IntervalSet.full()
    for p, q, c, sense in rows:
        if sense is Sense.EQ:
            S = intersect(S, _equality_root_set(p, q, c, eq_tol))
        else:
            S = intersect(S, constraint_solution_set(p, q, c))
        if S.is_empty:
            return S
    return S


def improve_coordinate_descent(
    problem: QcqpProblem,
    x0,
    max_sweeps: int = 100,
    bisection_tol: float = 1e-9,
    stall_tol: float = 1e-7,
    eq_tol: float = 1e-8,
    **_,
) -> ImproveReport:
    """Greedy coordinate updates in two phases.

    Phase I ignores the objective and reduces the maximum violation: each
    coordinate solves min s subject to all restricted constraints being
    within s, by bisection on s (ties between minimizers broken by the
    objective).  When a feasible point appears, Phase II performs exact
    one-variable minimizations, accepting only strict objective decreases;
    on Boolean problems this is exactly 1-opt local search.
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
                for k in range(1, len(st.forms))
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
                while hi - lo > bisection_tol:
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
        elif v_before - v_after < stall_tol:
            # stalled without reaching feasibility
            return _report(problem, x0, st.x, sweeps, trace, False, "cd", last_x=st.x.copy())
    st.refresh()
    while sweeps < max_sweeps:
        improved = False
        for j in range(n):
            rows = [st.coeffs(k, j) + (st.senses[k],) for k in range(1, len(st.forms))]
            S = _phase2_set(rows, eq_tol)
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
    return _report(problem, x0, st.x, sweeps, trace, converged, "cd", last_x=st.x.copy())


# -- consensus ADMM ---------------------------------------------------------


class FullSpace:
    """No extra convex set: z ranges over R^n."""


@dataclass(frozen=True)
class BoxSet:
    l: np.ndarray
    u: np.ndarray


@dataclass(frozen=True)
class SingleQuadraticSet:
    form: QuadraticForm  # convex set {x : form(x) <= 0}


def default_rho(problem: QcqpProblem) -> float:
    m = max(problem.m, 1)
    return max(1.0, 1.1 * (-min_eig_bound(problem.objective.dense_p)) / m)


def improve_admm(
    problem: QcqpProblem,
    x0,
    rho: float | None = None,
    max_iter: int = 500,
    eps_feas: float = 1e-6,
    two_phase: bool = True,
    convex_set=None,
    init_z=None,
    init_x=None,
    init_u=None,
    record_iterates: bool = False,
    resid_tol: float = 1e-6,
    **_,
) -> ImproveReport:
    """Consensus ADMM with one copy x_i per constraint.

    Phase I drops the objective: z is the mean of x_i - u_i projected onto
    the convex set, so iterates are rho-independent; it ends once v(z) <=
    eps_feas.  Phase II minimizes the augmented objective in z (over the
    full space, a matvec with the inverse of P0 + m rho I, built once from a
    numpy Cholesky factorization, or least squares when that matrix is not
    positive definite; a one-constraint solve; or clipped coordinate sweeps
    for a box) and projects each x_i onto its constraint.  Iterates
    can cycle on nonconvex problems, so the report returns the best iterate
    ever seen under the lexicographic order.
    """
    x0 = np.asarray(x0, dtype=float)
    n, m = problem.n, problem.m
    cset = convex_set if convex_set is not None else FullSpace()
    if rho is None:
        rho = default_rho(problem)
    projs = [ConstraintProjector(c.form) for c in problem.constraints]
    senses = [c.sense for c in problem.constraints]
    cset_proj = ConstraintProjector(cset.form) if isinstance(cset, SingleQuadraticSet) else None

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

    P0 = problem.objective.dense_p
    q0 = problem.objective.q_vec
    A = P0 + m * rho * np.eye(n)
    A_inv = None
    if isinstance(cset, FullSpace):
        try:
            Li = inv_chol(A)
            A_inv = Li.T @ Li
        except np.linalg.LinAlgError:  # A not PD: z_phase2 uses least squares
            pass

    def proj_set(v):
        if isinstance(cset, FullSpace):
            return v
        if isinstance(cset, BoxSet):
            return np.clip(v, cset.l, cset.u)
        return cset_proj.project_ineq(v).x

    def z_phase2(t):
        # minimize z'Az + (q0 - 2 rho t)'z over the convex set
        b = rho * t - 0.5 * q0
        if isinstance(cset, FullSpace):
            if A_inv is not None:
                return A_inv @ b
            return np.linalg.lstsq(A, b, rcond=None)[0]
        if isinstance(cset, BoxSet):
            zz = np.clip(z, cset.l, cset.u)
            for _sweep in range(3):
                for j in range(n):
                    bj = -2.0 * b[j] + 2.0 * (A[j] @ zz - A[j, j] * zz[j])
                    zz[j] = min(max(-bj / (2.0 * A[j, j]), cset.l[j]), cset.u[j])
            return zz
        obj = QuadraticForm.from_dense(A, -2.0 * b, 0.0)
        res = solve_one_constraint(obj, cset.form)
        if res.status is OneConstraintStatus.OPTIMAL:
            return res.x
        return z

    def best_key(a: Assessment):
        # violations below eps_feas count as feasible, so late near-feasible
        # iterates with better objectives win over early interior points
        return (a.violation if a.violation > eps_feas else 0.0, a.objective)

    best_x = x0.copy()
    best_a = assess(problem, x0)
    trace: list[tuple[float, float]] = []
    iterates = []
    phase1 = two_phase and m > 0
    converged = False
    it = 0
    z_prev = z.copy()
    az = best_a if init_z is None else None  # assessment of the current z, once known
    for it in range(1, max_iter + 1):
        if phase1:
            if az is None:
                az = assess(problem, z)
            if az.violation <= eps_feas:
                phase1 = False
        if phase1:
            z = proj_set(np.mean(X - U, axis=0))
        else:
            z = z_phase2(np.sum(X - U, axis=0)) if m > 0 else z_phase2(np.zeros(n))
        for i in range(m):
            res = projs[i].project(z + U[i], equality=senses[i] is Sense.EQ)
            X[i] = res.x
        U += z - X
        az = assess(problem, z)
        trace.append(az.as_tuple())
        if best_key(az) < best_key(best_a):
            best_a, best_x = az, z.copy()
        if record_iterates:
            iterates.append((z.copy(), X.copy(), U.copy()))
        if m > 0:
            resid = float(np.max(np.linalg.norm(z - X, axis=1)))
        else:
            resid = 0.0
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
    if 0.0 < best_a.violation <= 10.0 * eps_feas and m > 0:
        # cyclic projection polish: a near-feasible best iterate can lose the
        # exact lexicographic comparison to a feasible x0 on violation alone
        xp = best_x.copy()
        for _ in range(50):
            if assess(problem, xp).violation <= 0.0:
                break
            for i in range(m):
                xp = projs[i].project(xp, equality=senses[i] is Sense.EQ).x
        ap = assess(problem, xp)
        if ap.better_than(best_a):
            best_x, best_a = xp, ap
    rep = _report(problem, x0, best_x, it, trace, converged, "admm", last_x=z.copy())
    return replace(
        rep,
        final_state=(z.copy(), X.copy(), U.copy()),
        iterates=tuple(iterates) if record_iterates else None,
    )


def solve_convex(problem: QcqpProblem, x0, **admm_opts) -> ImproveReport:
    """ADMM specialization for convex QCQPs; raises if the problem is not convex."""
    scale = 1.0 + np.linalg.norm(problem.objective.dense_p)
    if min_eig_bound(problem.objective.dense_p) < -1e-9 * scale:
        raise NotConvexError("objective is not convex")
    for k, c in enumerate(problem.constraints):
        if c.sense is Sense.EQ:
            if not c.form.is_affine:
                raise NotConvexError(f"equality constraint {k} is not affine")
            continue
        s = 1.0 + np.linalg.norm(c.form.dense_p)
        if min_eig_bound(c.form.dense_p) < -1e-9 * s:
            raise NotConvexError(f"constraint {k} is not convex")
    opts = {"max_iter": 2000, "two_phase": False, "resid_tol": 1e-8}
    opts.update(admm_opts)
    return replace(improve_admm(problem, x0, **opts), method="convex")


# -- penalty convex-concave -------------------------------------------------

_SPLITTERS = {
    "eigen": split_eigen,
    "shift": split_shift,
    "cholesky": lambda P: split_cholesky_diff(P),
}


def improve_ccp(
    problem: QcqpProblem,
    x0,
    tau0: float = 1.0,
    tau_max: float = 1e4,
    mu: float = 2.0,
    max_iter: int = 30,
    split_method: str = "eigen",
    feas_tol: float = 1e-6,
    subsolver_opts: dict | None = None,
    **_,
) -> ImproveReport:
    """Penalty convex-concave procedure.

    Every form is written as a difference of convex quadratics; equalities
    become two inequalities split separately.  Each iteration linearizes the
    concave parts at the current point, adds one slack per constraint row
    with penalty tau, solves the convex subproblem, and doubles tau up to
    tau_max.  The convexified rows overestimate the true constraints, so a
    near-zero slack sum certifies feasibility.
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
    sub_opts = {"max_iter": 600, "resid_tol": 1e-7}
    if subsolver_opts:
        sub_opts.update(subsolver_opts)
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
        dim = n + K
        # objective: convex part + linearized concave part + tau * sum(s)
        Pq = np.zeros((dim, dim))
        Pq[:n, :n] = sp0.plus
        qq = np.zeros(dim)
        qq[:n] = problem.objective.q_vec - 2.0 * (sp0.minus @ xk)
        qq[n:] = tau
        rr = problem.objective.r + float(xk @ (sp0.minus @ xk))
        sub_constraints = []
        s_init = np.zeros(K)
        for k, (plus, minus, q, r) in enumerate(rows):
            Pk = np.zeros((dim, dim))
            Pk[:n, :n] = plus
            qk = np.zeros(dim)
            qk[:n] = q - 2.0 * (minus @ xk)
            qk[n + k] = -1.0
            rk = r + float(xk @ (minus @ xk))
            sub_constraints.append(Constraint(QuadraticForm.from_dense(Pk, qk, rk), Sense.LE))
            # s_k >= 0
            qs = np.zeros(dim)
            qs[n + k] = -1.0
            sub_constraints.append(Constraint(QuadraticForm.create(dim, (), qs, 0.0), Sense.LE))
            s_init[k] = max(0.0, float(xk @ (plus @ xk)) + qk[:n] @ xk + rk) + 1e-6
        sub = QcqpProblem.create(QuadraticForm.from_dense(Pq, qq, rr), sub_constraints)
        # the slack weight tau dominates the subproblem objective as it grows,
        # so the subsolver step size tracks it unless the caller pins rho
        it_opts = dict(sub_opts)
        rho_it = it_opts.setdefault("rho", max(1.0, math.sqrt(tau)))
        z_init = np.concatenate([xk, s_init])
        if warm is not None:
            # U is the rho-scaled dual, so rescale it when rho moves with tau
            it_opts.setdefault("init_z", z_init)
            it_opts.setdefault("init_x", warm[0])
            it_opts.setdefault("init_u", warm[1] * (warm[2] / rho_it))
        rep = solve_convex(sub, z_init, **it_opts)
        warm = (rep.final_state[1], rep.final_state[2], rho_it)

        def penalized(xc):
            # exact subproblem value at xc with the slacks eliminated:
            # the optimal s_k is the positive part of the convexified row
            val = float(xc @ (Pq[:n, :n] @ xc)) + float(qq[:n] @ xc) + rr
            res = np.zeros(K)
            for k2, (plus2, minus2, q2, r2) in enumerate(rows):
                g = (
                    float(xc @ (plus2 @ xc))
                    + float((q2 - 2.0 * (minus2 @ xk)) @ xc)
                    + r2
                    + float(xk @ (minus2 @ xk))
                )
                res[k2] = max(0.0, g)
            return val + tau * float(np.sum(res)), res

        # the subsolver's contract point can lag its actual limit when the
        # limit is only near-feasible; compare both under the true penalty
        cand = rep.x[:n]
        val_c, s_c = penalized(cand)
        val_l, s_l = penalized(rep.last_x[:n])
        if val_l < val_c:
            cand, s_c = rep.last_x[:n], s_l
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
        if tau >= tau_max and abs(prev_slack - slack) <= 1e-9 * (1.0 + slack):
            break
        prev_slack = slack
        tau = min(mu * tau, tau_max)
    return _report(problem, x0, best_x, it, trace, converged, "ccp", last_x=xk)


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
    return _report(problem, x0, best_x, iterations, trace, converged, label, last_x=x)
