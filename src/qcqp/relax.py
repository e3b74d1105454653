"""Lower bounds for nonconvex QCQPs and candidate points extracted from them.

The spectral relaxation aggregates all constraints into one with a
nonnegative multiplier vector and solves the resulting one-constraint
problem exactly.  The semidefinite relaxation (SDR) over
Z = [[X, x], [x', 1]] >= 0 is solved by sdr_bound, a dense primal-dual
interior-point method built on numpy Cholesky factorizations; its bound is
certified from the dual vector alone, so it holds however early the method
stops.  sdr_bound_cutting_plane approximates the same SDR from outside by
an LP over the lifted variables (X, x), cutting away violated
positive-semidefiniteness one eigenvector at a time; it is kept as library
code, and any iterate of its LP is already a valid bound.

tighten appends redundant pairwise products of affine constraints, which
leaves the feasible set unchanged but can strictly improve the lifted bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Constraint, QcqpProblem, QuadraticForm, Sense
from .errors import NumericalFailureError
from .linalg import inv_chol, sym_eigen
from .lp import IncrementalLp, LinearProgram, LpStatus
from .oneconstraint import OneConstraintStatus, solve_one_constraint


@dataclass(frozen=True)
class RelaxationResult:
    """A lower bound on the minimum, with the object certifying it.

    certificate is the multiplier vector (spectral) or the lifted pair
    (X, x) (SDR).  valid goes false when the bound may be wrong: the
    cutting plane's artificial box was active at its solution, or the SDR's
    dual slack is indefinite and no bound on tr(X) is known.
    """

    bound: float
    candidate: np.ndarray | None = None
    certificate: object = None
    valid: bool = True
    trace: tuple[float, ...] = ()
    converged: bool = True


def aggregate_constraints(problem: QcqpProblem, lam) -> QuadraticForm:
    """Single form sum(lam_i * f_i); lam must be >= 0 on inequality rows."""
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (problem.m,):
        raise ValueError(f"lambda has shape {lam.shape}, expected ({problem.m},)")
    for i, (li, c) in enumerate(zip(lam, problem.constraints)):
        if c.sense is Sense.LE and li < 0.0:
            raise ValueError(f"lambda[{i}] < 0 on an inequality constraint")
    P = np.zeros((problem.n, problem.n))
    q = np.zeros(problem.n)
    r = 0.0
    for li, c in zip(lam, problem.constraints):
        if li == 0.0:
            continue
        P += li * c.form.dense_p
        q += li * c.form.q_vec
        r += li * c.form.r
    return QuadraticForm._of_symmetric(P, q, r)


def spectral_bound(problem: QcqpProblem, lam=None) -> RelaxationResult:
    """Bound from the aggregated one-constraint relaxation.

    Every feasible point satisfies sum(lam_i * f_i) <= 0, so the minimum of
    the objective under that single constraint bounds the true minimum from
    below.  A dual-unbounded subproblem yields the vacuous bound -inf.
    """
    if lam is None:
        lam = np.ones(problem.m)
    agg = aggregate_constraints(problem, lam)
    res = solve_one_constraint(problem.objective, agg)
    if res.status is OneConstraintStatus.DUAL_UNBOUNDED:
        return RelaxationResult(bound=-math.inf, certificate=np.asarray(lam, dtype=float))
    if res.status is OneConstraintStatus.INFEASIBLE:
        # the aggregated set is empty, so the original problem is infeasible
        return RelaxationResult(bound=math.inf, certificate=np.asarray(lam, dtype=float))
    return RelaxationResult(
        bound=res.value,
        candidate=res.x,
        certificate=np.asarray(lam, dtype=float),
    )


# -- interior-point solution of the SDR ------------------------------------
#
# The homogenised SDR is the conic program
#     min <C, Z>  s.t.  <A_0, Z> = 1,  <A_i, Z> = 0 (eq rows),
#                       <A_i, Z> + s_i = 0, s_i >= 0 (le rows),  Z >= 0,
# with Z = [[X, x], [x', 1]], A_0 = e_N e_N' and A_i the lifted matrix of row
# i.  Its dual is max y_0 s.t. S = C - sum y_i A_i >= 0 and y_i <= 0 on le
# rows.  Rows and C are scaled to unit Frobenius norm inside the solver.

SDR_TOL = 1e-8  # relative primal residual, dual residual and gap at which the IPM stops
SDR_MAX_ITER = 100
RAY_TOL = 1e-8  # a diverging iterate this close to a ray proves infeasibility


def _sdr_rows(problem: QcqpProblem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """C, the stacked A_0, A_1, ..., A_m and the mask of rows that carry an LP slack.

    C and A_i (i >= 1) are the _homogenize_form of the objective and of row
    i, written into one stack from the problem's row table; adding 0.0
    turns every -0.0 into 0.0 as that form's construction does.
    """
    rc, n = problem._row_classes, problem.n
    A = np.zeros((problem.m + 1, n + 1, n + 1))
    A[:, :n, :n] = rc.all_P
    A[:, :n, n] = A[:, n, :n] = 0.5 * rc.all_q
    A[:, n, n] = rc.all_r
    A += 0.0
    C = A[0].copy()
    A[0] = 0.0
    A[0, n, n] = 1.0
    return C, A, np.append(False, ~rc.all_eq[1:])


def _max_step(Li: np.ndarray, dV: np.ndarray) -> float:
    """Largest alpha with V + alpha dV >= 0, given Li = inv_chol(V) (inf when dV >= 0)."""
    lam = float(np.linalg.eigvalsh(Li @ dV @ Li.T)[0])
    return -1.0 / lam if lam < 0.0 else math.inf


def _max_step_lp(v: np.ndarray, dv: np.ndarray) -> float:
    neg = dv < 0.0
    return float(np.min(-v[neg] / dv[neg])) if neg.any() else math.inf


@dataclass(frozen=True)
class _SdrIterate:
    """Last iterate of the SDR interior-point method, in the problem's own scale.

    status is "optimal", "infeasible" (the dual diverges along a ray),
    "unbounded" (the primal does), "stalled" (a factorization failed or the
    iterates stopped improving) or "max_iter".
    """

    Z: np.ndarray
    y: np.ndarray
    status: str


def _norm(M: np.ndarray) -> float:
    """Frobenius norm of M, taken of M / max|M| where the sum of squares overflows."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(M))
    if math.isinf(norm):
        big = float(np.max(np.abs(M)))
        norm = big * float(np.linalg.norm(M / big))
    return norm


def _solve_sdr(C: np.ndarray, A: np.ndarray, le: np.ndarray) -> _SdrIterate:
    """Primal-dual interior-point method on the homogenised SDR.

    Infeasible-start path following with the HKM search direction
    (Helmberg, Rendl, Vanderbei & Wolkowicz 1996) and Mehrotra's
    predictor-corrector; each iteration forms and factors the m+1 by m+1
    Schur complement M_ij = <A_i, Z A_j S^-1> + LP slack terms.  Every
    factorization is a numpy Cholesky (linalg.inv_chol).  C, A and le are
    _sdr_rows of the problem.
    """
    N = A.shape[1]
    # scale rows and C to unit norm; zero rows (0 = 0 or 0 <= 0) are dropped
    with np.errstate(over="ignore"):
        row_norm = np.linalg.norm(A.reshape(len(A), -1), axis=1)
    for i in np.flatnonzero(np.isinf(row_norm)):
        row_norm[i] = _norm(A[i])
    keep = row_norm > 0.0
    c_norm = _norm(C) or 1.0
    As = A[keep] / row_norm[keep, None, None]
    Af = As.reshape(len(As), -1)
    slack = np.flatnonzero(le[keep])  # rows with an LP slack
    k = slack.size
    b = np.zeros(len(As))
    b[0] = 1.0  # row 0 always has norm 1
    Cs = C / c_norm

    xi = max(10.0, float(N))
    eta = max(10.0, math.sqrt(N))
    Z = xi * np.eye(N)
    S = eta * np.eye(N)
    s = np.full(k, xi)
    w = np.full(k, eta)
    y = np.zeros(len(As))
    eye = np.eye(N)

    status = "max_iter"
    best_err, top_size, stall = math.inf, 0.0, 0
    for _ in range(SDR_MAX_ITER):
        rp = b - Af @ Z.ravel()
        rp[slack] -= s
        Rd = Cs - (Af.T @ y).reshape(N, N) - S
        rw = -y[slack] - w
        mu = (float(np.vdot(Z, S)) + float(s @ w)) / (N + k)
        pobj = float(np.vdot(Cs, Z))
        dobj = float(y[0])
        err = max(  # ||b|| = ||C|| = 1 after scaling
            float(np.linalg.norm(rp)) / 2.0,
            math.sqrt(float(np.vdot(Rd, Rd)) + float(rw @ rw)) / 2.0,
            abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj)),
        )
        if err <= SDR_TOL:
            status = "optimal"
            break
        # a diverging iterate that is nearly a ray certifies infeasibility
        if dobj > 0.0 and math.hypot(np.linalg.norm(Cs - Rd), np.linalg.norm(rw)) <= RAY_TOL * dobj:
            status = "infeasible"
            break
        if pobj < 0.0 and np.linalg.norm(b - rp) <= RAY_TOL * -pobj:
            status = "unbounded"
            break
        # stalled: in 5 iterations the error has not halved, nor have the
        # objectives doubled on their way to an infeasibility ray
        size = abs(pobj) + abs(dobj)
        if err < 0.5 * best_err or size > 2.0 * top_size:
            best_err, top_size, stall = min(err, best_err), max(size, top_size), 0
        else:
            stall += 1
            if stall >= 5:
                status = "stalled"
                break
        d = s / w

        def direction(G, g):
            # HKM: Z S + dZ S + Z dS = G, s w + ds w + s dw = g
            GSi = G @ Si
            h = rp - Af @ (GSi - Z - ZRdSi).ravel()
            h[slack] -= g / w - s - d * rw
            dy = Mi.T @ (Mi @ h)
            dS = Rd - (Af.T @ dy).reshape(N, N)
            dZ = GSi - Z - Z @ dS @ Si
            dZ = 0.5 * (dZ + dZ.T)
            if not (np.isfinite(dy).all() and np.isfinite(dZ).all()):
                raise np.linalg.LinAlgError("non-finite search direction")
            dw = rw - dy[slack]
            ds = g / w - s - d * dw
            return dZ, dy, dS, ds, dw

        # a failed factorization (Z or S numerically singular at tiny mu) or
        # a non-finite direction ends the run at the current iterate
        try:
            Zi = inv_chol(Z)
            Li = inv_chol(S)
            Si = Li.T @ Li
            W = (Z @ As) @ Si  # Z A_j S^-1, stacked
            M = Af @ W.reshape(len(W), -1).T
            M = 0.5 * (M + M.T)
            M[slack, slack] += d
            Mi = inv_chol(M)
            ZRdSi = Z @ Rd @ Si
            dZ, dy, dS, ds, dw = direction(np.zeros((N, N)), np.zeros(k))
            ap = min(1.0, _max_step(Zi, dZ), _max_step_lp(s, ds))
            ad = min(1.0, _max_step(Li, dS), _max_step_lp(w, dw))
            mu_aff = (
                float(np.vdot(Z + ap * dZ, S + ad * dS)) + float((s + ap * ds) @ (w + ad * dw))
            ) / (N + k)
            sigma = min(1.0, (mu_aff / mu) ** 3)
            dZ, dy, dS, ds, dw = direction(sigma * mu * eye - dZ @ dS, sigma * mu - ds * dw)
            gamma = 0.9 + 0.09 * min(ap, ad)
            ap = min(1.0, gamma * _max_step(Zi, dZ), gamma * _max_step_lp(s, ds))
            ad = min(1.0, gamma * _max_step(Li, dS), gamma * _max_step_lp(w, dw))
        except np.linalg.LinAlgError:
            status = "stalled"
            break
        Z = Z + ap * dZ
        s = s + ap * ds
        y = y + ad * dy
        S = S + ad * dS
        w = w + ad * dw

    y_full = np.zeros(len(A))
    y_full[keep] = y * c_norm / row_norm[keep]
    return _SdrIterate(Z=Z, y=y_full, status=status)


def _trace_bound(problem: QcqpProblem, level: float) -> float | None:
    """T >= tr(Z) = tr(X) + 1 over SDR-feasible Z with <C, Z> <= level.

    A form with P > 0 whose lifted value is <= 0 there gives, from X >= xx',
    lambda_min(P) t - ||q|| sqrt(t) + r <= 0 for t = tr(X).  Such forms are
    the rows (eq rows taken with either sign), the objective read as
    f_0 - level <= 0, the sum of the constraint rows with P >= 0 and that
    sum plus the objective.  None when none of them has P > 0.
    """
    obj = problem.objective

    def psd_signed(P, q, r, either):
        if not P.any():
            return None
        lam = np.linalg.eigvalsh(P)
        if lam[0] >= 0.0:
            return P, q, r, float(lam[0])
        if either and lam[-1] <= 0.0:
            return -P, -q, -r, float(-lam[-1])
        return None

    rows = [psd_signed(c.form.dense_p, c.form.q_vec, c.form.r, c.sense is Sense.EQ) for c in problem.constraints]
    rows = [row for row in rows if row is not None]
    top = psd_signed(obj.dense_p, obj.q_vec, obj.r - level, False)
    forms = rows + ([top] if top is not None else [])
    sums = [rows, forms] if top is not None else [rows]
    for part in sums:
        if len(part) > 1:
            P = sum(row[0] for row in part)
            forms.append((P, sum(row[1] for row in part), sum(row[2] for row in part), float(np.linalg.eigvalsh(P)[0])))
    best = None
    for P, q, r, lam in forms:
        if lam <= 0.0:
            continue
        nq = float(np.linalg.norm(q))
        u = (nq + math.sqrt(max(nq * nq - 4.0 * lam * r, 0.0))) / (2.0 * lam)
        best = u * u + 1.0 if best is None else min(best, u * u + 1.0)
    return best


def _certified_bound(problem: QcqpProblem, rows, y) -> tuple[float, bool]:
    """Lower bound on the SDR (hence on the QCQP) from any dual vector y.

    y holds the multipliers of <A_0, Z> = 1 and of each constraint row.
    With y clipped to <= 0 on le rows and S = C - sum y_i A_i recomputed
    from the data, every feasible Z with tr(Z) <= T has
    <C, Z> >= y_0 + min(0, lambda_min(S)) T (Jansson, Chaykin & Keil 2007).
    The bound is flagged invalid only when lambda_min(S) < 0 and the rows
    give no T.  rows is _sdr_rows(problem).
    """
    C, A, le = rows
    y = np.where(le, np.minimum(np.asarray(y, dtype=float), 0.0), y)
    S = C - np.tensordot(y, A, axes=1)
    lam = float(np.linalg.eigvalsh(S)[0])
    if lam >= 0.0:
        return float(y[0]), True
    T = _trace_bound(problem, float(y[0]))
    if T is None:
        return float(y[0]), False
    return float(y[0]) + lam * T, True


def sdr_bound(problem: QcqpProblem) -> RelaxationResult:
    """Certified bound and lifted solution (X, x) of the semidefinite relaxation.

    The bound comes from the dual iterate through _certified_bound, so it is
    valid even when the interior-point method stops early (converged is
    then false).  An SDR found infeasible gives +inf flagged invalid, as an
    unproven infeasibility; one found unbounded gives -inf.  A NaN bound is
    flagged invalid.
    """
    rows = _sdr_rows(problem)
    it = _solve_sdr(*rows)
    if it.status == "infeasible":
        return RelaxationResult(bound=math.inf, valid=False)
    if it.status == "unbounded":
        return RelaxationResult(bound=-math.inf)
    bound, valid = _certified_bound(problem, rows, it.y)
    valid = valid and not math.isnan(bound)
    n = problem.n
    Z = 0.5 * (it.Z + it.Z.T)
    X, x = Z[:n, :n] / Z[n, n], Z[:n, n] / Z[n, n]
    return RelaxationResult(
        bound=bound,
        candidate=x,
        certificate=(X, x),
        valid=valid,
        trace=(bound,),
        converged=it.status == "optimal",
    )


# -- cutting-plane approximation of the SDR --------------------------------


@dataclass
class CutPlaneOptions:
    max_cuts: int | None = None  # default 50 n
    psd_tol: float = 1e-6
    box: float | None = None  # default 10 (1 + ||q0||_inf + max_i ||q_i||_inf)
    cuts_per_iter: int = 8
    seed_cuts: tuple = ()  # extra a-vectors for upfront a'Za >= 0 cuts
    # cuts are only ever added, so the LP warm-starts from its last basis
    # and the trace of bounds is nondecreasing


def axis_pair_cuts(n: int):
    """Cuts a'Za >= 0 for a = e_i +- e_j over the n+1 lifted coordinates.

    With unit diagonal these imply |X_ij| <= 1 and |x_i| <= 1, which keeps
    the LP bounded long before eigenvector cuts accumulate.
    """
    cuts = []
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            for s in (1.0, -1.0):
                a = np.zeros(n + 1)
                a[i] = 1.0
                a[j] = s
                cuts.append(a)
    return tuple(cuts)


# The lifted variables are y = (X upper triangle in np.triu_indices order, x).
# A symmetric matrix pairs with that triangle through weights 1 on the
# diagonal and 2 off it: Tr(P X) = sum_k w_k P[iu_k, ju_k] y_k.


def _tri_weights(n: int):
    iu, ju = np.triu_indices(n)
    return iu, ju, np.where(iu == ju, 1.0, 2.0)


def _form_row(form: QuadraticForm) -> np.ndarray:
    """Linear coefficients of Tr(P X) + q'x over the lifted variables."""
    iu, ju, w = _tri_weights(form.n)
    return np.concatenate([w * form.dense_p[iu, ju], form.q_vec])


def _cut_rows(vectors) -> tuple[np.ndarray, np.ndarray]:
    """a' Z(X, x) a >= 0 for each row a of vectors, as (rows, rhs) with rows @ y <= rhs."""
    a = np.atleast_2d(np.asarray(vectors, dtype=float))
    n = a.shape[1] - 1
    ax, at = a[:, :n], a[:, n]
    iu, ju, w = _tri_weights(n)
    rows = np.concatenate([-w * ax[:, iu] * ax[:, ju], -2.0 * at[:, None] * ax], axis=1)
    return rows, at * at


def default_box(problem: QcqpProblem) -> float:
    qmax = float(np.max(np.abs(problem.objective.q_vec), initial=0.0))
    cmax = max(
        (float(np.max(np.abs(c.form.q_vec), initial=0.0)) for c in problem.constraints),
        default=0.0,
    )
    return 10.0 * (1.0 + qmax + cmax)


def lifted_pair(y: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    iu, ju = np.triu_indices(n)
    X = np.zeros((n, n))
    X[iu, ju] = y[: iu.size]
    X[ju, iu] = y[: iu.size]
    return X, y[iu.size : iu.size + n].copy()


def sdr_bound_cutting_plane(problem: QcqpProblem, opts: CutPlaneOptions | None = None) -> RelaxationResult:
    """Outer LP approximation of the semidefinite relaxation.

    Iterates: solve the LP over (X upper triangle, x), eigendecompose
    Z = [[X, x], [x', 1]], stop when its minimum eigenvalue is above
    -psd_tol, otherwise add linear cuts a'Za >= 0 from the negative
    eigenvectors.  Each iterate's value is a valid lower bound, so running
    out of the cut budget degrades accuracy but not correctness (the trace
    is returned for budget-based stopping).  A finite box on the lifted
    variables keeps every LP bounded; the bound is flagged invalid when the
    box is active at the final solution.  One LP lives for the whole loop:
    each round appends its cuts and re-solves from the previous basis.
    """
    if opts is None:
        opts = CutPlaneOptions()
    n = problem.n
    n_x = n * (n + 1) // 2
    max_cuts = opts.max_cuts if opts.max_cuts is not None else 50 * n
    B = opts.box if opts.box is not None else default_box(problem)

    eq = [con for con in problem.constraints if con.sense is Sense.EQ]
    le = [con for con in problem.constraints if con.sense is not Sense.EQ]
    a_ub = [_form_row(con.form) for con in le]
    b_ub = [-con.form.r for con in le]
    if opts.seed_cuts:
        seed_rows, seed_rhs = _cut_rows(np.array(opts.seed_cuts, dtype=float))
        a_ub.extend(seed_rows)
        b_ub.extend(seed_rhs)
    lb = np.concatenate([np.full(n_x, -B * B), np.full(n, -B)])
    lp = IncrementalLp(
        LinearProgram(
            c=_form_row(problem.objective),
            a_ub=np.array(a_ub) if a_ub else None,
            b_ub=np.array(b_ub) if b_ub else None,
            a_eq=np.array([_form_row(con.form) for con in eq]) if eq else None,
            b_eq=np.array([-con.form.r for con in eq]) if eq else None,
            lb=lb,
            ub=-lb,
        )
    )
    offset = problem.objective.r

    trace: list[float] = []
    n_cuts = 0
    converged = False
    y = None
    while True:
        res = lp.solve()
        if res.status is LpStatus.INFEASIBLE:
            # no lifted point inside the box satisfies the constraints; the
            # box is artificial, so this is not a full infeasibility proof
            return RelaxationResult(bound=math.inf, valid=False, trace=tuple(trace), converged=True)
        if res.status is not LpStatus.OPTIMAL:
            raise NumericalFailureError("cutting-plane LP did not solve")
        y = res.y
        trace.append(res.value + offset)
        X, x = lifted_pair(y, n)
        Z = np.empty((n + 1, n + 1))
        Z[:n, :n] = X
        Z[:n, n] = x
        Z[n, :n] = x
        Z[n, n] = 1.0
        eig = sym_eigen(Z)
        if eig.values[0] >= -opts.psd_tol:
            converged = True
            break
        if n_cuts >= max_cuts:
            break
        neg = np.nonzero(eig.values < -opts.psd_tol)[0]
        picks = list(neg[: opts.cuts_per_iter])
        if 0 not in picks:
            picks = [0] + picks
        lp.add_rows(*_cut_rows(eig.vectors[:, picks].T))
        n_cuts += len(picks)

    X, x = lifted_pair(y, n)
    box_active = bool(
        np.any(np.abs(np.abs(y[n_x:]) - B) <= 1e-6 * (1.0 + B))
        or np.any(np.abs(np.abs(y[:n_x]) - B * B) <= 1e-6 * (1.0 + B * B))
    )
    return RelaxationResult(
        bound=trace[-1],
        candidate=x,
        certificate=(X, x),
        valid=not box_active,
        trace=tuple(trace),
        converged=converged,
    )


@dataclass(frozen=True)
class LiftedSamples:
    points: tuple[np.ndarray, ...]
    sigma_repair: float  # magnitude of the most negative clipped eigenvalue


def sample_from_lifted(result: RelaxationResult, count: int, rng_seed=None) -> LiftedSamples:
    """Gaussian candidates N(x, X - xx') from a lifted certificate.

    The covariance X - xx' may be slightly indefinite at LP accuracy; it is
    projected to PSD and the size of the repair is reported.  A rank-one
    certificate yields count copies of x.
    """
    if not (isinstance(result.certificate, tuple) and len(result.certificate) == 2):
        raise ValueError("result does not carry a lifted (X, x) certificate")
    X, x = result.certificate
    S = X - np.outer(x, x)
    eig = sym_eigen(S)
    repair = float(max(0.0, -np.min(eig.values, initial=0.0)))
    w = np.clip(eig.values, 0.0, None)
    A = eig.vectors * np.sqrt(w)
    rng = np.random.default_rng(rng_seed)
    pts = [x + A @ rng.standard_normal(x.size) for _ in range(count)]
    return LiftedSamples(points=tuple(pts), sigma_repair=repair)


PAIR_BUDGET = 100  # tighten appends at most this many pair products


def tighten(problem: QcqpProblem) -> QcqpProblem:
    """Append products of pairs of affine constraints as redundant quadratics.

    Each affine row is read as a'x <= b (equalities contribute both signs);
    the product (b_i - a_i'x)(b_j - a_j'x) >= 0 holds on the feasible set, so
    appending it never changes the feasible set but can raise lifted bounds.
    Boolean structure needs no extra cuts: x_i^2 = 1 is already quadratic.
    """
    halfspaces = []  # (a, b) meaning a'x <= b
    for con in problem.constraints:
        if not con.form.is_affine:
            continue
        a = con.form.q_vec
        b = -con.form.r
        halfspaces.append((a, b))
        if con.sense is Sense.EQ:
            halfspaces.append((-a, -b))
    if not halfspaces:
        return problem
    extra = []
    pairs = [(i, j) for i in range(len(halfspaces)) for j in range(i + 1, len(halfspaces))]
    pairs += [(i, i) for i in range(len(halfspaces))]
    for i, j in pairs[:PAIR_BUDGET]:
        ai, bi = halfspaces[i]
        aj, bj = halfspaces[j]
        # (b_i - a_i'x)(b_j - a_j'x) >= 0  ->  -x'SyM x + (b_i a_j + b_j a_i)'x - b_i b_j <= 0
        P = -0.5 * (np.outer(ai, aj) + np.outer(aj, ai))
        q = bi * aj + bj * ai
        r = -bi * bj
        extra.append(Constraint(QuadraticForm.from_dense(P, q, r), Sense.LE))
    return QcqpProblem.create(problem.objective, list(problem.constraints) + extra)
