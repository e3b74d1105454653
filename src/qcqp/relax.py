"""Lower bounds for nonconvex QCQPs and candidate points extracted from them.

Two relaxations are provided.  The spectral relaxation aggregates all
constraints into one with a nonnegative multiplier vector and solves the
resulting one-constraint problem exactly.  The semidefinite relaxation is
approximated from outside by a cutting-plane LP over the lifted variables
(X, x): linear constraints come from the problem data and violated
positive-semidefiniteness of Z = [[X, x], [x', 1]] is cut away one
eigenvector at a time.  Any iterate of the LP is already a valid bound.

tighten appends redundant pairwise products of affine constraints, which
leaves the feasible set unchanged but can strictly improve the lifted bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Constraint, QcqpProblem, QuadraticForm, Sense
from .errors import NumericalFailureError
from .linalg import sym_eigen
from .lp import IncrementalLp, LinearProgram, LpStatus
from .oneconstraint import OneConstraintStatus, solve_one_constraint


@dataclass(frozen=True)
class RelaxationResult:
    """A lower bound on the minimum, with the object certifying it.

    certificate is the multiplier vector (spectral) or the lifted pair
    (X, x) (cutting plane).  valid goes false when an artificial safeguard
    (the cutting-plane box) was active at the solution, in which case the
    bound may be wrong.
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


def tighten(problem: QcqpProblem, pair_budget: int = 100, boolean_cuts: bool = False) -> QcqpProblem:
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
    for i, j in pairs[:pair_budget]:
        ai, bi = halfspaces[i]
        aj, bj = halfspaces[j]
        # (b_i - a_i'x)(b_j - a_j'x) >= 0  ->  -x'SyM x + (b_i a_j + b_j a_i)'x - b_i b_j <= 0
        P = -0.5 * (np.outer(ai, aj) + np.outer(aj, ai))
        q = bi * aj + bj * ai
        r = -bi * bj
        extra.append(Constraint(QuadraticForm.from_dense(P, q, r), Sense.LE))
    return QcqpProblem.create(problem.objective, list(problem.constraints) + extra)
