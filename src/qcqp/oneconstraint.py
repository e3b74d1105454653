"""Solvers for QCQPs with a single quadratic constraint.

Three related subproblems live here:

* projection of a point onto {x : f(x) = 0} or {x : f(x) <= 0}, solved in
  the coordinates of the support of f by rotating into the eigenbasis of
  the constraint matrix there and solving the monotone secular equation in
  the multiplier nu by safeguarded Newton steps (a support of one variable
  first tries the nearest root in closed form);
* the interval-constraint variant l <= f(x) <= u, solved as two one-sided
  problems;
* the general one-constraint QCQP min f0 s.t. f1 <= 0, reduced to that
  projection: with P0 + eta*P1 = LL' positive definite, y = L'x turns f0 +
  eta*f1 into ||y - c||^2 plus a constant (the S-lemma; More 1993).

The singular ("hard") case is handled by a null-space correction: in the
projection at the boundary multiplier, and in the QCQP along the null
space of P0 + eta*P1 where the multiplier is fixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import QuadraticForm, _row_class, evaluate
from .errors import InfeasibleConstraintError, NumericalFailureError
from .linalg import inv_chol, norm, sym_eigen
from .onevar import _stable_roots

SINGULAR_TOL = 1e-10
SECULAR_STEP_MAX = 1100  # bisection alone shrinks any finite bracket of doubles in fewer steps
FEAS_TOL = 1e-9
_FIRST = np.zeros(1, dtype=int)  # the one permutation of a single coordinate


@dataclass(slots=True)
class ProjectionResult:
    """Projection x of z onto {form = 0} (onto {form <= 0} unless equality), with multiplier nu.

    form and z are kept by reference, to compute kkt_residual when it is read.
    """

    x: np.ndarray
    nu: float
    form: QuadraticForm
    z: np.ndarray
    equality: bool = True

    @property
    def kkt_residual(self) -> float:
        """max(|2 (x - z) + nu grad f(x)|, |f(x)|), in all of x's coordinates.

        An infinite nu (see ConstraintProjector._extremum) takes |grad f(x)|
        as the stationarity part, the Fritz John conditions with no weight on
        the distance; an inequality's feasible point takes max(f(x), 0).
        """
        grad = self.form.gradient(self.x)
        stat = float(np.linalg.norm(grad if math.isinf(self.nu) else 2.0 * (self.x - self.z) + self.nu * grad))
        f = evaluate(self.form, self.x)
        return max(stat, abs(f) if self.equality else max(f, 0.0))


def _quad_range(lam: np.ndarray, qhat: np.ndarray, r: float, eps: float) -> tuple[float, float]:
    """Range (inf, sup) of sum(lam * y^2) + qhat . y + r over all y."""
    lo: float = r
    hi: float = r
    for l, qi in zip(lam, qhat):
        if l > eps:
            lo -= qi * qi / (4.0 * l)
            hi = math.inf
        elif l < -eps:
            hi -= qi * qi / (4.0 * l)
            lo = -math.inf
        elif abs(qi) > eps:
            lo, hi = -math.inf, math.inf
    return lo, hi


class ConstraintProjector:
    """Caches the eigendecomposition of one constraint for repeated projections.

    Projections leave the coordinates outside the support of f untouched, so
    the projector works in the coordinates of its support: lam and the basis
    are those of P restricted there, qhat is q restricted and rotated, and
    project projects z's support coordinates and writes them back into a
    copy of z.  A support of one variable x_i with P_ii != 0 first takes the
    root of P_ii x_i^2 + q_i x_i + r nearest z_i in closed form
    (_nearest_root), and the general path only where that is not the KKT
    point.  Its two roots and the gradient 2 P_ii x_i + q_i at each are
    computed once, here, from scalars: the arrays of the general branch
    would each hold one entry.
    """

    def __init__(self, form: QuadraticForm):
        kind, i = _row_class(form)
        self.form = form
        self.r = r = form.r
        if kind == "one":
            lam, qh = float(form.dense_p[i, i]), float(form.q_vec[i])
            self._support, self._i, self._lam_i = (None if form.n == 1 else np.array([i])), i, lam
            self.lam = np.array([lam])
            self.Q, self._perm, self._affine_q = None, _FIRST, None
            self.qhat = form.q_vec[i : i + 1]
            roots = _stable_roots(lam, qh, r)
            # ((root, gradient there) for the lower and the upper root), or None
            self._roots = None if roots is None else tuple((x, 2.0 * lam * x + qh) for x in roots)
            # the general branch's max |lam| + ||qhat||, which for one entry rounds as these do
            self.scale = abs(lam) + math.sqrt(qh * qh) + abs(r) + 1.0
            self.feas_range = lo_r, hi_r = _quad_range((lam,), (qh,), r, 1e-14 * self.scale)
        else:
            P, s = form.dense_p, form.support
            self._support = s if s.size < form.n else None  # None: the support is all of x
            self._i = None
            self._p = P if self._support is None else P[np.ix_(s, s)]  # P on the support
            if np.count_nonzero(self._p - np.diag(np.diag(self._p))) == 0:
                self._perm = np.argsort(np.diag(self._p))
                self.lam = np.diag(self._p)[self._perm]
                self.Q = None
            else:
                eig = sym_eigen(self._p)
                self.lam, self.Q, self._perm = eig.values, eig.vectors, None
            q = form.q_vec if self._support is None else form.q_vec[self._support]
            self._affine_q = q if kind == "aff" else None
            self.qhat = self._rotate(q)
            self.scale = float(np.max(np.abs(self.lam), initial=0.0) + np.linalg.norm(self.qhat) + abs(r) + 1.0)
            self.feas_range = lo_r, hi_r = _quad_range(self.lam, self.qhat, r, 1e-14 * self.scale)
        self._empty = not (lo_r <= FEAS_TOL * self.scale and hi_r >= -FEAS_TOL * self.scale)  # {f = 0}

    def _rotate(self, v: np.ndarray) -> np.ndarray:
        return v[self._perm] if self.Q is None else self.Q.T @ v

    def _unrotate(self, v: np.ndarray) -> np.ndarray:
        if self.Q is None:
            out = np.empty_like(v)
            out[self._perm] = v
            return out
        return self.Q @ v

    def _embed(self, z: np.ndarray, xs: np.ndarray) -> np.ndarray:
        """z with its support coordinates replaced by xs."""
        if self._support is None:
            return xs
        x = z.copy()
        x[self._support] = xs
        return x

    # -- secular machinery -------------------------------------------------

    def _xhat(self, nu: float, zhat: np.ndarray) -> np.ndarray:
        return (zhat - 0.5 * nu * self.qhat) / (1.0 + nu * self.lam)

    def _phi(self, nu: float, zhat: np.ndarray) -> float:
        xh = self._xhat(nu, zhat)
        return float(self.lam @ (xh * xh) + self.qhat @ xh + self.r)

    def _phi_prime(self, nu: float, zhat: np.ndarray) -> float:
        num = (2.0 * self.lam * zhat + self.qhat) ** 2
        return float(-0.5 * np.sum(num / (1.0 + nu * self.lam) ** 3))

    def _nu_bounds(self) -> tuple[float, float]:
        lmin, lmax = self.lam[0], self.lam[-1]
        lo = -1.0 / lmax if lmax > 0.0 else -math.inf
        hi = -1.0 / lmin if lmin < 0.0 else math.inf
        return lo, hi

    def _phi_many(self, nus: np.ndarray, zhat: np.ndarray) -> np.ndarray:
        """phi at each multiplier in nus, in one vectorized evaluation."""
        xh = (zhat - 0.5 * nus[:, None] * self.qhat) / (1.0 + nus[:, None] * self.lam)
        return (xh * xh) @ self.lam + xh @ self.qhat + self.r

    def _march(self, zhat, phi_start: float, bound: float, direction: int):
        """Walk from 0 toward bound; return the (nu, phi) pairs around a sign change, or None.

        The candidates approach a finite bound geometrically and grow
        geometrically toward an infinite one; all of them are evaluated at
        once and the first sign change is taken.  The pair with phi > 0
        comes first.
        """
        k = np.arange(1, 200, dtype=float)
        if math.isfinite(bound):
            ts = bound - bound * 0.5**k
            near = np.flatnonzero(np.abs(bound - ts) < 1e-15 * (1.0 + abs(bound)))
            if near.size:
                ts = ts[: near[0] + 1]
        else:
            ts = direction * 2.0 ** (k - 14)
        phis = self._phi_many(ts, zhat)
        crossed = np.flatnonzero(phis < 0.0) if phi_start > 0.0 else np.flatnonzero(phis > 0.0)
        if not crossed.size:
            return None
        j = int(crossed[0])
        prev = (float(ts[j - 1]), float(phis[j - 1])) if j else (0.0, phi_start)
        cross = (float(ts[j]), float(phis[j]))
        return (prev, cross) if phi_start > 0.0 else (cross, prev)

    def _solve_secular(self, zhat: np.ndarray) -> float | None:
        """Root of phi in the open interval where I + nu*Lam > 0, or None.

        phi decreases strictly there.  A march brackets the root, then
        Newton steps run inside the bracket, with a bisection step whenever
        a Newton step would leave it (Moré & Sorensen 1983).
        """
        lo_b, hi_b = self._nu_bounds()
        phi0 = self._phi(0.0, zhat)
        if phi0 == 0.0:
            return 0.0
        bracket = self._march(zhat, phi0, hi_b, +1) if phi0 > 0.0 else self._march(zhat, phi0, lo_b, -1)
        if bracket is None:
            return None
        # keep phi(lo) >= 0 >= phi(hi)
        (lo, f_lo), (hi, f_hi) = bracket
        nu, f = (lo, f_lo) if abs(f_lo) < abs(f_hi) else (hi, f_hi)
        last_step = abs(hi - lo)
        for _ in range(SECULAR_STEP_MAX):
            fp = self._phi_prime(nu, zhat)
            nu_new = nu - f / fp if fp != 0.0 else math.nan
            # bisect when Newton leaves the bracket or stops halving its step
            if not (min(lo, hi) <= nu_new <= max(lo, hi)) or abs(nu_new - nu) > 0.5 * last_step:
                nu_new = 0.5 * (lo + hi)
            step = nu_new - nu
            last_step = abs(step)
            nu = nu_new
            f = self._phi(nu, zhat)
            if f == 0.0 or abs(step) <= 1e-13 * (1.0 + abs(nu)):
                break
            if f > 0.0:
                lo = nu
            else:
                hi = nu
            if abs(hi - lo) <= 1e-13 * (1.0 + abs(lo) + abs(hi)):
                break
        # a root where I + nu*Lam is singular to working precision is a pole
        # that rounding gave a sign change: the hard case, not a root
        return None if self._singular(nu).any() else nu

    def _nearest_root(self, zi: float) -> tuple[float, float] | None:
        """Closed-form projection for one variable: (x, nu), x the root of lam x^2 + qhat x + r nearest zi.

        The lower root wins a tie.  None where the closed form does not give
        the KKT point (no real root, zero gradient, or 1 + nu*lam <= 0).
        """
        if self._roots is None:
            return None
        lo, hi = self._roots
        x, grad = hi if abs(hi[0] - zi) < abs(lo[0] - zi) else lo
        if grad == 0.0:
            return None
        nu = -2.0 * (x - zi) / grad
        if 1.0 + nu * self._lam_i <= 0.0:
            return None
        return x, nu

    def _singular(self, nu: float) -> np.ndarray:
        """Mask of the eigen-directions where 1 + nu*lam is zero to working precision."""
        return np.abs(1.0 + nu * self.lam) < SINGULAR_TOL * (1.0 + abs(nu) * np.max(np.abs(self.lam), initial=0.0))

    def _hard_case(self, zhat: np.ndarray, nu: float) -> np.ndarray | None:
        """KKT point at a boundary multiplier where I + nu*Lam is singular PSD."""
        d = 1.0 + nu * self.lam
        if np.min(d) < -1e-9:
            return None
        free = self._singular(nu)
        if not np.any(free):
            return None
        rhs = zhat - 0.5 * nu * self.qhat
        if np.max(np.abs(rhs[free]), initial=0.0) > 1e-7 * (1.0 + np.linalg.norm(zhat)):
            return None  # inconsistent KKT system at this multiplier
        # free coordinates stay at z, which the consistency check puts at the
        # center of f along them; one free direction then moves onto f = 0
        xh = zhat.copy()
        xh[~free] = rhs[~free] / d[~free]
        e = int(np.argmax(free))  # lowest eigenvector index among free directions
        le = self.lam[e]
        c0 = float(self.lam @ (xh * xh) + self.qhat @ xh + self.r)
        c1 = 2.0 * le * xh[e] + self.qhat[e]
        roots = _stable_roots(le, c1, c0)
        if roots is None:
            return None
        xh[e] += min(roots, key=abs)
        return xh

    def _extremum(self, zhat: np.ndarray) -> tuple[np.ndarray, float] | None:
        """(xhat, nu) when {f = 0} is the set of minimizers (maximizers) of f, else None.

        There grad f = 0, so no multiplier exists: the nearest point keeps
        zhat along the flat directions and takes the center of f along the
        curved ones, the limit of the secular path as nu goes to +inf (-inf).
        """
        eps = 1e-14 * self.scale
        lo_r, hi_r = self.feas_range
        if self.lam[0] >= -eps and lo_r >= -FEAS_TOL * self.scale:
            nu = math.inf
        elif self.lam[-1] <= eps and hi_r <= FEAS_TOL * self.scale:
            nu = -math.inf
        else:
            return None
        curved = np.abs(self.lam) > eps
        xh = zhat.copy()
        xh[curved] = -self.qhat[curved] / (2.0 * self.lam[curved])
        return xh, nu

    # -- public API --------------------------------------------------------

    def project_eq(self, z) -> ProjectionResult:
        """Global minimizer of ||x - z||^2 subject to f(x) = 0."""
        return self.project(z, True)

    def project_ineq(self, z) -> ProjectionResult:
        """Projection onto {x : f(x) <= 0}; returns z unchanged when feasible."""
        return self.project(z, False)

    def project(self, z, equality: bool) -> ProjectionResult:
        """project_eq(z) if equality, else project_ineq(z).

        Both are this one body, so the closed form of one variable is one
        call away from the caller (ADMM projects each such row here, every
        iteration).
        """
        z = np.asarray(z, dtype=float)
        if not equality and evaluate(self.form, z) <= 0.0:
            return ProjectionResult(z.copy(), 0.0, self.form, z, equality=False)
        if self._empty:
            raise InfeasibleConstraintError("equality set {f(x) = 0} is empty")
        i = self._i
        if i is not None and (closed := self._nearest_root(float(z[i]))) is not None:
            x = z.copy()
            x[i], nu = closed
            return ProjectionResult(x, nu, self.form, z)
        zs = z if self._support is None else z[self._support]
        if self._affine_q is not None:
            q = self._affine_q
            qn = float(q @ q)
            if qn == 0.0:
                return ProjectionResult(z.copy(), 0.0, self.form, z)
            nu = 2.0 * float(zs @ (self._p @ zs) + q @ zs + self.r) / qn  # 2 f(z) / ||q||^2
            return ProjectionResult(self._embed(z, zs - 0.5 * nu * q), nu, self.form, z)
        zhat = self._rotate(zs)
        if (nu := self._solve_secular(zhat)) is not None:
            xh = self._xhat(nu, zhat)
        else:
            xh = None
            lo_b, hi_b = self._nu_bounds()
            # a boundary -1/lam of an eigenvalue that is zero up to rounding is no boundary
            for nub, lam_b in ((lo_b, self.lam[-1]), (hi_b, self.lam[0])):
                if math.isfinite(nub) and abs(lam_b) > 1e-14 * self.scale:
                    xh = self._hard_case(zhat, nub)
                    if xh is not None:
                        nu = nub
                        break
            if xh is None:
                extremum = self._extremum(zhat)
                if extremum is None:
                    raise NumericalFailureError("no KKT point found for the projection")
                xh, nu = extremum
        return ProjectionResult(self._embed(z, self._unrotate(xh)), float(nu), self.form, z)


def project_eq(z, form: QuadraticForm) -> ProjectionResult:
    return ConstraintProjector(form).project_eq(z)


def project_ineq(z, form: QuadraticForm) -> ProjectionResult:
    return ConstraintProjector(form).project_ineq(z)


# -- general one-constraint QCQP ------------------------------------------


class OneConstraintStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    DUAL_UNBOUNDED = "dual_unbounded"


@dataclass(frozen=True)
class OneConstraintResult:
    status: OneConstraintStatus
    x: np.ndarray | None = None
    value: float | None = None
    eta: float | None = None


NULL_TOL = 1e-12  # relative size below which a direction or vector counts as zero
PD_TOL = 1e-12  # relative lambda_min a probe of the pencil needs to count as definite


def _scale(form: QuadraticForm) -> float:
    return norm(form.dense_p) + norm(form.q_vec) + abs(form.r) + 1.0


def _boundary_minimizer(objective: QuadraticForm, form: QuadraticForm, eta: float) -> np.ndarray | None:
    """A minimizer x of f0 + eta*f1 with f1(x) = 0 (f1(x) <= 0 at eta = 0), or None.

    None when f0 + eta*f1 is unbounded below or no minimizer meets the
    constraint that way.  The minimizers form x + span(Z), Z the null space
    of P0 + eta*P1, and the point on {f1 = 0} nearest the least-norm one is
    a projection in span(Z).
    """
    scale1 = _scale(form)
    tol = 1e-11 * (_scale(objective) + eta * scale1)
    eig = sym_eigen(objective.dense_p + eta * form.dense_p)
    w, V = eig.values, eig.vectors
    b = V.T @ (-0.5 * (objective.q_vec + eta * form.q_vec))
    null = np.abs(w) <= 10.0 * tol
    if np.min(w, initial=0.0) < -tol or np.max(np.abs(b[null]), initial=0.0) > 1e-7 * (1.0 + norm(b)):
        return None
    x = V[:, ~null] @ (b[~null] / w[~null])
    f1 = evaluate(form, x)
    if f1 == 0.0 or (eta == 0.0 and f1 <= FEAS_TOL * scale1):
        return x
    Z = V[:, null]
    proj = ConstraintProjector(QuadraticForm.from_dense(Z.T @ form.dense_p @ Z, Z.T @ form.gradient(x), f1))
    lo, hi = proj.feas_range
    if not (lo <= 0.0 <= hi):
        return None
    return x + Z @ proj.project_eq(np.zeros(Z.shape[1])).x


def _project_pencil(objective: QuadraticForm, form: QuadraticForm) -> tuple[np.ndarray, float] | None:
    """(x, eta) with x minimizing f0 over {f1 = 0}, or None when no P0 + eta*P1 is definite.

    A probe eta_bar >= 0 with P0 + eta_bar*P1 = LL' > 0 turns f0 + eta_bar*f1
    into ||y - c||^2 + const with y = L'x and c = -L^-1 (q0 + eta_bar*q1) / 2,
    so the minimum of f0 on {f1 = 0} is the projection of c onto that set in
    y, and its multiplier nu gives eta = eta_bar + nu.  When the pencil is
    still definite at that eta, a second projection from eta_bar = eta
    recovers the digits that eta_bar + nu cancelled.
    """
    P0, P1 = objective.dense_p, form.dense_p
    scale0, scale1 = _scale(objective), _scale(form)

    def margins(etas):
        return np.linalg.eigvalsh(P0 + etas[:, None, None] * P1)[:, 0] / (scale0 + etas * scale1)

    def project_from(eta_bar):
        Li = inv_chol(P0 + eta_bar * P1)
        c = -0.5 * (Li @ (objective.q_vec + eta_bar * form.q_vec))
        res = ConstraintProjector(QuadraticForm.from_dense(Li @ P1 @ Li.T, Li @ form.q_vec, form.r)).project_eq(c)
        return Li.T @ res.x, max(eta_bar + res.nu, 0.0)

    with np.errstate(over="ignore"):
        probes = np.concatenate(([0.0], scale0 / scale1 * 2.0 ** np.arange(-24.0, 44.0)))
        # a probe whose pencil (of norm below scale0 + eta*scale1) leaves the float range tells nothing
        probes = probes[np.isfinite(scale0 + probes * scale1)]
    m = margins(probes)
    best = float(m.max())
    if not best > PD_TOL:
        return None
    # the smallest probe near the best margin: a huge eta_bar would cancel in eta_bar + nu
    eta_bar = float(probes[np.argmax(m >= 0.5 * best)])
    x, eta = project_from(eta_bar)
    if eta != eta_bar and math.isfinite(eta) and margins(np.array([eta]))[0] > PD_TOL:
        try:
            x, eta = project_from(eta)
        except NumericalFailureError:
            pass  # keep the first answer
    return x, eta


def solve_one_constraint(objective: QuadraticForm, form: QuadraticForm) -> OneConstraintResult:
    """Global minimizer of a quadratic objective subject to one inequality f1 <= 0.

    A convex objective with a feasible minimizer is returned with eta = 0.
    Otherwise the optimum lies on {f1 = 0} (the S-lemma; More 1993).
    Directions in the common null space N of P0 and P1 enter both forms
    linearly: either q0 + eta*q1 is orthogonal to N for one eta >= 0, which
    fixes the multiplier, or the dual is unbounded.  The rest is a
    projection after simultaneous diagonalization (_project_pencil); the N
    part of x is set last so that f1(x) = 0.  A pencil with no positive
    definite point returns DUAL_UNBOUNDED, the vacuous bound -inf.
    """
    P0, q0, P1, q1 = objective.dense_p, objective.q_vec, form.dense_p, form.q_vec
    scale0, scale1 = _scale(objective), _scale(form)
    unbounded = OneConstraintResult(OneConstraintStatus.DUAL_UNBOUNDED)

    def optimal(x, eta):
        return OneConstraintResult(OneConstraintStatus.OPTIMAL, x=x, value=evaluate(objective, x), eta=float(eta))

    if ConstraintProjector(form).feas_range[0] > FEAS_TOL * scale1:
        return OneConstraintResult(OneConstraintStatus.INFEASIBLE)
    x = _boundary_minimizer(objective, form, 0.0)
    if x is not None:
        return optimal(x, 0.0)

    _, s, Vt = np.linalg.svd(np.vstack([P0 / scale0, P1 / scale1]))
    rank = int(np.count_nonzero(s > NULL_TOL))
    B, N = Vt[:rank].T, Vt[rank:].T
    a0, a1 = N.T @ q0, N.T @ q1
    a1_sq = float(a1 @ a1)
    try:
        null_sq = (NULL_TOL * scale1) ** 2
    except OverflowError:  # a float ** raises where * would give inf: no a1 is above it
        null_sq = math.inf
    if a1_sq > null_sq:
        # eta is fixed by q0 + eta*q1 orthogonal to N
        eta = max(-float(a0 @ a1) / a1_sq, 0.0)
        if np.linalg.norm(a0 + eta * a1) > NULL_TOL * (scale0 + eta * scale1):
            return unbounded
        x = _boundary_minimizer(objective, form, eta)
        return unbounded if x is None else optimal(x, eta)
    if np.linalg.norm(a0) > NULL_TOL * scale0:
        return unbounded

    def restrict(f):
        return QuadraticForm.from_dense(B.T @ f.dense_p @ B, B.T @ f.q_vec, f.r)

    sol = _project_pencil(restrict(objective), restrict(form))
    if sol is None:
        return unbounded
    return optimal(B @ sol[0], sol[1])


def solve_interval(objective: QuadraticForm, form: QuadraticForm, l: float, u: float) -> OneConstraintResult:
    """Minimize a quadratic subject to l <= f1(x) <= u.

    Solves the two one-sided problems; one of the two solutions is optimal
    for the interval problem.
    """
    if l > u:
        raise ValueError("interval bounds must satisfy l <= u")
    subresults = []
    if math.isfinite(u):
        upper = QuadraticForm._of_symmetric(form.dense_p, form.q_vec, form.r - u)
    else:
        upper = QuadraticForm.create(form.n, (), None, -1.0)  # vacuous constraint
    subresults.append(solve_one_constraint(objective, upper))
    if math.isfinite(l):
        lower = QuadraticForm._of_symmetric(-form.dense_p, -form.q_vec, l - form.r)
        subresults.append(solve_one_constraint(objective, lower))
    tol = 1e-6 * _scale(form)
    feasible = []
    for res in subresults:
        if res.status is not OneConstraintStatus.OPTIMAL:
            continue
        fx = evaluate(form, res.x)
        if l - tol <= fx <= u + tol:
            feasible.append(res)
    if feasible:
        return min(feasible, key=lambda r: r.value)
    optimal = [r for r in subresults if r.status is OneConstraintStatus.OPTIMAL]
    if optimal:
        return min(optimal, key=lambda r: r.value)
    if any(r.status is OneConstraintStatus.DUAL_UNBOUNDED for r in subresults):
        return OneConstraintResult(OneConstraintStatus.DUAL_UNBOUNDED)
    raise InfeasibleConstraintError("both one-sided subproblems are infeasible")
