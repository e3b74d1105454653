"""Solvers for QCQPs with a single quadratic constraint.

Three related subproblems live here:

* projection of a point onto {x : f(x) = 0} or {x : f(x) <= 0}, solved by
  rotating into the eigenbasis of the constraint matrix and solving the
  monotone secular equation in the multiplier nu by safeguarded Newton
  steps (one-variable supports take the nearest root in closed form);
* the interval-constraint variant l <= f(x) <= u, solved as two one-sided
  problems;
* the general one-constraint QCQP min f0 s.t. f1 <= 0, solved by maximizing
  the one-dimensional concave dual over the eta range where P0 + eta*P1 is
  positive semidefinite.

All methods handle the singular-pencil ("hard") case by least squares plus a
null-space correction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import QuadraticForm, evaluate
from .errors import InfeasibleConstraintError, NumericalFailureError
from .linalg import sym_eigen
from .onevar import _stable_roots

SINGULAR_TOL = 1e-10
SECULAR_STEP_MAX = 100
FEAS_TOL = 1e-9


@dataclass(frozen=True)
class ProjectionResult:
    x: np.ndarray
    nu: float
    kkt_residual: float


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
    """Caches the eigendecomposition of one constraint for repeated projections."""

    def __init__(self, form: QuadraticForm):
        self.form = form
        self.n = form.n
        # projections leave coordinates outside the support of f untouched,
        # so constraints touching few variables project in a small subspace
        P = form.dense_p
        support = np.flatnonzero(P.any(axis=0) | (form.q_vec != 0.0))
        self._support = None
        self._sub = None
        if 0 < support.size < form.n:
            self._support = support
            sub_form = QuadraticForm._of_symmetric(
                P[np.ix_(support, support)], form.q_vec[support], form.r
            )
            self._sub = ConstraintProjector(sub_form)
            self.feas_range = self._sub.feas_range
            self.scale = self._sub.scale
            return
        self._affine_q = form.q_vec if form.is_affine else None
        self._is_diagonal = bool(np.count_nonzero(P - np.diag(np.diag(P))) == 0)
        if self._is_diagonal:
            order = np.argsort(np.diag(P))
            self.lam = np.diag(P)[order]
            self._perm = order
            self.Q = None
        else:
            eig = sym_eigen(P)
            self.lam = eig.values
            self.Q = eig.vectors
            self._perm = None
        self.qhat = self._rotate(form.q_vec)
        self.r = form.r
        self.scale = float(np.max(np.abs(self.lam), initial=0.0) + np.linalg.norm(self.qhat) + abs(self.r) + 1.0)
        self.feas_range = _quad_range(self.lam, self.qhat, self.r, 1e-14 * self.scale)

    def _rotate(self, v: np.ndarray) -> np.ndarray:
        if self.Q is None:
            return v[self._perm]
        return self.Q.T @ v

    def _unrotate(self, v: np.ndarray) -> np.ndarray:
        if self.Q is None:
            out = np.empty_like(v)
            out[self._perm] = v
            return out
        return self.Q @ v

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
        lmax = self.lam[-1] if self.n else 0.0
        lmin = self.lam[0] if self.n else 0.0
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
        if phi0 > 0.0:
            bracket = self._march(zhat, phi0, hi_b, +1)
        else:
            bracket = self._march(zhat, phi0, lo_b, -1)
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
        return nu

    def _nearest_root(self, zhat: np.ndarray) -> tuple[np.ndarray, float] | None:
        """Closed-form projection for one variable: the root of lam y^2 + qhat y + r nearest zhat.

        The lower root wins a tie.  None where the closed form does not give
        the KKT point (no real root, zero gradient, or 1 + nu*lam <= 0).
        """
        lam, qh, z0 = float(self.lam[0]), float(self.qhat[0]), float(zhat[0])
        roots = _stable_roots(lam, qh, self.r)
        if roots is None:
            return None
        lo, hi = roots
        x = hi if abs(hi - z0) < abs(lo - z0) else lo
        grad = 2.0 * lam * x + qh
        if grad == 0.0:
            return None
        nu = -2.0 * (x - z0) / grad
        if 1.0 + nu * lam <= 0.0:
            return None
        return np.array([x]), nu

    def _hard_case(self, zhat: np.ndarray, nu: float) -> np.ndarray | None:
        """KKT point at a boundary multiplier where I + nu*Lam is singular PSD."""
        d = 1.0 + nu * self.lam
        if np.min(d) < -1e-9:
            return None
        free = np.abs(d) < SINGULAR_TOL * (1.0 + abs(nu) * np.max(np.abs(self.lam), initial=0.0))
        if not np.any(free):
            return None
        rhs = zhat - 0.5 * nu * self.qhat
        if np.max(np.abs(rhs[free]), initial=0.0) > 1e-7 * (1.0 + np.linalg.norm(zhat)):
            return None  # inconsistent KKT system at this multiplier
        xh = np.zeros_like(zhat)
        nonfree = ~free
        xh[nonfree] = rhs[nonfree] / d[nonfree]
        e = int(np.argmax(free))  # lowest eigenvector index among free directions
        le = self.lam[e]
        c0 = float(self.lam @ (xh * xh) + self.qhat @ xh + self.r)
        c1 = 2.0 * le * xh[e] + self.qhat[e]
        roots = _stable_roots(le, c1, c0)
        if roots is None:
            return None
        target = zhat[e] - xh[e]
        alpha = min(roots, key=lambda a: (a - target) ** 2)
        xh[e] += alpha
        return xh

    # -- public API --------------------------------------------------------

    def project_eq(self, z) -> ProjectionResult:
        """Global minimizer of ||x - z||^2 subject to f(x) = 0."""
        z = np.asarray(z, dtype=float)
        if self._sub is not None:
            sub_res = self._sub.project_eq(z[self._support])
            x = z.copy()
            x[self._support] = sub_res.x
            return ProjectionResult(x=x, nu=sub_res.nu, kkt_residual=sub_res.kkt_residual)
        lo_r, hi_r = self.feas_range
        if not (lo_r <= FEAS_TOL * self.scale and hi_r >= -FEAS_TOL * self.scale):
            raise InfeasibleConstraintError("equality set {f(x) = 0} is empty")
        if self._affine_q is not None:
            qn = float(self._affine_q @ self._affine_q)
            if qn == 0.0:
                return ProjectionResult(x=z.copy(), nu=0.0, kkt_residual=abs(self.form.r))
            nu = 2.0 * evaluate(self.form, z) / qn
            x = z - 0.5 * nu * self._affine_q
            return ProjectionResult(x=x, nu=nu, kkt_residual=abs(evaluate(self.form, x)))
        zhat = self._rotate(z)
        closed = self._nearest_root(zhat) if self.n == 1 else None
        if closed is not None:
            xh, nu = closed
        elif (nu := self._solve_secular(zhat)) is not None:
            xh = self._xhat(nu, zhat)
        else:
            xh = None
            lo_b, hi_b = self._nu_bounds()
            for nub in (lo_b, hi_b):
                if math.isfinite(nub):
                    xh = self._hard_case(zhat, nub)
                    if xh is not None:
                        nu = nub
                        break
            if xh is None:
                raise NumericalFailureError("no KKT point found for the projection")
        x = self._unrotate(xh)
        return ProjectionResult(x=x, nu=float(nu), kkt_residual=self._kkt_residual(x, z, nu))

    def project_ineq(self, z) -> ProjectionResult:
        """Projection onto {x : f(x) <= 0}; returns z unchanged when feasible."""
        z = np.asarray(z, dtype=float)
        if evaluate(self.form, z) <= 0.0:
            return ProjectionResult(x=z.copy(), nu=0.0, kkt_residual=0.0)
        return self.project_eq(z)

    def project(self, z, equality: bool) -> ProjectionResult:
        return self.project_eq(z) if equality else self.project_ineq(z)

    def _kkt_residual(self, x: np.ndarray, z: np.ndarray, nu: float) -> float:
        grad = self.form.gradient(x)
        stat = float(np.linalg.norm(2.0 * (x - z) + nu * grad))
        feas = abs(evaluate(self.form, x))
        return max(stat, feas)


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


def _pseudo_solve(P: np.ndarray, rhs: np.ndarray, tol: float):
    """Least-norm consistent solution of P y = rhs for symmetric PSD P.

    Returns (y, consistent, eig) where eig is the decomposition of P.
    """
    eig = sym_eigen(P)
    w, V = eig.values, eig.vectors
    b = V.T @ rhs
    keep = np.abs(w) > tol
    y = np.zeros_like(b)
    y[keep] = b[keep] / w[keep]
    consistent = bool(np.max(np.abs(b[~keep]), initial=0.0) <= 1e-7 * (1.0 + np.linalg.norm(rhs)))
    return V @ y, consistent, eig


def solve_one_constraint(objective: QuadraticForm, form: QuadraticForm) -> OneConstraintResult:
    """Global minimizer of a quadratic objective subject to one inequality f1 <= 0.

    Maximizes the concave scalar dual over {eta >= 0 : P0 + eta*P1 >= 0} by
    bisecting on the dual derivative f1(x(eta)); boundary multipliers where
    the pencil is singular fall back to a null-space correction.
    """
    P0, q0, r0 = objective.dense_p, objective.q_vec, objective.r
    P1, q1, r1 = form.dense_p, form.q_vec, form.r
    n = objective.n
    scale0 = float(np.linalg.norm(P0) + np.linalg.norm(q0) + abs(r0) + 1.0)
    scale1 = float(np.linalg.norm(P1) + np.linalg.norm(q1) + abs(r1) + 1.0)

    proj1 = ConstraintProjector(form)
    lo1, _ = proj1.feas_range
    if lo1 > FEAS_TOL * scale1:
        return OneConstraintResult(OneConstraintStatus.INFEASIBLE)

    def P(eta):
        return P0 + eta * P1

    def q(eta):
        return q0 + eta * q1

    def lam_min(eta):
        return float(np.linalg.eigvalsh(P(eta))[0])

    def psd_tol(eta):
        return 1e-11 * (scale0 + abs(eta) * scale1)

    def f1(x):
        return float(x @ (P1 @ x) + q1 @ x + r1)

    def f0(x):
        return float(x @ (P0 @ x) + q0 @ x + r0)

    # eta = 0: constraint possibly inactive
    if lam_min(0.0) >= -psd_tol(0.0):
        x_u, consistent, _ = _pseudo_solve(P0, -0.5 * q0, psd_tol(0.0) * 10)
        if consistent and f1(x_u) <= FEAS_TOL * scale1:
            return OneConstraintResult(OneConstraintStatus.OPTIMAL, x=x_u, value=f0(x_u), eta=0.0)

    # locate the PSD interval of the pencil on eta >= 0
    unit = scale0 / scale1
    probes = [0.0] + [unit * 2.0**k for k in range(-24, 44)]
    vals = [lam_min(t) for t in probes]
    best_i = int(np.argmax(vals))
    if vals[best_i] < -psd_tol(probes[best_i]):
        return OneConstraintResult(OneConstraintStatus.DUAL_UNBOUNDED)
    eta_best = probes[best_i]

    def _polish_boundary(eta):
        # Newton on lam_min using eigenvector sensitivity
        for _ in range(6):
            w, V = np.linalg.eigh(P(eta))
            v = V[:, 0]
            slope = float(v @ (P1 @ v))
            if slope == 0.0:
                break
            eta_new = eta - w[0] / slope
            if not math.isfinite(eta_new):
                break
            eta = max(eta_new, 0.0)
        return eta

    def _bracket_root(lo, hi):
        # lam_min(lo) and lam_min(hi) straddle zero; bisect then polish
        flo = lam_min(lo)
        for _ in range(120):
            mid = 0.5 * (lo + hi)
            fm = lam_min(mid)
            if (fm >= 0.0) == (flo >= 0.0):
                lo, flo = mid, fm
            else:
                hi = mid
            if abs(hi - lo) <= 1e-13 * (1.0 + abs(lo) + abs(hi)):
                break
        return _polish_boundary(0.5 * (lo + hi))

    # left endpoint of the PSD interval
    if vals[0] >= -psd_tol(0.0):
        eta_a = 0.0
    else:
        eta_a = _bracket_root(0.0, eta_best)
    # right endpoint (may be +inf)
    eta_b = math.inf
    for t in probes[best_i + 1 :]:
        if lam_min(t) < -psd_tol(t):
            eta_b = _bracket_root(t, eta_best)
            break

    def x_of(eta):
        M = P(eta)
        try:
            return np.linalg.solve(M, -0.5 * q(eta))
        except np.linalg.LinAlgError:
            y, _, _ = _pseudo_solve(M, -0.5 * q(eta), psd_tol(eta) * 10)
            return y

    def phi(eta):
        return f1(x_of(eta))

    def hard_case_at(eta):
        M = P(eta)
        x0, consistent, eig = _pseudo_solve(M, -0.5 * q(eta), psd_tol(eta) * 10)
        if not consistent:
            return None
        w, V = eig.values, eig.vectors
        free = np.abs(w) <= psd_tol(eta) * 10
        if not np.any(free):
            return None
        e = V[:, int(np.argmax(free))]
        a2 = float(e @ (P1 @ e))
        a1 = float((2.0 * (P1 @ x0) + q1) @ e)
        a0 = f1(x0)
        roots = _stable_roots(a2, a1, a0)
        if roots is None:
            return None
        b2 = float(e @ (P0 @ e))
        b1 = float((2.0 * (P0 @ x0) + q0) @ e)
        alpha = min(roots, key=lambda a: b2 * a * a + b1 * a)
        return x0 + alpha * e

    span = (eta_b - eta_a) if math.isfinite(eta_b) else max(1.0, eta_a, unit)
    inner_a = eta_a + 1e-8 * span
    if phi(inner_a) <= 0.0:
        # dual maximized at the left endpoint
        if eta_a <= 0.0:
            x = x_of(0.0)
            return OneConstraintResult(OneConstraintStatus.OPTIMAL, x=x, value=f0(x), eta=0.0)
        x = hard_case_at(eta_a)
        if x is None:
            return OneConstraintResult(OneConstraintStatus.DUAL_UNBOUNDED)
        return OneConstraintResult(OneConstraintStatus.OPTIMAL, x=x, value=f0(x), eta=eta_a)

    # find an upper bracket with phi < 0
    hi = None
    if math.isfinite(eta_b):
        inner_b = eta_b - 1e-8 * span
        if phi(inner_b) >= 0.0:
            x = hard_case_at(eta_b)
            if x is None:
                return OneConstraintResult(OneConstraintStatus.DUAL_UNBOUNDED)
            return OneConstraintResult(OneConstraintStatus.OPTIMAL, x=x, value=f0(x), eta=eta_b)
        hi = inner_b
    else:
        t = max(eta_a, unit)
        for _ in range(120):
            t = 2.0 * t + unit
            if phi(t) < 0.0:
                hi = t
                break
        if hi is None:
            raise NumericalFailureError("dual derivative never changes sign")

    lo = inner_a
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if phi(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if abs(hi - lo) <= 1e-14 * (1.0 + abs(lo) + abs(hi)):
            break
    eta_star = 0.5 * (lo + hi)
    # Newton polish on phi using its analytic derivative
    for _ in range(8):
        x = x_of(eta_star)
        g = 2.0 * (P1 @ x) + q1
        try:
            slope = -0.5 * float(g @ np.linalg.solve(P(eta_star), g))
        except np.linalg.LinAlgError:
            break
        if slope == 0.0:
            break
        step = f1(x) / slope
        eta_new = eta_star - step
        if not (lo - 1e-9 * span <= eta_new <= hi + 1e-9 * span):
            break
        eta_star = eta_new
        if abs(step) <= 1e-16 * (1.0 + abs(eta_star)):
            break
    x = x_of(eta_star)
    return OneConstraintResult(OneConstraintStatus.OPTIMAL, x=x, value=f0(x), eta=float(eta_star))


def solve_interval(objective: QuadraticForm, form: QuadraticForm, l: float, u: float) -> OneConstraintResult:
    """Minimize a quadratic subject to l <= f1(x) <= u.

    Solves the two one-sided problems; one of the two solutions is optimal
    for the interval problem.
    """
    if l > u:
        raise ValueError("interval bounds must satisfy l <= u")
    scale1 = float(np.linalg.norm(form.dense_p) + np.linalg.norm(form.q_vec) + abs(form.r) + 1.0)
    subresults = []
    if math.isfinite(u):
        upper = QuadraticForm._of_symmetric(form.dense_p, form.q_vec, form.r - u)
    else:
        upper = QuadraticForm.create(form.n, (), None, -1.0)  # vacuous constraint
    subresults.append(solve_one_constraint(objective, upper))
    if math.isfinite(l):
        lower = QuadraticForm._of_symmetric(-form.dense_p, -form.q_vec, l - form.r)
        subresults.append(solve_one_constraint(objective, lower))
    tol = 1e-6 * scale1
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
