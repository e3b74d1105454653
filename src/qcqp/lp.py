"""Linear programming interface used by the cutting-plane relaxation.

A thin wrapper over scipy's HiGHS backend with an explicit status enum and
an optional certificate check on the returned duals, plus an incremental
LP that keeps one HiGHS model alive while inequality rows are appended.

scipy is imported on first use, not with this module, so the rest of the
package loads numpy only: solve_lp imports scipy.optimize when it runs,
and the module attributes _Highs and HighsModelStatus (scipy's private
persistent HiGHS model and its status enum, None where scipy lacks them)
are bound on first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import NumericalFailureError

DUAL_FEAS_TOL = 1e-7
_HIGHS_NAMES = ("_Highs", "HighsModelStatus")


def _highs_api():
    """(_Highs, HighsModelStatus), importing them on the first call.

    Names already bound, by an earlier call or by a caller that set them,
    are kept.
    """
    g = globals()
    if not all(name in g for name in _HIGHS_NAMES):
        try:  # scipy's persistent HiGHS model; a private API that may move or vanish
            from scipy.optimize._highspy._core import HighsModelStatus, _Highs
        except ImportError:
            _Highs = HighsModelStatus = None
        g.setdefault("_Highs", _Highs)
        g.setdefault("HighsModelStatus", HighsModelStatus)
    return g["_Highs"], g["HighsModelStatus"]


def __getattr__(name):
    # PEP 562: called only for names not yet bound in the module
    if name in _HIGHS_NAMES:
        _highs_api()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass
class LinearProgram:
    """min c'y  s.t.  A_ub y <= b_ub,  A_eq y = b_eq,  lb <= y <= ub.

    Bounds are per-variable arrays; +-inf entries mean unbounded.
    """

    c: np.ndarray
    a_ub: np.ndarray | None = None
    b_ub: np.ndarray | None = None
    a_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    lb: np.ndarray | None = None
    ub: np.ndarray | None = None

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        n = self.c.size
        for name in ("a_ub", "a_eq"):
            A = getattr(self, name)
            if A is not None:
                A = np.atleast_2d(np.asarray(A, dtype=float))
                if A.shape[1] != n:
                    raise ValueError(f"{name} has {A.shape[1]} columns, expected {n}")
                setattr(self, name, A)
        for name in ("b_ub", "b_eq"):
            b = getattr(self, name)
            if b is not None:
                setattr(self, name, np.atleast_1d(np.asarray(b, dtype=float)))
        if self.lb is None:
            self.lb = np.full(n, -np.inf)
        if self.ub is None:
            self.ub = np.full(n, np.inf)
        self.lb = np.asarray(self.lb, dtype=float)
        self.ub = np.asarray(self.ub, dtype=float)


@dataclass(frozen=True)
class LpResult:
    status: LpStatus
    y: np.ndarray | None = None
    value: float | None = None
    duals_ub: np.ndarray | None = None
    duals_eq: np.ndarray | None = None


def solve_lp(lp: LinearProgram, check_duals: bool = False) -> LpResult:
    """Solve with HiGHS; optionally verify dual sign feasibility at 1e-7."""
    import scipy.optimize

    bounds = list(zip(lp.lb, lp.ub))
    res = scipy.optimize.linprog(
        lp.c,
        A_ub=lp.a_ub,
        b_ub=lp.b_ub,
        A_eq=lp.a_eq,
        b_eq=lp.b_eq,
        bounds=bounds,
        method="highs",
    )
    if res.status == 2:
        return LpResult(LpStatus.INFEASIBLE)
    if res.status == 3:
        return LpResult(LpStatus.UNBOUNDED)
    if res.status != 0:
        raise NumericalFailureError(f"LP solver failed: {res.message}")
    duals_ub = None
    duals_eq = None
    if res.ineqlin is not None and lp.a_ub is not None:
        # scipy reports marginals with sign opposite the textbook multiplier
        duals_ub = -np.asarray(res.ineqlin.marginals, dtype=float)
    if res.eqlin is not None and lp.a_eq is not None:
        duals_eq = -np.asarray(res.eqlin.marginals, dtype=float)
    if check_duals and duals_ub is not None:
        if np.min(duals_ub, initial=0.0) < -DUAL_FEAS_TOL:
            raise NumericalFailureError("inequality duals violate nonnegativity")
    return LpResult(
        status=LpStatus.OPTIMAL,
        y=np.asarray(res.x, dtype=float),
        value=float(res.fun),
        duals_ub=duals_ub,
        duals_eq=duals_eq,
    )


def _add_rows(highs, a: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> None:
    """Append the dense rows of a to a HiGHS model, passing only nonzeros."""
    rows, cols = np.nonzero(a)
    starts = np.searchsorted(rows, np.arange(a.shape[0])).astype(np.int32)
    highs.addRows(a.shape[0], lower, upper, rows.size, starts, cols.astype(np.int32), a[rows, cols])


class IncrementalLp:
    """A LinearProgram whose inequality rows grow between solves.

    Where scipy ships its persistent HiGHS model, one model lives for the
    whole sequence: add_rows appends rows in place and solve restarts dual
    simplex from the previous optimal basis.  A run that ends in any status
    other than optimal, infeasible or unbounded is repeated from scratch and
    then, if that fails too, handed to solve_lp with the same rows, which
    raises NumericalFailureError on failure.  Without the persistent model
    every solve goes through solve_lp.
    """

    def __init__(self, lp: LinearProgram):
        self._base = lp
        n = lp.c.size
        self._a_ub = [] if lp.a_ub is None else [lp.a_ub]
        self._b_ub = [] if lp.b_ub is None else [lp.b_ub]
        self._n_eq = 0 if lp.b_eq is None else lp.b_eq.size
        self._highs = None
        highs_cls, _ = _highs_api()
        if highs_cls is None:
            return
        h = highs_cls()
        h.setOptionValue("output_flag", False)
        # columns first, with no entries; rows are then added eq-block first
        h.addCols(n, lp.c, lp.lb, lp.ub, 0, np.zeros(n, dtype=np.int32), np.zeros(0, dtype=np.int32), np.zeros(0))
        if lp.a_eq is not None:
            _add_rows(h, lp.a_eq, lp.b_eq, lp.b_eq)
        if lp.a_ub is not None:
            _add_rows(h, lp.a_ub, np.full(lp.b_ub.size, -np.inf), lp.b_ub)
        self._highs = h

    def add_rows(self, a, b) -> None:
        """Append inequality rows a y <= b."""
        a = np.atleast_2d(np.asarray(a, dtype=float))
        b = np.atleast_1d(np.asarray(b, dtype=float))
        if a.shape != (b.size, self._base.c.size):
            raise ValueError(f"rows have shape {a.shape}, expected ({b.size}, {self._base.c.size})")
        self._a_ub.append(a)
        self._b_ub.append(b)
        if self._highs is not None:
            _add_rows(self._highs, a, np.full(b.size, -np.inf), b)

    def program(self) -> LinearProgram:
        """The base program with every appended row, as one LinearProgram."""
        base = self._base
        return LinearProgram(
            c=base.c,
            a_ub=np.vstack(self._a_ub) if self._a_ub else None,
            b_ub=np.concatenate(self._b_ub) if self._b_ub else None,
            a_eq=base.a_eq,
            b_eq=base.b_eq,
            lb=base.lb,
            ub=base.ub,
        )

    def solve(self) -> LpResult:
        if self._highs is not None:
            res = self._run()
            if res is None:
                self._highs.clearSolver()
                res = self._run()
            if res is not None:
                return res
        return solve_lp(self.program())

    def _run(self) -> LpResult | None:
        """One HiGHS run from the current basis; None unless it settled."""
        h = self._highs
        _, HighsModelStatus = _highs_api()
        h.run()
        status = h.getModelStatus()
        if status == HighsModelStatus.kInfeasible:
            return LpResult(LpStatus.INFEASIBLE)
        if status == HighsModelStatus.kUnbounded:
            return LpResult(LpStatus.UNBOUNDED)
        if status != HighsModelStatus.kOptimal:
            return None
        sol = h.getSolution()
        # HiGHS row duals carry the sign opposite the textbook multiplier
        row_dual = -np.asarray(sol.row_dual, dtype=float)
        return LpResult(
            status=LpStatus.OPTIMAL,
            y=np.asarray(sol.col_value, dtype=float),
            value=float(h.getInfo().objective_function_value),
            duals_ub=row_dual[self._n_eq :] if self._a_ub else None,
            duals_eq=row_dual[: self._n_eq] if self._base.a_eq is not None else None,
        )
