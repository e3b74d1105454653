"""Exact solver for one-variable QCQPs via disjoint-interval intersection.

The feasible set of p x^2 + q x + r <= 0 is a closed interval, a half-line,
the complement of an open interval, the whole line, or empty.  Intersecting
m such sets yields at most m+1 disjoint closed intervals, and the minimum of
a quadratic over the result is attained at an interval endpoint or at the
unconstrained minimizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

INF = math.inf
AFFINE_EPS = 1e-12


@dataclass(frozen=True)
class IntervalSet:
    """Sorted, pairwise disjoint closed intervals; endpoints may be infinite."""

    intervals: tuple[tuple[float, float], ...]

    @classmethod
    def full(cls) -> "IntervalSet":
        return cls(((-INF, INF),))

    @classmethod
    def empty(cls) -> "IntervalSet":
        return cls(())

    @classmethod
    def of(cls, *intervals) -> "IntervalSet":
        ivs = sorted((float(a), float(b)) for a, b in intervals)
        for a, b in ivs:
            if a > b:
                raise ValueError(f"invalid interval [{a}, {b}]")
        for (_, b0), (a1, _) in zip(ivs, ivs[1:]):
            if a1 <= b0:
                raise ValueError("intervals must be pairwise disjoint")
        return cls(tuple(ivs))

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    def contains(self, x: float) -> bool:
        return any(a <= x <= b for a, b in self.intervals)

    def closest_point(self, x: float) -> float:
        """Nearest point of the set to x; the set must be nonempty."""
        best, dist = None, INF
        for a, b in self.intervals:
            p = min(max(x, a), b)
            if not math.isfinite(p):
                # fully unbounded interval, x itself is inside
                p = x if a <= x <= b else (a if math.isfinite(a) else b)
            d = abs(p - x)
            if d < dist:
                best, dist = p, d
        if best is None:
            raise ValueError("empty interval set")
        return best


def _stable_roots(p: float, q: float, r: float) -> tuple[float, float] | None:
    """Real roots of p x^2 + q x + r, sign-aware to avoid cancellation."""
    disc = q * q - 4.0 * p * r
    if disc < 0.0:
        return None
    sq = math.sqrt(disc)
    if q >= 0.0:
        big = -(q + sq) / 2.0
    else:
        big = -(q - sq) / 2.0
    if big == 0.0:
        x1 = x2 = -q / (2.0 * p)
    else:
        x1 = big / p
        x2 = r / big
    return (min(x1, x2), max(x1, x2))


def constraint_solution_set(p: float, q: float, r: float) -> IntervalSet:
    """Exact solution set of p x^2 + q x + r <= 0."""
    if abs(p) < AFFINE_EPS:
        if abs(q) < AFFINE_EPS:
            return IntervalSet.full() if r <= 0.0 else IntervalSet.empty()
        x0 = -r / q
        return IntervalSet.of((-INF, x0)) if q > 0.0 else IntervalSet.of((x0, INF))
    roots = _stable_roots(p, q, r)
    if p > 0.0:
        if roots is None:
            return IntervalSet.empty()
        return IntervalSet.of(roots)
    # p < 0: nonpositive outside the open root interval (or everywhere)
    if roots is None:
        return IntervalSet.full()
    a, b = roots
    if a == b:
        return IntervalSet.full()
    return IntervalSet(((-INF, a), (b, INF)))


def intersect(S: IntervalSet, T: IntervalSet) -> IntervalSet:
    """Exact set intersection of two interval sets."""
    out = []
    i = j = 0
    si, ti = S.intervals, T.intervals
    while i < len(si) and j < len(ti):
        a = max(si[i][0], ti[j][0])
        b = min(si[i][1], ti[j][1])
        if a <= b:
            out.append((a, b))
        if si[i][1] < ti[j][1]:
            i += 1
        else:
            j += 1
    return IntervalSet(tuple(out))


def feasible_set(constraints: Sequence[tuple[float, float, float]]) -> IntervalSet:
    S = IntervalSet.full()
    for p, q, r in constraints:
        S = intersect(S, constraint_solution_set(p, q, r))
        if S.is_empty:
            break
    return S


class OneVarStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class OneVarResult:
    status: OneVarStatus
    x: float | None = None
    value: float | None = None


def _objective(p: float, q: float, r: float, x: float) -> float:
    return p * x * x + q * x + r


def minimize_over_set(p0: float, q0: float, r0: float, S: IntervalSet) -> OneVarResult:
    """Global minimum of a quadratic over an interval set."""
    if S.is_empty:
        return OneVarResult(OneVarStatus.INFEASIBLE)
    has_unbounded = any(not math.isfinite(a) or not math.isfinite(b) for a, b in S.intervals)
    if p0 < -AFFINE_EPS and has_unbounded:
        return OneVarResult(OneVarStatus.UNBOUNDED)
    if abs(p0) <= AFFINE_EPS:
        if q0 < -AFFINE_EPS and any(not math.isfinite(b) for _, b in S.intervals):
            return OneVarResult(OneVarStatus.UNBOUNDED)
        if q0 > AFFINE_EPS and any(not math.isfinite(a) for a, _ in S.intervals):
            return OneVarResult(OneVarStatus.UNBOUNDED)
        if abs(q0) <= AFFINE_EPS:
            a, b = S.intervals[0]
            x = a if math.isfinite(a) else (b if math.isfinite(b) else 0.0)
            return OneVarResult(OneVarStatus.OPTIMAL, x, _objective(p0, q0, r0, x))
    candidates = []
    for a, b in S.intervals:
        if math.isfinite(a):
            candidates.append(a)
        if math.isfinite(b):
            candidates.append(b)
    if p0 > AFFINE_EPS:
        xm = -q0 / (2.0 * p0)
        if S.contains(xm):
            candidates.append(xm)
    if not candidates:
        # set is the full line with no interior minimizer candidates left
        candidates.append(0.0)
    best_x = min(candidates, key=lambda x: _objective(p0, q0, r0, x))
    return OneVarResult(OneVarStatus.OPTIMAL, best_x, _objective(p0, q0, r0, best_x))


def solve_onevar(
    objective: tuple[float, float, float],
    constraints: Sequence[tuple[float, float, float]] = (),
) -> OneVarResult:
    """Exact global minimizer of a one-variable QCQP.

    Candidates are the finite endpoints of the feasible intervals plus the
    unconstrained minimizer when the objective is strictly convex.
    """
    S = feasible_set(constraints)
    return minimize_over_set(*objective, S)
