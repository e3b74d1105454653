"""Difference-of-convex decompositions P = P_plus - P_minus of symmetric matrices.

Three constructions with different cost/curvature trade-offs:

* split_shift: add a multiple of the identity; cheap, adds curvature 2t;
* split_eigen: split eigenvalues by sign, rounding-level ones set to 0;
  one eigendecomposition, adds essentially no curvature;
* split_cholesky_diff: a recursive Cholesky-like factorization P = L1 L1' -
  L2 L2' that never divides by anything smaller than sqrt(delta);
* split_ldl: LDL' with the diagonal split by sign, falling back to the
  difference-of-Cholesky method when 2x2 pivot blocks appear.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .linalg import _check_symmetric_input, sym_eigen


class PivotChoice(Enum):
    V1_ZERO = "v1zero"
    V2_ZERO = "v2zero"


@dataclass(frozen=True)
class Splitting:
    """P = plus - minus with both parts PSD."""

    plus: np.ndarray
    minus: np.ndarray
    factors: tuple[np.ndarray, np.ndarray] | None = None
    curvature: float | None = None
    min_divisor: float | None = None


def split_shift(P) -> Splitting:
    """Identity-shift splitting; adds curvature 2t along every direction.

    Uses whichever of P + tI - tI and tI - (tI - P) needs the smaller shift.
    """
    S = _check_symmetric_input(P)
    w = np.linalg.eigvalsh(S)
    lmin, lmax = float(w[0]), float(w[-1])
    if abs(lmax) >= abs(lmin):
        t = max(0.0, -lmin)
        if t > 0.0:
            t += 1e-9
        plus = S + t * np.eye(S.shape[0])
        minus = t * np.eye(S.shape[0])
    else:
        t = max(0.0, lmax)
        if t > 0.0:
            t += 1e-9
        plus = t * np.eye(S.shape[0])
        minus = t * np.eye(S.shape[0]) - S
    return Splitting(plus=plus, minus=minus, curvature=2.0 * t)


def split_eigen(P) -> Splitting:
    """Sign-split eigenvalue decomposition; adds no curvature.

    Eigenvalues with |lambda| <= n * eps * max|lambda| are rounding noise and
    count as exactly 0, so a semidefinite P gets an exactly zero part on the
    other side (and a linearized concave row stays exactly affine).
    """
    S = _check_symmetric_input(P)
    eig = sym_eigen(S)
    w = eig.values
    noise = S.shape[0] * np.finfo(float).eps * np.max(np.abs(w), initial=0.0)
    w = np.where(np.abs(w) <= noise, 0.0, w)
    wp = np.clip(w, 0.0, None)
    wm = np.clip(-w, 0.0, None)
    plus = (eig.vectors * wp) @ eig.vectors.T
    minus = (eig.vectors * wm) @ eig.vectors.T
    curvature = float(np.trace(plus) + np.trace(minus) - np.sum(np.abs(eig.values)))
    return Splitting(plus=plus, minus=minus, curvature=curvature)


def _excess_curvature(plus, minus, S) -> float:
    """tr P+ + tr P- - sum |lambda(S)|: the curvature a split adds beyond S's own."""
    return float(np.trace(plus) + np.trace(minus) - np.sum(np.abs(np.linalg.eigvalsh(S))))


def default_delta(P) -> float:
    S = np.atleast_2d(np.asarray(P, dtype=float))
    return 1e-8 * (1.0 + float(np.max(np.abs(np.diag(S)), initial=0.0)))


def split_cholesky_diff(P, delta: float | None = None, pivot_choice: PivotChoice = PivotChoice.V1_ZERO) -> Splitting:
    """Recursive difference-of-Cholesky splitting P = L1 L1' - L2 L2'.

    Pivots of magnitude at least delta take an ordinary Cholesky step into
    one factor; near-zero pivots a with |a| < delta take a two-column step
    with diagonal entries sqrt(delta + a) and sqrt(delta), where either the
    L1 column (V1_ZERO) or the L2 column (V2_ZERO) carries no off-diagonal
    part.  A negative pivot runs the same step on -M and swaps which factor
    receives each column.  Every divisor has magnitude >= sqrt(delta); the
    smallest one used is reported.
    """
    S = _check_symmetric_input(P)
    n = S.shape[0]
    if delta is None:
        delta = default_delta(S)
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    L1 = np.zeros((n, n))
    L2 = np.zeros((n, n))
    min_div = math.inf
    M = S.copy()
    for k in range(n):
        a = M[0, 0]
        v = M[1:, 0]
        B = M[1:, 1:]
        c_plus = np.zeros(n - k)
        c_minus = np.zeros(n - k)
        if abs(a) >= delta:
            s = 1.0 if a > 0.0 else -1.0
            d = math.sqrt(abs(a))
            col = np.concatenate(([d], s * v / d))
            if s > 0.0:
                c_plus = col
            else:
                c_minus = col
            M = B - np.outer(v, v) / a
            min_div = min(min_div, d)
        else:
            s = 1.0 if a >= 0.0 else -1.0
            a0 = s * a
            v0 = s * v
            if pivot_choice is PivotChoice.V1_ZERO:
                col_p = np.concatenate(([math.sqrt(delta + a0)], np.zeros(n - k - 1)))
                col_m = np.concatenate(([math.sqrt(delta)], -v0 / math.sqrt(delta)))
                next0 = s * B + np.outer(v0, v0) / delta
                min_div = min(min_div, math.sqrt(delta))
            else:
                d = math.sqrt(delta + a0)
                col_p = np.concatenate(([d], v0 / d))
                col_m = np.concatenate(([math.sqrt(delta)], np.zeros(n - k - 1)))
                next0 = s * B - np.outer(v0, v0) / (delta + a0)
                min_div = min(min_div, d)
            if s > 0.0:
                c_plus, c_minus = col_p, col_m
            else:
                c_plus, c_minus = col_m, col_p
            M = s * next0
        L1[k:, k] = c_plus
        L2[k:, k] = c_minus
        if n - k >= 1:
            M = np.atleast_2d(M)
    plus = L1 @ L1.T
    minus = L2 @ L2.T
    return Splitting(
        plus=plus,
        minus=minus,
        factors=(L1, L2),
        curvature=_excess_curvature(plus, minus, S),
        min_divisor=None if math.isinf(min_div) else float(min_div),
    )


def split_ldl(P, delta: float | None = None) -> Splitting:
    """LDL'-based splitting for the diagonal-D case.

    scipy's Bunch-Kaufman LDL' may produce 2x2 diagonal blocks, which this
    splitting cannot use directly; those instances fall back to
    split_cholesky_diff.
    """
    S = _check_symmetric_input(P)
    if S.size == 0:
        return Splitting(plus=S.copy(), minus=S.copy(), factors=(S.copy(), S.copy()))
    import scipy.linalg  # imported here so the rest of the package loads numpy only

    L, D, perm = scipy.linalg.ldl(S, lower=True)
    off = D - np.diag(np.diag(D))
    if np.max(np.abs(off), initial=0.0) > 1e-12 * (1.0 + np.max(np.abs(D))):
        return split_cholesky_diff(S, delta)
    d = np.diag(D)
    sp = np.sqrt(np.clip(d, 0.0, None))
    sm = np.sqrt(np.clip(-d, 0.0, None))
    L1 = L * sp
    L2 = L * sm
    plus = L1 @ L1.T
    minus = L2 @ L2.T
    return Splitting(
        plus=plus,
        minus=minus,
        factors=(L1, L2),
        curvature=_excess_curvature(plus, minus, S),
    )
