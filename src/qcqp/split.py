"""Difference-of-convex decompositions P = P_plus - P_minus of symmetric matrices.

Three constructions with different cost/curvature trade-offs:

* split_shift: add a multiple of the identity; cheap, adds curvature 2t;
* split_eigen: split eigenvalues by sign, rounding-level ones set to 0;
  one eigendecomposition, adds essentially no curvature;
* split_cholesky_diff: a recursive Cholesky-like factorization P = L1 L1' -
  L2 L2' that never divides by anything smaller than sqrt(delta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import EigenDecomposition, _check_symmetric_input, sym_eigen


@dataclass(frozen=True)
class Splitting:
    """P = plus - minus with both parts PSD."""

    plus: np.ndarray
    minus: np.ndarray
    factors: tuple[np.ndarray, np.ndarray] | None = None
    curvature: float | None = None
    min_divisor: float | None = None
    eigen: EigenDecomposition | None = None  # split_eigen: P's eigenpairs, noise set to 0; plus is the positive ones


def _check_matrix(P) -> np.ndarray:
    """_check_symmetric_input of one matrix: only split_eigen splits a stack."""
    S = _check_symmetric_input(P)
    if S.ndim != 2:
        raise ValueError("matrix must be square")
    return S


def split_shift(P) -> Splitting:
    """Identity-shift splitting; adds curvature 2t along every direction.

    Uses whichever of P + tI - tI and tI - (tI - P) needs the smaller shift.
    """
    S = _check_matrix(P)
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

    P may be a stack (k, n, n): each matrix is split by the same stacked
    calls, bit for bit as alone, and every field holds one entry per
    matrix (curvature an array of k values).
    """
    S = _check_symmetric_input(P)
    eig = sym_eigen(S)
    w = eig.values
    noise = S.shape[-1] * np.finfo(float).eps * np.max(np.abs(w), axis=-1, keepdims=True, initial=0.0)
    w = np.where(np.abs(w) <= noise, 0.0, w)
    wp = np.clip(w, 0.0, None)
    wm = np.clip(-w, 0.0, None)
    V, Vt = eig.vectors, eig.vectors.swapaxes(-1, -2)
    plus = (V * wp[..., None, :]) @ Vt
    minus = (V * wm[..., None, :]) @ Vt
    trace = np.trace(plus, axis1=-2, axis2=-1) + np.trace(minus, axis1=-2, axis2=-1)
    curvature = trace - np.sum(np.abs(eig.values), axis=-1)
    if S.ndim == 2:
        curvature = float(curvature)
    return Splitting(plus=plus, minus=minus, curvature=curvature, eigen=EigenDecomposition(w, V))


def default_delta(P) -> float:
    S = np.atleast_2d(np.asarray(P, dtype=float))
    return 1e-8 * (1.0 + float(np.max(np.abs(np.diag(S)), initial=0.0)))


def split_cholesky_diff(P, delta: float | None = None) -> Splitting:
    """Recursive difference-of-Cholesky splitting P = L1 L1' - L2 L2'.

    Pivots of magnitude at least delta take an ordinary Cholesky step into
    one factor; near-zero pivots a with |a| < delta take a two-column step
    with diagonal entries sqrt(delta + a) and sqrt(delta), where the L1
    column carries no off-diagonal part.  A negative pivot runs the same step
    on -M and swaps which factor receives each column.  Every divisor has magnitude >= sqrt(delta); the
    smallest one used is reported.
    """
    S = _check_matrix(P)
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
            col_p = np.concatenate(([math.sqrt(delta + a0)], np.zeros(n - k - 1)))
            col_m = np.concatenate(([math.sqrt(delta)], -v0 / math.sqrt(delta)))
            next0 = s * B + np.outer(v0, v0) / delta
            min_div = min(min_div, math.sqrt(delta))
            if s > 0.0:
                c_plus, c_minus = col_p, col_m
            else:
                c_plus, c_minus = col_m, col_p
            M = s * next0
        L1[k:, k] = c_plus
        L2[k:, k] = c_minus
        M = np.atleast_2d(M)
    plus = L1 @ L1.T
    minus = L2 @ L2.T
    return Splitting(
        plus=plus,
        minus=minus,
        factors=(L1, L2),
        # tr P+ + tr P- - sum |lambda(S)|: the curvature the split adds beyond S's own
        curvature=float(np.trace(plus) + np.trace(minus) - np.sum(np.abs(np.linalg.eigvalsh(S)))),
        min_divisor=None if math.isinf(min_div) else float(min_div),
    )

