"""Dense symmetric linear algebra kernels shared by the solver modules.

These are thin, contract-checked wrappers around LAPACK (via numpy).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _check_symmetric_input(P) -> np.ndarray:
    """(P + P') / 2 of a square matrix, or of each matrix of a stack (k, n, n)."""
    P = np.atleast_2d(np.asarray(P, dtype=float))
    if P.ndim > 3 or P.shape[-2] != P.shape[-1]:
        raise ValueError("matrix must be square")
    if not np.all(np.isfinite(P)):
        raise ValueError("matrix has non-finite entries")
    return 0.5 * (P + P.swapaxes(-1, -2))


@dataclass(frozen=True)
class EigenDecomposition:
    """P = Q diag(values) Q' with values ascending and Q orthogonal; of a stack, one per matrix."""

    values: np.ndarray
    vectors: np.ndarray


def sym_eigen(P) -> EigenDecomposition:
    """Symmetric eigendecomposition with ascending eigenvalues, of P or of each matrix of a stack."""
    S = _check_symmetric_input(P)
    w, V = np.linalg.eigh(S)
    return EigenDecomposition(values=w, vectors=V)


def min_eig_bound(P) -> float:
    """Smallest eigenvalue of symmetric P; +inf for a 0 x 0 matrix, which has none."""
    return float(np.min(np.linalg.eigvalsh(_check_symmetric_input(P)), initial=np.inf))


def inv_chol(V: np.ndarray) -> np.ndarray:
    """L^-1 for V = L L'; raises LinAlgError unless V > 0.

    V^-1 = L^-T L^-1, so V^-1 b is Li.T @ (Li @ b) with Li = inv_chol(V).
    """
    return np.linalg.inv(np.linalg.cholesky(V))
