"""Seeded benchmark inputs, made with numpy alone.

Each instance is drawn from numpy's PCG64 generator seeded with
(run seed, instance index), so a run seed fixes every input bit for bit.
The generating data (A and b, the beamforming vectors) stays with the benchmark for its own checks; the program sees
only the problem JSON written from it.  The reference optimum of each
Boolean instance is found here by enumeration with numpy, apart from the
program's own oracle.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np


def instance_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), int(index)])


def _triplets(P: np.ndarray) -> list:
    """Upper-triangle [i, j, P_ij] triplets of a symmetric matrix."""
    iu, ju = np.triu_indices(P.shape[0])
    return [[int(i), int(j), float(P[i, j])] for i, j in zip(iu, ju) if P[i, j] != 0.0]


def _form(P: np.ndarray, q=None, r: float = 0.0) -> dict:
    n = P.shape[0]
    q = np.zeros(n) if q is None else q
    return {"P": _triplets(P), "q": [float(v) for v in q], "r": float(r)}


def _unit_square_rows(n: int) -> list:
    """x_i^2 - 1 = 0 for every i."""
    return [{"P": [[i, i, 1.0]], "q": [0.0] * n, "r": -1.0, "sense": "eq"} for i in range(n)]


def write_problem(doc: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh)


SIGN_BLOCK = 4096  # sign vectors enumerated at a time, so the set-up peak stays small


def sign_vector_blocks(n: int):
    """All 2^n points of {-1, 1}^n, SIGN_BLOCK rows at a time."""
    shifts = np.arange(n)
    for start in range(0, 2**n, SIGN_BLOCK):
        bits = (np.arange(start, min(start + SIGN_BLOCK, 2**n))[:, None] >> shifts) & 1
        yield 2.0 * bits - 1.0


# -- boolean least squares ---------------------------------------------------


@dataclass(frozen=True)
class BoolLs:
    A: np.ndarray
    b: np.ndarray
    optimum: float  # min ||Ax - b||^2 over {-1, 1}^n, by enumeration

    def problem_json(self) -> dict:
        A, b = self.A, self.b
        n = A.shape[1]
        objective = _form(A.T @ A, -2.0 * (A.T @ b), float(b @ b))
        return {"n": n, "objective": objective, "constraints": _unit_square_rows(n)}


def make_boolls(rng: np.random.Generator, m: int, n: int) -> BoolLs:
    """A and b with entries i.i.d. N(0, 1)."""
    A = rng.standard_normal((m, n))
    b = rng.standard_normal(m)
    return BoolLs(A=A, b=b, optimum=boolls_optimum(A, b))


def boolls_optimum(A: np.ndarray, b: np.ndarray) -> float:
    """min ||Ax - b||^2 over {-1, 1}^n, by enumeration in blocks."""
    G, h = A.T @ A, A.T @ b
    best = np.inf
    for X in sign_vector_blocks(A.shape[1]):
        # ||Ax - b||^2 = x'(A'A)x - 2(A'b)'x + b'b at every sign vector of the block
        values = np.einsum("ij,ij->i", X @ G, X) - 2.0 * (X @ h)
        best = min(best, float(np.min(values)))
    return best + float(b @ b)


# -- beamforming -------------------------------------------------------------


@dataclass(frozen=True)
class Beam:
    """min ||x||^2 s.t. (a_i'x)^2 + (b_i'x)^2 >= tau and (c_j'x)^2 + (d_j'x)^2 <= eta."""

    a: np.ndarray  # coverage vectors, one per row
    b: np.ndarray
    c: np.ndarray  # power vectors, one per row
    d: np.ndarray
    tau: float
    eta: float

    @property
    def lower_reference(self) -> float:
        """max_i tau / lambda_max(a_i a_i' + b_i b_i'), below every feasible ||x||^2."""
        lam = [np.linalg.eigvalsh(np.outer(ai, ai) + np.outer(bi, bi))[-1] for ai, bi in zip(self.a, self.b)]
        return float(max(self.tau / v for v in lam))

    def problem_json(self) -> dict:
        dim = self.a.shape[1]
        cons = []
        for ai, bi in zip(self.a, self.b):
            cons.append({**_form(-(np.outer(ai, ai) + np.outer(bi, bi)), None, self.tau), "sense": "le"})
        for ci, di in zip(self.c, self.d):
            cons.append({**_form(np.outer(ci, ci) + np.outer(di, di), None, -self.eta), "sense": "le"})
        return {"n": dim, "objective": _form(np.eye(dim)), "constraints": cons}


def make_beam(rng: np.random.Generator, n: int, m: int, l: int, tau: float, eta: float) -> Beam:
    """Coverage and power vectors over 2n reals, entries i.i.d. N(0, 1)."""
    a, b = rng.standard_normal((m, 2 * n)), rng.standard_normal((m, 2 * n))
    c, d = rng.standard_normal((l, 2 * n)), rng.standard_normal((l, 2 * n))
    return Beam(a=a, b=b, c=c, d=d, tau=tau, eta=eta)
