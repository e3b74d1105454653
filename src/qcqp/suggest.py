"""Candidate-point generation.

Candidates need not be feasible; downstream improvement methods only ever
move them lexicographically toward feasibility.  All three generators are
deterministic per seed, and per-candidate sub-seeds are derived as
seed + index so serial and parallel runs see identical candidate sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import QcqpProblem
from .errors import NumericalFailureError
# the benchmark's tracer patches sdr_bound_cutting_plane and sample_from_lifted by these names
from .relax import (
    RelaxationResult,
    sample_from_lifted,
    sdr_bound,
    sdr_bound_cutting_plane,
    spectral_bound,
)

RANK_ONE_TOL = 1e-6  # max |X - xx'| at which the SDR solution counts as rank one


class SuggestMethod(Enum):
    RANDOM = "random"
    SPECTRAL = "spectral"
    SDR = "sdr"


@dataclass(frozen=True)
class SuggestOutcome:
    candidates: tuple[np.ndarray, ...]
    method: SuggestMethod
    bound: RelaxationResult | None = None


def sub_seed(seed, index: int):
    """Per-candidate seed; part of the public determinism contract."""
    if seed is None:
        return None
    return int(seed) + int(index)


def suggest_random(problem: QcqpProblem, count: int = 1, scale: float = 1.0, rng_seed=None) -> SuggestOutcome:
    """count i.i.d. N(0, scale^2 I) candidate points."""
    if count < 1:
        raise ValueError("count must be >= 1")
    pts = []
    for k in range(count):
        rng = np.random.default_rng(sub_seed(rng_seed, k))
        pts.append(scale * rng.standard_normal(problem.n))
    return SuggestOutcome(candidates=tuple(pts), method=SuggestMethod.RANDOM)


def suggest_spectral(problem: QcqpProblem, lam=None) -> SuggestOutcome:
    """The minimizer of the aggregated one-constraint relaxation, with its bound."""
    res = spectral_bound(problem, lam)
    if res.candidate is None:
        raise NumericalFailureError("spectral relaxation produced no candidate (unbounded dual)")
    return SuggestOutcome(candidates=(res.candidate,), method=SuggestMethod.SPECTRAL, bound=res)


def suggest_sdr(
    problem: QcqpProblem,
    count: int = 1,
    rng_seed=None,
    rank_one_tol: float = RANK_ONE_TOL,
) -> SuggestOutcome:
    """Gaussian samples N(x, X - xx') around the interior-point solution of the SDR.

    The outcome carries the SDR's certified bound.  When (X, x) is rank one
    within rank_one_tol the relaxation is tight, and the single point x is
    returned count times.  An SDR found infeasible or unbounded has no
    solution to sample from and raises NumericalFailureError.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    res = sdr_bound(problem)
    if res.certificate is None:
        raise NumericalFailureError(f"the SDR has no lifted solution (bound {res.bound})")
    X, x = res.certificate
    gap = float(np.max(np.abs(X - np.outer(x, x)), initial=0.0))
    if gap <= rank_one_tol:
        pts = tuple(x.copy() for _ in range(count))
    else:
        samples = sample_from_lifted(res, count, rng_seed)
        pts = samples.points
    return SuggestOutcome(candidates=pts, method=SuggestMethod.SDR, bound=res)
