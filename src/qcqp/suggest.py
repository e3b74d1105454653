"""Candidate-point generation.

Candidates need not be feasible; downstream improvement methods only ever
move them lexicographically toward feasibility.  All three generators are
deterministic per seed, and per-candidate sub-seeds are derived as
seed + index, so a candidate set is fixed by its seed alone.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class SuggestOutcome:
    candidates: tuple[np.ndarray, ...]
    bound: RelaxationResult | None = None


def sub_seed(seed, index: int):
    """Per-candidate seed; part of the public determinism contract."""
    if seed is None:
        return None
    return int(seed) + int(index)


def suggest_random(problem: QcqpProblem, count: int = 1, rng_seed=None) -> SuggestOutcome:
    """count i.i.d. N(0, I) candidate points."""
    if count < 1:
        raise ValueError("count must be >= 1")
    pts = []
    for k in range(count):
        rng = np.random.default_rng(sub_seed(rng_seed, k))
        pts.append(rng.standard_normal(problem.n))
    return SuggestOutcome(candidates=tuple(pts))


def suggest_spectral(problem: QcqpProblem) -> SuggestOutcome:
    """The minimizer of the aggregated one-constraint relaxation (lam = 1), with its bound."""
    res = spectral_bound(problem)
    if res.candidate is None:
        raise NumericalFailureError("spectral relaxation produced no candidate (unbounded dual)")
    return SuggestOutcome(candidates=(res.candidate,), bound=res)


def suggest_sdr(problem: QcqpProblem, count: int = 1, rng_seed=None) -> SuggestOutcome:
    """Gaussian samples N(x, X - xx') around the interior-point solution of the SDR.

    The outcome carries the SDR's certified bound.  When (X, x) is rank one
    within RANK_ONE_TOL the relaxation is tight, and the single point x is
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
    if gap <= RANK_ONE_TOL:
        pts = tuple(x.copy() for _ in range(count))
    else:
        samples = sample_from_lifted(res, count, rng_seed)
        pts = samples.points
    return SuggestOutcome(candidates=pts, bound=res)
