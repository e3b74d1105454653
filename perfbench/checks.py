"""Checks of the program's outputs, computed from the generating data.

Nothing here calls into the program: objectives and violations are
recomputed from A and b or from the beamforming vectors, and the reference
optimum comes from the benchmark's own enumeration.  Each check returns a
list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import math

import numpy as np

REL_TOL = 1e-9  # reported vs recomputed objective and violation
FEAS_TOL = 1e-6  # largest violation of a point counted as feasible
ORDER_TOL = 1e-6  # slack on bound <= optimum <= objective, as in the tests


def _close(reported: float, recomputed: float) -> bool:
    return abs(reported - recomputed) <= REL_TOL * max(1.0, abs(recomputed))


def _slack(value: float) -> float:
    return ORDER_TOL * max(1.0, abs(value))


def _check_point(best: dict, objective: float, violation: float) -> list[str]:
    problems = []
    if not _close(best["objective"], objective):
        problems.append(f"objective reported {best['objective']!r}, recomputed {objective!r}")
    if not _close(best["violation"], violation):
        problems.append(f"violation reported {best['violation']!r}, recomputed {violation!r}")
    if not violation <= FEAS_TOL:
        problems.append(f"best point violates a constraint by {violation!r}")
    return problems


def check_boolls(inst, report: dict, expect_bound: bool) -> list[str]:
    """A pipeline report on boolean least squares against ||Ax - b||^2."""
    best = report["best"]
    x = np.asarray(best["x"], dtype=float)
    residual = inst.A @ x - inst.b
    objective = float(residual @ residual)
    violation = float(np.max(np.abs(x * x - 1.0)))
    problems = _check_point(best, objective, violation)
    if objective < inst.optimum - _slack(inst.optimum):
        problems.append(f"objective {objective!r} is below the optimum {inst.optimum!r}")
    if expect_bound:
        bound = (report.get("bound") or {}).get("bound")
        if bound is None or not math.isfinite(bound):
            problems.append(f"no finite bound reported: {report.get('bound')!r}")
        elif bound > inst.optimum + _slack(inst.optimum):
            problems.append(f"bound {bound!r} is above the optimum {inst.optimum!r}")
    return problems


def beam_violation(inst, x: np.ndarray) -> float:
    cover = inst.tau - ((inst.a @ x) ** 2 + (inst.b @ x) ** 2)
    power = (inst.c @ x) ** 2 + (inst.d @ x) ** 2 - inst.eta
    return float(max(0.0, np.max(cover), np.max(power)))


def check_beam(inst, report: dict) -> list[str]:
    """A pipeline report on beamforming against ||x||^2 and the vectors."""
    best = report["best"]
    x = np.asarray(best["x"], dtype=float)
    objective = float(x @ x)
    problems = _check_point(best, objective, beam_violation(inst, x))
    lower = inst.lower_reference
    if objective < lower - _slack(lower):
        problems.append(f"objective {objective!r} is below the power floor {lower!r}")
    return problems
