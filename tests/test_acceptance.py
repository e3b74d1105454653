"""Acceptance suite: every test prints one PASS/FAIL line with its number.

All instances are seeded; time budgets are asserted on wall-clock time.
"""

import itertools
import math
import sys
import time

import numpy as np
import pytest

from qcqp.core import Constraint, QcqpProblem, QuadraticForm, Sense, assess, evaluate
from qcqp.errors import QcqpError
from qcqp.generators import (
    brute_force,
    gen_beamforming,
    gen_boolean_ls,
    gen_maxclique,
    gen_maxcut,
    gen_partitioning,
    gen_3sat,
)
from qcqp.improve import (
    METHODS,
    greedy_clique,
    improve_admm,
    improve_ccp,
    improve_coordinate_descent,
    improve_sequence,
    round_sign,
    scale_to_cover,
)
from qcqp.oneconstraint import ConstraintProjector
from qcqp.onevar import OneVarStatus, solve_onevar
from qcqp.relax import (
    CutPlaneOptions,
    axis_pair_cuts,
    sdr_bound_cutting_plane,
    spectral_bound,
)
from qcqp.split import split_cholesky_diff, split_eigen, split_shift
from qcqp.suggest import suggest_random, suggest_sdr
from qcqp.cli import PipelineConfig, canonical_report_json, run_pipeline


def verdict(num, ok, desc):
    line = f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {desc}"
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


# -- 1: one-variable oracle equivalence -------------------------------------


def _onevar_oracle(objective, constraints):
    """Grid plus exact constraint roots; None when no grid point is feasible."""
    p0, q0, r0 = objective
    pts = [np.linspace(-20.0, 20.0, 801)]
    for p, q, r in constraints:
        if p != 0.0 or q != 0.0:
            roots = np.roots([p, q, r])
            pts.append(np.real(roots[np.abs(np.imag(roots)) < 1e-10]))
    if p0 > 0.0:
        pts.append(np.array([-q0 / (2.0 * p0)]))
    x = np.concatenate(pts)
    feas = np.ones(x.size, dtype=bool)
    for p, q, r in constraints:
        tol = 1e-8 * (1.0 + abs(p) + abs(q) + abs(r))
        feas &= p * x * x + q * x + r <= tol
    if not np.any(feas):
        return None
    xf = x[feas]
    return float(np.min(p0 * xf * xf + q0 * xf + r0))


def test_acceptance_01_onevar_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    count = 0
    ok = True
    for _ in range(1000):
        m = int(rng.integers(0, 11))
        objective = (
            float(abs(rng.standard_normal()) + 0.05),
            float(rng.standard_normal()),
            float(rng.standard_normal()),
        )
        constraints = [tuple(rng.standard_normal(3)) for _ in range(m)]
        res = solve_onevar(objective, constraints)
        oracle = _onevar_oracle(objective, constraints)
        if res.status is OneVarStatus.INFEASIBLE:
            ok = ok and oracle is None
            continue
        if res.status is OneVarStatus.OPTIMAL and abs(res.x) <= 20.0 and oracle is not None:
            ok = ok and abs(res.value - oracle) <= 1e-6 * (1.0 + abs(oracle))
            count += 1
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 5.0 and count >= 300
    verdict(1, ok, f"one-variable oracle equivalence ({count} compared, {elapsed:.1f}s)")


# -- 2: projection KKT suite ------------------------------------------------


def _boundary_points_2d(form, lo=-4.0, hi=4.0, steps=2000):
    """Exact points on {f = 0} found by root-solving along both axes."""
    P, q, r = form.dense_p, form.q_vec, form.r
    out = []
    ts = np.linspace(lo, hi, steps)
    for sweep in (0, 1):
        i, j = (0, 1) if sweep == 0 else (1, 0)
        for t in ts:
            # f as a quadratic in x_j with x_i = t fixed
            a = P[j, j]
            b = 2.0 * P[i, j] * t + q[j]
            c = P[i, i] * t * t + q[i] * t + r
            if a == 0.0 and b == 0.0:
                continue
            roots = np.roots([a, b, c]) if a != 0.0 else np.array([-c / b])
            for z in roots:
                if abs(np.imag(z)) < 1e-12:
                    pt = np.empty(2)
                    pt[i] = t
                    pt[j] = float(np.real(z))
                    out.append(pt)
    return np.array(out) if out else np.empty((0, 2))


def test_acceptance_02_projection_kkt():
    t0 = time.monotonic()
    rng = np.random.default_rng(202)
    done = 0
    ok = True
    small_cases = 0
    while done < 500:
        n = int(rng.integers(2, 21))
        w = np.sort(rng.standard_normal(n) * 2.0)
        if w[0] > -0.05 or w[-1] < 0.05:
            continue  # want mixed-sign eigenvalues
        V = np.linalg.qr(rng.standard_normal((n, n)))[0]
        form = QuadraticForm.from_dense(
            (V * w) @ V.T, rng.standard_normal(n), float(rng.standard_normal())
        )
        proj = ConstraintProjector(form)
        lo, hi = proj.feas_range
        if not (lo <= 0.0 <= hi):
            continue
        z = rng.standard_normal(n) * 2.0
        res = proj.project_eq(z)
        ok = ok and res.kkt_residual <= 1e-7 * (1.0 + np.linalg.norm(z))
        done += 1
        if n == 2 and small_cases < 40:
            pts = _boundary_points_2d(form)
            inside = pts[np.all(np.abs(pts) <= 4.0, axis=1)]
            if inside.size:
                brute = float(np.min(np.linalg.norm(inside - z, axis=1)))
                dist = float(np.linalg.norm(res.x - z))
                ok = ok and dist <= brute + 1e-4
                small_cases += 1
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 10.0 and small_cases >= 10
    verdict(2, ok, f"projection KKT suite (500 cases, {small_cases} brute-checked, {elapsed:.1f}s)")


# -- 3: spectral identity ---------------------------------------------------


def test_acceptance_03_spectral_identity():
    rng = np.random.default_rng(303)
    ok = True
    for _ in range(50):
        n = int(rng.integers(2, 31))
        W = rng.standard_normal((n, n))
        W = 0.5 * (W + W.T)
        np.fill_diagonal(W, 0.0)
        p = gen_partitioning(W)
        res = spectral_bound(p)
        w, V = np.linalg.eigh(W)
        lmax = float(w[-1])
        ok = ok and abs(res.bound + n * lmax) <= 1e-8 * (1.0 + n * abs(lmax))
        target = math.sqrt(n) * V[:, -1]
        dev = min(
            np.max(np.abs(res.candidate - target)),
            np.max(np.abs(res.candidate + target)),
        )
        ok = ok and dev <= 1e-6 * (1.0 + math.sqrt(n))
    verdict(3, ok, "spectral bound equals n*lambda_max with sqrt(n)-eigenvector candidate")


# -- 4: bound sandwich + Nesterov -------------------------------------------


def test_acceptance_04_bound_sandwich_nesterov():
    t0 = time.monotonic()
    rng = np.random.default_rng(404)
    ok = True
    round_hits = 0
    for _ in range(20):
        n = int(rng.integers(6, 13))
        G = rng.standard_normal((n, n))
        W = G.T @ G
        np.fill_diagonal(W, 0.0)
        W = 0.5 * (W + W.T)
        # keep W PSD after zeroing the diagonal by adding it back uniformly
        wmin = float(np.linalg.eigvalsh(W)[0])
        if wmin < 0.0:
            W = W + (-wmin + 1e-9) * np.eye(n)
        p = gen_partitioning(W)
        opts = CutPlaneOptions(
            seed_cuts=axis_pair_cuts(n), max_cuts=8000, cuts_per_iter=16
        )
        cp = sdr_bound_cutting_plane(p, opts)
        ok = ok and cp.converged and cp.valid
        cp_max = -cp.bound
        spec_max = -spectral_bound(p).bound
        _, fmin = brute_force(p)
        fstar_max = -fmin
        ok = ok and (2.0 / math.pi) * cp_max - 1e-3 * abs(cp_max) <= fstar_max
        ok = ok and fstar_max <= cp_max + 1e-6
        ok = ok and cp_max <= spec_max + 1e-6
        samples = np.array(
            [round_sign(x) for x in __import__("qcqp.relax", fromlist=["sample_from_lifted"]).sample_from_lifted(cp, 100, rng_seed=7).points]
        )
        best = max(float(z @ (W @ z)) for z in samples)
        if best >= (2.0 / math.pi) * cp_max - 1e-9:
            round_hits += 1
    elapsed = time.monotonic() - t0
    ok = ok and round_hits >= 19 and elapsed < 60.0
    verdict(4, ok, f"bound sandwich and 2/pi rounding ({round_hits}/20 hits, {elapsed:.1f}s)")


# -- 5: any-lambda dominance ------------------------------------------------


def test_acceptance_05_lambda_dominance():
    rng = np.random.default_rng(505)
    ok = True
    for _ in range(10):
        n = int(rng.integers(3, 7))
        W = rng.standard_normal((n, n))
        W = 0.5 * (W + W.T)
        np.fill_diagonal(W, 0.0)
        p = gen_partitioning(W)
        cp = sdr_bound_cutting_plane(
            p,
            CutPlaneOptions(
                seed_cuts=axis_pair_cuts(n), max_cuts=4000, cuts_per_iter=16
            ),
        )
        ok = ok and cp.converged
        for _ in range(20):
            lam = rng.uniform(0.0, 2.0, size=n)
            d = spectral_bound(p, lam).bound
            ok = ok and d <= cp.bound + 1e-4 * (1.0 + abs(cp.bound))
    verdict(5, ok, "every aggregated bound is dominated by the converged SDR bound")


# -- 6: ADMM period-2 cycle -------------------------------------------------


def test_acceptance_06_admm_cycle():
    rng = np.random.default_rng(606)
    W = rng.standard_normal((3, 3))
    W = 0.5 * (W + W.T)
    np.fill_diagonal(W, 0.0)
    p = gen_partitioning(W)
    z0 = np.full(3, 1.0 / 3.0)
    x0 = []
    u0 = []
    for i in range(3):
        xi = np.full(3, 1.0 / 3.0)
        xi[i] = -1.0
        x0.append(xi)
        ui = np.zeros(3)
        ui[i] = 2.0 / 3.0
        u0.append(ui)
    rep = improve_admm(
        p, z0, max_iter=10, two_phase=True, init_x=x0, init_u=u0,
        record_iterates=True,
    )
    zs = [z0] + [it[0] for it in rep.iterates]
    xs = [np.array(x0)] + [it[1] for it in rep.iterates]
    us = [np.array(u0)] + [it[2] for it in rep.iterates]
    ok = len(zs) >= 11
    for k in range(10):
        ok = ok and np.max(np.abs(zs[k + 1] + zs[k])) <= 1e-12
        ok = ok and np.max(np.abs(xs[k + 1] + xs[k])) <= 1e-12
        ok = ok and np.max(np.abs(us[k + 1] + us[k])) <= 1e-12
    ok = ok and not assess(p, z0).better_than(rep.assessment)
    verdict(6, ok, "phase-I iterates repeat with period 2 for ten iterations")


# -- 7: splitting suite -----------------------------------------------------


def test_acceptance_07_splitting_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(707)
    ok = True
    for _ in range(200):
        n = int(rng.integers(1, 101))
        A = rng.standard_normal((n, n))
        P = 0.5 * (A + A.T)
        scale = 1.0 + np.linalg.norm(P)
        sh = split_shift(P)
        ei = split_eigen(P)
        ch = split_cholesky_diff(P)
        for sp in (sh, ei, ch):
            ok = ok and np.linalg.norm(sp.plus - sp.minus - P) <= 1e-10 * scale
            ok = ok and np.linalg.eigvalsh(sp.plus)[0] >= -1e-9 * scale
            ok = ok and np.linalg.eigvalsh(sp.minus)[0] >= -1e-9 * scale
        ok = ok and ei.curvature <= sh.curvature + 1e-8
        if ch.min_divisor is not None:
            from qcqp.split import default_delta

            ok = ok and ch.min_divisor >= math.sqrt(default_delta(P)) - 1e-15
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 30.0
    verdict(7, ok, f"200 random splittings reconstruct with PSD parts ({elapsed:.1f}s)")


# -- 8: Boolean least squares workflow --------------------------------------


def test_acceptance_08_boolean_ls_workflow():
    t0 = time.monotonic()
    ok = True

    # feasibility of the improve methods on the primary instance
    p = gen_boolean_ls(80, 50, seed=0)
    x0 = suggest_random(p, 1, rng_seed=0).candidates[0]
    sign_cd = improve_sequence(p, x0, ["sign", "cd"])
    ok = ok and sign_cd.assessment.violation == 0.0
    ccp = improve_sequence(p, x0, ["ccp", "cd"], {"ccp": {"max_iter": 12}})
    ok = ok and ccp.assessment.violation == 0.0

    # qualitative ordering over three seeds, 20 candidates each
    wins = 0
    feasible_objs = []
    for seed in (0, 1, 2):
        ps = gen_boolean_ls(80, 50, seed=seed)
        sdr = suggest_sdr(ps, 20, rng_seed=seed)
        rand = suggest_random(ps, 20, rng_seed=seed)

        def best(cands, methods):
            vals = []
            for x in cands:
                rep = improve_sequence(ps, x, methods)
                if rep.assessment.violation == 0.0:
                    vals.append(rep.assessment.objective)
                    if seed == 0:
                        feasible_objs.append(rep.assessment.objective)
            return min(vals)

        cd_sdr = best(sdr.candidates, ["cd"])
        sign_sdr = best(sdr.candidates, ["sign"])
        sign_rand = best(rand.candidates, ["sign"])
        if cd_sdr <= sign_sdr + 1e-9 and sign_sdr <= sign_rand + 1e-9:
            wins += 1
        if seed == 0:
            cp0 = sdr.bound
            ok = ok and cp0 is not None and cp0.valid
            for f in feasible_objs:
                ok = ok and cp0.bound <= f + 1e-9
    ok = ok and wins >= 2

    # bound chain on a reduced instance where the cutting plane converges
    small = gen_boolean_ls(25, 16, seed=0)
    spec = spectral_bound(small)
    cps = sdr_bound_cutting_plane(
        small,
        CutPlaneOptions(seed_cuts=axis_pair_cuts(16), max_cuts=4000, cuts_per_iter=16),
    )
    _, fstar = brute_force(small)
    ok = ok and cps.valid
    ok = ok and spec.bound <= cps.bound + 1e-6
    ok = ok and cps.bound <= fstar + 1e-6
    ok = ok and spec.bound <= fstar + 1e-6
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 600.0
    verdict(8, ok, f"boolean LS workflow ({wins}/3 ordering wins, {elapsed:.0f}s)")


# -- 9: beamforming workflow ------------------------------------------------


def test_acceptance_09_beamforming_workflow():
    t0 = time.monotonic()
    ok = True
    p = gen_beamforming(10, 8, 3, tau=20.0, eta=2.0, seed=0)
    sdr = suggest_sdr(p, 3, rng_seed=0)
    x0 = sdr.candidates[0]

    admm = improve_sequence(p, x0, ["admm"], {"admm": {"max_iter": 800}})
    ok = ok and admm.assessment.violation <= 1e-5
    ccp = improve_sequence(p, x0, ["ccp"], {"ccp": {"max_iter": 12}})
    ok = ok and ccp.assessment.violation <= 1e-5
    composed = improve_sequence(p, x0, ["admm", "cd"], {"admm": {"max_iter": 800}})
    ok = ok and composed.assessment <= admm.assessment

    # covering normalization: min_i z'P_i z = 1 exactly for the scaled point
    covers = [-c.form.dense_p / c.form.r for c in p.constraints[:8]]
    z = scale_to_cover(np.ones(20), covers)
    vals = [float(z @ (M @ z)) for M in covers]
    ok = ok and abs(min(vals) - 1.0) <= 1e-10
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 300.0
    verdict(9, ok, f"beamforming workflow ({elapsed:.0f}s)")


# -- 10: improve contract ---------------------------------------------------


def test_acceptance_10_improve_contract():
    rng = np.random.default_rng(1010)
    families = []
    families.append(lambda s: gen_boolean_ls(6, 4, seed=s))
    families.append(
        lambda s: gen_partitioning(
            (lambda W: 0.5 * (W + W.T) - np.diag(np.diag(W)))(
                np.random.default_rng(s).standard_normal((4, 4))
            )
        )
    )
    families.append(
        lambda s: gen_maxcut(
            (lambda W: np.triu(np.abs(W), 1) + np.triu(np.abs(W), 1).T)(
                np.random.default_rng(s).standard_normal((4, 4))
            )
        )
    )
    families.append(
        lambda s: gen_maxclique(
            (lambda A: np.triu(A, 1) + np.triu(A, 1).T + np.eye(4, dtype=int))(
                (np.random.default_rng(s).uniform(size=(4, 4)) < 0.6).astype(int)
            )
        )
    )
    families.append(lambda s: gen_3sat([(1, 2, 3), (-1, 2, 4), (1, -3, -4)]))
    families.append(lambda s: gen_beamforming(2, 2, 1, seed=s))
    cheap = {
        "admm": {"max_iter": 30},
        "ccp": {"max_iter": 2, "subsolver_opts": {"max_iter": 60}},
        "cd": {"max_sweeps": 20},
    }
    method_names = list(METHODS)
    trials = 0
    ok = True
    while trials < 500:
        fam = families[trials % len(families)]
        name = method_names[trials % len(method_names)]
        problem = fam(int(rng.integers(0, 50)))
        if name == "balanced-sign" and problem.n % 2 != 0:
            trials += 1
            continue
        x0 = rng.standard_normal(problem.n) * float(rng.uniform(0.2, 3.0))
        try:
            rep = improve_sequence(problem, x0, [name], {name: cheap.get(name, {})})
        except QcqpError:
            trials += 1
            continue
        ok = ok and not assess(problem, x0).better_than(rep.assessment)
        trials += 1
    verdict(10, ok, "improve contract held over 500 method/family trials")


# -- 11: maximal clique -----------------------------------------------------


def test_acceptance_11_maximal_clique():
    rng = np.random.default_rng(1111)
    ok = True
    for _ in range(100):
        n = int(rng.integers(2, 41))
        A = (rng.uniform(size=(n, n)) < rng.uniform(0.1, 0.9)).astype(int)
        A = np.triu(A, 1)
        A = A + A.T + np.eye(n, dtype=int)
        z = greedy_clique(rng.standard_normal(n), A)
        chosen = np.nonzero(z)[0]
        for i in chosen:
            for j in chosen:
                ok = ok and bool(A[i, j])
        for v in range(n):
            if z[v] == 0.0:
                ok = ok and any(not A[v, j] for j in chosen)
    verdict(11, ok, "greedy clique output is a maximal clique on 100 graphs")


# -- 12: determinism --------------------------------------------------------


def test_acceptance_12_determinism():
    p = gen_boolean_ls(10, 8, seed=5)
    config = PipelineConfig(suggest="random", improve=("sign", "cd"), candidates=6, seed=7)
    r1 = canonical_report_json(run_pipeline(p, config))
    r2 = canonical_report_json(run_pipeline(p, config))
    ok = r1 == r2
    threaded = PipelineConfig(
        suggest="random", improve=("sign", "cd"), candidates=6, seed=7, parallel=4
    )
    r3 = run_pipeline(p, threaded)
    import json

    best1 = json.loads(r1)["best"]
    ok = ok and best1["x"] == r3["best"]["x"] and best1["index"] == r3["best"]["index"]
    verdict(12, ok, "byte-identical serial reports, identical best under threads")
