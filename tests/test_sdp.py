"""The interior-point SDR bound: agreement with the converged cutting plane,
the sandwich spectral <= SDR <= optimum on every boolean family,
certification of the bound from the dual, and its infeasible, unbounded and
early-stopped cases."""

import hashlib
import math

import numpy as np
import pytest

import qcqp.relax as relax_mod
from qcqp.core import Constraint, QcqpProblem, QuadraticForm, Sense
from qcqp.generators import (
    brute_force,
    gen_3sat,
    gen_beamforming,
    gen_boolean_ls,
    gen_maxbisection,
    gen_maxclique,
    gen_maxcut,
    gen_partitioning,
)
from qcqp.improve import round_sign
from qcqp.relax import (
    CutPlaneOptions,
    axis_pair_cuts,
    sample_from_lifted,
    sdr_bound,
    sdr_bound_cutting_plane,
    spectral_bound,
)
from qcqp.suggest import suggest_sdr


def acceptance_04_instances():
    """The 20 PSD-weighted partitioning instances of acceptance 04, in its order."""
    rng = np.random.default_rng(404)
    for _ in range(20):
        n = int(rng.integers(6, 13))
        G = rng.standard_normal((n, n))
        W = G.T @ G
        np.fill_diagonal(W, 0.0)
        W = 0.5 * (W + W.T)
        wmin = float(np.linalg.eigvalsh(W)[0])
        if wmin < 0.0:
            W = W + (-wmin + 1e-9) * np.eye(n)
        yield W, gen_partitioning(W)


def random_boolean_problem(rng, n):
    """x_i^2 = 1 rows, a random objective and up to two random le rows."""
    obj = QuadraticForm.from_dense(rng.standard_normal((n, n)), rng.standard_normal(n), rng.standard_normal())
    cons = [Constraint(QuadraticForm.create(n, [(i, i, 1.0)], None, -1.0), Sense.EQ) for i in range(n)]
    for _ in range(int(rng.integers(0, 3))):
        form = QuadraticForm.from_dense(rng.standard_normal((n, n)), rng.standard_normal(n), rng.uniform(-3.0, 0.0))
        cons.append(Constraint(form, Sense.LE))
    return QcqpProblem.create(obj, cons)


def test_sdr_bound_matches_converged_cutting_plane_on_acceptance_04():
    hits = 0
    for W, p in acceptance_04_instances():
        n = p.n
        res = sdr_bound(p)
        assert res.converged and res.valid and res.trace == (res.bound,)
        cp = sdr_bound_cutting_plane(p, CutPlaneOptions(seed_cuts=axis_pair_cuts(n), max_cuts=8000, cuts_per_iter=16))
        assert cp.converged
        assert res.bound == pytest.approx(cp.bound, rel=1e-6)
        # sandwich: (2/pi) SDR <= optimum <= SDR <= spectral, as maximizations
        sdr_max = -res.bound
        _, fmin = brute_force(p)
        assert (2.0 / math.pi) * sdr_max - 1e-3 * abs(sdr_max) <= -fmin <= sdr_max + 1e-6
        assert sdr_max <= -spectral_bound(p).bound + 1e-6
        samples = sample_from_lifted(res, 100, rng_seed=7).points
        best = max(float(z @ (W @ z)) for z in map(round_sign, samples))
        hits += best >= (2.0 / math.pi) * sdr_max - 1e-9
    assert hits >= 19


def test_sdr_bound_below_brute_force_on_small_instances():
    rng = np.random.default_rng(61)
    checked = 0
    for _ in range(60):
        p = random_boolean_problem(rng, int(rng.integers(2, 7)))
        _, fstar = brute_force(p)
        res = sdr_bound(p)
        if not math.isfinite(fstar):
            continue  # infeasible instance: every bound holds
        checked += 1
        assert res.valid
        assert res.bound <= fstar + 1e-9
        spec = spectral_bound(p).bound
        assert spec <= res.bound + 1e-6 * (1.0 + abs(res.bound))
    assert checked >= 40


def _weights(rng, n):
    W = np.triu(rng.uniform(0.0, 1.0, size=(n, n)), 1)
    return W + W.T


def _adjacency(rng, n):
    A = np.triu((rng.uniform(size=(n, n)) < 0.5).astype(int), 1)
    return A + A.T + np.eye(n, dtype=int)


def _clauses(rng, n):
    """Random 3-SAT clauses on n variables, satisfied by a planted assignment."""
    planted = rng.integers(0, 2, size=n)
    out = []
    while len(out) < 2 * n:
        vs = rng.choice(n, size=3, replace=False)
        lits = [int(v + 1) * (1 if rng.uniform() < 0.5 else -1) for v in vs]
        if any((lit > 0) == bool(planted[abs(lit) - 1]) for lit in lits):
            out.append(tuple(lits))
    return out


BOOLEAN_FAMILIES = {
    "boolean-ls": lambda rng, n: gen_boolean_ls(n + 2, n, seed=rng),
    "partitioning": lambda rng, n: gen_partitioning(_weights(rng, n)),
    "maxcut": lambda rng, n: gen_maxcut(_weights(rng, n)),
    "maxbisection": lambda rng, n: gen_maxbisection(_weights(rng, n)),
    "maxclique": lambda rng, n: gen_maxclique(_adjacency(rng, n)),
    "3sat": lambda rng, n: gen_3sat(_clauses(rng, n), n),
}


@pytest.mark.parametrize("family", sorted(BOOLEAN_FAMILIES))
def test_bound_sandwich_on_every_boolean_family(family):
    # spectral <= sdr_bound <= optimum, with the SDR bound valid
    rng = np.random.default_rng(sorted(BOOLEAN_FAMILIES).index(family))
    for n in (4, 6, 8):
        for _ in range(8):
            p = BOOLEAN_FAMILIES[family](rng, n)
            _, opt = brute_force(p)
            assert math.isfinite(opt)
            res = sdr_bound(p)
            tol = 1e-6 * (1.0 + abs(opt))
            assert res.valid
            assert spectral_bound(p).bound <= res.bound + tol
            assert res.bound <= opt + tol


def test_certified_bound_absorbs_perturbed_duals():
    rng = np.random.default_rng(62)
    corrected = 0
    for _ in range(10):
        p = random_boolean_problem(rng, int(rng.integers(3, 7)))
        _, fstar = brute_force(p)
        if not math.isfinite(fstar):
            continue
        rows = relax_mod._sdr_rows(p)
        y = relax_mod._solve_sdr(*rows).y
        for _ in range(20):
            y_bad = y + 1e-3 * rng.standard_normal(y.size)
            bound, valid = relax_mod._certified_bound(p, rows, y_bad)
            assert valid
            assert bound <= fstar + 1e-9
            corrected += bound < y_bad[0]
    # the lambda_min correction, not luck, kept the perturbed bounds valid
    assert corrected >= 100


def test_beamforming_bound_certified_from_objective_level():
    # no row has P > 0; the trace bound comes from the objective's sublevel set
    p = gen_beamforming(10, 8, 3, tau=20.0, eta=2.0, seed=0)
    res = sdr_bound(p)
    assert res.converged and res.valid
    rows = relax_mod._sdr_rows(p)
    y = relax_mod._solve_sdr(*rows).y
    bound, valid = relax_mod._certified_bound(p, rows, y + 1e-3)
    assert valid and bound <= res.bound


def test_sdr_bound_stopped_early_stays_valid(monkeypatch):
    rng = np.random.default_rng(63)
    p = random_boolean_problem(rng, 5)
    _, fstar = brute_force(p)
    full = sdr_bound(p)
    # an iteration cap, then a factorization failure in the step-length search
    monkeypatch.setattr(relax_mod, "SDR_MAX_ITER", 3)
    capped = sdr_bound(p)
    monkeypatch.undo()
    calls = []

    def failing_max_step(V, dV):
        calls.append(1)
        if len(calls) > 12:
            raise np.linalg.LinAlgError("forced")
        return max_step(V, dV)

    max_step = relax_mod._max_step
    monkeypatch.setattr(relax_mod, "_max_step", failing_max_step)
    failed = sdr_bound(p)
    for res in (capped, failed):
        assert not res.converged and res.valid
        assert res.bound <= full.bound + 1e-9 <= fstar + 2e-9
        X, x = res.certificate
        assert np.linalg.eigvalsh(X - np.outer(x, x))[0] >= -1e-9


def test_sdr_bound_schur_factorization_failure_stays_valid(monkeypatch):
    rng = np.random.default_rng(63)
    p = random_boolean_problem(rng, 5)
    _, fstar = brute_force(p)
    full = sdr_bound(p)
    # the Schur complement is m+1 square, Z and S are n+1 square
    assert p.m != p.n
    schur_calls = []

    def failing_inv_chol(V):
        if V.shape[0] == p.m + 1:
            schur_calls.append(1)
            if len(schur_calls) == 4:
                raise np.linalg.LinAlgError("forced")
        return inv_chol(V)

    inv_chol = relax_mod.inv_chol
    monkeypatch.setattr(relax_mod, "inv_chol", failing_inv_chol)
    res = sdr_bound(p)
    assert len(schur_calls) == 4
    assert not res.converged and res.valid
    assert res.bound <= full.bound + 1e-9 <= fstar + 2e-9
    X, x = res.certificate
    assert np.linalg.eigvalsh(X - np.outer(x, x))[0] >= -1e-9


def test_sdr_bound_infeasible_and_unbounded():
    # contradictory affine rows x <= -1 and x >= 1
    obj = QuadraticForm.create(1)
    rows = [
        Constraint(QuadraticForm.create(1, (), [1.0], 1.0), Sense.LE),
        Constraint(QuadraticForm.create(1, (), [-1.0], 1.0), Sense.LE),
    ]
    res = sdr_bound(QcqpProblem.create(obj, rows))
    assert res.bound == math.inf and not res.valid and res.certificate is None
    # concave objective over a box: the lifted X is unconstrained
    cons = []
    for i in range(2):
        e = np.eye(2)[i]
        cons.append(Constraint(QuadraticForm.create(2, (), e, -1.0), Sense.LE))
        cons.append(Constraint(QuadraticForm.create(2, (), -e, -1.0), Sense.LE))
    res = sdr_bound(QcqpProblem.create(QuadraticForm.from_dense(-np.eye(2)), cons))
    assert res.bound == -math.inf and res.certificate is None


def test_sdr_bound_unconstrained_rank_one():
    # min ||x - (1, 0)||^2: the SDR is tight at 0, where S is singular
    p = QcqpProblem.create(QuadraticForm.from_dense(np.eye(2), [-2.0, 0.0], 1.0))
    res = sdr_bound(p)
    assert not res.valid or res.bound <= 0.0
    assert np.allclose(res.candidate, [1.0, 0.0], atol=1e-3)


@pytest.mark.parametrize("s", [1e150, 1e200, 1e308])
def test_sdr_bound_of_a_huge_objective_is_flagged_or_below_the_optimum(s):
    # min s x^2 has optimum 0; above about 1e154 the sum of squares in
    # ||C|| overflows, which once scaled C to 0 and gave a NaN bound marked valid
    res = sdr_bound(QcqpProblem.create(QuadraticForm.create(1, [(0, 0, s)])))
    assert not res.valid or res.bound <= 0.0  # False for a NaN bound


@pytest.mark.parametrize("s", [1e160, 1e200, 1e308])
def test_sdr_bound_of_a_huge_row_matches_the_bound_at_scale_one(s):
    # min x s.t. s x^2 - s <= 0 has optimum -1; above about 1e154 the sum of
    # squares in a row's norm overflows, which once gave the bound -inf
    def problem(scale):
        row = Constraint(QuadraticForm.create(1, [(0, 0, scale)], None, -scale), Sense.LE)
        return QcqpProblem.create(QuadraticForm.create(1, (), [1.0]), [row])

    ref = sdr_bound(problem(1.0))
    res = sdr_bound(problem(s))
    assert ref.valid and res.valid
    assert res.bound == pytest.approx(ref.bound, rel=1e-6)


def test_sdr_bound_and_samples_are_deterministic():
    p = gen_partitioning(np.array([[0.0, 1.0, 0.5], [1.0, 0.0, -0.3], [0.5, -0.3, 0.0]]))
    a = suggest_sdr(p, count=4, rng_seed=11)
    b = suggest_sdr(p, count=4, rng_seed=11)
    assert a.bound.bound == b.bound.bound
    for x, y in zip(a.candidates, b.candidates):
        assert np.array_equal(x, y)
    X1, x1 = sdr_bound(p).certificate
    X2, x2 = sdr_bound(p).certificate
    assert np.array_equal(X1, X2) and np.array_equal(x1, x2)


def _sdr_pin_case(family: str, seed: int):
    """An n = 8 instance of family; beamforming's and 3-SAT's rows include LE rows."""
    rng = np.random.default_rng(seed)
    if family == "beamforming":
        return gen_beamforming(4, 6, 2, tau=20.0, eta=2.0, seed=seed)
    return BOOLEAN_FAMILIES[family](rng, 8)


def _sdr_digests(problem, seed: int) -> tuple[str, str]:
    """sha256 of _solve_sdr's (Z, y, status) and of suggest_sdr's 5 candidates and bound."""
    it = relax_mod._solve_sdr(*relax_mod._sdr_rows(problem))
    h = hashlib.sha256(it.Z.tobytes() + it.y.tobytes() + it.status.encode())
    out = suggest_sdr(problem, count=5, rng_seed=seed)
    g = hashlib.sha256(b"".join(x.tobytes() for x in out.candidates))
    b = out.bound
    g.update(np.array([b.bound, b.valid, b.converged], dtype=float).tobytes())
    return h.hexdigest()[:16], g.hexdigest()[:16]


# _sdr_digests of each family at seeds 0-2, as recorded when every step of the
# interior point factored Z and S, and took each step length, one at a time
SDR_PINS = {
    "3sat": [
        ("52e7186b2bd8c196", "526c28ad80238727"),
        ("6e5d7bd1a74b13eb", "f1847eb7b6544b76"),
        ("4584f4f2478d36fb", "ef43db2db48bcc00"),
    ],
    "beamforming": [
        ("49a238cc31766795", "bc9c3057c75d25a5"),
        ("8ce4db0375319db9", "d8867f4eabf2f1e2"),
        ("f37c6314caea4706", "c2d5dbb9a41f54b9"),
    ],
    "boolean-ls": [
        ("dc080d454a5c26f0", "4c601ed70af4c4cf"),
        ("1c290854cfa1db96", "a2eb5b4a702fb332"),
        ("bc113fab4c36a948", "56642c7623b63867"),
    ],
    "maxbisection": [
        ("e85877bc8e2de3a1", "a8bbbc8b64920d10"),
        ("02ad815d03a1ed04", "b757ea31aaa4e850"),
        ("3e651abf9ab1d2dc", "4e427e06f27c4b2b"),
    ],
    "maxclique": [
        ("414b027332d15912", "eea259f8d2fbeb8d"),
        ("1b46f76477392cac", "a2c3c6986d072f39"),
        ("7f587764ac0948c4", "af112f6ff9d814e5"),
    ],
    "maxcut": [
        ("04e08cca4877a18c", "b99e13734fabf2ea"),
        ("817b53dfde0dbfde", "c1200f08e4b4ca3d"),
        ("8857638f1d55eebb", "a34bf9f61069aee5"),
    ],
    "partitioning": [
        ("373c42608d13774a", "a7859681b6f80bf2"),
        ("55e61821fbad2de6", "733251530acab30e"),
        ("c4d112b6071d53d2", "0300fc78cc8a7d25"),
    ],
}


@pytest.mark.parametrize("family", sorted(SDR_PINS))
def test_sdr_iterate_and_samples_pinned(family):
    got = [_sdr_digests(_sdr_pin_case(family, seed), seed) for seed in range(3)]
    assert got == SDR_PINS[family]
