import math

import numpy as np
import pytest

import qcqp.lp as lp_mod
import qcqp.relax as relax_mod
from qcqp.core import Constraint, QcqpProblem, QuadraticForm, Sense, assess
from qcqp.errors import QcqpError
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
from qcqp.oneconstraint import OneConstraintResult, OneConstraintStatus
from qcqp.relax import (
    CutPlaneOptions,
    aggregate_constraints,
    axis_pair_cuts,
    sample_from_lifted,
    sdr_bound,
    sdr_bound_cutting_plane,
    spectral_bound,
    tighten,
)


def random_w(rng, n):
    W = rng.standard_normal((n, n))
    W = 0.5 * (W + W.T)
    np.fill_diagonal(W, 0.0)
    return W


def test_aggregate_constraints_values():
    p = gen_partitioning(np.array([[0.0, 1.0], [1.0, 0.0]]))
    agg = aggregate_constraints(p, [2.0, 3.0])
    # 2(x1^2 - 1) + 3(x2^2 - 1)
    assert np.allclose(agg.dense_p, np.diag([2.0, 3.0]))
    assert agg.r == pytest.approx(-5.0)


def test_aggregate_rejects_negative_on_inequality():
    obj = QuadraticForm.create(1)
    con = Constraint(QuadraticForm.create(1, (), [1.0], -1.0), Sense.LE)
    p = QcqpProblem.create(obj, [con])
    with pytest.raises(ValueError):
        aggregate_constraints(p, [-1.0])


def test_spectral_partitioning_closed_form():
    # minimize -x'Wx s.t. x_i^2 = 1: relaxation value is -n lambda_max(W)
    W = np.array([[0.0, 1.0], [1.0, 0.0]])
    p = gen_partitioning(W)
    res = spectral_bound(p)
    assert res.bound == pytest.approx(-2.0, abs=1e-8)
    # candidate is sqrt(n) times the top eigenvector, up to sign
    v = res.candidate / np.linalg.norm(res.candidate) * math.sqrt(2.0)
    assert np.allclose(np.abs(res.candidate), np.abs(v))


def test_spectral_unbounded_gives_vacuous_bound():
    # no constraint can convexify the objective
    obj = QuadraticForm.from_dense(-np.eye(2))
    con = Constraint(QuadraticForm.create(2, (), [1.0, 0.0], -1.0), Sense.LE)
    p = QcqpProblem.create(obj, [con])
    res = spectral_bound(p)
    assert res.bound == -math.inf


@pytest.mark.parametrize("r, bound", [(-1.0, 2.0), (1.0, math.inf)])
def test_spectral_bound_on_a_problem_of_no_variables(r, bound):
    # the objective is its constant 2; a constant row r <= 0 holds or leaves nothing feasible
    p = QcqpProblem.create(QuadraticForm.create(0, (), None, 2.0), [Constraint(QuadraticForm.create(0, (), None, r))])
    assert spectral_bound(p).bound == bound
    assert spectral_bound(QcqpProblem.create(QuadraticForm.create(0))).bound == 0.0


def test_cutting_plane_bound_sandwich_small():
    rng = np.random.default_rng(0)
    for _ in range(4):
        n = int(rng.integers(2, 7))
        W = random_w(rng, n)
        p = gen_partitioning(W)
        spec = spectral_bound(p).bound
        # the default budget of 50 n cuts may run out before convergence
        cp = sdr_bound_cutting_plane(
            p, CutPlaneOptions(seed_cuts=axis_pair_cuts(n), max_cuts=4000, cuts_per_iter=16)
        )
        assert cp.converged and cp.valid
        _, fstar = brute_force(p)
        assert spec - 1e-6 <= cp.bound <= fstar + 1e-6
        # trace of bounds is nondecreasing while cuts accumulate
        assert all(a <= b + 1e-7 for a, b in zip(cp.trace, cp.trace[1:]))


def test_lifted_rows_match_loop_reference():
    # reference: explicit loops over the (i, j) entries of the upper triangle
    rng = np.random.default_rng(5)
    for n in (1, 2, 6):
        tri = [(i, j) for i in range(n) for j in range(i, n)]
        a = rng.standard_normal((4, n + 1))
        rows, rhs = relax_mod._cut_rows(a)
        for a_k, row, r in zip(a, rows, rhs):
            ref = np.zeros(len(tri) + n)
            for k, (i, j) in enumerate(tri):
                ref[k] -= a_k[i] * a_k[i] if i == j else 2.0 * a_k[i] * a_k[j]
            ref[len(tri) :] = -2.0 * a_k[n] * a_k[:n]
            assert np.array_equal(row, ref) and r == a_k[n] * a_k[n]
        form = QuadraticForm.from_dense(rng.standard_normal((n, n)), rng.standard_normal(n))
        ref = np.zeros(len(tri) + n)
        for i, j, v in form.triplets:
            ref[tri.index((i, j))] += v if i == j else 2.0 * v
        ref[len(tri) :] = form.q_vec
        assert np.array_equal(relax_mod._form_row(form), ref)


@pytest.mark.skipif(lp_mod._Highs is None, reason="scipy has no persistent HiGHS model")
def test_cutting_plane_warm_lp_matches_cold_and_recovers(monkeypatch):
    rng = np.random.default_rng(12)
    n = 8
    p = gen_partitioning(random_w(rng, n))
    opts = CutPlaneOptions(seed_cuts=axis_pair_cuts(n), max_cuts=4000, cuts_per_iter=16)

    models = []

    class RecordingLp(lp_mod.IncrementalLp):
        def __init__(self, lp):
            super().__init__(lp)
            models.append(self)

    monkeypatch.setattr(relax_mod, "IncrementalLp", RecordingLp)
    warm = sdr_bound_cutting_plane(p, opts)
    assert warm.converged and warm.valid
    # the warm-started value is the optimum of the final row set, solved cold
    cold = lp_mod.solve_lp(models[-1].program())
    assert cold.value + p.objective.r == pytest.approx(warm.bound, rel=1e-7)

    # force HiGHS to report an unknown status on chosen runs of the last solve
    last = len(warm.trace)
    cold_calls = []
    solve_lp = lp_mod.solve_lp
    monkeypatch.setattr(lp_mod, "solve_lp", lambda lp: cold_calls.append(lp) or solve_lp(lp))
    highs = lp_mod._Highs
    for fail_runs, n_cold in (({last}, 0), ({last, last + 1}, 1)):

        class FailingHighs(highs):
            runs = 0

            def run(self):
                FailingHighs.runs += 1
                return super().run()

            def getModelStatus(self):
                if FailingHighs.runs in fail_runs:
                    return lp_mod.HighsModelStatus.kUnknown
                return super().getModelStatus()

        monkeypatch.setattr(lp_mod, "_Highs", FailingHighs)
        cold_calls.clear()
        res = sdr_bound_cutting_plane(p, opts)
        # a failed warm run is retried from scratch, then handed to solve_lp
        assert FailingHighs.runs == last + 1
        assert len(cold_calls) == n_cold
        assert res.converged and res.valid
        assert res.trace[:-1] == warm.trace[:-1]
        assert res.bound == pytest.approx(warm.bound, rel=1e-7)


def test_cutting_plane_infeasible_flags_invalid():
    # contradictory affine rows: x1 <= -1 and x1 >= 1
    obj = QuadraticForm.create(1)
    c1 = Constraint(QuadraticForm.create(1, (), [1.0], 1.0), Sense.LE)
    c2 = Constraint(QuadraticForm.create(1, (), [-1.0], 1.0), Sense.LE)
    p = QcqpProblem.create(obj, [c1, c2])
    res = sdr_bound_cutting_plane(p)
    assert res.bound == math.inf
    assert not res.valid


def test_lagrangian_dominance_property():
    # any lambda >= 0 gives a spectral bound no better than the converged SDR
    rng = np.random.default_rng(3)
    n = 5
    W = random_w(rng, n)
    p = gen_partitioning(W)
    cp = sdr_bound_cutting_plane(p, CutPlaneOptions(seed_cuts=axis_pair_cuts(n)))
    assert cp.converged
    for _ in range(10):
        lam = rng.uniform(0.0, 2.0, size=n)
        d = spectral_bound(p, lam).bound
        assert d <= cp.bound + 1e-4 * (1.0 + abs(cp.bound))


def test_sample_from_lifted_moments():
    n = 4
    x = np.zeros(n)
    X = np.eye(n)
    from qcqp.relax import RelaxationResult

    res = RelaxationResult(bound=0.0, certificate=(X, x))
    samples = sample_from_lifted(res, 4000, rng_seed=0)
    pts = np.array(samples.points)
    assert samples.sigma_repair == 0.0
    assert np.allclose(pts.mean(axis=0), x, atol=0.1)
    assert np.allclose(np.cov(pts.T), np.eye(n), atol=0.15)


def test_sample_from_lifted_rank_one():
    x = np.array([1.0, -1.0])
    res_cert = (np.outer(x, x), x)
    from qcqp.relax import RelaxationResult

    res = RelaxationResult(bound=0.0, certificate=res_cert)
    samples = sample_from_lifted(res, 5, rng_seed=1)
    for p in samples.points:
        assert np.allclose(p, x, atol=1e-7)


def test_sample_requires_lifted_certificate():
    from qcqp.relax import RelaxationResult

    with pytest.raises(ValueError):
        sample_from_lifted(RelaxationResult(bound=0.0), 1)


def test_tighten_preserves_feasible_set_and_helps_bound():
    # box -1 <= x <= 1 in each coordinate, concave objective
    n = 2
    obj = QuadraticForm.from_dense(-np.eye(n))
    cons = []
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        cons.append(Constraint(QuadraticForm.create(n, (), e, -1.0), Sense.LE))
        cons.append(Constraint(QuadraticForm.create(n, (), -e, -1.0), Sense.LE))
    p = QcqpProblem.create(obj, cons)
    tight = tighten(p)
    assert tight.m > p.m
    # feasible points of the original stay feasible after tightening
    rng = np.random.default_rng(8)
    for _ in range(50):
        x = rng.uniform(-1.0, 1.0, size=n)
        assert assess(tight, x).violation <= 1e-12
    # products include x_i^2 <= 1 rows, so the lifted bound becomes finite
    base = sdr_bound_cutting_plane(p, CutPlaneOptions(max_cuts=0))
    improved = sdr_bound_cutting_plane(tight, CutPlaneOptions(max_cuts=0))
    assert improved.bound >= base.bound - 1e-9
    assert improved.bound >= -2.0 - 1e-6


def test_tighten_noop_without_affine_rows():
    p = gen_partitioning(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert tighten(p) is p


def test_spectral_bound_with_common_null_space_direction():
    # minimize x2^2 - x2 s.t. x2^2 + x1 + x2 <= 0: x1 enters both forms
    # linearly and absorbs the constraint, so the bound is min x2^2 - x2 = -1/4
    objective = QuadraticForm.from_dense(np.diag([0.0, 1.0]), [0.0, -1.0])
    row = Constraint(QuadraticForm.from_dense(np.diag([0.0, 1.0]), [1.0, 1.0]))
    res = spectral_bound(QcqpProblem.create(objective, [row]))
    assert res.valid
    assert res.bound == pytest.approx(-0.25, abs=1e-9)


def test_spectral_bound_unbounded_along_common_null_space():
    # minimize x1^2 - x1 + x2 s.t. x1 + x2 + 1 <= 0: x2 -> -inf stays feasible
    objective = QuadraticForm.from_dense(np.diag([1.0, 0.0]), [-1.0, 1.0])
    row = Constraint(QuadraticForm.create(2, (), [1.0, 1.0], 1.0))
    res = spectral_bound(QcqpProblem.create(objective, [row]))
    assert res.bound == -math.inf


def test_beamforming_spectral_closed_form():
    # single lower bound (a'x)^2 + (b'x)^2 >= tau with unit objective:
    # relaxation value tau / lambda_max of the constraint matrix
    p = gen_beamforming(2, 1, 1, tau=20.0, eta=1e9, seed=0)
    sub = QcqpProblem.create(p.objective, [p.constraints[0]])
    res = spectral_bound(sub)
    M = -sub.constraints[0].form.dense_p
    lmax = float(np.linalg.eigvalsh(M)[-1])
    assert res.bound == pytest.approx(20.0 / lmax, rel=1e-7)


def _scaled_circle(s):
    """min s (x1 + x2) s.t. x1^2 + x2^2 = 1, whose optimum is -sqrt(2) s."""
    row = Constraint(QuadraticForm.create(2, [(0, 0, 1.0), (1, 1, 1.0)], None, -1.0), Sense.EQ)
    return QcqpProblem.create(QuadraticForm.create(2, (), [s, s]), [row])


@pytest.mark.parametrize("s", [1.0, 1e12, 1e50, 1e154, 1e155, 1e200, 1e300])
def test_spectral_bound_of_a_scaled_instance_is_valid_or_flagged_or_fails(s):
    # at s >= 1e155 the bound was 0.0, flagged valid, with numpy's overflow
    # warning; a bound flagged valid must be below the optimum, to the
    # rounding of the objective's scale
    try:
        res = spectral_bound(_scaled_circle(s))
    except QcqpError:
        return
    assert not res.valid or res.bound <= -math.sqrt(2.0) * s * (1.0 - 1e-12)


@pytest.mark.parametrize("s", [1.0, 1e12, 1e200])
def test_spectral_bound_flags_an_answer_that_certifies_nothing(monkeypatch, s):
    # whatever (x, eta) the solver returns, the bound comes from the dual
    # vector (f0(x), -eta) and holds for the problem, or is flagged
    p = _scaled_circle(s)
    optimum = -np.ones(2) / math.sqrt(2.0)
    planted = [
        # the solver's old answer at s >= 1e155: the Lagrangian's gradient is the objective's q, not 0
        (np.zeros(2), 0.0, 0.0),
        # the optimum's x with a multiplier that leaves the Lagrangian's gradient not 0
        (optimum, 0.3, 0.0),
        # eta < 0: the Lagrangian is not convex
        (optimum, -0.5, 0.0),
        # an interior point with eta > 0, whose bound holds to the rounding of the objective's scale
        (np.zeros(2), 0.5, 1e-12),
    ]
    for x, eta, slack in planted:
        answer = OneConstraintResult(OneConstraintStatus.OPTIMAL, x=x, value=p.objective(x), eta=eta)
        monkeypatch.setattr(relax_mod, "solve_one_constraint", lambda objective, form: answer)
        res = spectral_bound(p)
        assert not res.valid or res.bound <= -math.sqrt(2.0) * s * (1.0 - slack)


def _boolean_families(seed):
    rng = np.random.default_rng(seed)
    W = np.triu(rng.uniform(size=(8, 8)), 1)
    W = W + W.T
    A = np.triu(rng.uniform(size=(7, 7)) < 0.5, 1)
    return {
        "boolean-ls": gen_boolean_ls(10, 8, seed),
        "partitioning": gen_partitioning(W),
        "maxcut": gen_maxcut(W),
        "maxbisection": gen_maxbisection(W),
        "maxclique": gen_maxclique((A + A.T + np.eye(7)).astype(float)),
        "3sat": gen_3sat([[1, -2, 3], [-1, 2, 4], [2, -3, -4], [1, 3, 5], [-5, 4, 2]], 5),
    }


@pytest.mark.parametrize("seed", range(6))
def test_every_bound_flagged_valid_is_at_most_the_optimum(seed):
    # the spectral bound once came out 1 ulp above the max-clique optimum
    # (-2.999999999999999 against -3.0), flagged valid
    for name, p in _boolean_families(seed).items():
        _, fstar = brute_force(p)
        for c in (1.0, 1e-12, 1e12):
            scaled = QcqpProblem.create(p.objective.scaled(c), p.constraints)
            for method in (spectral_bound, sdr_bound):
                res = method(scaled)
                assert not res.valid or res.bound <= fstar * c, (name, c, method.__name__, res.bound, fstar * c)
