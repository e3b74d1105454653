import numpy as np
import pytest

from qcqp.core import Constraint, QcqpProblem, QuadraticForm, Sense
from qcqp.errors import NumericalFailureError
from qcqp.generators import gen_partitioning
from qcqp.suggest import sub_seed, suggest_random, suggest_sdr, suggest_spectral


def small_problem():
    W = np.array([[0.0, 1.0, 0.5], [1.0, 0.0, -0.3], [0.5, -0.3, 0.0]])
    return gen_partitioning(W)


def test_sub_seed_contract():
    assert sub_seed(10, 3) == 13
    assert sub_seed(None, 5) is None


def test_suggest_random_deterministic_per_seed():
    p = small_problem()
    a = suggest_random(p, count=4, rng_seed=7)
    b = suggest_random(p, count=4, rng_seed=7)
    for x, y in zip(a.candidates, b.candidates):
        assert np.array_equal(x, y)
    # candidate k only depends on seed + k, not on count
    c = suggest_random(p, count=2, rng_seed=7)
    assert np.array_equal(a.candidates[0], c.candidates[0])
    assert np.array_equal(a.candidates[1], c.candidates[1])
    with pytest.raises(ValueError):
        suggest_random(p, count=0)


def test_suggest_spectral_carries_bound():
    p = small_problem()
    out = suggest_spectral(p)
    assert len(out.candidates) == 1
    assert out.bound is not None
    # partitioning closed form: bound -n lambda_max, candidate norm sqrt(n)
    W = np.array([[0.0, 1.0, 0.5], [1.0, 0.0, -0.3], [0.5, -0.3, 0.0]])
    lmax = float(np.linalg.eigvalsh(W)[-1])
    assert out.bound.bound == pytest.approx(-3.0 * lmax, rel=1e-8)
    assert np.linalg.norm(out.candidates[0]) == pytest.approx(np.sqrt(3.0), rel=1e-6)


@pytest.mark.parametrize(
    "curvature, row, sense, bound",
    [
        (1.0, QuadraticForm.create(1, [(0, 0, 1.0)], None, 1.0), Sense.EQ, "inf"),  # x^2 + 1 = 0: no feasible point
        (-1.0, QuadraticForm.create(1, (), [1.0], -1.0), Sense.LE, "-inf"),  # min -x^2 over x <= 1: unbounded
    ],
    ids=["infeasible", "unbounded"],
)
def test_suggest_spectral_without_a_minimizer_names_its_bound(curvature, row, sense, bound):
    p = QcqpProblem.create(QuadraticForm.create(1, [(0, 0, curvature)]), [Constraint(row, sense)])
    with pytest.raises(NumericalFailureError, match=rf"\(bound {bound}\)"):
        suggest_spectral(p)


def test_suggest_sdr_samples_and_bound():
    p = small_problem()
    out = suggest_sdr(p, count=5, rng_seed=3)
    assert len(out.candidates) == 5
    assert out.bound is not None and out.bound.valid
    # deterministic per seed
    out2 = suggest_sdr(p, count=5, rng_seed=3)
    for x, y in zip(out.candidates, out2.candidates):
        assert np.array_equal(x, y)


def test_suggest_sdr_rank_one_short_circuit():
    # convex problem: minimize ||x - (1, 0)||^2 over the whole space; the
    # relaxation is tight, so every candidate is the relaxation solution
    obj = QuadraticForm.from_dense(np.eye(2), [-2.0, 0.0], 1.0)
    p = QcqpProblem.create(obj)
    out = suggest_sdr(p, count=3, rng_seed=0)
    for x in out.candidates:
        assert np.allclose(x, [1.0, 0.0], atol=1e-3)
        assert np.array_equal(x, out.candidates[0])  # x itself, not samples around it
