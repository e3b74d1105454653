import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qcqp.split import default_delta, split_cholesky_diff, split_eigen, split_shift


def random_symmetric(rng, n):
    A = rng.standard_normal((n, n))
    return 0.5 * (A + A.T)


def check_split(sp, P, tol=1e-9):
    scale = 1.0 + np.linalg.norm(P)
    assert np.linalg.norm(sp.plus - sp.minus - P) <= tol * scale
    assert np.linalg.eigvalsh(sp.plus)[0] >= -1e-9 * scale
    assert np.linalg.eigvalsh(sp.minus)[0] >= -1e-9 * scale


def excess_curvature(sp, P) -> float:
    """tr P+ + tr P- - sum |lambda(P)|: the curvature a split adds beyond P's own."""
    return float(np.trace(sp.plus) + np.trace(sp.minus) - np.sum(np.abs(np.linalg.eigvalsh(P))))


def test_all_splits_reconstruct():
    rng = np.random.default_rng(0)
    for _ in range(40):
        n = int(rng.integers(1, 20))
        P = random_symmetric(rng, n)
        for fn in (split_shift, split_eigen, split_cholesky_diff):
            sp = fn(P)
            check_split(sp, P)
            if fn is not split_shift:  # the shift split reports its 2t instead
                assert sp.curvature == pytest.approx(excess_curvature(sp, P), abs=1e-9 * (1.0 + np.linalg.norm(P)))


def test_shift_uses_smaller_side():
    # lmax dominant: plus = P + tI with t = -lmin
    P = np.diag([5.0, -1.0])
    sp = split_shift(P)
    assert sp.curvature == pytest.approx(2.0, rel=1e-6)
    # lmin dominant: the other branch, minus carries -P
    P = np.diag([-5.0, 1.0])
    sp = split_shift(P)
    assert sp.curvature == pytest.approx(2.0, rel=1e-6)
    check_split(sp, P)
    # PSD input needs no shift at all
    sp = split_shift(np.diag([1.0, 2.0]))
    assert sp.curvature == 0.0
    assert np.allclose(sp.minus, 0.0)


def test_eigen_split_exact_parts():
    P = np.diag([3.0, -2.0])
    sp = split_eigen(P)
    assert np.allclose(sp.plus, np.diag([3.0, 0.0]), atol=1e-12)
    assert np.allclose(sp.minus, np.diag([0.0, 2.0]), atol=1e-12)
    assert sp.curvature == pytest.approx(0.0, abs=1e-10)


def test_eigen_curvature_never_exceeds_shift():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(2, 25))
        P = random_symmetric(rng, n)
        assert split_eigen(P).curvature <= split_shift(P).curvature + 1e-8


def test_cholesky_diff_listed_example():
    # P = [[0, 1], [1, 0]], delta = 1: L1 = I, L2 = [[1, 0], [-1, 0]]
    P = np.array([[0.0, 1.0], [1.0, 0.0]])
    sp = split_cholesky_diff(P, delta=1.0)
    L1, L2 = sp.factors
    assert np.allclose(L1, np.eye(2), atol=1e-12)
    assert np.allclose(L2, [[1.0, 0.0], [-1.0, 0.0]], atol=1e-12)
    check_split(sp, P)


def test_cholesky_diff_divisor_floor():
    rng = np.random.default_rng(9)
    for _ in range(30):
        n = int(rng.integers(1, 30))
        P = random_symmetric(rng, n)
        delta = default_delta(P)
        sp = split_cholesky_diff(P, delta)
        if sp.min_divisor is not None:
            assert sp.min_divisor >= math.sqrt(delta) - 1e-15


def test_cholesky_diff_pivot_choices_both_valid():
    # one pivot step is left for near-zero pivots; a zero diagonal makes the first pivot exactly 0, so the two-column
    # step runs at least once; its L1 column has no off-diagonal part
    rng = np.random.default_rng(13)
    for k in range(20):
        n = int(rng.integers(2, 10))
        P = random_symmetric(rng, n)
        if k % 2:
            np.fill_diagonal(P, 0.0)
        sp = split_cholesky_diff(P, 1e-6)
        check_split(sp, P)
        if k % 2:
            L1, L2 = sp.factors
            assert L1[0, 0] == pytest.approx(1e-3) and not L1[1:, 0].any()
            assert L2[0, 0] == pytest.approx(1e-3) and sp.min_divisor == pytest.approx(1e-3)


def test_cholesky_diff_rejects_bad_delta():
    with pytest.raises(ValueError):
        split_cholesky_diff(np.eye(2), delta=0.0)


def test_factors_reproduce_parts():
    rng = np.random.default_rng(4)
    P = random_symmetric(rng, 8)
    sp = split_cholesky_diff(P)
    L1, L2 = sp.factors
    assert np.allclose(L1 @ L1.T, sp.plus, atol=1e-9)
    assert np.allclose(L2 @ L2.T, sp.minus, atol=1e-9)


def _coverage_matrix(seed: int) -> np.ndarray:
    # -(aa' + bb') in R^8: rank 2, six eigenvalues zero up to rounding
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal(8), rng.standard_normal(8)
    return -(np.outer(a, a) + np.outer(b, b))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_eigen_split_of_semidefinite_matrix_has_an_exactly_zero_part(seed):
    for P, zero_part in ((_coverage_matrix(seed), "plus"), (-_coverage_matrix(seed), "minus")):
        sp = split_eigen(P)
        assert not getattr(sp, zero_part).any()
        assert np.linalg.norm(sp.plus - sp.minus - P) <= 1e-12 * np.linalg.norm(P)
        for part in (sp.plus, sp.minus):
            assert np.linalg.eigvalsh(part)[0] >= -1e-12 * np.linalg.norm(P)


@pytest.mark.parametrize("scale", [1.0, 1e-20])
def test_eigen_split_threshold_is_relative(scale):
    # eigenvalues of size 1e-3 (or 1e-23) are far above n * eps * max|lambda|
    # and stay, however small they are in absolute terms
    lam = 1e-3 * scale
    Q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((4, 4)))
    P = (Q * np.array([-lam, lam, lam, -lam])) @ Q.T
    sp = split_eigen(P)
    assert np.linalg.eigvalsh(sp.plus) == pytest.approx([0.0, 0.0, lam, lam], abs=1e-12 * lam)
    assert np.linalg.eigvalsh(sp.minus) == pytest.approx([0.0, 0.0, lam, lam], abs=1e-12 * lam)
    assert np.linalg.norm(sp.plus - sp.minus - P) <= 1e-12 * np.linalg.norm(P)


@given(
    st.integers(1, 6),
    st.integers(0, 9),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["indefinite", "semidefinite", "zero", "scaled"]),
)
def test_eigen_split_of_a_stack_is_each_matrix_split_alone_byte_for_byte(k, n, seed, kind):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((k, n, n))
    if kind == "semidefinite":  # rank 2, of either sign: rounding-size eigenvalues go to 0
        B = rng.standard_normal((k, n, 2))
        A = (B @ B.swapaxes(1, 2)) * rng.choice([-1.0, 1.0], (k, 1, 1))
    elif kind == "zero":
        A[0] = 0.0
    elif kind == "scaled":
        A *= 10.0 ** rng.uniform(-20.0, 20.0, (k, 1, 1))
    stacked = split_eigen(A)
    assert stacked.curvature.shape == (k,)
    for i in range(k):
        alone = split_eigen(A[i].copy())
        assert isinstance(alone.curvature, float)
        assert alone.curvature.hex() == float(stacked.curvature[i]).hex()
        for got, want in (
            (stacked.plus[i], alone.plus),
            (stacked.minus[i], alone.minus),
            (stacked.eigen.values[i], alone.eigen.values),
            (stacked.eigen.vectors[i], alone.eigen.vectors),
        ):
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("split", [split_shift, split_cholesky_diff])
def test_only_the_eigen_split_takes_a_stack(split):
    with pytest.raises(ValueError, match="square"):
        split(np.stack([np.eye(2), np.eye(2)]))
