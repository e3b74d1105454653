import math

import numpy as np
import pytest

from qcqp.split import (
    PivotChoice,
    default_delta,
    split_cholesky_diff,
    split_eigen,
    split_ldl,
    split_shift,
)


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
        for fn in (split_shift, split_eigen, split_cholesky_diff, split_ldl):
            sp = fn(P)
            check_split(sp, P)
            if fn is not split_shift:  # the shift split reports its 2t instead
                assert sp.curvature == pytest.approx(excess_curvature(sp, P), abs=1e-9 * (1.0 + np.linalg.norm(P)))


def test_ldl_split_reports_its_curvature():
    # a diagonal-D LDL' whose parts carry more trace than |lambda| sums to
    P = np.array([[4.0, 1.0, 0.5], [1.0, -3.0, 0.2], [0.5, 0.2, 2.0]])
    sp = split_ldl(P)
    check_split(sp, P)
    assert sp.curvature == pytest.approx(0.2169, abs=1e-4)
    assert sp.curvature == pytest.approx(excess_curvature(sp, P), abs=1e-12)


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
    rng = np.random.default_rng(13)
    for _ in range(10):
        n = int(rng.integers(2, 10))
        P = random_symmetric(rng, n)
        for pc in (PivotChoice.V1_ZERO, PivotChoice.V2_ZERO):
            check_split(split_cholesky_diff(P, 1e-6, pivot_choice=pc), P)


def test_cholesky_diff_rejects_bad_delta():
    with pytest.raises(ValueError):
        split_cholesky_diff(np.eye(2), delta=0.0)


def test_ldl_psd_input_zero_minus():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((6, 6))
    P = A @ A.T
    sp = split_ldl(P)
    assert np.linalg.norm(sp.minus) <= 1e-8 * (1.0 + np.linalg.norm(P))
    check_split(sp, P)


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
