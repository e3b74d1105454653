import math
import warnings

import numpy as np
import pytest

from qcqp.linalg import min_eig_bound, norm, sym_eigen


def random_symmetric(rng, n):
    A = rng.standard_normal((n, n))
    return 0.5 * (A + A.T)


def test_sym_eigen_reconstruction_and_order():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(1, 15))
        S = random_symmetric(rng, n)
        eig = sym_eigen(S)
        assert np.all(np.diff(eig.values) >= -1e-12)
        R = (eig.vectors * eig.values) @ eig.vectors.T
        assert np.linalg.norm(R - S) <= 1e-9 * (1.0 + np.linalg.norm(S))
        assert np.allclose(eig.vectors.T @ eig.vectors, np.eye(n), atol=1e-10)


def test_sym_eigen_known_values():
    eig = sym_eigen([[0.0, 1.0], [1.0, 0.0]])
    assert eig.values == pytest.approx([-1.0, 1.0])


def test_min_eig_bound_modes():
    S = np.array([[2.0, -1.0], [-1.0, 2.0]])
    exact = min_eig_bound(S)
    assert exact == pytest.approx(1.0)


def test_nonfinite_rejected():
    with pytest.raises(ValueError):
        sym_eigen([[np.nan, 0.0], [0.0, 1.0]])


def test_norm_is_numpys_where_it_does_not_overflow_and_quiet_where_it_does():
    rng = np.random.default_rng(0)
    for M in (rng.standard_normal((4, 4)), rng.standard_normal(7) * 1e150, np.zeros(0), np.array([-0.0])):
        assert norm(M) == float(np.linalg.norm(M))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert norm(np.array([3e200, -4e200])) == pytest.approx(5e200, rel=1e-15)
        assert norm(np.array([[1.5e308, 1.5e308], [0.0, 1.5e308]])) == math.inf  # beyond the float range itself
        assert norm(np.array([math.inf, 1.0])) == math.inf
        assert math.isnan(norm(np.array([math.nan, 1e200, 1e200])))


def test_symmetrizing_keeps_numpys_bits_and_does_not_overflow():
    from qcqp.linalg import _check_symmetric_input

    rng = np.random.default_rng(1)
    for scale in (1.0, 1e-300, 1e150, 1e307):
        P = rng.standard_normal((3, 5, 5)) * scale
        assert _check_symmetric_input(P).tobytes() == (0.5 * (P + P.swapaxes(1, 2))).tobytes()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sym_eigen([[0.0, 1.7e308], [1.5e308, 0.0]]).values == pytest.approx([-1.6e308, 1.6e308], rel=1e-15)
        assert min_eig_bound([[1e308]]) == 1e308
    for bad in ([[math.inf]], [[0.0, -math.inf], [0.0, 0.0]]):
        with pytest.raises(ValueError):
            sym_eigen(bad)
