import numpy as np
import pytest

from qcqp.linalg import min_eig_bound, sym_eigen


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
