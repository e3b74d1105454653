"""Tour of the difference-of-convex splittings P = P+ - P-.

Builds one indefinite matrix and decomposes it three ways, reporting the
added curvature tr(P+) + tr(P-) - sum |eig(P)| (extra convexity the
convex-concave procedure has to fight through) and, where a factorization
is involved, the smallest divisor encountered.  Ends with a zero-pivot
matrix where the factored splittings blow up at the default delta
(divisors of sqrt(delta) inject curvature 1/delta) but give tidy unit
factors once delta is raised to 1.
"""

import numpy as np

from qcqp import split_cholesky_diff, split_eigen, split_shift


def report(name, P):
    fn = {
        "shift": split_shift,
        "eigen": split_eigen,
        "cholesky-diff": split_cholesky_diff,
    }[name]
    s = fn(P)
    assert np.allclose(s.plus - s.minus, P)
    assert np.linalg.eigvalsh(s.plus)[0] >= -1e-9
    assert np.linalg.eigvalsh(s.minus)[0] >= -1e-9
    div = "" if s.min_divisor is None else f"   min divisor {s.min_divisor:.3e}"
    print(f"  {name:<14} curvature added {s.curvature:10.4f}{div}")


def main():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((8, 8))
    P = A + A.T
    print("random indefinite 8x8:")
    for name in ("shift", "eigen", "cholesky-diff"):
        report(name, P)

    # a zero pivot in the top-left corner
    Q = np.array([[0.0, 1.0], [1.0, 0.0]])
    print("\nzero-pivot 2x2 [[0, 1], [1, 0]]:")
    for name in ("shift", "eigen", "cholesky-diff"):
        report(name, Q)
    s = split_cholesky_diff(Q, delta=1.0)
    print("  cholesky-diff factors at delta=1:")
    print("    L1 =", s.factors[0].tolist())
    print("    L2 =", s.factors[1].tolist())


if __name__ == "__main__":
    main()
