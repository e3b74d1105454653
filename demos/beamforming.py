"""Beamforming-style power minimization with two local methods.

The instance asks for the smallest-norm x meeting m quadratic coverage
lower bounds while keeping l interference terms small.  Candidates come
from the semidefinite relaxation; consensus ADMM and the penalty convex-concave
procedure then drive them to feasibility, and a coordinate-descent polish
shows the value of composing methods.
"""

import numpy as np

from qcqp import gen_beamforming, improve_sequence, suggest_sdr


def main():
    n, m, l = 10, 8, 3
    problem = gen_beamforming(n, m, l, tau=20.0, eta=2.0, seed=0)
    print(f"beamforming: {2 * n} real variables, {m} coverage rows, {l} caps")

    sdr = suggest_sdr(problem, 3, rng_seed=0)
    x0 = sdr.candidates[0]
    print(f"relaxation bound      {sdr.bound.bound:9.4f}  (valid={sdr.bound.valid})")

    for label, methods, opts2 in [
        ("admm", ["admm"], {"admm": {"max_iter": 800}}),
        ("admm + cd", ["admm", "cd"], {"admm": {"max_iter": 800}}),
        ("ccp", ["ccp"], {"ccp": {"max_iter": 12}}),
    ]:
        rep = improve_sequence(problem, x0, methods, opts2)
        a = rep.assessment
        print(f"{label:<12} objective {a.objective:9.4f}   violation {a.violation:.2e}")


if __name__ == "__main__":
    main()
