"""Boolean least squares, end to end.

Generates min ||Ax - b||^2 over x in {-1, 1}^n, computes two lower bounds,
runs three suggest/improve pipelines, and compares everything against the
exhaustive optimum (the instance is kept small enough to enumerate).
"""

import numpy as np

from qcqp import (
    brute_force,
    gen_boolean_ls,
    improve_sequence,
    sdr_bound,
    spectral_bound,
    suggest_random,
    suggest_sdr,
)


def main():
    n, m, seed = 16, 25, 0
    problem = gen_boolean_ls(m, n, seed=seed)
    print(f"boolean least squares: n={n}, m={m}, seed={seed}")

    spec = spectral_bound(problem)
    print(f"spectral bound        {spec.bound:10.4f}")

    sdr = sdr_bound(problem)
    print(f"SDR bound             {sdr.bound:10.4f}  (converged={sdr.converged})")

    candidates = 10
    pipelines = [
        ("sign o random", suggest_random(problem, candidates, rng_seed=seed), ["sign"]),
        ("sign o sdr", suggest_sdr(problem, candidates, rng_seed=seed), ["sign"]),
        ("cd o sdr", suggest_sdr(problem, candidates, rng_seed=seed), ["cd"]),
    ]
    for name, outcome, methods in pipelines:
        best = min(
            (improve_sequence(problem, x, methods).assessment for x in outcome.candidates),
            key=lambda a: a.as_tuple(),
        )
        print(f"{name:<16} best objective {best.objective:10.4f}  (v={best.violation:.1e})")

    _, fstar = brute_force(problem)
    print(f"exhaustive optimum    {fstar:10.4f}")


if __name__ == "__main__":
    main()
