#!/usr/bin/env python3
"""Audit the commutator bound over a seeded random ensemble.

For each case: draw a Hermitian matrix inside an exponential decay envelope,
certify locality at half the envelope rate, evolve exactly, and compare the
measured ||[A^t, B]|| against the certified bound for every disjoint
singleton projector pair at distance >= 2.  The final time is chosen so the
accumulated growth exponent reaches 5.
"""

import argparse

import numpy as np

from lrlab.blocks import Block
from lrlab.locality import a_mu_pointwise, certify
from lrlab.models import ConstantHamiltonian, ExpLocalSpec, random_exp_local
from lrlab.numerics import TimeGrid
from lrlab.propagation import bound_audit, evolve_on_grid


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=50, help="ensemble size")
    ap.add_argument("--grid", type=int, default=1001, help="audit grid points")
    args = ap.parse_args()

    worst = np.inf
    violated = 0
    for seed in range(args.count):
        n = 8 + seed % 9
        mu_prime = 1.0 + 2.0 * ((seed * 0.37) % 1.0)
        M = random_exp_local(
            ExpLocalSpec(dimension=n, amplitude=1.0, decay_rate=mu_prime, seed=seed)
        )
        H = ConstantHamiltonian(M)
        mu = mu_prime / 2.0
        a = a_mu_pointwise(M, mu)
        grid = TimeGrid.uniform(5.0 / a, args.grid)
        cert = certify(H, mu, grid)
        prop = evolve_on_grid(H, grid)

        case_min = np.inf
        case_bad = 0
        for i in range(n):
            for j in range(i + 2, n):
                rep = bound_audit(H, Block([i]), Block([j]), cert, propagator=prop)
                case_min = min(case_min, rep.min_margin)
                case_bad += int(rep.has_violations)
        worst = min(worst, case_min)
        violated += int(case_bad > 0)
        print(
            f"seed={seed:2d} n={n:2d} mu'={mu_prime:.2f} a={a:6.3f} "
            f"min_margin={case_min:+.3e} violations={case_bad}"
        )

    print()
    print(f"cases with violations: {violated}/{args.count}")
    print(f"worst margin overall:  {worst:+.3e}")
    return 3 if violated else 0


if __name__ == "__main__":
    raise SystemExit(main())
