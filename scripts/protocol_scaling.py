#!/usr/bin/env python3
"""Measure how the symmetric-AND protocol's cost scales with the top flip
distance ell1.

For each ell1 the outer function is the n-bit threshold profile with its
single flip ell1 below the top weight.  Inputs are drawn dense (fewer than
ell1 zeros per side) so every run reaches the binary-search stage.  The
worst observed ledger total is compared against
    model(ell1) = ell1 * log2(ell1)^2 * log2(log2(ell1))
with the logs floored at 1, and a single constant is fitted across the
family as the max ratio.
"""

import argparse
import math
import random
import sys

from blockcomp.boolcube import profile_from_values
from blockcomp.protocols import compile_symand, dense_input


def model(ell1: int) -> float:
    lg = max(math.log2(ell1), 1.0)
    lglg = max(math.log2(max(math.log2(ell1), 2.0)), 1.0)
    return ell1 * lg * lg * lglg


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=16)
    ap.add_argument("--ell1", type=int, nargs="*", default=[2, 4, 8])
    ap.add_argument("--trials", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    rng = random.Random(args.seed)
    stats = {}
    for ell1 in args.ell1:
        if ell1 > args.n // 2:
            raise SystemExit(f"ell1={ell1} needs n >= {2 * ell1}")
        profile = profile_from_values([0] * (args.n + 1 - ell1) + [1] * ell1)
        protocol = compile_symand(profile)
        worst = 0
        mean = 0.0
        for t in range(args.trials):
            x = dense_input(rng, args.n, ell1)
            y = dense_input(rng, args.n, ell1)
            out, ledger = protocol.run(x, y, seed=args.seed * 1_000_003 + t)
            assert out == profile.values[(x & y).bit_count()]
            worst = max(worst, ledger.total)
            mean += ledger.total
        stats[ell1] = (worst, mean / args.trials)

    print(f"{'ell1':>5} {'worst':>7} {'mean':>9} {'model':>9} {'ratio':>8}")
    ratios = {}
    for ell1, (worst, mean) in stats.items():
        ratios[ell1] = worst / model(ell1)
        print(f"{ell1:>5} {worst:>7} {mean:>9.1f} {model(ell1):>9.2f} "
              f"{ratios[ell1]:>8.2f}")
    c = max(ratios.values())
    spread = c / min(ratios.values())
    print(f"\nfitted c = {c:.2f}  (ratio spread {spread:.2f}x across the family)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
