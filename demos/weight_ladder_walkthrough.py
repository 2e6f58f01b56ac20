#!/usr/bin/env python3
"""Walk through the degree-1 weight ladder at p = 7, k = 2.

The script builds the dictionary of rank-4 even lattices of level
dividing 7, fits the genus coefficient of the Eisenstein expansion at
each ladder weight k(m) = 2 + 6*7^m, and checks the resulting
congruences on held-out Fourier indices.  It then compares the ladder
against the explicit limit series, whose coefficients are the 7-deprived
divisor sums 4*(sigma_1(t) - 7*sigma_1(t/7)).

Run with --full for the trace-50, m <= 3 window used by the acceptance
suite (well under a second end to end, weight-2060 expansion included).
"""

import argparse
import sys
import time

from eistheta import (
    WeightTarget,
    default_sequence,
    empirical_limit,
    fit_and_verify,
)
from eistheta.exactnum import sigma


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--full", action="store_true",
                    help="trace bound 50 and three rungs instead of 30/2")
    ap.add_argument("--cache-dir", help="persist the genus dictionary here")
    args = ap.parse_args()
    bound, m_max = (50, 3) if args.full else (30, 2)

    target = WeightTarget(7, 2, 0)
    seq = default_sequence(target, m_max)
    print("target: p = 7, k = 2, trivial character component (j = 0)")
    print("ladder weights:",
          ", ".join(f"k({m}) = {w}" for m, w in enumerate(seq.weights, 1)))
    print()

    t0 = time.time()
    report = fit_and_verify(seq, 1, bound, cache_dir=args.cache_dir)
    elapsed = time.time() - t0
    print(f"dictionary: rank-4 lattices of level dividing 7")
    for g in report.genera:
        print(f"  genus det(2S) = {g.det}, level {g.level}, mass {g.mass}")
        for rec in g.classes:
            print(f"    class eps = {rec.epsilon}, rows {list(rec.rep)}")
    print()

    print(f"fit-and-verify at degree 1, trace bound {bound} "
          f"({elapsed:.1f}s including the enumeration):")
    print("    m  weight  a~ (mod 7^c)  held-out exp  U(7) exp  coherence")
    for r in report.rungs:
        coh = "-" if r.coherence_exponent is None else str(r.coherence_exponent)
        print(f"    {r.m}  {r.weight:>6}  {r.a_tilde[0]:>6} (c={r.c})"
              f"  {r.residual_exponent:>12}  {r.u_p_exponent:>8}  {coh:>9}")
    print(f"verdict: {'pass' if report.passed else 'FAIL'}"
          f" (fitted value = 1/mass = 32 at every rung)")
    print()

    ladder = empirical_limit(seq, 1, bound)
    print(f"coefficientwise limit vs the 7-deprived divisor sum (t <= 6):")
    print("    t   ladder residue (mod 7^M)   4*(sigma_1(t) - 7*sigma_1(t/7))")
    for t in range(1, 7):
        res, M = ladder.residues[((2 * t,),)]
        s = sigma(1, t) - (7 * sigma(1, t // 7) if t % 7 == 0 else 0)
        limit = 4 * s
        mark = "ok" if (limit - res) % 7**M == 0 else "MISMATCH"
        print(f"    {t}   {res:>6} (M = {M})            {limit:>6}   {mark}")
    print()
    print("flagged indices:", list(ladder.flagged) or "none")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
