#!/usr/bin/env python3
"""Compute Siegel-Eisenstein Fourier coefficients along two routes.

Degree-2 coefficients come out of a closed formula (divisor sums and
class-number style constants).  The same numbers are recomputed here as
a product of local representation densities over the primes dividing
the discriminant, counting solutions of S[X] = T in Z/q^e for growing e
until the count stabilizes.  The two computations share no code path,
so their agreement is a strong end-to-end check of both.
"""

import argparse
import sys
from fractions import Fraction

from eistheta import eisenstein_qexp, local_density_coeff
from eistheta.exactnum import bernoulli, sigma
from eistheta.lattice import form_rank
from eistheta.linalg import bareiss_det


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--k", type=int, default=4, help="even weight >= 4")
    ap.add_argument("--bound", type=int, default=5, help="trace bound")
    args = ap.parse_args()
    k, B = args.k, args.bound

    print(f"degree-1 check at weight {k}: a(t) = (-2k/B_k) sigma_{{k-1}}(t)")
    lin = Fraction(-2 * k) / bernoulli(k)
    F1 = eisenstein_qexp(k, 1, 6)
    for t in range(1, 7):
        a = F1.coeffs[((2 * t,),)]
        want = lin * sigma(k - 1, t)
        print(f"  t = {t}: {a}  {'ok' if a == want else 'MISMATCH'}")
    print()

    print(f"degree-2 coefficients at weight {k}, positive definite T "
          f"with trace <= {B}:")
    print("    T rows          det(2T)  closed formula        local densities")
    F2 = eisenstein_qexp(k, 2, B)
    bad = 0
    for T in sorted(F2.coeffs, key=lambda T: (sum(T[i][i] for i in (0, 1)), T)):
        if form_rank(T) != 2:
            continue
        closed = F2.coeffs[T]
        dens = local_density_coeff(T, k)
        mark = "ok" if closed == dens else "MISMATCH"
        bad += closed != dens
        print(f"    {str(list(T)):<18} {bareiss_det(T):>3}  "
              f"{str(closed):>20}  {str(dens):>20}  {mark}")
    print()
    if bad:
        print(f"{bad} mismatches")
        return 1
    print("every coefficient agrees along both routes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
