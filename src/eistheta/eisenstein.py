"""Fourier expansions of the level-one Siegel Eisenstein series, degrees 1 and 2.

Degree 1 is the classical normalized Eisenstein series

    E_k = 1 - (2k/B_k) * sum_t sigma_{k-1}(t) q^t.

Degree 2 uses the closed form of the coefficients in terms of Cohen's
class-number function H(k-1, .): for an index T of rank 2 with content c,

    a_k(T) = (2 / (zeta(1-k) * zeta(3-2k)))
             * sum_{d | c} d^{k-1} * H(k-1, det(2T)/d^2),

while rank-1 indices reduce to the degree-1 formula applied to the content
and the constant term is 1.  Everything is exact rational arithmetic; the
only inputs are Bernoulli numbers and generalized Bernoulli numbers, and
the H values of a window come from one ``cohen_H_table``.
"""

from __future__ import annotations

from fractions import Fraction

from .exactnum import bernoulli, cohen_H_table, divisors, sigma, zeta_neg
from .fourier import QExpansion, _from_checked
from .lattice import bareiss_det, content, enumerate_psd_indices, form_rank

__all__ = ["eisenstein_qexp"]


def _check_weight(k: int, n: int) -> None:
    if n not in (1, 2):
        raise ValueError("degree must be 1 or 2")
    if k % 2 or k <= n + 1:
        raise ValueError(f"weight must be even and > {n + 1}, got {k}")


def eisenstein_qexp(k: int, n: int, B: int) -> QExpansion:
    """Expansion of the degree-n weight-k Eisenstein series up to trace B."""
    _check_weight(k, n)
    if B < 0:
        raise ValueError("trace bound must be >= 0")
    linear = Fraction(-2 * k) / bernoulli(k)  # the multiplier of sigma_{k-1}
    coeffs: dict[tuple, Fraction] = {}
    if n == 1:
        coeffs[((0,),)] = Fraction(1)
        for t in range(1, B + 1):
            coeffs[((2 * t,),)] = linear * sigma(k - 1, t)
        return _from_checked(1, B, coeffs, True)
    rank2 = []  # (index, det 2T, content)
    for idx in enumerate_psd_indices(2, B):
        r = form_rank(idx)
        if r == 0:
            coeffs[idx] = Fraction(1)
        elif r == 1:
            coeffs[idx] = linear * sigma(k - 1, content(idx))
        else:
            rank2.append((idx, bareiss_det(idx), content(idx)))
    H = cohen_H_table(
        k - 1, {det // (d * d) for _, det, c in rank2 for d in divisors(c)})
    const = Fraction(2) / (zeta_neg(k - 1) * zeta_neg(2 * k - 3))
    for idx, det, c in rank2:
        total = Fraction(0)
        for d in divisors(c):
            total += d ** (k - 1) * H[det // (d * d)]
        coeffs[idx] = const * total
    return _from_checked(2, B, coeffs, True)
