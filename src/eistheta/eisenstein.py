"""Fourier expansions of the level-one Siegel Eisenstein series, degrees 1 and 2.

Degree 1 is the classical normalized Eisenstein series

    E_k = 1 - (2k/B_k) * sum_t sigma_{k-1}(t) q^t.

Degree 2 uses the closed form of the coefficients in terms of Cohen's
class-number function H(k-1, .): for an index T of rank 2 with content c,

    a_k(T) = (2 / (zeta(1-k) * zeta(3-2k)))
             * sum_{d | c} d^{k-1} * H(k-1, det(2T)/d^2),

while rank-1 indices reduce to the degree-1 formula applied to the content
and the constant term is 1.  ``eisenstein_qexp`` is exact rational
arithmetic; the only inputs are Bernoulli numbers and generalized Bernoulli
numbers, and the H values of a window come from one ``cohen_H_table``.

``eisenstein_residues`` gives the windows of a whole weight ladder mod p^N
instead: each coefficient as p^v u with v its exact valuation and u a unit
residue, from the same formulas with every L-value taken by the Kummer
congruences (``kummer_residues``) and every divisor power mod p^N.
"""

from __future__ import annotations

from fractions import Fraction

from .exactnum import (
    bernoulli,
    cohen_H_factor,
    cohen_H_table,
    divisors,
    fund_disc_decompose,
    kummer_residues,
    sigma,
    v_p,
    zeta_neg,
)
from .fourier import QExpansion, _from_checked
from .lattice import bareiss_det, content, enumerate_psd_indices, form_rank

__all__ = ["eisenstein_qexp", "eisenstein_residues"]

# The most digits a unit part may lose to its valuation: past it a window
# gives up with ArithmeticError rather than guess.
HEADROOM = 20


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


def eisenstein_residues(weights, n: int, B: int, p: int, prec: int) -> list:
    """The windows eisenstein_qexp(k, n, B) for k in weights, each
    coefficient a replaced by its representative p^v u, where v = v_p(a)
    exactly and 0 < u < p^prec is the unit with u = a p^-v mod p^prec.

    One index enumeration and one Kummer table per L-function serve every
    weight: zeta(1 - k), zeta(3 - 2k) and at degree 2 L(2 - k, chi_D0) for
    the fundamental D0 of every rank-2 index, as B_{n,chi}/n mod p^prec
    from ``kummer_residues``.  The integer factors, sigma_{k-1} and
    ``cohen_H_factor``, are taken mod p^(prec + HEADROOM).  ArithmeticError
    when a unit part is not determined within HEADROOM digits.
    """
    weights = list(weights)
    for k in weights:
        _check_weight(k, n)
    if B < 0:
        raise ValueError("trace bound must be >= 0")
    Q, PM = p**prec, p ** (prec + HEADROOM)

    def rep(v, u, x):  # p^v u x as p^w u', x an integer known mod PM
        x %= PM
        e = v_p(x, p)
        if e > HEADROOM:
            raise ArithmeticError(f"an integer factor is 0 mod {p}^{HEADROOM + 1}")
        u, v = u * (x // p**e) % Q, v + e
        return Fraction(u * p**v) if v >= 0 else Fraction(u, p**-v)

    if n == 1:
        shapes = [(((2 * t,),), t, None, None) for t in range(B + 1)]
    else:
        shapes = []  # (T, content, D0, f) with -det 2T = D0 f^2 at rank 2
        for T in enumerate_psd_indices(2, B):
            r = form_rank(T)
            D0, f = fund_disc_decompose(-bareiss_det(T)) if r == 2 else (None, None)
            shapes.append((T, content(T) if r else 0, D0, f))
    zetas = kummer_residues(
        p, (1,), weights + ([2 * k - 2 for k in weights] if n == 2 else []),
        prec, prec + HEADROOM)
    Ls = kummer_residues(p, {D0 for _, _, D0, _ in shapes if D0},
                         [k - 1 for k in weights], prec, prec + HEADROOM)
    windows = []
    for k in weights:
        v1, u1 = zetas[1, k]  # zeta(1 - k) = -B_k / k = -p^v1 u1
        coeffs, H = {}, {}
        for T, c, D0, f in shapes:
            if not c:
                coeffs[T] = Fraction(1)
            elif D0 is None:  # (2 / zeta(1 - k)) sigma_{k-1}(c)
                coeffs[T] = rep(-v1, -2 * pow(u1, -1, Q), sigma(k - 1, c, PM))
            else:  # (2 / (zeta(1-k) zeta(3-2k))) sum_{d | c} d^(k-1) H(k-1, det / d^2)
                v2, u2 = zetas[1, 2 * k - 2]
                vL, uL = Ls[D0, k - 1]  # L(2 - k, chi_D0) = -p^vL uL
                x = 0
                for d in divisors(c):
                    if (D0, f // d) not in H:
                        H[D0, f // d] = cohen_H_factor(k - 1, D0, f // d, PM)
                    x += pow(d, k - 1, PM) * H[D0, f // d]
                coeffs[T] = rep(vL - v1 - v2, -2 * uL * pow(u1 * u2, -1, Q), x)
        windows.append(_from_checked(n, B, coeffs, True))
    return windows
