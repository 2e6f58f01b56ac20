"""Exact number-theoretic scalar arithmetic.

Everything in this module is exact: Python integers, ``fractions.Fraction``
values, and L-series evaluated at non-positive integers through Bernoulli
numbers.  No floating point anywhere.
"""

from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction

__all__ = [
    "v_p",
    "kronecker",
    "factorize",
    "divisors",
    "moebius",
    "sigma",
    "primes_upto",
    "bernoulli",
    "zeta_neg",
    "fund_disc_decompose",
    "is_fundamental_discriminant",
    "gen_bernoulli",
    "dirichlet_L_neg",
    "cohen_H",
    "frac_to_doc",
    "frac_from_doc",
]


def _v_int(n: int, p: int) -> int:
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def v_p(x, p: int):
    """p-adic valuation of an int or Fraction.  Returns ``math.inf`` for 0."""
    if x == 0:
        return math.inf
    if isinstance(x, Fraction):
        return _v_int(x.numerator, p) - _v_int(x.denominator, p)
    return _v_int(int(x), p)


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n), defined for all integers n."""
    a = int(a)
    n = int(n)
    if n == 0:
        return 1 if a in (1, -1) else 0
    t = 1
    if n < 0:
        n = -n
        if a < 0:
            t = -t
    v = 0
    while n % 2 == 0:
        n //= 2
        v += 1
    if v:
        if a % 2 == 0:
            return 0
        if v % 2 and a % 8 in (3, 5):
            t = -t
    # Jacobi symbol on the remaining odd n.
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                t = -t
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            t = -t
        a %= n
    return t if n == 1 else 0


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| by trial division, as ``{p: e}``."""
    n = abs(int(n))
    if n == 0:
        raise ValueError("cannot factor 0")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d = 5
    while d * d <= n:
        for p in (d, d + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        d += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisors(n: int) -> list[int]:
    """Sorted positive divisors of |n|."""
    divs = [1]
    for p, e in factorize(n).items():
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return sorted(divs)


def moebius(n: int) -> int:
    if n <= 0:
        raise ValueError("moebius needs n >= 1")
    m = 1
    for _, e in factorize(n).items():
        if e > 1:
            return 0
        m = -m
    return m


def sigma(k: int, n: int) -> int:
    """Divisor power sum sigma_k(n)."""
    return sum(d**k for d in divisors(n))


def primes_upto(n: int) -> list[int]:
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i in range(n + 1) if sieve[i]]


# Bernoulli numbers.  The p-adic weight schedules push k into the low
# thousands, so B_k has to stay cheap at that scale.  We keep the even-index
# numbers as big integers over one shared squarefree denominator L
# (a primorial; by von Staudt-Clausen the true denominators divide it) and
# run the standard recurrence sum_{j<=m} C(m+1,j) B_j = 0 entirely in
# integers with incrementally updated binomials.
_bern_scaled: list[int] = []
_bern_L = 1


def _extend_bernoulli(n: int) -> None:
    global _bern_L
    if _bern_scaled and 2 * (len(_bern_scaled) - 1) >= n:
        return
    L = 1
    for p in primes_upto(n + 1):
        L *= p
    if not _bern_scaled:
        _bern_scaled.append(L)  # B_0 = 1
        _bern_L = L
    elif L != _bern_L:
        q = L // _bern_L
        for i in range(len(_bern_scaled)):
            _bern_scaled[i] *= q
        _bern_L = L
    half_L = _bern_L // 2
    for m in range(2 * len(_bern_scaled), n + 1, 2):
        acc = _bern_scaled[0] - (m + 1) * half_L  # j = 0 and j = 1 terms
        c = (m + 1) * m // 2  # C(m+1, 2)
        for j in range(2, m - 1, 2):
            acc += c * _bern_scaled[j // 2]
            c = c * (m + 1 - j) * (m - j) // ((j + 1) * (j + 2))
        _bern_scaled.append(-acc // (m + 1))


def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n with the convention B_1 = -1/2."""
    if n < 0:
        raise ValueError("Bernoulli index must be >= 0")
    if n == 1:
        return Fraction(-1, 2)
    if n % 2 == 1:
        return Fraction(0)
    _extend_bernoulli(n)
    return Fraction(_bern_scaled[n // 2], _bern_L)


def zeta_neg(m: int) -> Fraction:
    """Riemann zeta at the non-positive integer -m."""
    if m < 0:
        raise ValueError("zeta_neg wants zeta(-m) with m >= 0")
    if m == 0:
        return Fraction(-1, 2)
    return -bernoulli(m + 1) / (m + 1)


def fund_disc_decompose(D: int) -> tuple[int, int]:
    """Write a discriminant D = D0 * f**2 with D0 fundamental (D0 = 1 allowed).

    D must be nonzero and congruent to 0 or 1 mod 4.
    """
    if D == 0 or D % 4 not in (0, 1):
        raise ValueError(f"{D} is not a discriminant")
    s = 1 if D > 0 else -1
    m = 1
    for p, e in factorize(D).items():
        if e % 2:
            s *= p
        m *= p ** (e // 2)
    if s % 4 == 1:
        return s, m
    # s = 2,3 mod 4 forces m even (else D = s*m*m = 2,3 mod 4).
    return 4 * s, m // 2


def is_fundamental_discriminant(D: int) -> bool:
    return D != 0 and D % 4 in (0, 1) and fund_disc_decompose(D) == (D, 1)


def gen_bernoulli(n: int, D: int) -> Fraction:
    """Generalized Bernoulli number B_{n,chi} for the character kronecker(D, .).

    D must be a fundamental discriminant; D = 1 gives the convention with
    B_{1,triv} = +1/2, so dirichlet_L_neg(r, 1) agrees with zeta everywhere.
    """
    if not is_fundamental_discriminant(D):
        raise ValueError(f"{D} is not a fundamental discriminant")
    f = abs(D)
    total = Fraction(0)
    for i in range(n + 1):
        b = bernoulli(i)
        if b == 0:
            continue
        s = sum(kronecker(D, a) * a ** (n - i) for a in range(1, f + 1))
        if s == 0:
            continue
        total += math.comb(n, i) * b * Fraction(f**i, f) * s
    return total


def dirichlet_L_neg(r: int, D: int) -> Fraction:
    """L(1-r, chi_D) for a fundamental discriminant D (D = 1 means zeta)."""
    if r < 1:
        raise ValueError("need r >= 1")
    return -gen_bernoulli(r, D) / r


def cohen_H(r: int, N: int) -> Fraction:
    """Cohen's class-number function H(r, N) for r >= 1, N >= 0.

    H(1, N) is the Hurwitz class number; H(r, 0) = zeta(1 - 2r); the value
    is 0 unless (-1)^r N = 0, 1 mod 4.
    """
    if r < 1 or N < 0:
        raise ValueError("cohen_H wants r >= 1 and N >= 0")
    if N == 0:
        return zeta_neg(2 * r - 1)
    D = N if r % 2 == 0 else -N
    if D % 4 not in (0, 1):
        return Fraction(0)
    D0, f = fund_disc_decompose(D)
    tot = 0
    for g in divisors(f):
        mu = moebius(g)
        if mu:
            tot += mu * kronecker(D0, g) * g ** (r - 1) * sigma(2 * r - 1, f // g)
    return dirichlet_L_neg(r, D0) * tot


def _int_from_str(s) -> int:
    try:
        d = Decimal(s)
    except (ArithmeticError, TypeError):
        d = None
    if d is None or d.as_tuple().exponent != 0:
        raise ValueError(f"not a decimal integer: {s!r}")
    return int(d)


def frac_to_doc(x) -> dict:
    """A rational as {"num": "...", "den": "..."} decimal strings.

    The strings go through decimal.Decimal, whose conversions to and from
    int are exact at any length, untouched by the int/str digit limit of
    Python 3.11+ (4300 digits by default).
    """
    x = Fraction(x)
    return {"num": str(Decimal(x.numerator)), "den": str(Decimal(x.denominator))}


def frac_from_doc(doc) -> Fraction:
    """Inverse of frac_to_doc; ValueError on anything but integer strings."""
    return Fraction(_int_from_str(doc["num"]), _int_from_str(doc["den"]))
