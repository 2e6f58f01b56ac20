"""Exact number-theoretic scalar arithmetic.

Everything in this module is exact: Python integers, ``fractions.Fraction``
values, and L-series evaluated at non-positive integers through Bernoulli
numbers.  No floating point anywhere.
"""

from __future__ import annotations

import functools
import math
import operator
from decimal import Decimal
from fractions import Fraction

__all__ = [
    "check_integers",
    "v_p",
    "residue",
    "kronecker",
    "factorize",
    "is_prime",
    "divisors",
    "sigma",
    "primes_upto",
    "bernoulli",
    "zeta_neg",
    "fund_disc_decompose",
    "is_fundamental_discriminant",
    "gen_bernoulli",
    "gen_bernoulli_rows",
    "dirichlet_L_neg",
    "kummer_residues",
    "cohen_primes",
    "cohen_product",
    "cohen_H",
    "frac_to_doc",
    "frac_from_doc",
]


def check_integers(message: str, *xs) -> None:
    """ValueError(message) unless every x is an int.  A bool is not one
    here, and a float or a Fraction is refused, never truncated."""
    for x in xs:
        if not isinstance(x, int) or isinstance(x, bool):
            raise ValueError(message)


def _v_int(n: int, p: int) -> int:
    """v_p(n) for n != 0.  At p = 2, n & -n is 2^v_2(n), also for n < 0: Python
    ints behave as two's complement, and -n = ~n + 1 keeps the trailing zeros."""
    if p == 2:
        return (n & -n).bit_length() - 1
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def v_p(x, p: int):
    """p-adic valuation of an int or Fraction.  Returns ``math.inf`` for 0.

    Anything else is a TypeError: int() would truncate 2.5 to 2 and 0.5 to 0."""
    if isinstance(x, int):  # before the ABC check that Fraction needs
        return _v_int(x, p) if x else math.inf
    if not isinstance(x, Fraction):
        raise TypeError(f"v_p needs an int or a Fraction, not {type(x).__name__}")
    return _v_int(x.numerator, p) - _v_int(x.denominator, p) if x else math.inf


def residue(x, p: int, c: int) -> int:
    """x mod p^c for an int or a Fraction x with a p-unit denominator."""
    P = p**c
    if x.denominator % p == 0:
        raise ValueError("residue of a non p-integral value")
    return x.numerator * pow(x.denominator, -1, P) % P


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n), defined for all integers n."""
    check_integers("kronecker needs integers", a, n)
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
    check_integers("factorize needs an integer", n)
    n = abs(n)
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


def is_prime(n: int) -> bool:
    return n >= 2 and factorize(n) == {n: 1}


def divisors(n: int) -> list[int]:
    """Sorted positive divisors of |n|."""
    divs = [1]
    for p, e in factorize(n).items():
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return sorted(divs)


def sigma(k: int, n: int, mod: int | None = None) -> int:
    """Divisor power sum sigma_k(n), or its residue mod `mod` when one is
    given; k < 0 needs the modulus, as d^k is then no integer."""
    check_integers("sigma needs an integer exponent", k)
    if k < 0 and mod is None:
        raise ValueError("sigma with a negative exponent needs a modulus")
    s = sum(pow(d, k, mod) for d in divisors(n))
    return s if mod is None else s % mod


def primes_upto(n: int) -> list[int]:
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i in range(n + 1) if sieve[i]]


# Bernoulli numbers.  The p-adic weight ladders ask for single numbers of
# index in the thousands (B_2060, B_14408, ...), so each even index is
# computed on its own from zeta(n) (Fillebrown, "Faster computation of
# Bernoulli numbers", J. Algorithms 1992) and memoised by index; a single
# deep B_{n,chi} comes from L(n, chi) the same way (_gen_bernoulli_euler).
# All of it is integer fixed point in which every rounding is a floor or a
# ceiling.


def _pi_fixed(w: int) -> int:
    """An integer P with |P - pi 2^w| < 6, by Chudnovsky binary splitting.

    pi = 426880 sqrt(10005) / S, where S = sum_k t_k is the Chudnovsky
    series with t_0 = 13591409.  Its terms alternate in sign and fall,
    |t_k| < 2^(30 - 47k) (k + 1), so the partial sum S_K of K = w // 47 + 2
    terms has |S / S_K - 1| < 2^-w (S_K > 2^23), and pi_K = 426880
    sqrt(10005) / S_K is within pi 2^-w < 4 units of 2^-w of pi.  Taking
    the floor of sqrt(10005) 2^w costs less than 426880 / S_K < 0.06 units,
    and the final floor division less than one unit.
    """
    c3_24 = 640320**3 // 24

    def split(a: int, b: int) -> tuple[int, int, int]:
        if b - a == 1:
            if a == 0:
                p = q = 1
            else:
                p = (6 * a - 5) * (2 * a - 1) * (6 * a - 1)
                q = a * a * a * c3_24
            t = p * (13591409 + 545140134 * a)
            return p, q, -t if a & 1 else t
        m = (a + b) // 2
        p1, q1, t1 = split(a, m)
        p2, q2, t2 = split(m, b)
        return p1 * p2, q1 * q2, t1 * q2 + p1 * t2

    _, q, t = split(0, w // 47 + 2)
    return 426880 * math.isqrt(10005 << (2 * w)) * q // t


def _pow_up(m: int, e: int, n: int, w: int) -> tuple[int, int]:
    """(m', e') with m' 2^e' >= (m 2^e)^n and a mantissa m' <= 2^w.

    Left-to-right binary powering that rounds the base and every product
    up to w bits.  Each rounding costs a relative excess below 2^(1-w), and
    the powers those excesses are raised to sum to less than 3n (n for the
    base, under n each for the squarings and the multiplications), so the
    log of the total excess stays below 6n 2^-w.
    """
    def cut(m: int, e: int) -> tuple[int, int]:
        s = m.bit_length() - w
        return (-(-m >> s), e + s) if s > 0 else (m, e)

    bm, be = m, e = cut(m, e)
    for bit in bin(n)[3:]:
        m, e = cut(m * m, 2 * e)
        if bit == "1":
            m, e = cut(m * bm, e + be)
    return m, e


def _euler_bound(n: int, A: int, f: int) -> tuple[int, int]:
    """(t, M) for ``_euler_round`` at n >= 2: T = A sqrt(f) L(n, chi) /
    (2 pi)^n < 2^t for every character chi mod f, and M the least integer
    with M^(n-1) (n-1) >= 2^(t+6).

    |L(n, chi)| <= zeta(2) < 2 and (2 pi)^n > 6^n, so T < 2 A sqrt(f) / 6^n,
    and sqrt(f) <= 2^h with h = ceil(bitlen(f - 1) / 2).
    """
    h = ((f - 1).bit_length() + 1) // 2
    t = A.bit_length() + 2 + h - (6**n).bit_length()
    lo, hi = 2, 1 << ((t + 6) // (n - 1) + 1)
    while lo < hi:
        mid = (lo + hi) // 2
        if mid ** (n - 1) * (n - 1) >> (t + 6):
            hi = mid
        else:
            lo = mid + 1
    return t, lo


def _euler_round(n: int, A: int, f: int, D: int, t: int, M: int) -> int:
    """The integer T = A sqrt(f) L(n, chi) / (2 pi)^n, for chi =
    kronecker(D, .) of conductor f (D = f = 1: zeta), given (t, M) =
    ``_euler_bound(n, A, f)``; the caller knows that T is an integer.

    T is rounded from X = floor(8 A R / (D' 2^w)), where R = isqrt(f 4^w)
    and D' = m 2^e approximates (2 pi)^n prod_{p <= M} (1 - chi(p) p^-n).
    Every error is a relative one, bounded in log:

    * pi: 2 (P + 6) >= 2 pi 2^w (``_pi_fixed``) with excess < 2^(2-w),
      raised to the n-th power: < 4n 2^-w.
    * the power (``_pow_up`` at w bits): < 6n 2^-w.
    * the Euler factor of each prime p with chi(p) = +-1: m -+ q with
      q = floor(m / D_p), where D_p >= p^n is ``_pow_up`` at the k bits
      the quotient needs, k = a - l + 4 + bitlen(n) for m < 2^a and
      p^n >= 2^l.  Then 0 <= m / p^n - q < 2 (the excess of D_p costs
      m / p^n 6n 2^-k < 1, the floor less than 1).  m starts at
      2^(w-1) or more and stays above 2^(w-2), as the factors with
      chi(p) = 1 multiply to more than 1/zeta(2) > 1/2, so the error is
      < 2^(3-w) per prime, of either sign, at most M primes.  Once
      m < 2^l <= p^n, q = 0 at this and every later prime.
    * the primes p > M: the factor (1 - chi(p) p^-n)^-1 has |log| at most
      -log(1 - p^-n), so the tail has |log| <= log prod_{p > M}
      (1 - p^-n)^-1 <= sum_{j > M} j^-n <= M^(1-n) / (n - 1), whatever the
      signs of chi.
    * sqrt(f): f^(1/2) 2^w - 1 < R <= f^(1/2) 2^w, so R is low by a
      relative 2^-w at most, under 2^(1-w) in log.

    So |log(X' / 8T)| < sigma = (10n + 8M + 2) 2^-w + M^(1-n) / (n - 1) for
    the X' that X floors.  M is sized from the tolerance of T by
    ``_euler_bound``, M^(1-n) / (n - 1) <= 2^(-t-6), and 2^w >
    (10n + 8M + 2) 2^(t+6), so sigma < 2^(-t-5) and |X' - 8T| < 8T 2 sigma
    < 1/2.  Hence |8T - X| < 3/2: X / 8 lies within 3/16 < 1/4 of T, and
    rounding it gives T exactly.  ArithmeticError if X / 8 is not within
    1/4 of the rounded value, should that bound ever fail.
    """
    w = t + 6 + (10 * n + 8 * M + 2).bit_length()
    m, e = _pow_up(2 * (_pi_fixed(w) + 6), -w, n, w)
    for p in primes_upto(M):
        a = m.bit_length()
        l = n * ((p**32).bit_length() - 1) // 32  # p^n >= 2^l
        if a <= l:
            break
        c = kronecker(D, p)
        if c:
            dm, de = _pow_up(p, 0, n, a - l + 4 + n.bit_length())
            m -= c * ((m >> de) // dm)
    num = A * math.isqrt(f << (2 * w)) << 3
    e += w
    X = (num >> e) // m if e >= 0 else (num << -e) // m
    N = (X + 4) >> 3
    if not abs(8 * N - X) < 2:
        raise ArithmeticError(f"the Euler product of L({n}, chi_{D}) missed its bound")
    return N


@functools.cache
def _bernoulli_even(n: int) -> Fraction:
    """B_n for even n >= 2 from B_n = (-1)^(n/2+1) 2 n! zeta(n) / (2 pi)^n.

    By von Staudt-Clausen den = prod_{(p-1) | n} p is the denominator of
    B_n, so T = den |B_n| = A zeta(n) / (2 pi)^n with A = 2 n! den is an
    integer, rounded by ``_euler_round`` at f = 1.  The rounded numerator
    must be prime to den (von Staudt-Clausen), else ArithmeticError.
    """
    den = 1
    for p in primes_upto(n + 1):
        if n % (p - 1) == 0:
            den *= p
    A = 2 * math.factorial(n) * den
    N = _euler_round(n, A, 1, 1, *_euler_bound(n, A, 1))
    b = Fraction(N if n % 4 == 2 else -N, den)
    if b.denominator != den:
        raise ArithmeticError(f"B_{n}: numerator not prime to {den}")
    return b


def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n with the convention B_1 = -1/2."""
    check_integers("Bernoulli index must be an integer", n)
    if n < 0:
        raise ValueError("Bernoulli index must be >= 0")
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(-1, 2)
    if n % 2 == 1:
        return Fraction(0)
    return _bernoulli_even(n)


def zeta_neg(m: int) -> Fraction:
    """Riemann zeta at the non-positive integer -m."""
    check_integers("zeta_neg needs an integer", m)
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


def _character_signs(Ds) -> list[tuple[list[int], list[int]]]:
    """Per D, the a - 1 over 1 <= a < |D|/2 with kronecker(D, a) = 1, and
    with -1.  kronecker(D, .) is completely multiplicative (Cohen, GTM 138,
    1.4), so it is called at primes only: a = q (a / q), q least prime
    factor of a from one sieve for all D."""
    top = (max(map(abs, Ds), default=1) + 1) // 2  # every a < top
    lpf = list(range(top))  # least prime factor of each a < top
    for q in reversed(range(2, math.isqrt(top) + 1)):
        lpf[q * q::q] = [q] * len(lpf[q * q::q])
    out = []
    for D in Ds:
        chi = [0, 1]  # chi[a] = kronecker(D, a)
        for a in range(2, (abs(D) + 1) // 2):
            q = lpf[a]
            chi.append(kronecker(D, a) if q == a else chi[q] * chi[a // q])
        out.append(([a - 1 for a, c in enumerate(chi) if c > 0],
                    [a - 1 for a, c in enumerate(chi) if c < 0]))
    return out


def _character_parity(D: int) -> int:
    """1 if chi_D(-1) = -1, else 0, for a fundamental discriminant D, else
    ValueError.  For D != 1, B_{n,chi_D} = 0 unless n has this parity
    (``gen_bernoulli_rows``)."""
    if not is_fundamental_discriminant(D):
        raise ValueError(f"{D} is not a fundamental discriminant")
    return int(D < 0)


def gen_bernoulli_rows(ns, Ds) -> dict[int, dict[int, Fraction]]:
    """{n: {D: B_{n,chi_D}}} for indices n of one parity and the characters
    kronecker(D, .) of the given D.

    Every D must be a fundamental discriminant, checked before any work;
    D = 1 gives the convention with B_{1,triv} = +1/2, so
    dirichlet_L_neg(r, 1) agrees with zeta everywhere.

    For D != 1 the conductor is f = |D| and B_{n,chi} =
    f^(n-1) sum_{a=1}^{f} chi(a) B_n(a/f).  Since chi(f - a) = chi(-1) chi(a)
    with chi(-1) = sign(D), and B_n(1 - x) = (-1)^n B_n(x), the terms at a and
    f - a are equal when chi(-1) = (-1)^n and cancel otherwise.  So
    B_{n,chi} = 0 unless chi(-1) = (-1)^n, and then B_{n,chi} =
    2 f^(n-1) sum_{1 <= a < f/2} chi(a) B_n(a/f): a = f has chi(f) = 0, and
    so does a = f/2 when f is even (4 | f, so f/2 shares the factor 2).

    With B_n(x) = sum_i C(n, i) B_i x^(n-i) and T_m = sum_{1 <= a < f/2}
    chi(a) a^m this is 2/f sum_{i even} C(n, i) B_i f^i T_{n-i} - n T_{n-1}:
    B_i = 0 for odd i > 1, and B_1 = -1/2.  Over L = lcm(2, den(B_i) :
    i even), the even part is one integer Horner sum in f^2, and the value
    is 2 acc / (L f) with acc = sum_{i even} c_i f^i T_{n-i}
    - (L / 2) n f T_{n-1} and c_i = (L / den B_i) C(n, i) num(B_i).

    Nothing but f and chi in that sum depends on D: the row c_i and the
    powers a^(n-i) are the same for every character.  So the row is built
    once, and one vector of a^(n-i), for 1 <= a < max f / 2, steps by a^2
    for all D together.  Each D splits its residues a < f/2 into those
    with chi(a) = 1 and chi(a) = -1 (``_character_signs``), and takes T_{n-i}
    as the sum of the vector over the first minus that over the second:
    the very terms chi(a) a^(n-i) of its own sum, added in another order.
    One upward sweep of j = n - i serves every n of the given parity
    (``_gen_bernoulli_sweep``).
    """
    ns, Ds = list(dict.fromkeys(ns)), list(dict.fromkeys(Ds))
    check_integers("Bernoulli indices and discriminants must be integers", *ns, *Ds)
    if any(n < 0 for n in ns):
        raise ValueError("Bernoulli index must be >= 0")
    if len({n % 2 for n in ns}) > 1:
        raise ValueError("gen_bernoulli_rows needs indices of one parity")
    parity = ns[0] % 2 if ns else 0
    live = [D for D in Ds if _character_parity(D) == parity and D != 1]  # checks every D
    rows = {}
    for n in ns:
        out = rows[n] = {}
        for D in Ds:
            if D == 1:
                out[D] = Fraction(1, 2) if n == 1 else bernoulli(n)
            elif D not in live:
                out[D] = Fraction(0)
    if live:
        for n, row in _gen_bernoulli_sweep(ns, live).items():
            rows[n].update(row)
    return rows


def _gen_bernoulli_sweep(ns, Ds) -> dict[int, dict[int, Fraction]]:
    """{n: {D: B_{n,chi_D}}} by the sweep of ``gen_bernoulli_rows``, for
    indices n of one parity and D != 1 fundamental with chi_D(-1) = (-1)^n,
    which the caller has checked."""
    fs = [abs(D) for D in Ds]
    signs = _character_signs(Ds)  # per D: the a - 1 with chi(a) = 1, and with -1
    bases = range(1, (max(fs) + 1) // 2)
    squares = [a * a for a in bases]

    def power_sums(vec):  # T for each D, from a shared vector of a^m
        get = vec.__getitem__
        return [sum(map(get, pos)) - sum(map(get, neg)) for pos, neg in signs]

    # One sweep of j = n - i upwards serves every n: the Horner sum of n
    # takes T_j at step j while j <= n, and ends at j = n.
    top = max(ns)
    bs = [bernoulli(i) for i in range(0, top + 1, 2)]
    L = math.lcm(2, *(b.denominator for b in bs))
    accs = {n: [0] * len(Ds) for n in ns}
    powers = [a ** (top % 2) for a in bases]  # a^j
    for j in range(top % 2, top + 1, 2):
        T = power_sums(powers)
        for n, acc in accs.items():
            if j <= n:
                b = bs[(n - j) // 2]
                c = L // b.denominator * math.comb(n, n - j) * b.numerator
                accs[n] = [x * f * f + c * t for x, f, t in zip(acc, fs, T)]
        if j in accs and j:  # powers hold a^j, so T_{j-1} sums a^j / a
            T1 = power_sums(list(map(operator.floordiv, powers, bases)))
            accs[j] = [x - L // 2 * j * f * t for x, f, t in zip(accs[j], fs, T1)]
        if j < top:
            powers = list(map(operator.mul, powers, squares))
    return {n: {D: Fraction(2 * x, L * f) for D, x, f in zip(Ds, acc, fs)}
            for n, acc in accs.items()}


def gen_bernoulli(n: int, D: int) -> Fraction:
    """Generalized Bernoulli number B_{n,chi} for the character kronecker(D, .),
    read from ``gen_bernoulli_rows``."""
    return gen_bernoulli_rows((n,), (D,))[n][D]


def _gen_bernoulli_euler(r: int, D: int) -> Fraction | None:
    """B_{r,chi} for chi = kronecker(D, .), D != 1 fundamental and
    chi(-1) = (-1)^r, from L(r, chi) by its Euler product; None when that
    product has more than r factors, pi(M) > r for the M of
    ``_euler_bound``.

    By the functional equation (Washington, *Introduction to Cyclotomic
    Fields*, Thm 4.2) |B_{r,chi}| = 2 r! f^(r-1/2) L(r, chi) / (2 pi)^r with
    f = |D|, of sign (-1)^(1+(r-delta)/2), delta = 1 for D < 0 and 0
    otherwise.  L f B_{r,chi} is an integer for L = lcm(2, den B_i : i <= r
    even) (``gen_bernoulli_rows``), and L is the product of the primes
    p <= r + 1 by von Staudt-Clausen, so T = L f |B_{r,chi}| =
    A sqrt(f) L(r, chi) / (2 pi)^r with A = 2 L r! f^r is rounded by
    ``_euler_round``.  pi(M) <= r needs M < p_(r+1) < 2 (r+1) bitlen(r+1),
    so no sieve beyond that runs to find out: p_n < n (ln n + ln ln n) <
    2 n bitlen(n) for n >= 6 (Rosser and Schoenfeld, Illinois J. Math. 6,
    1962), and p_n < 2 n bitlen(n) holds for 2 <= n < 6 by inspection.
    """
    if r < 2:
        return None
    f = abs(D)
    L = math.prod(primes_upto(r + 1))
    A = 2 * L * math.factorial(r) * f**r
    t, M = _euler_bound(r, A, f)
    if M >= 2 * (r + 1) * (r + 1).bit_length() or len(primes_upto(M)) > r:
        return None
    N = _euler_round(r, A, f, D, t, M)
    return Fraction(N if (r - (D < 0)) % 4 == 2 else -N, L * f)


def dirichlet_L_neg(r: int, D: int) -> Fraction:
    """L(1-r, chi_D) = -B_{r,chi_D} / r for a fundamental discriminant D
    (D = 1 means zeta, from ``gen_bernoulli``).  After the gates of
    ``_character_parity`` (D fundamental, and 0 when chi(-1) != (-1)^r), run
    once, a nontrivial character takes the Euler product of
    ``_gen_bernoulli_euler`` when it has at most r factors, and
    ``_gen_bernoulli_sweep`` otherwise."""
    check_integers("L(1 - r, chi_D) needs integers r and D", r, D)
    if r < 1:
        raise ValueError("need r >= 1")
    if D == 1:
        return -gen_bernoulli(r, D) / r
    if _character_parity(D) != r % 2:
        return Fraction(0)
    b = _gen_bernoulli_euler(r, D)
    if b is None:
        b = _gen_bernoulli_sweep((r,), (D,))[r][D]
    return -b / r


# The most digits a unit part may lose to its valuation: past it a Kummer
# value or an Eisenstein window gives up with ArithmeticError rather than guess.
HEADROOM = 20


def kummer_residues(p: int, Ds, ns, prec: int) -> dict:
    """{(D, n): (v, u)} with B_{n,chi_D} / n = p^v u for D in Ds, n in ns:
    v exact and u a unit, 0 < u < p^prec, from Bernoulli numbers of index
    below n1 + (p - 1) N only, n1 = (n - 1) % (p - 1) + 1.

    p is an odd prime, each D a fundamental discriminant with
    chi_D(-1) = (-1)^n and each n >= 2.  Fix a class n = n1 + (p - 1) t and

        h(t) = e(n) (1 - chi(p) p^(n-1)) B_{n,chi} / n,

    with e(n) = (1 + p)^n - 1 at a pole (D = 1 and p - 1 | n, or D = p*
    and n = (p - 1)/2 mod p - 1: chi omega^n is trivial) and e(n) = 1
    otherwise.  By Washington, *Introduction to Cyclotomic Fields*,
    Thm 5.11, h(t) = -e(n) L_p(1 - n, psi) with psi = chi omega^n1 fixed
    along the class, and by Thm 7.10 h(t) = g(c w^t - 1) for one
    g in Z_p[[T]], c = (1 + p)^(1 - n1), w = (1 + p)^(1 - p): at a pole
    L_p(s, 1) (1 - (1 + p)^(1 - s)) is the Iwasawa function, and at
    s = 1 - n that factor is -e(n).  Now v_p(Delta^i phi(0)) >= i holds
    for phi(t) = w^t = sum_i C(t, i) (w - 1)^i as w = 1 mod p, so for
    c w^t - 1, and for products by the Leibniz rule
    Delta^i (phi psi)(0) = sum_j C(i, j) Delta^j phi(0) Delta^(i-j) psi(j).
    T^j is 0 mod p^j, so the sum g(T) converges and
    v_p(Delta^i h(0)) >= i.  Newton's formula h(t) = sum_i C(t, i)
    Delta^i h(0) then gives h(t) mod p^N from h(0), ..., h(N - 1).  And
    B_{n,chi} / n = h(t) / (e(n) (1 - chi(p) p^(n-1))), where the Euler
    factor is a unit for n >= 2 and v_p(e(n)) = 1 + v_p(n) at a pole.

    N starts at prec and grows until every h(t) is known to prec digits
    beyond its valuation.  At n1 = 1 it starts at prec + 1 + max v_p(t) over
    the targets for chi(p) = 1 and no pole: c = 1 and g(0) = h(0) =
    (1 - chi(p)) B_{1,chi} = 0, so g(T) = T G(T) with G in Z_p[[T]] and
    v_p(h(t)) >= v_p(w^t - 1) = 1 + v_p(t).  Each round sweeps the
    characters of one N by one ``gen_bernoulli_rows`` call.
    ArithmeticError when that needs more than prec + HEADROOM base values,
    when a base value is not p-integral, or when some Delta^i h(0) with
    i < N is not 0 mod p^i: the last two are the runtime checks of the proof.
    """
    Ds = list(dict.fromkeys(Ds))
    ns = list(dict.fromkeys(ns))
    check_integers("kummer_residues needs integers", p, prec, *Ds, *ns)
    if prec < 1:
        raise ValueError("need prec >= 1")
    for D in Ds:
        parity = _character_parity(D)
        for n in ns:
            if n < 2 or n % 2 != parity:
                raise ValueError(f"B_{{{n},{D}}} / {n} is not a Kummer value")
    star = p if p % 4 == 1 else -p
    chi_p = {D: kronecker(D, p) for D in Ds}
    out = {}
    for n1 in sorted({(n - 1) % (p - 1) + 1 for n in ns}):
        targets = [n for n in ns if (n - 1) % (p - 1) + 1 == n1]
        poles = {D for D in Ds if (D == 1 and n1 == p - 1)
                 or (D == star and n1 == (p - 1) // 2)}
        base = {D: [] for D in Ds}  # base[D][i] = h(i), exactly
        terms = dict.fromkeys(Ds, prec)  # N for each D
        if n1 == 1:  # the trivial zeros: v_p(h(t)) >= 1 + v_p(t)
            deep = prec + 1 + max(_v_int((n - 1) // (p - 1), p) for n in targets)
            terms.update((D, min(deep, prec + HEADROOM)) for D in Ds
                         if D not in poles and chi_p[D] == 1)
        vals = {}
        while terms:
            for top in dict.fromkeys(terms.values()):
                group = [D for D, N in terms.items() if N == top]
                lo = min(len(base[D]) for D in group)
                rows = gen_bernoulli_rows([n1 + (p - 1) * i for i in range(lo, top)], group)
                for i in range(lo, top):
                    m = n1 + (p - 1) * i
                    for D in group:
                        if len(base[D]) == i:
                            base[D].append(((1 + p) ** m - 1 if D in poles else 1)
                                           * (1 - chi_p[D] * p ** (m - 1))
                                           * rows[m][D] / m)
            for D, N in list(terms.items()):
                P = p**N
                hs = base[D][:N]
                if any(x.denominator % p == 0 for x in hs):
                    raise ArithmeticError(f"a base value of chi_{D} is not {p}-integral")
                res = [residue(x, p, N) for x in hs]
                diffs = []  # Delta^i h(0) mod p^N
                for i in range(N):
                    if res[0] % p**i:
                        raise ArithmeticError(
                            f"Delta^{i} h(0) of chi_{D} at n = {n1} mod {p - 1} "
                            f"is not 0 mod {p}^{i}")
                    diffs.append(res[0])
                    res = [(y - x) % P for x, y in zip(res, res[1:])]
                need = N
                for n in targets:
                    t = (n - n1) // (p - 1)
                    h = sum(math.comb(t, i) * d for i, d in enumerate(diffs)) % P
                    v = _v_int(h, p) if h else N  # a lower bound when h = 0
                    vals[D, n] = h, v
                    need = max(need, v + prec)
                if need == N:
                    del terms[D]
                elif N == prec + HEADROOM:
                    raise ArithmeticError(
                        f"B_{{n,chi_{D}}} / n at n = {n1} mod {p - 1}: its unit part "
                        f"mod {p}^{prec} needs more than {N} terms")
                else:
                    terms[D] = min(need, prec + HEADROOM)
        Q = p**prec
        for (D, n), (h, v) in vals.items():
            ve = 1 + _v_int(n, p) if D in poles else 0
            e = (pow(1 + p, n, Q * p**ve) - 1) // p**ve if ve else 1
            euler = 1 - chi_p[D] * pow(p, n - 1, Q)
            out[D, n] = (v - ve, h // p**v * pow(e * euler, -1, Q) % Q)
    return out


def cohen_primes(D0: int, c: int, f: int) -> tuple:
    """(q, chi_D0(q), v_q(c), v_q(f)) for every prime q | f, c | f: the
    data of ``cohen_product``, which does not depend on the weight."""
    return tuple((q, kronecker(D0, q), _v_int(c, q), b) for q, b in factorize(f).items())


def cohen_product(r: int, primes, mod: int | None = None) -> int:
    """sum_{d | c} d^r sum_{g | f/d} mu(g) chi_D0(g) g^(r-1) sigma_{2r-1}(f/(dg)),
    or its residue mod `mod`, for primes = cohen_primes(D0, c, f); it is the
    product over q | f of sum_{i <= v_q(c)} q^(ir) (s(b-i) - chi(q) q^(r-1) s(b-i-1)),
    b = v_q(f), s(m) = sigma_{2r-1}(q^m), s(-1) = 0 (Cohen, Math. Ann. 217, 1975)."""
    out = 1
    for q, chi, a, b in primes:
        t, s = pow(q, 2 * r - 1, mod), [0, 1]  # s[m + 1] = s(m)
        for _ in range(b):
            s.append(1 + t * s[-1])
        qr, w = pow(q, r, mod), chi * pow(q, r - 1, mod)
        out *= sum(pow(qr, i, mod) * (s[b - i + 1] - w * s[b - i]) for i in range(a + 1))
    return out if mod is None else out % mod


def cohen_H(r: int, N: int) -> Fraction:
    """Cohen's class-number function H(r, N) for r >= 1, N >= 0.

    H(1, N) is the Hurwitz class number; H(r, 0) = zeta(1 - 2r); the value
    is 0 unless (-1)^r N = 0, 1 mod 4.  Otherwise (-1)^r N = D0 f^2 with D0
    fundamental, and H(r, N) = L(1 - r, chi_D0) ``cohen_product`` at c = 1.
    """
    check_integers("cohen_H needs integers r and N", r, N)
    if r < 1 or N < 0:
        raise ValueError("cohen_H wants r >= 1 and N >= 0")
    if N == 0:
        return zeta_neg(2 * r - 1)
    D = N if r % 2 == 0 else -N
    if D % 4 not in (0, 1):
        return Fraction(0)
    D0, f = fund_disc_decompose(D)
    return dirichlet_L_neg(r, D0) * cohen_product(r, cohen_primes(D0, 1, f))


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
    """Inverse of frac_to_doc; ValueError on anything but integer strings
    over a positive denominator."""
    den = _int_from_str(doc["den"])
    if den <= 0:
        raise ValueError(f"denominator must be positive, not {doc['den']!r}")
    return Fraction(_int_from_str(doc["num"]), den)
