"""Siegel-type Fourier coefficients via products of local representation densities.

This is the independent oracle for the coefficients produced by
``eisenstein.eisenstein_qexp``: for a positive definite half-integral index T
of rank n (given as twoT) and an even weight k,

    a_k(T) = alpha_inf(T, k) * prod_q beta_q(T, k),

where beta_q is the representation density of T by the rank-2k split
(hyperbolic) quadratic form over Z_q and alpha_inf is the archimedean density.
At q not dividing 2*det(2T), beta_q is the closed Euler factor
``_generic_factor``.  alpha_inf times all of them is the rational
``_global_factor``: 2^ceil(n/2) over zeta(1-k) and the zeta(1+2i-2k),
i <= n/2, times (det 2T / 2)^(k-1) at n = 1, or at even n an L-value
L(1-s, chi_D0) and a power of f, where (D0, f) = lattice.form_disc(n,
det 2T), taken once per index.  Its derivation
through Gamma, pi and square roots, which cancel, is kept in tests/oracles.py
as a symbolic product.  The primes dividing 2*det(2T) are counted exactly,
each entering as beta_q over its generic factor.

Counting never enumerates representing matrices.  By orthogonality of
additive characters, the number of X in M_{m x n}(Z/q^e) with (1/2) X^t G X
congruent to T (G a sum of m/2 = k hyperbolic planes) equals

    q^{-e n(n+1)/2} sum_Y psi(-<Y, T>) (q^{en + c(Y)})^k

with Y running over symmetric n x n matrices mod q^e and c(Y) = sum_j
min(c_j(Y), e) its capped Smith sum (the c_j are its elementary-divisor
valuations): each hyperbolic plane contributes the kernel size of Y.  Over
the normalization q^{e(2kn - n(n+1)/2)} the density at level e is

    X^{-ne} sum_c G_c X^c,  X = q^k,  G_c = sum_{c(Y) = c} psi(-<Y, T>).

Unit scaling keeps c(Y) and acts on Q(zeta_{q^e}) as its Galois group, so
each G_c is a rational algebraic integer, i.e. an integer, and no G_c
depends on k.  So every kernel returns the nonzero integer bins {c: G_c}
of one level (_bins), and _density evaluates them at one weight:

  * rank 1, every q: Y = y and c = min(v_q(y), e), so G_c is the Ramanujan
    sum of modulus q^(e-c) and G_e = 1;
  * rank 2, odd q: T is diagonalized over Z_q and the Y-sum collapses into
    closed valuation strata (Ramanujan sums; quadratic Gauss sums only
    appear squared, g^2 = chi(-1) q), _pair_bins_odd;
  * rank 2, q = 2: each G_c is the difference of two exact counts of Y,
    phase 0 against phase 2^(e-1), over one pair of free coordinates per
    unit orbit.  A shift of the solved coordinate pairs the two counts up as
    twins that cancel unless det Y is divisible by a threshold power of 2,
    so only the roots of a quadratic in one free coordinate are visited,
    found digit by digit (_q2_pair_bins);
  * rank 4, odd q, Jordan entries d0, d1 units and a pair: d0 and d1 peel
    off in closed form.  A unit a has density N(a) / q^(r-1) at every level
    on a unimodular lattice of rank r and disc class delta, N(a) = #{x in
    F_q^r : phi(x) = a}: q^(r-1) - eps q^(r/2-1) at even r, eps = chi(-1)^(r/2)
    delta, and q^(r-1) + chi((-1)^((r-1)/2) a) delta q^((r-1)/2) at odd r.
    On H^k (r = 2k, eps = 1) the first peel gives 1 - q^(-k) and leaves
    disc class chi(-1)^k chi(a0) at rank 2k-1; the second gives 1 + chi
    q^(1-k), chi = chi(-a0 a1) = (-d0 d1 | q), which is the generic binary
    factor _generic_factor(2, q, k, -d0 d1).  It leaves rank 2k-2 and eps =
    chi.  On an even-rank unimodular lattice a Smith class with w_j = e - c_j
    odd is weighed by the lattice's Gauss sum eps q^(r/2) in place of
    q^(r/2), so the weight of Y is (eps q^(r/2))^c(Y) q^(re): the pair's
    density is its bins at X = chi q^(k-1).

A level e is accepted only once its bins agree with those of level e - 1
as a polynomial, G_c(e) = G_{c-n}(e-1) for every c (n the bins' rank, zero
bins dropped), which makes the two levels agree at every X, the X = chi
q^(k-1) of the peel included; otherwise the computation fails with a "did
not stabilize" error.  No weight enters the bins, so each prime and
canonical index is counted once per process (_stable_bins) and evaluated at
every weight asked of it.

The direct route of a weight ladder reads the same numbers:
``direct_limit_coefficient`` takes the primitive coefficients a*(S) of a
rank-2k index along k_j(m) by one walk of its own sublattice inversion
(``primitive_inversion``, over the Hermite forms of ``_hnf_matrices``),
each plain coefficient a tuple over the weights, and certifies their
p-adic convergence without any fit.

Scope: ranks 1 and 2 are fully supported.  Rank 3, and rank 4 with even
det(2T), would need a 2-adic engine for ramified targets, which is not
implemented.  Rank 4 with odd det(2T) is supported whenever each odd
ramified prime q satisfies v_q(det 2T) <= 2 (at most two non-unit Jordan
scales), which covers direct sums of binary forms of small determinant.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import product

from .eisenstein import WeightSequence, WeightTarget
from .exactnum import (
    _v_int,
    check_integers,
    dirichlet_L_neg,
    divisors,
    factorize,
    frac_to_doc,
    kronecker,
    residue,
    v_p,
    zeta_neg,
)
from .lattice import (
    Mat,
    bareiss_det,
    check_definite,
    form_disc,
    jordan_blocks,
    minkowski_reduce,
)
from .records import record

__all__ = [
    "local_density_coeff",
    "primitive_density_coeff",
    "DirectLadder",
    "direct_limit_coefficient",
]

_STABLE_MARGIN = 8


# ---------------------------------------------------------------------------
# generic (good-reduction) local factors and their closure with alpha_inf
# ---------------------------------------------------------------------------


def _generic_factor(n: int, q: int, k: int, D0: int | None) -> Fraction:
    """beta_q(T, k) at a prime q not dividing 2 det(2T); D0 is
    form_disc(n, det 2T)[0] at n = 2, 4 (or, at the rank-4 unit peel of
    _beta_q, -d0 d1: only (D0 | q) is read) and unread at n = 1."""
    out = Fraction(1) - Fraction(1, q**k)
    if n >= 3:
        out *= 1 - Fraction(1, q ** (2 * k - 2))
    if n in (2, 4):
        out *= 1 + Fraction(kronecker(D0, q), q ** (k - n // 2))
    return out


def _global_factor(n: int, k: int, det2T: int, D0: int | None, f: int | None) -> Fraction:
    """alpha_inf(T, k) times _generic_factor at every prime, n in {1, 2, 4}:
    2^ceil(n/2) / (zeta(1-k) prod_{i=1}^{floor(n/2)} zeta(1+2i-2k)), times
    (det 2T / 2)^(k-1) at n = 1, and at n = 2, 4, with s = k - n/2 and
    (D0, f) = form_disc(n, det 2T), times
    L(1-s, chi_D0) f^(2k-n-1) / prod_{q | D0} (1 - q^(-2s)).

    The generic factors multiply to 1/zeta(k), times 1/zeta(2k-2) at n = 4,
    times L(s, chi_D0) / zeta(2s) / prod_{q | D0} (1 - q^(-2s)) at n = 2, 4.
    The functional equations carry these to 1-k, 3-2k, 1-s and 1-2s, and
    the powers of pi, square roots and Gamma values that they bring cancel
    those of alpha_inf.
    """
    out = Fraction(2 ** ((n + 1) // 2)) / zeta_neg(k - 1)
    for i in range(1, n // 2 + 1):
        out /= zeta_neg(2 * k - 2 * i - 1)
    if n == 1:
        return out * (det2T // 2) ** (k - 1)
    s = k - n // 2
    out *= dirichlet_L_neg(s, D0) * f ** (2 * k - n - 1)
    for q in factorize(abs(D0)):
        out /= 1 - Fraction(1, q ** (2 * s))
    return out


# ---------------------------------------------------------------------------
# weight-free bins G_c of one level, and their value at one weight
# ---------------------------------------------------------------------------


def _density(G: dict[int, int], n: int, e: int, X: int) -> Fraction:
    """X^(-ne) sum_c G_c X^c: the level-e density of a rank-n index whose
    bins are G, on H^k at X = q^k (module docstring)."""
    return Fraction(sum(g * X**c for c, g in G.items()), X ** (n * e))


def _ramanujan(q: int, N: int, v: int) -> int:
    """Sum of psi(u t / q^N) over units u mod q^N, where v = min(v_q(t), N)
    and N >= 1."""
    if v >= N:
        return q ** (N - 1) * (q - 1)
    if v == N - 1:
        return -(q ** (N - 1))
    return 0


def _bins(q: int, e: int, twoT, pair=None) -> dict[int, int]:
    """The nonzero G_c of level e: of twoT at rank 1 (every q) and at rank 2
    with q = 2, and at odd q of pair, the last two entries of
    jordan_blocks(twoT, q), taken once for every level by _stable_bins: all
    of a rank-2 index and what the unit peel leaves of a rank-4 one."""
    if len(twoT) == 1:
        # Y = y, c = min(v_q(y), e): the units of q^c u sum to a Ramanujan sum
        vt = min(v_p(twoT[0][0] // 2, q), e)
        return {c: g for c in range(e) if (g := _ramanujan(q, e - c, vt))} | {e: 1}
    if q == 2:
        return _q2_pair_bins(twoT, e)
    (sa, ((ua,),)), (sb, ((ub,),)) = pair
    return _pair_bins_odd(q, e, q**sa * residue(ua, q, e), q**sb * residue(ub, q, e))


def _pair_bins_odd(q: int, e: int, da: int, db: int) -> dict[int, int]:
    """G_c of the diagonal pair diag(da, db) (twoT scales) at odd q.

    Y runs through strata of fixed valuations s1, s2 of its diagonal and s3
    of its off-diagonal entry; on a stratum the unit sums of the diagonal are
    Ramanujan sums, and where the determinant can cancel (s1 + s2 = 2 s3) the
    stratum splits by chi(u1 u2).  A stratum has Smith sum c = c1 + c2 with
    c1 = min(s1, s2, s3) and c1 + c2 = min(v_q(det Y), c1 + e).  Unit scaling
    keeps each stratum and its chi(u1 u2), and acts on Q(zeta_{q^e}) as its
    Galois group, so every weight added is a rational algebraic integer, i.e.
    an integer: the halves (R1 R2 -+ gg)/2 included.
    """
    qe = q**e
    inv2 = pow(2, -1, qe)
    ta, tb = (da * inv2) % qe, (db * inv2) % qe
    va, vb = min(v_p(ta, q), e), min(v_p(tb, q), e)

    def gauss_pair(N1: int, N2: int) -> int:
        # product of the two chi-twisted unit sums; each vanishes unless the
        # phase valuation is exactly N-1, and g^2 = chi(-1) q keeps it rational
        if va != N1 - 1 or vb != N2 - 1:
            return 0
        c = kronecker((ta // q**va) % q, q) * kronecker((tb // q**vb) % q, q)
        return c * kronecker(-1, q) * q ** (N1 + N2 - 1)

    G = [0] * (2 * e + 1)

    def add(c1: int, vd, w: int) -> None:
        G[c1 + (e if vd is None else min(e, vd - c1))] += w

    for s1 in range(e + 1):
        R1 = _ramanujan(q, e - s1, va) if s1 < e else 1
        for s2 in range(e + 1):
            R2 = _ramanujan(q, e - s2, vb) if s2 < e else 1
            p12 = s1 + s2 if (s1 < e and s2 < e) else None
            for s3 in range(e + 1):
                n3 = q ** (e - s3 - 1) * (q - 1) if s3 < e else 1
                d33 = 2 * s3 if s3 < e else None
                c1 = min(s1, s2, s3)
                if p12 is None or p12 != d33:  # not coupled
                    if R1 == 0 or R2 == 0:
                        continue
                    if p12 is None:
                        vd = d33  # may itself be None: the zero matrix cell
                    elif d33 is None:
                        vd = p12
                    else:
                        vd = min(p12, d33)
                    add(c1, vd, R1 * R2 * n3)
                    continue
                N3 = e - s3
                gg = gauss_pair(e - s1, e - s2)
                wm = (R1 * R2 - gg) // 2  # chi(u1 u2) = -1: u1 u2 - w^2 stays a unit
                wp = (R1 * R2 + gg) // 2  # chi(u1 u2) = +1: fine strata around +-sqrt
                if wm:
                    add(c1, 2 * s3, wm * q ** (N3 - 1) * (q - 1))
                if wp:
                    add(c1, 2 * s3, wp * q ** (N3 - 1) * (q - 3))
                    for d in range(1, N3):
                        add(c1, 2 * s3 + d, wp * 2 * (q ** (N3 - d) - q ** (N3 - d - 1)))
                    add(c1, 2 * s3 + N3, wp * 2)
    return {c: g for c, g in enumerate(G) if g}


# ---------------------------------------------------------------------------
# q = 2, two columns: the character sums of the Smith bins by unit orbits
# ---------------------------------------------------------------------------


def _digit_roots(A: int, B: int, C: int, D: int, thr: int) -> list[int]:
    """The u < 2^D with P(u) = A + B u + C u^2 = 0 mod 2^thr, by a digit tree.

    P(u + 2^d w) - P(u) = 2^d w (B + 2 C u + 2^d C w), so a node u mod 2^d
    fixes P(u) mod 2^(d + kappa), kappa = min(v_2(B), v_2(C)).  A node is cut
    once P(u) is nonzero to that precision (at most thr; a leaf is exact), and
    once d + kappa >= thr every lift of a surviving node is a root.
    """
    cap = 1 << thr
    kappa = min(_v_int(B | cap, 2), _v_int(C | cap, 2))
    us, d = [0], 0
    while True:
        mask = (1 << (thr if d == D else min(d + kappa, thr))) - 1
        us = [u for u in us if (A + (B + C * u) * u) & mask == 0]
        if d == D or d + kappa >= thr:
            return [u | w << d for u in us for w in range(1 << (D - d))]
        us = [x for u in us for x in (u, u | 1 << d)]
        d += 1


def _q2_pair_bins(twoT, e: int) -> dict[int, int]:
    """Integer character sums G_c = sum psi(<Y, T>) over each Smith bin c.

    Y = [[y1, y3], [y3, y2]] runs mod 2^e and c(Y) = c1 + c2 is the capped sum
    of its elementary-divisor valuations, i.e. min(v_2(det Y), c1 + e).  A unit
    u keeps c(Y) and sends the phase phi(Y) = sum t_x y_x to u*phi(Y), so G_c
    is the Ramanujan sum N_c(0) - N_c(2^(e-1)) of the phase counts.  The
    equation phi = 0 is solved for the coordinate y_s whose coefficient t_s
    has the least valuation a (capped at e; 2^a lifts); the free pair (y_i,
    y_j) runs over one representative per unit orbit, weighted by the orbit
    size: the zero pair, and for m < e the families (2^m, 2^m u), u <
    2^(e-m), and (2^(m+1) u, 2^m), u < 2^(e-m-1).  On a family y_s is linear
    in u, so det Y = P(u) is a quadratic, and y1 y2 - y3^2 is evaluated mod
    2^(e+m), which holds its valuation up to the cap c1 + e.

    Twins.  For a < e, adding delta = 2^(e-1-a) t_s'^-1 (t_s' = t_s / 2^a) to
    y_s maps the phase-0 solutions one-to-one onto the phase-2^(e-1) ones, so
    G_c = sum over phase-0 Y of [c(Y) = c] - [c(Y') = c], Y' = Y + delta at s.
    On a family with m < e-1-a the twins cancel unless v_2(det Y) >= thr =
    e-1-a+m.  Proof: v_2(delta) = e-1-a > m, so if v_2(y_s) <= m then
    v_2(y_s + delta) = v_2(y_s), and otherwise both exceed m; c1 = min(v_2(y_s),
    m) is shared.  For y_s = y1 (or y2), det Y' - det Y = delta y2 (or delta
    y1), and the other diagonal entry is free, of valuation >= m.  For y_s =
    y3, det Y' - det Y = -delta (2 y3 + delta): if v_2(y3) >= m it has
    valuation > e-1-a+m, and if v_2(y3) < m then det Y and det Y' both have
    valuation exactly 2 v_2(y3) < thr, since v_2(y1 y2) >= 2m.  In every
    case v_2(det Y) < thr forces v_2(det Y') = v_2(det Y), hence c(Y') =
    c(Y), and v_2(det Y) >= thr holds for Y and Y' alike.  So only the roots
    of P mod 2^thr are visited, each with its twin.  Where the lemma gives no
    bound (m >= e-1-a, the zero pair, and a >= e-1) the threshold is 0 and
    the same tree returns every u; at a = e the phase is 0 and Y has no twin.
    """
    E = 1 << e
    t = [(twoT[0][0] // 2) % E, (twoT[1][1] // 2) % E, twoT[0][1] % E]
    s = min(range(3), key=lambda i: _v_int(t[i] | E, 2))
    i, j = (x for x in range(3) if x != s)
    a = _v_int(t[s] | E, 2)
    step = E >> a
    inv = pow(t[s] >> a, -1, step)
    # phase 0: y_s = ci y_i + cj y_j + step * lift
    ci, cj = -(t[i] >> a) * inv % step, -(t[j] >> a) * inv % step
    twins = ((0, 1), (inv << (e - 1 - a), -1)) if a < e else ((0, 1),)
    families = [(e, 1, 0, 0, 0, 0, 0)]  # (m, weight, D, p_i, q_i, p_j, q_j)
    for m in range(e):
        weight = 1 << (e - 1 - m)
        families += [(m, weight, e - m, 1 << m, 0, 0, 1 << m),
                     (m, weight, e - m - 1, 0, 2 << m, 1 << m, 0)]
    G = [0] * (2 * e + 1)
    p, q = [0, 0, 0], [0, 0, 0]
    for m, weight, D, p[i], q[i], p[j], q[j] in families:
        thr = e - 1 - a + m if m < e - 1 - a else 0
        low, mask = 1 << m, (1 << (e + m)) - 1
        q[s] = (ci * q[i] + cj * q[j]) & mask
        C = (q[0] * q[1] - q[2] * q[2]) & mask
        for lift in range(0, E, step):
            p[s] = (ci * p[i] + cj * p[j] + lift) & mask
            A = (p[0] * p[1] - p[2] * p[2]) & mask
            B = (p[0] * q[1] + p[1] * q[0] - 2 * p[2] * q[2]) & mask
            for u in _digit_roots(A, B, C, D, thr):
                y = [pk + qk * u for pk, qk in zip(p, q)]
                ys = y[s]
                for shift, sign in twins:
                    y[s] = ys + shift
                    c1 = _v_int(y[s] | low, 2)
                    G[_v_int((y[0] * y[1] - y[2] * y[2]) | (E << c1), 2)] += sign * weight
    return {c: g for c, g in enumerate(G) if g}


# ---------------------------------------------------------------------------
# stabilized local densities and the full assembly
# ---------------------------------------------------------------------------


@cache
def _stable_bins(q: int, twoT, v: int) -> tuple[int, dict[int, int], int | None]:
    """(e, G, D): the first level e at which the bins G of twoT (a canonical
    index, v = v_q(2 det 2T)) equal those of level e - 1 as a Laurent
    polynomial, G_c(e) = G_{c-n}(e-1) with n = min(rank, 2), so that the two
    levels agree at every X; D is the unit peel's class -d0 d1 mod q at a
    rank-4 index, else None.  No weight enters: each (q, T) is counted once
    and evaluated by _beta_q at every weight.  G is shared, read only.
    """
    n, pair, D = len(twoT), None, None
    if q > 2 and n > 1:
        blocks = jordan_blocks(twoT, q)
        if n == 4:
            (_, ((u0,),)), (s1, ((u1,),)) = blocks[:2]
            if s1:
                raise NotImplementedError(
                    f"more than two non-unit Jordan scales at q={q}; this index "
                    "is outside the supported rank-4 range"
                )
            D = residue(-u0 * u1, q, 1)
        pair = blocks[-2:]
    shift = min(n, 2)  # the rank of the bins: the pair's at rank 4
    last = v + _STABLE_MARGIN + 1
    prev = None
    for e in range(max(2, v + 2), last + 1):
        G = _bins(q, e, twoT, pair)
        if prev is not None and G == {c + shift: g for c, g in prev.items()}:
            return e, G, D
        prev = G
    raise RuntimeError(f"local density at q={q} did not stabilize up to level {last}")


def _beta_q(q: int, k: int, twoT, det2T: int) -> Fraction:
    """beta_q(T, k) at a prime q dividing 2 det(2T), for a canonical twoT
    (tuple rows), at q = 2 only for T of rank 1 or 2 (local_density_coeff
    refuses rank 3 and skips q = 2 at rank 4).

    The stabilized bins are evaluated at X = q^k; at rank 4 the two unit
    Jordan entries d0, d1 peel off as the generic binary factor of the
    character value chi = (-d0 d1 | q), and the pair left is evaluated at
    X = chi q^(k-1) (module docstring).
    """
    e, G, D = _stable_bins(q, twoT, v_p(2 * det2T, q))
    if D is None:
        return _density(G, len(twoT), e, q**k)
    return _generic_factor(2, q, k, D) * _density(G, 2, e, kronecker(D, q) * q ** (k - 1))


def local_density_coeff(twoT, k: int) -> Fraction:
    """Eisenstein coefficient of a rank 1..4 index from local densities."""
    check_integers("weight must be an even integer, at least 4", k)
    if k % 2 or k < 4:
        raise ValueError("weight must be an even integer, at least 4")
    M = check_definite(twoT, "local_density_coeff")
    n = len(M)
    if not 1 <= n <= 4:
        raise ValueError("index rank must be 1 to 4")
    if n == 3:
        raise NotImplementedError(
            "2-adic density for degree-3 indices is not implemented"
        )
    M = minkowski_reduce(M)
    det2T = bareiss_det(M)
    if n == 4 and det2T % 2 == 0:
        raise NotImplementedError(
            "2-adic density for rank-4 indices with even det(2T) is not implemented"
        )
    D0, f = form_disc(n, det2T) if n % 2 == 0 else (None, None)
    out = _global_factor(n, k, det2T, D0, f)
    for q in sorted(factorize(2 * det2T)):
        # at n = 4, 2T is 2-adically even unimodular (det 2T is odd), so
        # beta_2 is the closed good-reduction value _generic_factor
        if not (q == 2 and n == 4):
            out *= _beta_q(q, k, M, det2T) / _generic_factor(n, q, k, D0)
    return out


# ---------------------------------------------------------------------------
# the direct route: primitive rank-2k coefficients along a weight ladder
# ---------------------------------------------------------------------------


def _hnf_matrices(n: int, d: int):
    """All upper-triangular n x n Hermite forms of determinant d (row style:
    positive pivots, entries above a pivot reduced mod the pivot)."""
    def diag_splits(rem, length):
        if length == 1:
            yield (rem,)
            return
        for first in divisors(rem):
            for rest in diag_splits(rem // first, length - 1):
                yield (first,) + rest

    for dg in diag_splits(d, n):
        cols = [product(range(dg[j]), repeat=j) for j in range(n)]
        for above in product(*cols):
            H = [[0] * n for _ in range(n)]
            for c, col in enumerate(above):
                for i in range(c):
                    H[i][c] = col[i]
                H[c][c] = dg[c]
            yield tuple(tuple(row) for row in H)


def _transform_by_inverse(twoT: Mat, D) -> Mat | None:
    """(D^{-1})^t (2T) D^{-1} when it lands in even integral matrices.

    D is upper triangular with a positive diagonal, so D^t Y^t = 2T (that
    is Y D = 2T, as 2T is symmetric) and then D^t X = Y are solved by
    substitution, one exact division per entry, and D is refused at the
    first entry that is not integral: Y = D^t X is integral whenever X is.
    """
    n = len(D)

    def solve(B):  # Z with D^t Z = B, row by row, or None
        Z = []
        for i in range(n):
            row = []
            for c in range(n):
                s = B[i][c] - sum(D[l][i] * Z[l][c] for l in range(i))
                if s % D[i][i]:
                    return None
                row.append(s // D[i][i])
            Z.append(row)
        return Z

    Yt = solve(twoT)
    X = Yt and solve(list(zip(*Yt)))
    if not X or any(X[i][i] % 2 for i in range(n)):
        return None
    return tuple(map(tuple, X))


def primitive_inversion(plain):
    """Memoised a* solving a(T) = sum_D a*(T[D^{-1}]) for definite T.

    Returns the function R -> tuple of a*(T), one entry per weight, for T
    the canonical form of a definite R.  plain(R) gives the values a(T) as
    such a tuple, and the walk hands it the very form R that it reduced to
    T, so that plain finds the reduction of R already memoised.  The
    inversion runs by induction on det(2T), subtracting entry by entry the
    contributions of all non-unimodular Hermite forms D with
    det(D)^2 | det(2T) and T[D^{-1}] still even integral, so one walk
    serves every weight.
    """
    memo: dict[Mat, tuple] = {}

    def star(R) -> tuple:
        T = minkowski_reduce(R)
        got = memo.get(T)
        if got is not None:
            return got
        total = list(plain(R))
        det2T = bareiss_det(T)
        for d in divisors(det2T):
            if d == 1 or det2T % (d * d):
                continue
            for D in _hnf_matrices(len(T), d):
                T2 = _transform_by_inverse(T, D)
                if T2 is not None:
                    total = [a - b for a, b in zip(total, star(T2))]
        memo[T] = got = tuple(total)
        return got

    return star


def primitive_density_coeff(S, k: int) -> Fraction:
    """Primitive Eisenstein coefficient a*(S) of a full-rank index S.

    Inverts a(T) = sum_D a*(T[D^{-1}]) over sublattice shapes D by
    induction on det(2T), with every plain coefficient supplied by
    local_density_coeff; rank(S) must be within its supported range.
    """
    return _primitive_densities(S, (k,))[0]


def _primitive_densities(S, weights) -> tuple:
    """a*(S) at each of the weights for a definite S: one walk of the
    sublattice inversion, each plain coefficient a tuple over the weights,
    taken at the form the walk reduced."""
    return primitive_inversion(lambda R: tuple(local_density_coeff(R, k) for k in weights))(S)


@record
class DirectLadder:
    """Residue ladder of primitive rank-2k coefficients a*_{k_j(m)}(S)."""

    target: WeightTarget
    S: tuple
    weights: tuple
    values: tuple
    certificates: tuple
    residues: tuple  # per rung: (residue, exponent) mod p^{b(m)+2}

    def to_doc(self) -> dict:
        return {
            "p": self.target.p,
            "k": self.target.k,
            "j": self.target.j,
            "twoS": [list(row) for row in self.S],
            "weights": list(self.weights),
            "values": [frac_to_doc(v) for v in self.values],
            "certificates": list(self.certificates),
            "residues": [{"residue": r, "mod_exponent": c} for r, c in self.residues],
        }


def direct_limit_coefficient(S, target: WeightTarget, seq: WeightSequence) -> DirectLadder:
    """Ladder of a*_{k_j(m)}(S) for a rank-2k index S.

    The limit of this ladder is the genus coefficient that fit_and_verify
    recovers by fitting; a lattice whose level does not divide p, or whose
    character differs from chi_p^j, must ladder to 0.
    """
    twoS = minkowski_reduce(S)
    if len(twoS) != 2 * target.k:
        raise ValueError("S must have rank 2k")
    p = target.p
    weights = seq.weights
    values = _primitive_densities(S, weights)  # from S, whose reduction is memoised
    caps = seq.caps
    certs = tuple(
        min(v_p(b - a, p), caps[i])
        for i, (a, b) in enumerate(zip(values, values[1:]))
    )
    residues = tuple(
        (residue(v, p, c), c) for v, c in zip(values, caps)
    )
    return DirectLadder(target, twoS, weights, values, certs, residues)
