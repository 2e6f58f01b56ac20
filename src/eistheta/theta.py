"""Theta series of definite even forms and genus-weighted averages.

Degree-n coefficients count integer matrices X with S[X] = T.  Columns
of X are drawn from the short vectors of S (norms bounded by the
trace window), so the support is enumerated exactly rather than boxed.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from operator import mul

from .fourier import QExpansion, _from_checked, _key_rank, qexp_add, qexp_scale
from .lattice import (
    Mat,
    automorphisms,
    check_definite,
    check_window,
    fits_canonical_shape,
    minkowski_reduce,
    short_vectors,
)


def theta_series(twoS, n: int, trace_bound: int) -> QExpansion:
    """Degree-n theta series of S, truncated at tr(T) <= trace_bound.

    The short vectors of the window list one x of each pair +-x, so at
    n = 1 the coefficient at 2q is twice the number listed of value q.
    For n >= 2 the coefficient at a canonical T counts the tuples X of
    vectors with Gram matrix T.  X is built a column at a time and is not
    extended once lattice.fits_canonical_shape rejects its Gram matrix,
    which no canonical T fails, so every tuple with a canonical Gram
    matrix is counted.  Every column of a key fits the shape, so a key with
    at most two nonzero diagonal entries is canonical (minkowski_reduce's
    own shortcut test), and minkowski_reduce runs only on keys with three or
    more, to drop the ones that are not canonical.
    X and U X have one Gram matrix for every U in a group of automorphisms
    of S, so x_1 is taken one per orbit and counted as often as its orbit is
    long.  The group holds -1, so every orbit meets the listed half.  Only
    the x_1 with 2Q(x_1) <= B take orbits: past that a nonzero x_2 would
    need Q(x_2) >= Q(x_1) and so a trace above B, so each such pair +-x_1
    adds 2 at diag(2Q(x_1), 0, ..., 0) and nothing else.  Later columns go
    one per pair +-y: the shape asks the first nonzero product of x_j with
    x_1, ..., x_{j-1} to be negative, which fixes the sign, and both signs
    are taken when every such product is 0; the last column adds its Gram
    matrix where it is chosen, twice in that case.  The group is Aut(S)
    when rank(S) <= 4 and every diagonal entry of 2S is at most 2B, so that
    the short vectors of the window hold its search pool and are searched
    for it; otherwise it is {1, -1}.
    """
    twoS = check_definite(twoS, "theta series")
    check_window(n, trace_bound)
    B = trace_bound
    pool = short_vectors(twoS, B)
    if n == 1:
        counts = {((0,),): 1} | {((2 * q,),): 2 * len(xs) for q, xs in pool.items()}
        return _from_checked(1, B, {T: Fraction(c) for T, c in counts.items()})

    r = len(twoS)
    if r <= 4 and all(twoS[i][i] <= 2 * B for i in range(r)):
        group = automorphisms(twoS, pool)
    else:
        group = [tuple(tuple(s * (a == b) for b in range(r)) for a in range(r))
                 for s in (1, -1)]
    zero = (0,) * r
    cols = [(zero, 0)] + [(v, q) for q, xs in pool.items() for v in xs]
    counts: dict[Mat, int] = {}
    firsts = []  # (x_1, value, orbit length), one x_1 per orbit, by value
    seen: set = set()
    for v, q in cols:
        if 2 * q > B:  # a later column would have value >= q: all are zero
            key = ((2 * q,) + (0,) * (n - 1),) + ((0,) * n,) * (n - 1)
            counts[key] = counts.get(key, 0) + 2
        elif v not in seen:
            orbit = {tuple(sum(map(mul, row, v)) for row in U) for U in group}
            seen |= orbit
            firsts.append((v, q, len(orbit)))
    # columns j >= 1 one per pair +-y, y listed: (y, -y, value, 2S y)
    pairs = [(v, tuple(-c for c in v), q, [sum(map(mul, row, v)) for row in twoS])
             for v, q in cols]
    values = [q for _, _, q, _ in pairs]  # ascending
    chosen: list[tuple[int, ...]] = []
    gram: list[list[int]] = [[0] * n for _ in range(n)]

    def rec(j, trace, weight):
        # the shape's diagonal is non-decreasing and then zero, so column j
        # is the zero vector or has at least the value of column j - 1
        prev = gram[j - 1][j - 1] // 2
        for k in [0, *range(bisect_left(values, prev), len(pairs))] if prev else [0]:
            v, w, q, sv = pairs[k]
            if trace + q > B:
                break
            col = [sum(map(mul, x, sv)) for x in chosen]
            # the shape's first nonzero of column j is negative: y or -y
            # meets that, or both when the column above g_jj is zero
            lead = next((x for x in col if x), 0)
            if lead > 0:
                v, col = w, [-x for x in col]
            gram[j][j] = 2 * q
            for i, x in enumerate(col):
                gram[i][j] = gram[j][i] = x
            if not fits_canonical_shape(gram, j):
                continue
            ys = (v, w) if q and not lead else (v,)
            if j == n - 1:  # +-y give one Gram matrix when both are taken
                key = tuple(map(tuple, gram))
                counts[key] = counts.get(key, 0) + len(ys) * weight
                continue
            for y in ys:
                chosen.append(y)
                rec(j + 1, trace + q, weight)
                chosen.pop()

    # every column 0 fits the canonical shape
    for v, q, size in firsts:
        gram[0][0] = 2 * q
        chosen.append(v)
        rec(1, q, size)
        chosen.pop()
    # keys of rank <= 2 are canonical as built; each other key is checked
    # once here, so _from_checked checks none again
    return _from_checked(n, B, {T: Fraction(c) for T, c in counts.items()
                                if _key_rank(T) <= 2 or minkowski_reduce(T) == T})


def genus_theta(G, n: int, trace_bound: int):
    """(theta_avg, theta_zero) for a genus record.

    theta_zero = sum of theta_{S_i}/eps(S_i), exactly; theta_avg is
    theta_zero divided by the mass, so its constant term is 1.
    """
    parts = [
        qexp_scale(theta_series(rec.rep, n, trace_bound), Fraction(1, rec.epsilon))
        for rec in G.classes
    ]
    theta_zero = qexp_add(*parts)
    theta_avg = qexp_scale(theta_zero, 1 / G.mass)
    return theta_avg, theta_zero
