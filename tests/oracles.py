"""Slow reference algorithms that the package replaced, kept as oracles.

Each one enumerates everything the package code prunes:
- canonical_full_branching: the canonical form over every greedy basis,
  with no sign or prefix cut;
- theta_all_tuples: theta coefficients from every ordered tuple of short
  vectors, canonicalising each Gram matrix met;
- psd_indices_box: PSD indices from the whole box that the 2x2 minors
  allow, reduced one by one.
"""

import math
from fractions import Fraction
from functools import cache
from operator import mul

from eistheta.lattice import (
    _GAMMA_POW,
    _extendable,
    as_mat,
    content,
    form_trace,
    is_psd,
    minkowski_reduce,
    short_vectors,
)
from eistheta.linalg import bareiss_det


@cache
def canonical_full_branching(twoS):
    """Row-major least Gram matrix over all greedy bases of a definite S.

    Step i branches over every vector of least value that extends the
    partial basis to a basis of Z^r; no branch is skipped.
    """
    r = len(twoS)
    if r == 0:
        return ()
    c = content(twoS)
    if c > 1:  # S and S/c have the same greedy bases
        C = canonical_full_branching(tuple(tuple(x // c for x in row) for row in twoS))
        return tuple(tuple(c * x for x in row) for row in C)
    det_S = Fraction(bareiss_det([list(row) for row in twoS]), 2**r)
    mu1 = min(v for _, v in short_vectors(twoS, min(twoS[i][i] for i in range(r)) // 2))
    margin = 1 if r <= 4 else 4
    pool_bound = max(Fraction(mu1), _GAMMA_POW[r] * det_S * margin / mu1 ** (r - 1))
    by_val = {}
    for vec, val in short_vectors(twoS, pool_bound, both_signs=True):
        by_val.setdefault(val, []).append(vec)
    sw = {w: [sum(row[t] * w[t] for t in range(r)) for row in twoS]
          for ws in by_val.values() for w in ws}

    @cache
    def inner(u, w):
        return sum(a * b for a, b in zip(u, sw[w]))

    best = None
    candidates = {}  # the candidates depend only on the span of the partial basis

    def rec(chosen, cols):
        nonlocal best
        span = tuple(sorted(max(v, tuple(-c for c in v)) for v in chosen))
        if span not in candidates:
            for val in sorted(by_val):
                cand = [w for w in by_val[val] if _extendable(chosen + (w,), r)]
                if cand:
                    break
            else:
                raise RuntimeError("pool exhausted")
            candidates[span] = cand
        cand = candidates[span]
        new_cols = [tuple(inner(u, w) for u in chosen + (w,)) for w in cand]
        if len(chosen) < r - 1:
            for w, col in zip(cand, new_cols):
                rec(chosen + (w,), cols + (col,))
            return
        # the leaves below this node differ only in the last column, which
        # ends every row but the last, so the least column gives the least flat
        cols += (min(new_cols),)
        flat = [cols[max(a, b)][min(a, b)] for a in range(r) for b in range(r)]
        best = flat if best is None else min(best, flat)

    rec((), ())
    return tuple(tuple(best[i * r + j] for j in range(r)) for i in range(r))


def theta_all_tuples(twoS, n, B):
    """{T: count} at canonical T of tr <= B, over every ordered n-tuple of
    vectors of total value <= B."""
    r = len(twoS)
    cols = [((0,) * r, 0)] + short_vectors(twoS, B, both_signs=True)
    svs = {v: [sum(twoS[i][j] * v[j] for j in range(r)) for i in range(r)]
           for v, _ in cols}
    counts = {}
    chosen = []
    gram = [[0] * n for _ in range(n)]

    def rec(j, trace):
        if j == n:
            key = tuple(map(tuple, gram))
            counts[key] = counts.get(key, 0) + 1
            return
        for v, q in cols:
            if trace + q > B:
                break  # cols are sorted by value
            gram[j][j] = 2 * q
            for i in range(j):
                gram[i][j] = gram[j][i] = sum(map(mul, chosen[i], svs[v]))
            chosen.append(v)
            rec(j + 1, trace + q)
            chosen.pop()

    rec(0, 0)
    return {T: c for T, c in counts.items() if minkowski_reduce(T) == T}


def psd_indices_box(n, B):
    """Sorted canonical forms of every T >= 0 of size n with tr(T) <= B:
    diagonal entries bounded by the trace, g_ij by sqrt(g_ii g_jj)."""
    found = set()
    g = [[0] * n for _ in range(n)]

    def rec_entry(i, j):
        if j == n:
            M = as_mat(g)
            if is_psd(M):
                found.add(minkowski_reduce(M))
            return
        if i == j:
            rec_entry(0, j + 1)
            return
        top = math.isqrt(g[i][i] * g[j][j])
        for v in range(-top, top + 1):
            g[i][j] = g[j][i] = v
            rec_entry(i + 1, j)
        g[i][j] = g[j][i] = 0

    def rec_diag(i, rem):
        if i == n:
            rec_entry(0, 1)
            return
        for d in range(0, rem + 1, 2):
            g[i][i] = d
            rec_diag(i + 1, rem - d)
        g[i][i] = 0

    rec_diag(0, 2 * B)
    return sorted(found, key=lambda M: (form_trace(M), M))
