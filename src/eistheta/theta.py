"""Theta series of definite even forms and genus-weighted averages.

Degree-n coefficients count integer matrices X with S[X] = T.  Columns
of X are drawn from the short-vector list of S (norms bounded by the
trace window), so the support is enumerated exactly rather than boxed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .fourier import (
    QExpansion,
    primitive_coeffs,
    qexp_add,
    qexp_scale,
    rank_filter,
)
from .lattice import (
    Mat,
    automorphism_count,
    check_form,
    form_trace,
    is_positive_definite,
    minkowski_reduce,
    short_vectors,
)


def theta_series(twoS, n: int, trace_bound: int) -> QExpansion:
    """Degree-n theta series of S, truncated at tr(T) <= trace_bound."""
    return _theta_series(check_form(twoS), n, trace_bound)


@lru_cache(maxsize=None)
def _theta_series(twoS: Mat, n: int, trace_bound: int) -> QExpansion:
    if not is_positive_definite(twoS):
        raise ValueError("theta series needs a positive definite form")
    if n <= 0:
        raise ValueError("degree must be positive")
    if n > 5:
        raise ValueError("matrices larger than 5x5 are out of scope")
    B = trace_bound
    vecs = short_vectors(twoS, B, both_signs=True)
    if n == 1:
        counts = {((0,),): 1}
        for _, q in vecs:
            key = ((2 * q,),)
            counts[key] = counts.get(key, 0) + 1
        return QExpansion(1, B, counts)

    r = len(twoS)
    cols = [((0,) * r, 0)] + vecs
    svs = {}
    for v, _ in cols:
        svs[v] = tuple(sum(twoS[i][j] * v[j] for j in range(r)) for i in range(r))
    counts: dict[Mat, int] = {}
    chosen: list[tuple[tuple[int, ...], int]] = []
    gram: list[list[int]] = [[0] * n for _ in range(n)]

    def rec(j, trace):
        if j == n:
            key = tuple(tuple(row[:n]) for row in gram)
            counts[key] = counts.get(key, 0) + 1
            return
        for v, q in cols:
            if trace + q > B:
                continue
            sv = svs[v]
            gram[j][j] = 2 * q
            for i in range(j):
                u = chosen[i][0]
                d = sum(u[t] * sv[t] for t in range(r))
                gram[i][j] = gram[j][i] = d
            chosen.append((v, q))
            rec(j + 1, trace + q)
            chosen.pop()

    rec(0, 0)
    canon = {
        T: Fraction(c) for T, c in counts.items() if minkowski_reduce(T) == T
    }
    return QExpansion(n, B, canon)


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


@dataclass(frozen=True)
class RankDecompositionReport:
    degree: int
    rank: int
    trace_bound: int
    ok: bool
    residuals: dict
    terms: dict

    def __bool__(self):
        return self.ok


def verify_rank_decomposition(F: QExpansion, r: int, trace_bound: int):
    """Check the rank-r filtered part of F against its expansion into
    theta series weighted by primitive coefficients.

    Both sides are computed independently on the window: the left side
    by rank filtering, the right side as
        sum over definite rank-r classes S of (a*_F(S+0)/eps(S)) theta_S
    restricted to rank-r indices.  Exact rational comparison per index.
    """
    if r <= 0 or r > F.degree:
        raise ValueError("rank out of range")
    if trace_bound > F.trace_bound:
        raise ValueError("window exceeds stored bound")
    B = trace_bound
    lhs_full = rank_filter(F, r)
    lhs = {
        T: a for T, a in lhs_full.coeffs.items() if form_trace(T) <= B
    }
    star = primitive_coeffs(F, r, B)
    terms = {}
    parts = []
    for S, astar in sorted(star.items()):
        eps = automorphism_count(S)
        terms[S] = (astar, eps)
        if astar:
            piece = rank_filter(theta_series(S, F.degree, B), r)
            parts.append(qexp_scale(piece, Fraction(astar, eps)))
    rhs = qexp_add(*parts) if parts else QExpansion(F.degree, B, {})
    residuals = {}
    for T in set(lhs) | set(rhs.coeffs):
        d = lhs.get(T, Fraction(0)) - rhs.coeffs.get(T, Fraction(0))
        if d:
            residuals[T] = d
    return RankDecompositionReport(
        degree=F.degree,
        rank=r,
        trace_bound=B,
        ok=not residuals,
        residuals=residuals,
        terms=terms,
    )
