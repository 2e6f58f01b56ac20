"""Half-integral symmetric matrices and their GL_n(Z) arithmetic.

A form T is stored through its doubled Gram matrix ``twoT`` (tuple of
tuples of ints): symmetric with even diagonal, so T itself has integer
diagonal and half-integer off-diagonal entries.  Values of the form are
Q(x) = x^t T x = (x^t twoT x)/2, an integer.

Everything here is exact.  Sizes are desk scale (n <= 5).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

from .exactnum import divisors, fund_disc_decompose, kronecker
from .linalg import (
    adjugate,
    bareiss_det,
    exact_rank,
    kernel_basis,
    unimodular_extension,
)

Mat = tuple[tuple[int, ...], ...]

__all__ = [
    "Mat",
    "QuadCharacter",
    "as_mat",
    "check_form",
    "form_rank",
    "form_det",
    "form_trace",
    "content",
    "direct_sum",
    "pad_zero",
    "is_psd",
    "is_positive_definite",
    "transform",
    "level",
    "chi_S",
    "eta_S",
    "short_vectors",
    "minkowski_reduce",
    "is_equivalent",
    "automorphism_count",
    "enumerate_classes",
    "enumerate_psd_indices",
    "parse_matrix_text",
]


def as_mat(rows) -> Mat:
    return tuple(tuple(int(x) for x in row) for row in rows)


def check_form(twoT) -> Mat:
    """Validate the doubled-Gram invariants (symmetric, even diagonal)."""
    M = as_mat(twoT)
    n = len(M)
    for row in M:
        if len(row) != n:
            raise ValueError("matrix is not square")
    for i in range(n):
        if M[i][i] % 2:
            raise ValueError("diagonal of twoT must be even")
        for j in range(i):
            if M[i][j] != M[j][i]:
                raise ValueError("twoT must be symmetric")
    return M


def form_rank(twoT) -> int:
    return exact_rank([list(r) for r in twoT])


def form_det(twoT) -> int:
    """det(2T)."""
    return bareiss_det([list(r) for r in twoT])


def form_trace(twoT) -> int:
    """tr(T) = tr(twoT)/2."""
    return sum(twoT[i][i] for i in range(len(twoT))) // 2


def content(twoT) -> int:
    """Largest c with T/c still half-integral (gcd of t_ii and 2t_ij)."""
    g = 0
    n = len(twoT)
    for i in range(n):
        g = math.gcd(g, twoT[i][i] // 2)
        for j in range(i + 1, n):
            g = math.gcd(g, twoT[i][j])
    return g


def direct_sum(*forms) -> Mat:
    mats = [as_mat(f) for f in forms]
    n = sum(len(m) for m in mats)
    out = [[0] * n for _ in range(n)]
    off = 0
    for m in mats:
        for i, row in enumerate(m):
            for j, x in enumerate(row):
                out[off + i][off + j] = x
        off += len(m)
    return as_mat(out)


def pad_zero(twoT, n: int) -> Mat:
    """Embed T as the leading block of an n x n form (T 0; 0 0)."""
    r = len(twoT)
    if n < r:
        raise ValueError("target size smaller than form")
    out = [[0] * n for _ in range(n)]
    for i in range(r):
        for j in range(r):
            out[i][j] = twoT[i][j]
    return as_mat(out)


def is_positive_definite(twoT) -> bool:
    n = len(twoT)
    M = [list(r) for r in twoT]
    for k in range(1, n + 1):
        if bareiss_det([row[:k] for row in M[:k]]) <= 0:
            return False
    return True


def is_psd(twoT) -> bool:
    """Positive semidefinite test via all principal minors (n <= 5)."""
    n = len(twoT)
    M = [list(r) for r in twoT]
    for k in range(1, n + 1):
        for rows in combinations(range(n), k):
            sub = [[M[a][b] for b in rows] for a in rows]
            if bareiss_det(sub) < 0:
                return False
    return True


def transform(twoT, U) -> Mat:
    """U^t (2T) U for an integer matrix U (columns are the new basis)."""
    n = len(twoT)
    m = len(U[0])
    TU = [[sum(twoT[i][k] * U[k][j] for k in range(n)) for j in range(m)] for i in range(n)]
    return as_mat(
        [[sum(U[k][i] * TU[k][j] for k in range(n)) for j in range(m)] for i in range(m)]
    )


class QuadCharacter:
    """Real quadratic character attached to a fundamental discriminant.

    disc = 1 is the trivial character of conductor 1.
    """

    def __init__(self, disc: int):
        self.disc = disc
        self.modulus = abs(disc)

    def __call__(self, d: int) -> int:
        return kronecker(self.disc, d)

    def __eq__(self, other) -> bool:
        return isinstance(other, QuadCharacter) and self.disc == other.disc

    def __hash__(self):
        return hash(("QuadCharacter", self.disc))

    def __repr__(self):
        return f"QuadCharacter(disc={self.disc})"


def level(twoS) -> int:
    """Least l with l(2S)^{-1} integral and even-diagonal."""
    M = check_form(twoS)
    d = bareiss_det([list(r) for r in M])
    if d <= 0:
        raise ValueError("level needs a positive definite form")
    adj = adjugate([list(r) for r in M])
    l = 1
    n = len(M)
    for i in range(n):
        for j in range(n):
            if i == j:
                need = 2 * d // math.gcd(2 * d, adj[i][i])
            else:
                need = d // math.gcd(d, adj[i][j])
            l = l * need // math.gcd(l, need)
    return l


def chi_S(twoS, d: int) -> int:
    """The quadratic character sign(d)^{r/2} * ((-1)^{r/2} det 2S / |d|)."""
    r = len(twoS)
    if r % 2:
        raise ValueError("chi_S needs even rank")
    if d == 0:
        raise ValueError("chi_S undefined at 0")
    D = (-1) ** (r // 2) * form_det(twoS)
    sgn = -1 if (d < 0 and (r // 2) % 2) else 1
    return sgn * kronecker(D, abs(d))


def eta_S(twoS) -> QuadCharacter:
    """Primitive character underlying chi_S (conductor |D0|)."""
    r = len(twoS)
    if r % 2:
        raise ValueError("eta_S needs even rank")
    D = (-1) ** (r // 2) * form_det(twoS)
    D0, _ = fund_disc_decompose(D)
    return QuadCharacter(D0)


# ------------------------------------------------------------ short vectors

def _ldl(twoS):
    """Exact decomposition Q(x) = sum_i D_i (x_i + sum_{j>i} L_ij x_j)^2."""
    n = len(twoS)
    M = [[Fraction(twoS[i][j], 2) for j in range(n)] for i in range(n)]
    D = []
    L = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        d = M[i][i]
        if d <= 0:
            raise ValueError("form is not positive definite")
        D.append(d)
        for j in range(i + 1, n):
            L[i][j] = M[i][j] / d
        for a in range(i + 1, n):
            for b in range(i + 1, n):
                M[a][b] -= M[a][i] * M[i][b] / d
    return D, L


def _floor_add_sqrt(c: Fraction, M: Fraction) -> int:
    """floor(c + sqrt(M)) computed exactly for rationals, M >= 0."""
    t = math.floor(float(c) + math.sqrt(float(M)))

    def le(x):  # x <= c + sqrt(M)
        d = x - c
        return d <= 0 or d * d <= M

    while le(t + 1):
        t += 1
    while not le(t):
        t -= 1
    return t


def short_vectors(twoS, bound, both_signs: bool = False):
    """All x != 0 with Q(x) <= bound for positive definite S.

    Returns a list of (vector, Q(x)) sorted by (value, vector); one vector
    per +-pair unless both_signs is set.
    """
    M = check_form(twoS)
    n = len(M)
    bound = Fraction(bound)
    if bound < 0:
        return []
    D, L = _ldl(M)
    out = []
    x = [0] * n

    def rec(i, acc):
        if i < 0:
            if any(x):
                assert acc.denominator == 1
                out.append((tuple(x), int(acc)))
            return
        c = Fraction(0)
        for j in range(i + 1, n):
            if x[j]:
                c += L[i][j] * x[j]
        rem = (bound - acc) / D[i]
        if rem < 0:
            return
        lo = -_floor_add_sqrt(c, rem)
        hi = _floor_add_sqrt(-c, rem)
        for xi in range(lo, hi + 1):
            x[i] = xi
            t = xi + c
            rec(i - 1, acc + D[i] * t * t)
        x[i] = 0

    rec(n - 1, Fraction(0))
    if not both_signs:
        out = [(v, q) for v, q in out if next(c for c in v if c) > 0]
    out.sort(key=lambda p: (p[1], p[0]))
    return out


# ---------------------------------------------------------- canonical form

_GAMMA_POW = {
    1: Fraction(1),
    2: Fraction(4, 3),
    3: Fraction(2),
    4: Fraction(4),
    5: Fraction(8),
}


def _extendable(vecs, r) -> bool:
    """gcd of maximal minors equals 1, i.e. vecs extend to a basis of Z^r."""
    i = len(vecs)
    g = 0
    for cols in combinations(range(r), i):
        sub = [[v[c] for c in cols] for v in vecs]
        g = math.gcd(g, abs(bareiss_det(sub)))
        if g == 1:
            return True
    return False


@lru_cache(maxsize=None)
def _canonical_definite(twoS: Mat) -> Mat:
    """Lexicographically smallest Minkowski-reduced doubled Gram matrix.

    Greedy basis search: at step i branch over every vector of minimal
    value that extends the partial basis; the returned matrix is the
    row-major minimum over all completed greedy (hence Minkowski-reduced)
    bases.  The candidate pool bound comes from Minkowski's second theorem
    with the exact rank <= 5 Hermite constants; pool exhaustion raises
    instead of returning a wrong answer.
    """
    r = len(twoS)
    if r == 0:
        return ()
    det_S = Fraction(bareiss_det([list(row) for row in twoS]), 2**r)
    mu1 = min(v for _, v in short_vectors(twoS, min(twoS[i][i] for i in range(r)) // 2))
    margin = 1 if r <= 4 else 4
    pool_bound = max(Fraction(mu1), _GAMMA_POW[r] * det_S * margin / mu1 ** (r - 1))
    pool = short_vectors(twoS, pool_bound, both_signs=True)
    by_val: dict[int, list] = {}
    for vec, val in pool:
        by_val.setdefault(val, []).append(vec)
    values = sorted(by_val)

    best: list[int] | None = None
    chosen: list[tuple] = []

    def rec():
        nonlocal best
        if len(chosen) == r:
            gram = [[0] * r for _ in range(r)]
            for a in range(r):
                for b in range(a, r):
                    s = 0
                    va, vb = chosen[a], chosen[b]
                    for p in range(r):
                        if va[p]:
                            row = twoS[p]
                            s += va[p] * sum(row[q] * vb[q] for q in range(r))
                    gram[a][b] = gram[b][a] = s
            flat = [x for row in gram for x in row]
            if best is None or flat < best:
                best = flat
            return
        cand = None
        for val in values:
            cand = [w for w in by_val[val] if _extendable(chosen + [w], r)]
            if cand:
                break
        if not cand:
            raise RuntimeError("canonical form pool exhausted; report as a bug")
        for w in cand:
            chosen.append(w)
            rec()
            chosen.pop()

    rec()
    assert best is not None
    return tuple(tuple(best[i * r + j] for j in range(r)) for i in range(r))


def minkowski_reduce(twoT) -> Mat:
    """Canonical GL_n(Z)-representative of a positive semidefinite form.

    Output shape: (C 0; 0 0) with C the canonical positive definite part.
    Idempotent and constant on GL_n(Z)-orbits.
    """
    M = check_form(twoT)
    n = len(M)
    if n > 5:
        raise ValueError("matrices larger than 5x5 are out of scope")
    if not is_psd(M):
        raise ValueError("form is not positive semidefinite")
    r = form_rank(M)
    if r == 0:
        return M
    if r == n:
        return _canonical_definite(M)
    K = kernel_basis([list(row) for row in M])
    Kmat = [[K[j][i] for j in range(len(K))] for i in range(n)]
    B = unimodular_extension(Kmat)
    big = transform(M, B)
    G = tuple(tuple(big[i][j] for j in range(n - r, n)) for i in range(n - r, n))
    return pad_zero(_canonical_definite(G), n)


# ------------------------------------------------- isometries, automorphisms

def _isometries(twoS, twoS2, want_all: bool):
    """Column-by-column backtracking over short vectors (isometry search).

    Returns matrices U (columns u_i) with u_i . (2S) . u_j = (2S2)_{ij}.
    """
    n = len(twoS)
    if len(twoS2) != n:
        return []
    if form_det(twoS) != form_det(twoS2):
        return []
    need = [twoS2[i][i] // 2 for i in range(n)]
    pool = short_vectors(twoS, max(need), both_signs=True)
    by_val: dict[int, list] = {}
    for vec, val in pool:
        by_val.setdefault(val, []).append(vec)
    if any(v not in by_val for v in need):
        return []
    M = [list(r) for r in twoS]
    found = []
    cols: list[tuple] = []
    products: list[list[int]] = []  # products[i] = twoS @ cols[i]

    def rec(j):
        if j == n:
            found.append(tuple(zip(*cols)))  # columns -> matrix rows transposed
            return not want_all
        for w in by_val[need[j]]:
            ok = True
            for i in range(j):
                if sum(products[i][t] * w[t] for t in range(n)) != twoS2[i][j]:
                    ok = False
                    break
            if not ok:
                continue
            cols.append(w)
            products.append([sum(M[a][t] * w[t] for t in range(n)) for a in range(n)])
            if rec(j + 1):
                return True
            cols.pop()
            products.pop()
        return False

    rec(0)
    return found


def is_equivalent(twoS, twoS2):
    """A unimodular witness U with U^t(2S)U = 2S2, or None."""
    A = check_form(twoS)
    B = check_form(twoS2)
    if not (is_positive_definite(A) and is_positive_definite(B)):
        raise ValueError("is_equivalent expects positive definite forms")
    got = _isometries(A, B, want_all=False)
    if not got:
        return None
    U = got[0]
    assert transform(A, U) == B
    return U


def automorphism_count(twoS) -> int:
    """Order of the integral automorphism group of a definite form."""
    A = check_form(twoS)
    if not is_positive_definite(A):
        raise ValueError("automorphism_count expects a positive definite form")
    return len(_isometries(A, A, want_all=True))


# ------------------------------------------------------------- enumeration

def _theta_fingerprint(twoS, depth: int = 3):
    counts: dict[int, int] = {}
    for _, val in short_vectors(twoS, depth):
        counts[val] = counts.get(val, 0) + 1
    return tuple(counts.get(v, 0) for v in range(1, depth + 1))


def enumerate_classes(r: int, level_divides: int, det_bound: int | None = None,
                      bound_multiplier: int = 1):
    """All GL_r(Z)-classes of positive definite even-diagonal forms with
    level dividing `level_divides`, as canonical doubled Gram matrices.

    Fricke halving: with N = `level_divides`, 2S -> N (2S)^{-1} is an
    involution on these classes sending det t to N^r/t, and det N^r would
    make the image even unimodular, which rank < 8 rules out.  So only
    determinants t <= N^{r/2} are searched, and the canonical duals of the
    classes found below N^{r/2} are added.

    The search exhausts Minkowski-reduced candidates: even diagonal
    d_1 <= ... <= d_r with product bounded by Minkowski's second theorem
    for the largest searched determinant, off-diagonal |g_ij| <= d_i/2,
    then filters by level and deduplicates by isometry.
    `bound_multiplier` widens the search cap (used by the completeness
    regression); `det_bound` optionally caps det(2S).
    """
    if r <= 0 or r % 2 or r > 4:
        raise ValueError("rank must be 2 or 4 at desk scale")
    if level_divides <= 0:
        raise ValueError("level must be positive")
    det_max = level_divides**r
    if det_bound is not None:
        det_max = min(det_max, det_bound)
    Lr = level_divides**r
    root = level_divides ** (r // 2)  # N^{r/2}
    # (-1)^(r/2) det(2S) is a discriminant, hence 0 or 1 mod 4
    sgn = -1 if (r // 2) % 2 else 1
    targets = [
        t for t in divisors(Lr)
        if t < Lr and t <= min(det_max, root) and (sgn * t) % 4 <= 1
    ]
    if not targets:
        return []
    tmax = max(targets)
    cap = int(_GAMMA_POW[r] * tmax * bound_multiplier)

    buckets: dict[tuple, list[Mat]] = {}

    def try_add(M: Mat):
        d = bareiss_det([list(row) for row in M])
        if d <= 0 or d > det_max or Lr % d:
            return
        lv = level(M)
        if level_divides % lv:
            return
        key = (d, lv, _theta_fingerprint(M))
        for rep in buckets.get(key, []):
            if _isometries(rep, M, want_all=False):
                return
        buckets.setdefault(key, []).append(M)

    # Search bordered matrices [[A, b], [b^t, d_r]]: the leading block A runs
    # over Minkowski-style candidates, and d_r = (t + b^t adj(A) b)/det(A)
    # is solved from each admissible determinant t instead of scanned.
    k = r - 1

    def scan_block(A):
        detA = bareiss_det([row[:] for row in A])
        if detA <= 0:
            return
        adjA = adjugate(A)
        dlast = A[k - 1][k - 1]
        half = [A[i][i] // 2 for i in range(k)]
        qhat = sum(
            abs(adjA[i][j]) * half[i] * half[j] for i in range(k) for j in range(k)
        )
        if detA * dlast > tmax + qhat:
            return
        boxes = [range(-h, h + 1) for h in half]
        for b in product(*boxes):
            qb = sum(b[i] * adjA[i][j] * b[j] for i in range(k) for j in range(k))
            for t in targets:
                dr, rem = divmod(t + qb, detA)
                if rem or dr < dlast or dr % 2:
                    continue
                rows = [list(row) + [bi] for row, bi in zip(A, b)]
                rows.append(list(b) + [dr])
                try_add(as_mat(rows))

    diag: list[int] = []

    def fill_block(d):
        g = [[0] * k for _ in range(k)]
        for i in range(k):
            g[i][i] = d[i]

        def rec_col(j):
            if j == k:
                scan_block(g)
                return
            ranges = [range(-(d[i] // 2), d[i] // 2 + 1) for i in range(j)]

            def rec_entry(i):
                if i == j:
                    sub = [row[: j + 1] for row in g[: j + 1]]
                    if bareiss_det(sub) > 0:
                        rec_col(j + 1)
                    return
                for v in ranges[i]:
                    g[i][j] = g[j][i] = v
                    rec_entry(i + 1)
                g[i][j] = g[j][i] = 0

            rec_entry(0)

        rec_col(1)

    def rec_diag(prod):
        i = len(diag)
        if i == k:
            fill_block(list(diag))
            return
        lo = diag[-1] if diag else 2
        dd = lo
        while prod * dd ** (r - i) <= cap:
            diag.append(dd)
            rec_diag(prod * dd)
            diag.pop()
            dd += 2

    rec_diag(1)
    reps = [minkowski_reduce(M) for group in buckets.values() for M in group]
    # the Fricke duals N (2S)^{-1} = N adj(2S) / det(2S), integral as level | N
    reps += [
        minkowski_reduce(
            as_mat([[level_divides * x // d for x in row] for row in adjugate(M)])
        )
        for (d, _, _), group in buckets.items()
        if d < root and Lr // d <= det_max
        for M in group
    ]
    reps = sorted(set(reps), key=lambda M: (form_det(M), M))
    return reps


def enumerate_psd_indices(n: int, trace_bound: int):
    """Canonical representatives of all T >= 0 in Lambda_n with tr(T) <= B.

    Covers every class: the canonical representative itself lies in the
    enumerated box (diagonal bounded by the trace, off-diagonal bounded by
    positive semidefiniteness of 2x2 minors).
    """
    if n > 5:
        raise ValueError("degree > 5 out of scope")
    found: set[Mat] = set()
    g = [[0] * n for _ in range(n)]

    def rec_col(j):
        if j == n:
            M = as_mat(g)
            if is_psd(M):
                found.add(minkowski_reduce(M))
            return

        def rec_entry(i):
            if i == j:
                rec_col(j + 1)
                return
            if g[i][i] == 0 or g[j][j] == 0:
                rec_entry(i + 1)
                return
            top = math.isqrt(g[i][i] * g[j][j])
            for v in range(-top, top + 1):
                g[i][j] = g[j][i] = v
                rec_entry(i + 1)
            g[i][j] = g[j][i] = 0

        rec_entry(0)

    def rec_diag(i, rem):
        if i == n:
            rec_col(1)
            return
        for d in range(0, rem + 1, 2):
            g[i][i] = d
            rec_diag(i + 1, rem - d)
        g[i][i] = 0

    rec_diag(0, 2 * trace_bound)
    return sorted(found, key=lambda M: (form_trace(M), M))


# ------------------------------------------------------------- text format

def parse_matrix_text(text: str) -> Mat:
    parts = [p.strip() for p in text.strip().split(";")]
    if len(parts) < 2:
        raise ValueError("expected `n; row; row; ...`")
    n = int(parts[0])
    entries = [int(tok) for chunk in parts[1:] for tok in chunk.split()]
    if len(entries) != n * n:
        raise ValueError(f"expected {n * n} entries, got {len(entries)}")
    M = tuple(tuple(entries[i * n + j] for j in range(n)) for i in range(n))
    return check_form(M)
