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
from itertools import product, takewhile
from operator import index, mul

from .exactnum import check_integers, divisors, fund_disc_decompose, kronecker, v_p
from .linalg import adjugate, bareiss_det, column_reduce

Mat = tuple[tuple[int, ...], ...]

__all__ = [
    "Mat",
    "as_mat",
    "check_form",
    "check_definite",
    "check_window",
    "form_rank",
    "form_det",
    "form_trace",
    "content",
    "pad_zero",
    "is_positive_definite",
    "transform",
    "level",
    "chi_S",
    "form_disc",
    "eta_S",
    "jordan_blocks",
    "short_vectors",
    "minkowski_reduce",
    "is_equivalent",
    "automorphisms",
    "automorphism_count",
    "enumerate_classes",
    "enumerate_psd_indices",
    "fits_canonical_shape",
]


def as_mat(rows) -> Mat:
    """rows as int tuples; an entry operator.index refuses (a float, a
    string) raises ValueError, never truncated by int()."""
    try:
        return tuple(tuple(map(index, row)) for row in rows)
    except TypeError:
        for i, row in enumerate(rows):
            for j, x in enumerate(row):
                if not hasattr(type(x), "__index__"):
                    raise ValueError(
                        f"entry ({i}, {j}) of twoT is {x!r}, not an integer") from None
        raise


def check_form(twoT) -> Mat:
    """as_mat, checked square, symmetric, with even diagonal."""
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


def check_definite(twoT, who: str) -> Mat:
    """check_form, then ValueError naming `who` unless 2T is positive definite."""
    M = check_form(twoT)
    if not is_positive_definite(M):
        raise ValueError(f"{who} needs a positive definite form")
    return M


def check_window(n: int, B: int) -> None:
    """ValueError unless the degree n and the trace bound B are integers,
    1 <= n <= 5 and B >= 0."""
    check_integers("degree and trace bound must be integers", n, B)
    if n <= 0:
        raise ValueError("degree must be positive")
    if n > 5:
        raise ValueError("matrices larger than 5x5 are out of scope")
    if B < 0:
        raise ValueError("trace bound must be >= 0")


def form_rank(twoT) -> int:
    return column_reduce(twoT)[1]


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
    """Every leading principal minor of 2T is positive."""
    return all(bareiss_det([row[:k] for row in twoT[:k]]) > 0
               for k in range(1, len(twoT) + 1))


def transform(twoT, U) -> Mat:
    """U^t (2T) U for an integer matrix U (columns are the new basis)."""
    n = len(twoT)
    m = len(U[0]) if U else 0
    TU = [[sum(twoT[i][k] * U[k][j] for k in range(n)) for j in range(m)] for i in range(n)]
    return as_mat(
        [[sum(U[k][i] * TU[k][j] for k in range(n)) for j in range(m)] for i in range(m)]
    )


def level(twoS) -> int:
    """Least l with l(2S)^{-1} integral and even-diagonal."""
    M = check_definite(twoS, "level")
    d, adj, n = form_det(M), adjugate(M), len(M)
    return math.lcm(*(2 * d // math.gcd(2 * d, adj[i][i]) if i == j
                      else d // math.gcd(d, adj[i][j]) for i in range(n) for j in range(n)))


def chi_S(twoS, d: int) -> int:
    """The quadratic character sign(d)^{r/2} * ((-1)^{r/2} det 2S / |d|)."""
    r = len(twoS)
    if r % 2:
        raise ValueError("chi_S needs even rank")
    if d == 0:
        raise ValueError("chi_S undefined at 0")
    D = (-1) ** (r // 2) * form_det(twoS)
    sgn = -1 if (d < 0 and (r // 2) % 2) else 1
    return sgn * kronecker(D, d if d > 0 else -d)


def form_disc(n: int, det2T: int) -> tuple[int, int]:
    """(D0, f) with (-1)^(n/2) det 2T = D0 f^2 and D0 fundamental, for a
    form of even rank n and det(2T) = det2T.  chi_D0 = kronecker(D0, .) is
    the character of the form (eta_S) and of the L-values in its
    Eisenstein coefficients."""
    if n % 2:
        raise ValueError("a form discriminant needs even rank")
    return fund_disc_decompose((-1) ** (n // 2) * det2T)


def eta_S(twoS) -> int:
    """The fundamental discriminant D0 of the primitive character underlying
    chi_S: kronecker(D0, d) = chi_S(d) for d prime to det 2S (conductor |D0|)."""
    return form_disc(len(twoS), form_det(twoS))[0]


def jordan_blocks(twoS, q: int) -> list[tuple[int, tuple[tuple[Fraction, ...], ...]]]:
    """q-adic Jordan decomposition of a nondegenerate Gram matrix.

    Returns (s, U) pairs, s nondecreasing, with twoS isometric over Z_q to
    the orthogonal sum of the q^s U.  U is a 1 x 1 unit, or for q = 2 a
    2 x 2 block with unit off-diagonal entry and diagonal in 2Z_2.  Each
    step takes an entry of least valuation s, a diagonal one on ties, and
    splits it off as a 1 x 1 block.  An off-diagonal minimum is folded
    onto the diagonal for odd q (e_i += e_j, both old diagonal entries
    lying above it); for q = 2 it spans a 2 x 2 block whose determinant
    has valuation 2s.  The other rows are eliminated by the block's
    inverse.  The working form is M / D with M integral and D prime to q:
    with a block P of size k and det P = q^{ks} w, the Schur complement
    M - M_* adj(P) M^* / det P is (M det P - M_* adj(P) M^*) / q^{ks}
    over D w, and the numerator is divisible by q^{ks} because every
    entry of M_* and M^* lies at or above q^s.
    """
    M = [list(row) for row in twoS]
    D = 1
    idx = list(range(len(M)))
    out = []
    while idx:
        s, off, i, j = min((v_p(M[a][b], q), a != b, a, b)
                           for a in idx for b in idx if a <= b)
        if s == math.inf:
            raise ValueError("jordan_blocks needs a nondegenerate form")
        if off and q != 2:
            for t in idx:
                M[i][t] += M[j][t]
            for t in idx:
                M[t][i] += M[t][j]
            off = False
        blk = [i, j] if off else [i]
        if off:
            det = M[i][i] * M[j][j] - M[i][j] ** 2
            adj = [[M[j][j], -M[i][j]], [-M[i][j], M[i][i]]]
        else:
            det, adj = M[i][i], [[1]]
        out.append((s, tuple(tuple(Fraction(M[a][b] // q**s, D) for b in blk) for a in blk)))
        cut = q ** (len(blk) * s)
        D *= det // cut
        idx = [t for t in idx if t not in blk]
        for a in idx:  # the upper triangle, mirrored
            f = [sum(M[a][b] * adj[k][m] for k, b in enumerate(blk)) for m in range(len(blk))]
            for t in idx:
                if t < a:
                    M[a][t] = M[t][a]
                else:
                    M[a][t] = (M[a][t] * det - sum(map(mul, f, (M[b][t] for b in blk)))) // cut
    return out


# ------------------------------------------------------------ short vectors

def short_vectors(twoS, bound):
    """All x != 0 with Q(x) <= bound for positive definite S.

    Returns a list of (vector, Q(x)) sorted by (value, vector), x and -x
    both listed.

    Integer Fincke-Pohst: the Bareiss sweep of 2S gives the leading
    principal minors d_i (d_0 = 1) and integer rows u_ij with
        2Q(x) = sum_i (d_i x_i + s_i)^2 / (d_{i-1} d_i),  s_i = sum_{j>i} u_ij x_j.
    Scaling by W = lcm_i(d_{i-1} d_i) makes every partial sum an integer,
    and Q(x) <= bound is Q(x) <= floor(bound), so each coordinate range
    |d_i x_i + s_i| <= isqrt(.) is exact.  The search finds the vectors
    whose last nonzero coordinate is positive, and their negatives are
    added.
    """
    M = check_form(twoS)
    n = len(M)
    bound = math.floor(bound)
    if bound < 0 or n == 0:
        return []
    A = [list(row) for row in M]
    d = [1]
    for i in range(n):
        piv = A[i][i]
        if piv <= 0:
            raise ValueError("form is not positive definite")
        for a in range(i + 1, n):
            for b in range(i + 1, n):
                A[a][b] = (A[a][b] * piv - A[a][i] * A[i][b]) // d[i]
        d.append(piv)
    W = math.lcm(*(d[i] * d[i + 1] for i in range(n)))
    w = [W // (d[i] * d[i + 1]) for i in range(n)]
    top = 2 * W * bound
    out = []
    x = [0] * n

    def rec(i, acc):
        s = sum(A[i][j] * x[j] for j in range(i + 1, n))
        r = math.isqrt((top - acc) // w[i])
        di, wi = d[i + 1], w[i]
        # acc == 0 iff x_j = 0 for all j > i: then x_i >= 0, and x_0 >= 1
        lo = -((r + s) // di) if acc else int(i == 0)
        for xi in range(lo, (r - s) // di + 1):
            t = di * xi + s
            x[i] = xi
            if i:
                rec(i - 1, acc + wi * t * t)
            else:
                out.append(((acc + wi * t * t) // (2 * W), tuple(x)))
        x[i] = 0

    rec(n - 1, 0)
    out += [(q, tuple(-c for c in v)) for q, v in out]
    out.sort()
    return [(v, q) for q, v in out]


def _by_value(pool) -> dict[int, list]:
    """{value: its vectors} of a short_vectors list, values ascending and
    each list in pool order."""
    by_val: dict[int, list] = {}
    for vec, val in pool:
        by_val.setdefault(val, []).append(vec)
    return by_val


# ---------------------------------------------------------- canonical form

def _quotient_map(P, v):
    """V P less row i, V unimodular with V v = +-e_i, for P: Z^r onto Z^k
    of kernel L and v = P w of gcd 1.  It maps Z^r onto Z^(k-1) with kernel
    L + Zw: V P x = c e_i iff x -+ c w is in L."""
    R = [[x, *p] for x, p in zip(v, P)]
    while True:
        R.sort(key=lambda row: (not row[0], abs(row[0])))
        if len(R) == 1 or not R[1][0]:
            return [row[1:] for row in R[1:]]
        for row in R[1:]:
            q = row[0] // R[0][0]
            row[:] = [x - q * y for x, y in zip(row, R[0])]


@lru_cache(maxsize=None)
def _canonical_definite(twoS: Mat) -> Mat:
    """Lexicographically smallest Minkowski-reduced doubled Gram matrix
    of a pair-reduced input (see _pair_reduce).

    r <= 1: the input.  r = 2, ((a, b), (b, c)) ordered so |2b| <= a <= c:
    for x_1 != 0, 2Q(x) >= a|x_0|(|x_0| - |x_1|) + c x_1^2 if |x_0| >= |x_1|,
    else >= a x_0^2 + c|x_1|(|x_1| - |x_0|); both are >= c.  So a and c are
    2 lambda_1 and 2 lambda_2 on every reduced Gram matrix of the class
    (Lagrange), det fixes |b|, and the least flat has b = -|b|.

    r >= 3: step j takes a least b_j of those extending b_0..b_{j-1} to a
    basis; G is the row-major least Gram matrix of such a greedy (hence
    Minkowski-reduced) basis.  A node's P maps Z^r onto Z^(r-j) with kernel
    L = span(b_0..b_{j-1}): Z^r/(L + Zw) is Z^(r-j)/Z Pw, so w extends iff
    gcd(P w) = 1.  Branches that cannot give G are skipped:
    - step 0 takes b_0 up to sign, as -b_0, ..., -b_{r-1} has one Gram
      matrix with b_0, ..., b_{r-1};
    - step j >= 1 skips b_j if the first nonzero of g_0j..g_{j-1,j} is
      positive: -b_j is a candidate with the same span, and it only
      negates row and column j, so its flats are smaller;
    - the Gram matrix is built a column at a time, and a branch whose
      row-0 prefix g_01..g_0j exceeds that of the best flat is dropped;
    - candidates go in increasing order of their column, and the last
      step takes only the first: its leaves differ only in the last
      column, which ends every row but the last.
    The pool, every vector of value <= 5M/4 with M the largest Q(e_i) of
    the input, holds every vector a branch reads: by van der Waerden (Acta
    Math. 96, 1956; see Nguyen & Stehle, ACM Trans. Algorithms 5(4), 2009)
    a Minkowski-reduced basis has Q(b_j) <= max(1, (5/4)^(j-3)) lambda_{j+1},
    at most (5/4) lambda_r for r <= 5, and lambda_r <= M as e_0..e_{r-1}
    are independent.  Pool exhaustion raises, never gives a wrong answer.
    """
    r = len(twoS)
    if r <= 1:
        return twoS
    if r == 2:
        (a, b), (_, c) = twoS
        if 2 * abs(b) > min(a, c):
            raise ValueError("binary form is not pair-reduced")
        return ((min(a, c), -abs(b)), (-abs(b), max(a, c)))
    by_val = _by_value(short_vectors(twoS, 5 * max(twoS[i][i] for i in range(r)) // 8))
    values = sorted(by_val)

    best: list[int] | None = None

    def rec(P, prods, cols):
        # prods[i] = 2S b_i and cols[i] = [g_0i, ..., g_ii] for the b_i chosen
        nonlocal best
        j = len(cols)
        if j == r:
            flat = [cols[max(a, b)][min(a, b)] for a in range(r) for b in range(r)]
            if best is None or flat < best:
                best = flat
            return
        for val in values:
            ext = [(w, v) for w in by_val[val]
                   for v in [[sum(map(mul, p, w)) for p in P]] if math.gcd(*v) == 1]
            if ext:
                break
        else:
            raise RuntimeError("canonical form pool exhausted; report as a bug")
        row0 = [c[0] for c in cols[1:]]
        cand = []
        for w, v in ext:
            if j == 0 and next(c for c in w if c) < 0:
                continue
            col = [sum(map(mul, p, w)) for p in prods] + [2 * val]
            if next((x for x in col[:j] if x), 0) > 0:
                continue
            if j and best is not None and row0 + col[:1] > best[1:j + 1]:
                continue
            cand.append((col, w, v))
        for col, w, v in sorted(cand):
            rec(_quotient_map(P, v), prods + [[sum(map(mul, row, w)) for row in twoS]],
                cols + [col])
            if j == r - 1:
                break

    rec([[int(i == t) for t in range(r)] for i in range(r)], [], [])
    assert best is not None
    return tuple(tuple(best[i * r + j] for j in range(r)) for i in range(r))


def minkowski_reduce(twoT) -> Mat:
    """Canonical GL_n(Z)-representative of a positive semidefinite form.

    Output shape: (C 0; 0 0) with C the canonical positive definite part.
    Idempotent and constant on GL_n(Z)-orbits.  At most two nonzero
    diagonal entries, none negative (fits_canonical_shape lets g_00 < 0
    pass at column 0), and every column passing fits_canonical_shape:
    then M is (C 0; 0 0) with C of rank <= 2 the form _canonical_definite
    reads off its shape, and M is returned as it is.  Otherwise, with U
    from column_reduce, U^t M U = 0 + G where G has full rank r, so M is
    semidefinite exactly when G is definite, which r leading minors decide.
    """
    M = check_form(twoT)
    n = len(M)
    if n > 5:
        raise ValueError("matrices larger than 5x5 are out of scope")
    d = [M[i][i] for i in range(n)]
    if min(d, default=0) >= 0 and not any(d[2:]) and all(
            fits_canonical_shape(M, j) for j in range(n)):
        return M
    U, r = column_reduce(M)
    G = M if r == n else transform(M, [row[n - r:] for row in U])
    if not is_positive_definite(G):
        raise ValueError("form is not positive semidefinite")
    return pad_zero(_canonical_definite(_pair_reduce(G)), n)


def _pair_reduce(twoS) -> Mat:
    """The same lattice after steps b_j -= round(g_ij/g_ii) b_i, taken
    until |2 g_ij| <= g_ii for all i != j.

    Each step lowers g_jj, so this ends.  _canonical_definite reads its
    rank-2 answer off the result, and at rank >= 3 a skewed basis (a
    conjugate U^t G U can have entries in the millions) would make its
    short-vector pool run for minutes.
    """
    G = [list(row) for row in twoS]
    r = len(G)
    pairs = [(i, j) for i in range(r) for j in range(r) if i != j]
    while True:
        for i, j in pairs:
            if abs(2 * G[i][j]) > G[i][i]:
                q = (2 * G[i][j] + G[i][i]) // (2 * G[i][i])
                for row in G:
                    row[j] -= q * row[i]
                G[j] = [x - q * y for x, y in zip(G[j], G[i])]
                break
        else:
            return as_mat(G)


def fits_canonical_shape(g, j) -> bool:
    """Whether column j (rows 0..j) of a doubled Gram matrix g can be
    column j of a canonical form (C 0; 0 0), given that columns 0..j-1 can.

    Rules met by the basis b_0, ..., b_{r-1} _canonical_definite picks:
    - the diagonal is positive and non-decreasing, then zero: what extends
      b_0..b_j extends b_0..b_{j-1}, so b_{j+1} was a candidate for b_j;
    - |g_ij| <= g_ii/2 for i < j: b_j -+ b_i were candidates for b_j, of
      value (g_jj -+ 2 g_ij + g_ii)/2, and b_j has the least;
    - the first nonzero of g_0j..g_{j-1,j} is negative, or -b_j would give
      a smaller flat (see _canonical_definite).
    A zero g_jj asks only for a zero column.
    """
    d = g[j][j]
    if d and j and not 0 < g[j - 1][j - 1] <= d:
        return False
    lead = 0  # the first nonzero of g_0j..g_{i-1,j}
    for i in range(j):
        x = g[i][j]
        if (d and 2 * abs(x) > g[i][i]) or (x and not (d and (lead or x < 0))):
            return False
        lead = lead or x
    return True


# ------------------------------------------------- isometries, automorphisms

def _isometries(twoS, twoS2, want_all: bool, pool=None):
    """Column-by-column backtracking over short vectors (isometry search).

    Returns matrices U (columns u_i) with u_i . (2S) . u_j = (2S2)_{ij}.
    The columns are drawn from pool, short_vectors(twoS, b) for some b at
    least every Q(e_i) of S2; by default b is the largest of them.  The
    zero lattice has the one isometry ().
    """
    n = len(twoS)
    if len(twoS2) != n:
        return []
    if form_det(twoS) != form_det(twoS2):
        return []
    need = [twoS2[i][i] // 2 for i in range(n)]
    if pool is None:
        pool = short_vectors(twoS, max(need, default=0))
    by_val = _by_value(pool)
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
    A, B = check_definite(twoS, "is_equivalent"), check_definite(twoS2, "is_equivalent")
    got = _isometries(A, B, want_all=False)
    if not got:
        return None
    U = got[0]
    assert transform(A, U) == B
    return U


def automorphisms(twoS, pool=None) -> list:
    """Every U in GL_r(Z) with U^t (2S) U = 2S, for a definite form 2S.

    U is a tuple of rows; x -> U x preserves the value of x.  A caller
    that holds short_vectors(twoS, b), b at least every Q(e_i), passes it
    as pool and spares the search its own.
    """
    A = check_definite(twoS, "automorphisms")
    return _isometries(A, A, want_all=True, pool=pool)


def automorphism_count(twoS) -> int:
    """Order of the integral automorphism group of a definite form."""
    return len(automorphisms(twoS))


# ------------------------------------------------------------- enumeration

_GAMMA_POW = {2: Fraction(4, 3), 4: Fraction(4)}  # gamma_r^r, r = 2, 4


def _shape_walk(k: int, fits):
    """Every k x k doubled Gram matrix g with positive leading minors whose
    columns pass fits_canonical_shape: column j has |g_ij| <= g_ii/2, and
    g_jj goes up from g_{j-1,j-1} (2 at j = 0) while fits([g_00, ...,
    g_{j-1,j-1}], g_jj).  Yields one list g, rewritten in place."""
    g = [[0] * k for _ in range(k)]

    def rec(j):
        if j == k:
            yield g
            return
        diag = [g[i][i] for i in range(j)]
        d = diag[-1] if j else 2
        while fits(diag, d):
            g[j][j] = d
            for col in product(*(range(-(h // 2), h // 2 + 1) for h in diag)):
                for i, x in enumerate(col):
                    g[i][j] = g[j][i] = x
                if fits_canonical_shape(g, j) and bareiss_det(
                        [row[:j + 1] for row in g[:j + 1]]) > 0:
                    yield from rec(j + 1)
            d += 2

    return rec(0)


def enumerate_classes(r: int, level_divides: int, det_bound: int | None = None):
    """All GL_r(Z)-classes of positive definite even-diagonal forms with
    level dividing `level_divides`, as canonical doubled Gram matrices.

    Fricke halving: with N = `level_divides`, 2S -> N (2S)^{-1} is an
    involution on these classes sending det t to N^r/t, and det N^r would
    make the image even unimodular, which rank < 8 rules out.  So only
    determinants t <= N^{r/2} are searched, and the canonical duals of the
    classes found below N^{r/2} are added.

    _shape_walk (shared with enumerate_psd_indices) gives the first r - 1
    columns: they pass fits_canonical_shape, their leading minors are
    positive, and their diagonal product can stay at most gamma_r^r t_max
    (Minkowski's second theorem for the largest searched determinant
    t_max).  This is complete: the canonical form of each class passes
    fits_canonical_shape on every column, and its diagonal holds twice the
    successive minima (a greedy basis attains them for r <= 4), whose
    product is at most gamma_r^r det(2S).  In the last column
    [[A, b], [b^t, d]], d = (t + b^t adj(A) b)/det(A) is solved from each
    admissible determinant t instead of scanned.  Candidates are then
    filtered by level and deduplicated by isometry.  `det_bound`
    optionally caps det(2S).
    """
    check_integers("rank, level and bounds must be integers", r, level_divides,
                   1 if det_bound is None else det_bound)
    if r <= 0 or r % 2 or r > 4:
        raise ValueError("rank must be 2 or 4 at desk scale")
    if level_divides <= 0:
        raise ValueError("level must be positive")
    if det_bound is not None and det_bound < 1:
        raise ValueError("det bound must be positive")
    Lr = level_divides**r
    det_max = Lr if det_bound is None else min(Lr, det_bound)
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
    cap = int(_GAMMA_POW[r] * tmax)

    buckets: dict[tuple[int, int], list[Mat]] = {}

    def try_add(M: Mat, t: int):
        lv = level(M)
        if level_divides % lv:
            return
        group = buckets.setdefault((t, lv), [])
        if not any(_isometries(rep, M, want_all=False) for rep in group):
            group.append(M)

    k = r - 1

    def last_column(A):
        # det [[A, b], [b^t, d]] = d det(A) - b^t adj(A) b, and
        # b^t adj(A) b <= qhat on the box |b_i| <= a_ii/2
        detA, adjA, dlast = bareiss_det(A), adjugate(A), A[-1][-1]
        half = [A[i][i] // 2 for i in range(k)]
        qhat = sum(abs(adjA[i][j]) * half[i] * half[j] for i in range(k) for j in range(k))
        if detA * dlast > tmax + qhat:
            return
        # product() is lexicographic, so the b whose first nonzero entry is
        # <= 0 (the sign rule of fits_canonical_shape) come first
        zero = (0,) * k
        for b in takewhile(lambda b: b <= zero, product(*(range(-h, h + 1) for h in half))):
            qb = sum(b[i] * adjA[i][j] * b[j] for i in range(k) for j in range(k))
            for t in targets:
                dr, rem = divmod(t + qb, detA)
                if rem or dr < dlast or dr % 2:
                    continue
                try_add(as_mat([*(row + [x] for row, x in zip(A, b)), [*b, dr]]), t)

    for A in _shape_walk(k, lambda diag, d: math.prod(diag) * d ** (r - len(diag)) <= cap):
        last_column(A)
    reps = [minkowski_reduce(M) for group in buckets.values() for M in group]
    # the Fricke duals N (2S)^{-1} = N adj(2S) / det(2S), integral as level | N
    reps += [
        minkowski_reduce(
            as_mat([[level_divides * x // d for x in row] for row in adjugate(M)])
        )
        for (d, _), group in buckets.items()
        if d < root and Lr // d <= det_max
        for M in group
    ]
    return sorted(set(reps), key=lambda M: (form_det(M), M))


def enumerate_psd_indices(n: int, trace_bound: int):
    """Canonical representatives of all T >= 0 in Lambda_n with tr(T) <= B.

    A canonical form is (C 0; 0 0) with C definite, so each C of rank
    r <= n that _shape_walk gives under the trace budget is padded, and
    minkowski_reduce keeps the canonical ones.
    """
    check_window(n, trace_bound)
    pads = (pad_zero(C, n) for r in range(n + 1)
            for C in _shape_walk(r, lambda diag, d: sum(diag) + d <= 2 * trace_bound))
    return sorted((M for M in pads if minkowski_reduce(M) == M), key=lambda M: (form_trace(M), M))
