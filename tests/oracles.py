"""Slow reference algorithms that the package replaced, kept as oracles.

Each one enumerates everything the package code prunes:
- canonical_full_branching: the canonical form over every greedy basis,
  with no sign or prefix cut, from the pool that Minkowski's second
  theorem bounds, gamma_r^r det(S) / mu_1^(r-1), each extension tested
  by the gcd of maximal minors (_extendable), not by a quotient map;
- theta_all_tuples: theta coefficients from every ordered tuple of short
  vectors, canonicalising each Gram matrix met;
- psd_indices_box: PSD indices from the whole box that the 2x2 minors
  allow, reduced one by one;
- same_genus_by_search: the genus test by a search for a congruential
  isometry mod q^e at every q | 2 det, column by column;
- is_psd: the semidefinite test by all 2^n - 1 principal minors;
- beta_2_n1_fractions, q2_pair_bins_by_valuations, density2_odd_fractions:
  the local-density counting kernels with a v_p call per valuation and a
  Fraction per term, where localdensity counts in integers;
- quadric_count, count1_odd, pair_density_on, beta_odd_on: densities on a
  unimodular lattice of any rank r and disc class delta, the unit Jordan
  entries of a rank-4 index peeled one by one, where localdensity evaluates
  weight-free bins at X = q^k, or X = chi q^(k-1) after the closed peel;
- beta_q_per_weight: beta_q(T, k) with every level counted again for each
  weight and twoT decomposed again at each level, a level accepted once its
  value at that weight repeats, where localdensity accepts a level once its
  bins repeat as a polynomial and counts each (q, T) once for every weight;
- symbolic_global_factor: alpha_inf times the generic Euler factors as a
  symbolic product of pi, square roots and Gamma values that cancel to a
  rational, where localdensity reads zeta and L at negative integers;
- minkowski_reduce_by_search: the canonical form through column_reduce
  and the greedy-basis search at every input, where minkowski_reduce
  reads a canonical rank <= 2 form off its shape;
- fits_canonical_shape_by_rules: the shape test as one expression per
  rule, where lattice tests the rules in one loop;
- character_signs_every_residue: the residues a < |D|/2 split by
  kronecker(D, a) at every a, where exactnum calls it at primes only;
- cohen_sum_by_divisors (with moebius): Cohen's rank-2 integer as two
  nested divisor sums, where exactnum.cohen_product takes one product
  over the primes of f;
- transform_by_adjugate: T[D^{-1}] as adj(D)^t (2T) adj(D) / det(D)^2
  from 16 cofactor determinants at rank 4, where localdensity solves two
  triangular systems and refuses D at its first non-integral entry.

The window checks that only the acceptance criteria and their unit tests
call live here too: coeff (a_F(T) read at the canonical form of T, 0
inside the window, ValueError beyond it), rank_filter (the rank-r part of
an expansion), primitive_coeffs (the rank-r primitive coefficients by
localdensity's sublattice inversion), congruent_mod (a_F = a_G mod p^m on
a window), phi_restrict (Siegel's Phi as an index restriction) and
verify_rank_decomposition (the rank-r part of an expansion against its
theta series weighted by primitive coefficients).  So do the two form
checks that only tests ask: chi_S (the quadratic character of an
even-rank form at every d != 0) and is_equivalent (a unimodular witness
of two definite forms being isometric, from lattice's isometry search).
So does genus_weight_misses, which holds a fitted report against the genus
weights that every measured run shows (ROADMAP item 6) and no code in the
package reads, and serre_series, the degree-1 limit those weights give.  both_signs reads a short-vector pool, which lists one x of
each pair +-x grouped by value, as the flat list of both signs sorted by
(value, vector) that the oracles and the tests of the walk compare.
"""

import math
from fractions import Fraction
from functools import cache
from itertools import combinations, product
from operator import mul

from eistheta.exactnum import (
    bernoulli,
    dirichlet_L_neg,
    divisors,
    factorize,
    fund_disc_decompose,
    gen_bernoulli,
    is_prime,
    kronecker,
    residue,
    sigma,
    v_p,
)
from eistheta.fourier import QExpansion, _key_rank, qexp_add, qexp_scale
from eistheta.lattice import (
    _canonical_definite,
    _isometries,
    jordan_blocks,
    _pair_reduce,
    as_mat,
    automorphism_count,
    check_definite,
    check_form,
    content,
    enumerate_psd_indices,
    form_trace,
    is_positive_definite,
    minkowski_reduce,
    pad_zero,
    short_vectors,
    transform,
)
from eistheta.linalg import adjugate, bareiss_det, column_reduce, echelon_mod
from eistheta.localdensity import (
    _STABLE_MARGIN,
    _bins,
    _density,
    _generic_factor,
    _pair_bins_odd,
    _ramanujan,
    primitive_inversion,
)
from eistheta.records import record
from eistheta.theta import theta_series


# gamma_r^r, Hermite's constant to the power r
GAMMA_POW = {1: Fraction(1), 2: Fraction(4, 3), 3: Fraction(2), 4: Fraction(4), 5: Fraction(8)}


def both_signs(pool):
    """[(x, Q(x))] for x and -x of every listed x of a short_vectors pool,
    sorted by (value, vector)."""
    return [(v, q) for q, v in sorted((q, s) for q, xs in pool.items()
                                      for x in xs for s in (x, tuple(-c for c in x)))]


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
    mu1 = min(v for _, v in both_signs(
        short_vectors(twoS, min(twoS[i][i] for i in range(r)) // 2)))
    margin = 1 if r <= 4 else 4
    pool_bound = max(Fraction(mu1), GAMMA_POW[r] * det_S * margin / mu1 ** (r - 1))
    by_val = {}
    for vec, val in both_signs(short_vectors(twoS, pool_bound)):
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
    cols = [((0,) * r, 0)] + both_signs(short_vectors(twoS, B))
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


def is_psd(twoT):
    """Whether every principal minor of twoT is >= 0."""
    n = len(twoT)
    for k in range(1, n + 1):
        for rows in combinations(range(n), k):
            if bareiss_det([[twoT[a][b] for b in rows] for a in rows]) < 0:
                return False
    return True


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


class SearchBudgetExceeded(Exception):
    """The isometry search took more steps than its budget allows."""


@cache
def _affine_solutions_cached(aug, n, q):
    """affine_solutions_mod_q of the augmented system aug, reduced mod q."""
    return affine_solutions_mod_q([r[:-1] for r in aug], [r[-1] for r in aug], n, q)


def affine_solutions_mod_q(rows, rhs, n, q):
    """All solutions of rows . x = rhs over Z/q (q prime), or None."""
    aug, pivots = echelon_mod([list(r) + [b] for r, b in zip(rows, rhs)], q)
    if n in pivots:
        return None
    part = [0] * n
    for i, c in enumerate(pivots):
        part[c] = aug[i][n]
    null = []
    for c in range(n):
        if c in pivots:
            continue
        v = [0] * n
        v[c] = 1
        for i, pc in enumerate(pivots):
            v[pc] = (-aug[i][c]) % q
        null.append(v)
    return part, null


def _column_candidates(A, B, cols, j, q, e, steps):
    """Yield columns x mod q^e satisfying the isometry constraints.

    Constraints: x^t A x = B[j][j] and u_i^t A x = B[i][j] for the
    previously fixed columns u_i, all mod q^e, plus independence mod q.
    Lifting from mod q^t to mod q^{t+1} is a linear problem in the new
    digit (for q = 2 the quadratic constraint is digit-independent and
    acts as a pure prune, the reason for the +3 precision cushion).
    """
    n = len(A)
    W = [tuple(sum(A[a][b] * u[b] for b in range(n)) for a in range(n)) for u in cols]
    lin_targets = [B[i][j] for i in range(len(cols))]
    qq = B[j][j]

    def quad(x):
        return sum(map(mul, x, (sum(map(mul, row, x)) for row in A)))

    basis = echelon_mod(cols, q)[0]  # the placed columns are independent mod q

    def rec(x, t):
        if t == e:
            yield x
            return
        qt = q**t
        qdef = qq - quad(x)
        if q == 2 and qdef % (qt * 2):
            return
        rows = [list(w) for w in W]
        rhs = [(tgt - sum(map(mul, w, x))) // qt for w, tgt in zip(W, lin_targets)]
        if q != 2:
            rows.append([2 * sum(map(mul, row, x)) for row in A])
            rhs.append(qdef // qt)
        aug = tuple(tuple(v % q for v in r + [b]) for r, b in zip(rows, rhs))
        sol = _affine_solutions_cached(aug, n, q)
        if sol is None:
            return
        part, null = sol
        for coeffs in product(range(q), repeat=len(null)):
            steps(1)
            d = list(part)
            for c, v in zip(coeffs, null):
                if c:
                    d = [(a + c * b) % q for a, b in zip(d, v)]
            yield from rec(tuple(xi + qt * di for xi, di in zip(x, d)), t + 1)

    for head in product(range(q), repeat=n - 1):
        steps(q)  # the q candidates head + (z,), filtered below by the
        # values at z of the linear constraints and of Q(x) - B[j][j]
        hz = head + (0,)
        lin = [(sum(map(mul, w, hz)) - t, w[-1]) for w, t in zip(W, lin_targets)]
        c0, c1, c2 = quad(hz) - qq, 2 * sum(map(mul, A[-1], hz)), A[-1][-1]
        for z in range(q):
            if (c0 + z * (c1 + z * c2)) % q or any((c + z * w) % q for c, w in lin):
                continue
            x0 = head + (z,)
            if len(echelon_mod(basis + [x0], q)[1]) == len(basis):
                continue  # dependent on the placed columns mod q
            yield from rec(x0, 1)


def same_genus_by_search(A, B, budget):
    """Whether forms of equal det share a genus, by searching for U with
    U^t A U = B (mod q^e), U invertible mod q, e = v_q(2 det) + 3, at every
    q | 2 det.  A found witness is genuine mod q^e and an exhausted search
    certifies inequivalence.  The search at each q stops after `budget`
    candidate steps; raises SearchBudgetExceeded if no q was found to
    differ and some q was left undecided.
    """
    n = len(A)

    def local(q):
        count = 0

        def steps(k):
            nonlocal count
            count += k
            if count > budget:
                raise SearchBudgetExceeded

        def place(cols, e):
            if len(cols) == n:
                return True
            return any(place(cols + [x], e)
                       for x in _column_candidates(A, B, cols, len(cols), q, e, steps))

        try:
            return place([], v_p(2 * d, q) + 3)
        except SearchBudgetExceeded:
            return None

    d = bareiss_det([list(r) for r in A])
    assert d == bareiss_det([list(r) for r in B])
    undecided = False
    for q in sorted(factorize(2 * d), key=lambda q: (q == 2, q)):  # 2, the dearest, last
        found = local(q)
        if found is False:
            return False
        undecided |= found is None
    if undecided:
        raise SearchBudgetExceeded
    return True


def beta_2_n1_fractions(k, t, e):
    """2-adic density of the rank-1 index (2t) on k hyperbolic planes, level e."""
    out = Fraction(1)
    vt = min(v_p(t, 2), e)
    for s in range(1, e + 1):
        if vt >= s:
            c = 1 << (s - 1)
        elif vt == s - 1:
            c = -(1 << (s - 1))
        else:
            c = 0
        out += Fraction(c, 1 << (k * s))
    return out


def q2_pair_bins_by_valuations(twoT, e):
    """The 2-adic pair character sums per Smith bin, four v_p calls per lift."""
    E = 1 << e
    t = [(twoT[0][0] // 2) % E, (twoT[1][1] // 2) % E, twoT[0][1] % E]
    s = min(range(3), key=lambda i: v_p(t[i], 2))
    i, j = (x for x in range(3) if x != s)
    a = min(v_p(t[s], 2), e)
    step = E >> a
    inv = pow(t[s] >> a, -1, step)
    orbits = [(0, 0, 1)]
    for m in range(e):
        weight = 1 << (e - 1 - m)
        orbits += [(1 << m, w, weight) for w in range(0, E, 1 << m)]
        orbits += [(w, 1 << m, weight) for w in range(0, E, 2 << m)]
    G = {}
    y = [0, 0, 0]
    for yi, yj, weight in orbits:
        y[i], y[j] = yi, yj
        for r, sign in ((0, weight), (E >> 1, -weight)):
            rhs = (r - t[i] * yi - t[j] * yj) % E
            if rhs % (1 << a):
                continue
            for ys in range((rhs >> a) * inv % step, E, step):
                y[s] = ys
                c1 = min(v_p(y[0], 2), v_p(y[1], 2), v_p(y[2], 2), e)
                c = min(v_p(y[0] * y[1] - y[2] * y[2], 2), c1 + e)
                G[c] = G.get(c, 0) + sign
    return G


def density2_odd_fractions(q, e, r, delta, da, db):
    """Odd-q density of diag(da, db) by the valuation strata, in Fractions."""
    if r % 2:
        raise NotImplementedError("pair densities on odd-rank lattices")
    qe = q**e
    inv2 = pow(2, -1, qe)
    ta, tb = (da * inv2) % qe, (db * inv2) % qe
    va, vb = min(v_p(ta, q), e), min(v_p(tb, q), e)

    def gauss_pair(N1, N2):
        if va != N1 - 1 or vb != N2 - 1:
            return 0
        c = kronecker((ta // q**va) % q, q) * kronecker((tb // q**vb) % q, q)
        return c * kronecker(-1, q) * q ** (N1 + N2 - 1)

    bins = {}

    def add(c1, vd, w):
        if w == 0:
            return
        c2 = e if vd is None else min(e, vd - c1)
        key = (c1, c2)
        bins[key] = bins.get(key, Fraction(0)) + w

    for s1 in range(e + 1):
        R1 = _ramanujan(q, e - s1, va) if s1 < e else 1
        for s2 in range(e + 1):
            R2 = _ramanujan(q, e - s2, vb) if s2 < e else 1
            p12 = s1 + s2 if (s1 < e and s2 < e) else None
            for s3 in range(e + 1):
                n3 = q ** (e - s3 - 1) * (q - 1) if s3 < e else 1
                d33 = 2 * s3 if s3 < e else None
                c1 = min(s1, s2, s3)
                coupled = p12 is not None and d33 is not None and p12 == d33
                if not coupled:
                    if R1 == 0 or R2 == 0:
                        continue
                    if p12 is None:
                        vd = d33
                    elif d33 is None:
                        vd = p12
                    else:
                        vd = min(p12, d33)
                    add(c1, vd, Fraction(R1 * R2 * n3))
                    continue
                N3 = e - s3
                rr = Fraction(R1 * R2)
                gg = Fraction(gauss_pair(e - s1, e - s2))
                wm = (rr - gg) / 2
                wp = (rr + gg) / 2
                if wm:
                    add(c1, 2 * s3, wm * (q ** (N3 - 1) * (q - 1)))
                if wp:
                    add(c1, 2 * s3, wp * (q ** (N3 - 1) * (q - 3)))
                    for d in range(1, N3):
                        add(c1, 2 * s3 + d, wp * (2 * (q ** (N3 - d) - q ** (N3 - d - 1))))
                    add(c1, 2 * s3 + N3, wp * 2)

    return pair_density_on(q, e, r, delta, bins)


def pair_density_on(q, e, r, delta, bins):
    """The pair density from bins keyed by (c1, c2) on a rank-r unimodular
    lattice of disc class delta, r even: each w_j = e - c_j weighed by the
    lattice's Gauss sums, q^(r (c_j + floor(w_j/2))) times chi(-1)^(r/2)
    delta q^(r/2) at odd w_j."""
    total = Fraction(0)
    sign = kronecker(-1, q) ** (r // 2) * delta
    for (c1, c2), w in bins.items():
        xfac = Fraction(1)
        for cj in (c1, c2):
            wj = e - cj
            xfac *= Fraction(q) ** (r * (cj + wj // 2))
            if wj % 2:
                xfac *= sign * q ** (r // 2)
        total += w * xfac
    return total / Fraction(q) ** (3 * e + e * (2 * r - 3))


def quadric_count(q, r, delta, a):
    """#{x in F_q^r : phi(x) = a}, phi unimodular of rank r, disc class delta."""
    a %= q
    if r % 2 == 0:
        s = r // 2
        eps = kronecker(-1, q) ** s * delta
        if a:
            return q ** (r - 1) - eps * q ** (s - 1)
        return q ** (r - 1) + eps * (q**s - q ** (s - 1))
    s = (r - 1) // 2
    if a:
        return q ** (r - 1) + q**s * kronecker((-1) ** s * a, q) * delta
    return q ** (r - 1)


def count1_odd(q, e, r, delta, a):
    """#{x in (Z/q^e)^r : phi(x) = a mod q^e} for unimodular phi, odd q."""
    if e == 0:
        return 1
    a %= q**e
    j = min(v_p(a, q), e)
    if j == 0:
        return q ** ((e - 1) * (r - 1)) * quadric_count(q, r, delta, a)
    if e == 1:
        return quadric_count(q, r, delta, 0)
    prim = (quadric_count(q, r, delta, 0) - 1) * q ** ((e - 1) * (r - 1))
    if j < 2:
        return prim
    return prim + q**r * count1_odd(q, e - 2, r, delta, a // (q * q))


def density1_odd(q, e, r, delta, a):
    return Fraction(count1_odd(q, e, r, delta, a), q ** (e * (r - 1)))


def beta_odd_on(q, e, r0, delta0, twoT):
    """Odd-q density of twoT on a rank-r0 unimodular lattice of disc class
    delta0 at level e: one column by count1_odd; at rank 4 the unit Jordan
    entries peeled one by one, each changing the lattice's rank and disc
    class, before the pair."""
    qe = q**e
    diag = [q**s * residue(u, q, e) % qe for s, ((u,),) in jordan_blocks(twoT, q)]
    inv2e, inv2q = pow(2, -1, qe), pow(2, -1, q)
    if len(diag) == 1:
        return density1_odd(q, e, r0, delta0, diag[0] * inv2e % qe)
    r, delta, dens = r0, delta0, Fraction(1)
    for d0 in diag[:-2]:
        dens *= density1_odd(q, e, r, delta, d0 * inv2e % qe)
        delta *= kronecker(d0 * inv2q % q, q)
        r -= 1
    return dens * density2_odd_fractions(q, e, r, delta, diag[-2], diag[-1])


def beta_q_per_weight(q, k, twoT, det2T):
    """beta_q(T, k) at q | 2 det(2T) for one weight: the bins of each level
    (at odd q, of the last two Jordan entries of twoT decomposed at that
    level) evaluated at X = q^k, or after the rank-4 unit peel at X = chi
    q^(k-1), until two consecutive values agree."""
    n = len(twoT)
    v = v_p(2 * det2T, q)
    X, peel = q**k, 1
    if n == 4:
        (_, ((u0,),)), (s1, ((u1,),)) = jordan_blocks(twoT, q)[:2]
        if s1:
            raise NotImplementedError(f"more than two non-unit Jordan scales at q={q}")
        D = residue(-u0 * u1, q, 1)
        X, peel = kronecker(D, q) * q ** (k - 1), _generic_factor(2, q, k, D)
    last = v + _STABLE_MARGIN + 1
    prev = None
    for e in range(max(2, v + 2), last + 1):
        if n == 1 or q == 2:
            G = _bins(q, e, twoT)
        else:
            da, db = (q**s * residue(u, q, e) for s, ((u,),) in jordan_blocks(twoT, q)[-2:])
            G = _pair_bins_odd(q, e, da, db)
        cur = _density(G, min(n, 2), e, X)
        if cur == prev:
            return peel * cur
        prev = cur
    raise RuntimeError(f"local density at q={q} did not stabilize up to level {last}")


def _split_square(x: int) -> tuple[int, int]:
    """x = s^2 * r with r squarefree; returns (s, r)."""
    f = factorize(x).items()
    return math.prod(q ** (e // 2) for q, e in f), math.prod(q for q, e in f if e % 2)


class _Sym:
    __slots__ = ("frac", "half_pi", "rad")

    def __init__(self) -> None:
        self.frac = Fraction(1)
        self.half_pi = 0
        self.rad = 1

    def mul_frac(self, x) -> None:
        self.frac *= x

    def mul_pi_half(self, h: int) -> None:
        self.half_pi += h

    def mul_sqrt(self, base: int, h: int) -> None:
        """Multiply by base^(h/2), base a positive integer, h any integer."""
        if base <= 0:
            raise ValueError("radicand must be positive")
        if h % 2 == 0:
            self.frac *= Fraction(base) ** (h // 2)
            return
        self.frac *= Fraction(base) ** ((h - 1) // 2)
        s, r = _split_square(self.rad * base)
        self.frac *= s
        self.rad = r

    def mul_gamma_half(self, twice_arg: int) -> None:
        """Multiply by Gamma(twice_arg / 2)."""
        if twice_arg % 2 == 0:
            n = twice_arg // 2
            if n <= 0:
                raise ValueError("Gamma pole")
            self.frac *= math.factorial(n - 1)
            return
        j = (1 - twice_arg) // 2
        if j >= 0:
            # Gamma(1/2 - j) = (-4)^j j! / (2j)! sqrt(pi)
            self.frac *= Fraction((-4) ** j * math.factorial(j), math.factorial(2 * j))
        else:
            # Gamma(1/2 + i) = (2i)! / (4^i i!) sqrt(pi)
            i = -j
            self.frac *= Fraction(math.factorial(2 * i), 4**i * math.factorial(i))
        self.half_pi += 1

    def div_gamma_half(self, twice_arg: int) -> None:
        t = _Sym()
        t.mul_gamma_half(twice_arg)
        self.frac /= t.frac
        self.half_pi -= t.half_pi

    def mul_zeta_even(self, s: int) -> None:
        # zeta(2j) = (-1)^(j+1) B_{2j} (2 pi)^{2j} / (2 (2j)!)
        if s <= 0 or s % 2:
            raise ValueError("need a positive even zeta argument")
        j = s // 2
        self.frac *= (
            Fraction((-1) ** (j + 1))
            * bernoulli(2 * j)
            * Fraction(2 ** (2 * j), 2 * math.factorial(2 * j))
        )
        self.half_pi += 2 * s

    def div_zeta_even(self, s: int) -> None:
        t = _Sym()
        t.mul_zeta_even(s)
        self.frac /= t.frac
        self.half_pi -= t.half_pi

    def mul_L_value(self, s: int, D0: int) -> None:
        """Multiply by L(s, chi_{D0}) for fundamental D0 with chi(-1) = (-1)^s."""
        if D0 == 1:
            self.mul_zeta_even(s)
            return
        delta = 0 if D0 > 0 else 1
        if (s - delta) % 2:
            raise ValueError("L-value parity mismatch")
        f = abs(D0)
        # completed functional equation for real primitive chi:
        # L(s) = L(1-s) (f/pi)^((1-2s)/2) Gamma((1-s+delta)/2)/Gamma((s+delta)/2)
        self.mul_frac(dirichlet_L_neg(s, D0))
        self.mul_sqrt(f, 1 - 2 * s)
        self.mul_pi_half(2 * s - 1)
        self.mul_gamma_half(1 - s + delta)
        self.div_gamma_half(s + delta)

    def as_fraction(self) -> Fraction:
        if self.half_pi != 0 or self.rad != 1:
            raise AssertionError(
                f"non-rational assembly: pi^({self.half_pi}/2), sqrt({self.rad})"
            )
        return self.frac


def _closure(n: int, k: int, det2T: int) -> _Sym:
    sym = _Sym()
    sym.div_zeta_even(k)
    if n >= 3:
        sym.div_zeta_even(2 * k - 2)
    if n in (2, 4):
        D0 = fund_disc_decompose(-det2T if n % 4 == 2 else det2T)[0]
        s = k - n // 2
        sym.mul_L_value(s, D0)
        sym.div_zeta_even(2 * s)
        for q in factorize(abs(D0)):
            sym.frac /= 1 - Fraction(1, q ** (2 * s))
    return sym


def _alpha_inf(n: int, k: int, det2T: int, sym: _Sym) -> None:
    m = 2 * k
    # i^{-nk} from the confluent integral; real since k is even
    if (n * k // 2) % 2:
        sym.mul_frac(-1)
    # 2^{mn/2} from the split Gram determinant, over the Jacobian
    # 2^{n(n-1)/2} between matrix and half-integral target coordinates
    sym.mul_frac(Fraction(2) ** (m * n // 2 - n * (n - 1) // 2))
    h = m - n - 1
    sym.mul_sqrt(det2T, h)
    sym.mul_sqrt(2, -n * h)
    for j in range(n):
        sym.mul_pi_half(m - j)
        sym.div_gamma_half(m - j)


def symbolic_global_factor(n, k, det2T):
    """alpha_inf(T, k) times the generic Euler factor at every prime, carried
    as Fraction * pi^(h/2) * sqrt(rad) through Gamma at half-integers and
    zeta at even integers from B_2j (2 pi)^2j, then read as a rational."""
    sym = _closure(n, k, det2T)
    _alpha_inf(n, k, det2T, sym)
    return sym.as_fraction()


def minkowski_reduce_by_search(twoT):
    """minkowski_reduce without its shape reading: with U from
    column_reduce, U^t M U = 0 + G, G of full rank, is semidefinite
    exactly when G is definite, and G goes to the greedy-basis search."""
    M = check_form(twoT)
    n = len(M)
    if n > 5:
        raise ValueError("matrices larger than 5x5 are out of scope")
    U, r = column_reduce(M)
    G = M if r == n else transform(M, [row[n - r:] for row in U])
    if not is_positive_definite(G):
        raise ValueError("form is not positive semidefinite")
    return pad_zero(_canonical_definite(_pair_reduce(G)), n)


def fits_canonical_shape_by_rules(g, j):
    """The three rules of lattice.fits_canonical_shape, one expression each."""
    d, col = g[j][j], [g[i][j] for i in range(j)]
    if d == 0:
        return not any(col)
    return ((j == 0 or 0 < g[j - 1][j - 1] <= d)
            and all(2 * abs(x) <= g[i][i] for i, x in enumerate(col))
            and next((x for x in col if x), 0) <= 0)


def character_signs_every_residue(D):
    """(pos, neg): the a - 1 over 1 <= a < |D|/2 with kronecker(D, a) = 1,
    and with -1, one kronecker call per a."""
    pos, neg = [], []
    for a in range(1, (abs(D) + 1) // 2):
        c = kronecker(D, a)
        if c:
            (pos if c > 0 else neg).append(a - 1)
    return pos, neg


def moebius(n: int) -> int:
    if n <= 0:
        raise ValueError("moebius needs n >= 1")
    m = 1
    for _, e in factorize(n).items():
        if e > 1:
            return 0
        m = -m
    return m


@cache
def cohen_H_factor(r: int, D0: int, f: int) -> int:
    """H(r, N) / L(1 - r, chi_D0) for (-1)^r N = D0 f^2, D0 fundamental:
    sum_{g | f} mu(g) chi_D0(g) g^(r-1) sigma_{2r-1}(f / g)."""
    tot = 0
    for g in divisors(f):
        mu = moebius(g)
        if mu:
            tot += mu * kronecker(D0, g) * g ** (r - 1) * sigma(2 * r - 1, f // g)
    return tot


def cohen_sum_by_divisors(r: int, D0: int, c: int, f: int) -> int:
    """sum_{d | c} d^r cohen_H_factor(r, D0, f / d)."""
    return sum(d**r * cohen_H_factor(r, D0, f // d) for d in divisors(c))


def transform_by_adjugate(twoT, D):
    """(D^{-1})^t (2T) D^{-1} when it lands in even integral matrices, else
    None: D^{-1} = adj(D) / det(D), so the transform by adj(D) must be
    divisible by det(D)^2."""
    dd = math.prod(D[i][i] for i in range(len(D))) ** 2
    X = transform(twoT, adjugate(D))
    if any(x % dd for row in X for x in row):
        return None
    out = tuple(tuple(x // dd for x in row) for row in X)
    if any(out[i][i] % 2 for i in range(len(out))):
        return None
    return out


def chi_S(twoS, d: int) -> int:
    """The quadratic character sign(d)^{r/2} * ((-1)^{r/2} det 2S / |d|)."""
    r = len(twoS)
    if r % 2:
        raise ValueError("chi_S needs even rank")
    if d == 0:
        raise ValueError("chi_S undefined at 0")
    D = (-1) ** (r // 2) * bareiss_det(twoS)
    sgn = -1 if (d < 0 and (r // 2) % 2) else 1
    return sgn * kronecker(D, d if d > 0 else -d)


def is_equivalent(twoS, twoS2):
    """A unimodular witness U with U^t(2S)U = 2S2, or None."""
    A, B = check_definite(twoS, "is_equivalent"), check_definite(twoS2, "is_equivalent")
    got = _isometries(A, B, want_all=False)
    if not got:
        return None
    U = got[0]
    assert transform(A, U) == B
    return U


# ------------------------------------------------------------------ window checks


def coeff(F: QExpansion, T) -> Fraction:
    """a_F(T), read at the canonical representative of T."""
    T = as_mat(T)
    if len(T) != F.degree:
        raise ValueError("index degree mismatch")
    R = minkowski_reduce(T)  # ValueError unless T is positive semidefinite
    if form_trace(T) > F.trace_bound:
        raise ValueError(
            f"index trace {form_trace(T)} beyond stored bound {F.trace_bound}"
        )
    return F.coeffs.get(R, Fraction(0))


def rank_filter(F: QExpansion, r: int) -> QExpansion:
    """The sub-expansion supported on indices of rank exactly r."""
    if r < 0 or r > F.degree:
        raise ValueError("rank out of range")
    kept = {T: a for T, a in F.coeffs.items() if _key_rank(T) == r}
    return QExpansion(F.degree, F.trace_bound, kept)


def primitive_coeffs(F: QExpansion, r: int, bound: int) -> dict:
    """Rank-r primitive coefficients a*(T) for definite T with tr <= bound,
    inverting a(T + 0) = sum over sublattice shapes D of a*(T[D^{-1}])."""
    if r <= 0 or r > F.degree:
        raise ValueError("rank out of range")
    if bound > F.trace_bound:
        raise ValueError("bound exceeds stored trace bound")
    star = primitive_inversion(lambda R: (coeff(F, pad_zero(R, F.degree)),))
    return {T: star(T)[0] for T in enumerate_psd_indices(r, bound) if _key_rank(T) == r}


@record
class CongruenceResult:
    ok: bool
    witness: tuple | None = None

    def __bool__(self):
        return self.ok


def congruent_mod(F: QExpansion, G: QExpansion, p: int, m: int) -> CongruenceResult:
    """Window-relative test of a_F(T) = a_G(T) mod p^m for all stored T.

    Compares over the smaller of the two trace bounds; the first failing
    index (in (trace, lex) order) is returned as a witness.
    """
    if not is_prime(p):
        raise ValueError("p must be a prime")
    if F.degree != G.degree:
        raise ValueError("degree mismatch")
    if m <= 0:
        raise ValueError("m must be positive")
    bound = min(F.trace_bound, G.trace_bound)
    keys = {T for T in F.coeffs if form_trace(T) <= bound}
    keys |= {T for T in G.coeffs if form_trace(T) <= bound}
    for H in (F, G):
        for T in keys:
            a = H.coeffs.get(T)
            if a is not None and v_p(a, p) < 0:
                raise ValueError(f"coefficient at {T} is not {p}-integral")
    for T in sorted(keys, key=lambda T: (form_trace(T), T)):
        d = F.coeffs.get(T, Fraction(0)) - G.coeffs.get(T, Fraction(0))
        if v_p(d, p) < m:
            return CongruenceResult(False, T)
    return CongruenceResult(True, None)


def phi_restrict(F: QExpansion) -> QExpansion:
    """Siegel Phi operator as an index-restriction view: degree drops by
    one, a(T') = a(T' + 0)."""
    if F.degree == 0:
        raise ValueError("degree is already 0")
    out: dict = {}
    for T, a in F.coeffs.items():
        if all(x == 0 for x in T[-1]):
            out[tuple(row[:-1] for row in T[:-1])] = a
    return QExpansion(F.degree - 1, F.trace_bound, out)


@record
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


def genus_weights(p, genera):
    """The measured weights w_g of a ladder's limit sum_g w_g theta_g / mass_g,
    the genera ordered by determinant, or None where none were measured:
    1 for a single genus, and -1/(p - 1), p/(p - 1) for the two genera of
    character chi_p (det p and p^3 at rank 4)."""
    if len(genera) == 1:
        return [Fraction(1)]
    if len(genera) == 2 and all(g.character != 1 for g in genera):
        return [Fraction(-1, p - 1), Fraction(p, p - 1)]
    return None


def serre_series(p, D, N):
    """[a_0, ..., a_N] of Serre's p-adic limit of the weight-2 Eisenstein
    series with character chi = kronecker(D, .), D = 1 or p* (ROADMAP item
    6): a_0 = 1 and a_n = -4 / ((1 - chi(p) p) B_{2,chi}) times the sum of
    chi(d) d over the d | n with p not dividing d."""
    c = Fraction(-4) / ((1 - kronecker(D, p) * p) * gen_bernoulli(2, D))
    return [Fraction(1)] + [c * sum(kronecker(D, d) * d for d in divisors(n) if d % p)
                            for n in range(1, N + 1)]


def genus_weight_misses(report):
    """(m, genus det) for every rung m of a passing theorem-mode
    VerificationReport whose a_tilde of that genus is not w_g / mass_g mod
    p^(b(m)+1); [] for any other report and where no weights were measured."""
    p = report.target.p
    order = sorted(range(len(report.genera)), key=lambda i: report.genera[i].det)
    weights = genus_weights(p, report.genera)
    if not report.passed or report.mode != "theorem" or weights is None:
        return []
    misses = []
    for rung in report.rungs:
        for w, i in zip(weights, order):
            g, M = report.genera[i], rung.b + 1
            if ((w / g.mass).denominator % p == 0
                    or residue(w / g.mass, p, M) != rung.a_tilde[i] % p**M):
                misses.append((rung.m, g.det))
    return misses
