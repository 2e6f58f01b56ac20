"""Local density engine tests.

Every level density of the engine is its weight-free bins G_c evaluated at
one X (_density): X = q^k on k hyperbolic planes, and X = chi(-1)^(r/2)
delta q^(r/2) on an even-rank-r unimodular lattice of disc class delta, as
the pair left by the rank-4 unit peel is.  Oracle layers, from gold to broad:
  * brute_density: literal count of representing matrices mod q^e (the
    definition), affordable only for small lattices and levels;
  * ysum_density: an independent implementation of the symmetric character
    sum (explicit enumeration of Y, integer Smith form, cyclotomic fold);
  * classical Fourier coefficients and E8 representation numbers, the latter
    recomputed here from the root system;
  * the counting kernels that localdensity replaced, in tests/oracles.py:
    the v_p and Fraction forms, and the counts on unimodular lattices of
    any rank and disc class with the rank-4 units peeled one by one, equal
    to the bins at the levels the dual-route check reaches, and the loop
    that stabilized each weight on its own (beta_q_per_weight).
"""

import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from eistheta import localdensity
from eistheta.eisenstein import eisenstein_qexp
from eistheta.exactnum import factorize, kronecker, residue, v_p
from eistheta.lattice import (
    bareiss_det,
    enumerate_psd_indices,
    form_disc,
    form_rank,
    jordan_blocks,
    minkowski_reduce,
    short_vectors,
    transform,
)
from eistheta.localdensity import (
    _STABLE_MARGIN,
    _beta_q,
    _bins,
    _density,
    _generic_factor,
    _global_factor,
    _pair_bins_odd,
    _q2_pair_bins,
    _stable_bins,
    local_density_coeff,
    primitive_inversion,
)
from oracles import (
    beta_2_n1_fractions,
    beta_odd_on,
    beta_q_per_weight,
    both_signs,
    coeff,
    density1_odd,
    density2_odd_fractions,
    q2_pair_bins_by_valuations,
    symbolic_global_factor,
)

E8 = [
    [2, -1, 0, 0, 0, 0, 0, 0],
    [-1, 2, -1, 0, 0, 0, 0, 0],
    [0, -1, 2, -1, 0, 0, 0, 0],
    [0, 0, -1, 2, -1, 0, 0, 0],
    [0, 0, 0, -1, 2, -1, 0, -1],
    [0, 0, 0, 0, -1, 2, -1, 0],
    [0, 0, 0, 0, 0, -1, 2, 0],
    [0, 0, 0, 0, -1, 0, 0, 2],
]

A2A2 = [[2, -1, 0, 0], [-1, 2, 0, 0], [0, 0, 2, -1], [0, 0, -1, 2]]
A2B7 = [[2, -1, 0, 0], [-1, 2, 0, 0], [0, 0, 2, 1], [0, 0, 1, 4]]


def hyperbolic(planes):
    G = [[0] * (2 * planes) for _ in range(2 * planes)]
    for i in range(planes):
        G[2 * i][2 * i + 1] = G[2 * i + 1][2 * i] = 1
    return G


def unimodular_X(q, r, delta):
    """The X of a rank-r unimodular lattice of disc class delta, r even."""
    return kronecker(-1, q) ** (r // 2) * delta * q ** (r // 2)


@pytest.fixture(autouse=True)
def fresh_density_memo():
    """Each test counts its own local densities: _stable_bins keeps one
    entry per (q, T) for the life of the process."""
    _stable_bins.cache_clear()
    yield
    _stable_bins.cache_clear()


def odd_bins(q, e, twoT):
    """_bins of a rank-2 or rank-4 twoT at odd q, through its Jordan pair."""
    return _bins(q, e, twoT, jordan_blocks(twoT, q)[-2:])


def rank4_density(q, e, k, twoT):
    """The level-e density of a rank-4 index on H^k as _beta_q forms it:
    the closed unit peel times the pair's bins at X = chi q^(k-1)."""
    (_, ((u0,),)), (_, ((u1,),)) = jordan_blocks(twoT, q)[:2]
    D = residue(-u0 * u1, q, 1)
    X = kronecker(D, q) * q ** (k - 1)
    return _generic_factor(2, q, k, D) * _density(odd_bins(q, e, twoT), 2, e, X)


def brute_density(twoG, twoT, q, e):
    """Count X in M_{m x n}(Z/q^e) with (1/2) X^t G X = T mod q^e, normalized."""
    m, n = len(twoG), len(twoT)
    qe = q**e
    G = np.array(twoG, dtype=np.int64)
    X = np.indices((qe,) * m).reshape(m, -1).T
    Q = (((X @ G) * X).sum(axis=1) // 2) % qe
    norm = qe ** (m * n - n * (n + 1) // 2)
    if n == 1:
        cnt = int((Q == (twoT[0][0] // 2) % qe).sum())
        return Fraction(cnt, norm)
    X1 = X[Q == (twoT[0][0] // 2) % qe]
    X2 = X[Q == (twoT[1][1] // 2) % qe]
    if len(X1) == 0 or len(X2) == 0:
        return Fraction(0)
    B = (X1 @ G @ X2.T) % qe
    return Fraction(int((B == twoT[0][1] % qe).sum()), norm)


_YS_CACHE = {}


def ysum_density(q, e, n, kexp, twoT):
    """Split-lattice density of rank 2*kexp by direct symmetric enumeration."""
    qe = q**e
    key = (q, e, n, tuple(tuple(r) for r in twoT))
    if key not in _YS_CACHE:
        pairs = [(i, j) for i in range(n) for j in range(i, n)]
        hist = {}  # (smith sum, phase) -> count of Y
        for vals in itertools.product(range(qe), repeat=len(pairs)):
            Y = [[0] * n for _ in range(n)]
            for (i, j), v in zip(pairs, vals):
                Y[i][j] = Y[j][i] = v
            ph = sum(Y[i][i] * (twoT[i][i] // 2) for i in range(n))
            ph += sum(Y[i][j] * twoT[i][j] for i in range(n) for j in range(i + 1, n))
            hk = (_capped_smith_sum(Y, q, e), ph % qe)
            hist[hk] = hist.get(hk, 0) + 1
        _YS_CACHE[key] = hist
    weights = [0] * qe  # accumulated q^{kexp * smith} per phase residue
    for (smith, ph), cnt in _YS_CACHE[key].items():
        weights[ph] += cnt * q ** (kexp * smith)
    # fold out the prime-power cyclotomic relation and require rationality
    step = qe // q
    for b in range(step):
        top = weights[(q - 1) * step + b]
        if top:
            for i in range(q - 1):
                weights[i * step + b] -= top
            weights[(q - 1) * step + b] = 0
    assert all(w == 0 for w in weights[1 : qe - step]), "sum is not rational"
    return Fraction(weights[0], q ** (e * n * kexp))


def _capped_smith_sum(Y, q, e):
    n = len(Y)
    if e == 1:
        return n - _rank_mod_q(Y, q)
    big = 10**9
    dv = [0]
    for k in range(1, n + 1):
        g = 0
        for rows in itertools.combinations(range(n), k):
            for cols in itertools.combinations(range(n), k):
                sub = [[Y[r][c] for c in cols] for r in rows]
                g = math.gcd(g, abs(bareiss_det(sub)))
        if g == 0:
            dv.append(big)
        else:
            v = 0
            while g % q == 0:
                g //= q
                v += 1
            dv.append(v)
    total = 0
    for j in range(1, n + 1):
        cj = e if dv[j] >= big else min(e, dv[j] - dv[j - 1])
        total += cj
    return total


def _rank_mod_q(Y, q):
    A = [row[:] for row in Y]
    n = len(A)
    rank, col = 0, 0
    for col in range(n):
        piv = next((r for r in range(rank, n) if A[r][col] % q), None)
        if piv is None:
            continue
        A[rank], A[piv] = A[piv], A[rank]
        inv = pow(A[rank][col] % q, -1, q)
        for r in range(rank + 1, n):
            f = (A[r][col] * inv) % q
            if f:
                for c in range(col, n):
                    A[r][c] = (A[r][c] - f * A[rank][c]) % q
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# odd q, one column
# ---------------------------------------------------------------------------


def test_single_column_odd_matches_brute():
    # diag lattices 2*diag(1,..,1,c): disc class chi(c); at odd r only unit
    # targets, the counts the rank-4 peel oracle takes, are checked (against
    # the oracle: the engine peels both units at once)
    for q, c, r, e in [
        (3, 1, 2, 2),
        (3, 1, 3, 2),
        (3, 2, 3, 2),
        (3, 1, 4, 2),
        (3, 2, 4, 2),
        (5, 1, 3, 2),
        (5, 2, 2, 2),
        (3, 1, 5, 1),
    ]:
        G = [[0] * r for _ in range(r)]
        for i in range(r):
            G[i][i] = 2 if i < r - 1 else 2 * c
        delta = 1 if pow(c, (q - 1) // 2, q) == 1 else -1
        for a in [1, 2, q, 2 * q, q * q, 0]:
            if r % 2 and a % q == 0:
                continue
            want = brute_density(G, [[2 * a]], q, e)
            if r % 2:
                got = density1_odd(q, e, r, delta, a)
            else:
                got = _density(_bins(q, e, [[2 * a]]), 1, e, unimodular_X(q, r, delta))
            assert got == want, (q, c, r, e, a)


def test_single_column_odd_deeper_level():
    # level e = 3 on a rank-2 lattice, all valuation classes
    for a in [1, 2, 3, 6, 9, 18, 27, 0]:
        want = brute_density([[2, 0], [0, 2]], [[2 * a]], 3, 3)
        assert _density(_bins(3, 3, [[2 * a]]), 1, 3, unimodular_X(3, 2, 1)) == want, a


# ---------------------------------------------------------------------------
# odd q, two columns
# ---------------------------------------------------------------------------


def test_pair_odd_matches_brute_rank2():
    for c, delta in [(1, 1), (2, -1)]:
        G = [[2, 0], [0, 2 * c]]
        for e in (1, 2, 3):
            for da, db in [(2, 2), (2, 4), (2, 6), (6, 6), (6, 18), (18, 18), (4, 12)]:
                want = brute_density(G, [[da, 0], [0, db]], 3, e)
                got = _density(_pair_bins_odd(3, e, da, db), 2, e, unimodular_X(3, 2, delta))
                assert got == want, (c, e, da, db)


def test_pair_odd_matches_brute_rank4():
    for c, delta in [(1, 1), (2, -1)]:
        G = [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2 * c]]
        for e in (1, 2):
            for da, db in [(2, 2), (2, 6), (6, 6), (6, 18)]:
                want = brute_density(G, [[da, 0], [0, db]], 3, e)
                got = _density(_pair_bins_odd(3, e, da, db), 2, e, unimodular_X(3, 4, delta))
                assert got == want, (c, e, da, db)


def test_pair_odd_matches_ysum_deeper():
    # independent character-sum route reaches levels brute force cannot
    for e in (2, 3):
        for kexp in (2, 3):
            for T in [[[2, 0], [0, 2]], [[2, 0], [0, 6]], [[6, 0], [0, 18]]]:
                want = ysum_density(3, e, 2, kexp, T)
                got = _density(odd_bins(3, e, T), 2, e, 3**kexp)
                assert got == want, (e, kexp, T)


def test_pair_odd_integer_bins_match_fraction_oracle():
    # scales q^v * unit with every v <= e, so the coupled cells (va = N1 - 1,
    # vb = N2 - 1) and the zero target both occur; r = 88 is weight 44
    rng = random.Random(15)

    def scale(q, e):
        u = rng.randrange(1, q**e)
        return q ** rng.randrange(e + 1) * (u + (u % q == 0)) % q**e

    for q in (3, 5, 7, 11, 13):
        for e in range(1, 7):
            for r in (2, 4, 8, 12, 88):
                for delta in (1, -1):
                    da, db = scale(q, e), scale(q, e)
                    want = density2_odd_fractions(q, e, r, delta, da, db)
                    got = _density(_pair_bins_odd(q, e, da, db), 2, e, unimodular_X(q, r, delta))
                    assert got == want, (q, e, r, delta, da, db)


def test_pair_odd_offdiagonal_target_via_diagonalization():
    # non-diagonal input is diagonalized over Z_q before the radial engine
    A2 = [[2, -1], [-1, 2]]
    for e in (1, 2):
        want = brute_density([[2, 0], [0, 2]], A2, 3, e)
        got = _density(odd_bins(3, e, A2), 2, e, unimodular_X(3, 2, 1))
        assert got == want, e


def _v(x, q):
    v = 0
    while x % q == 0:
        x //= q
        v += 1
    return v


# ---------------------------------------------------------------------------
# odd q, peel recursion to rank 3/4
# ---------------------------------------------------------------------------


def test_peel_matches_ysum_rank4():
    for T in [A2A2, [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 6, 0], [0, 0, 0, 6]]]:
        for kexp in (2, 3):
            want = ysum_density(3, 1, 4, kexp, T)
            assert rank4_density(3, 1, kexp, T) == want, (T, kexp)


def test_rank1_on_split_lattice_matches_brute():
    # sanity for the peel's base counts on an actual hyperbolic Gram
    G = hyperbolic(2)
    for a in (0, 1, 2, 3, 9):
        assert _density(_bins(3, 2, [[2 * a]]), 1, 2, 9) == brute_density(G, [[2 * a]], 3, 2)


def test_rank1_bins_match_brute_and_the_old_counts():
    # the Ramanujan bins at every q, on H^k literally counted, then deeper
    # against the closed counts on a rank-2k lattice of disc class chi(-1)^k
    # (q odd) and the Fraction oracle (q = 2)
    for q, planes, e in [(2, 2, 1), (2, 2, 2), (2, 3, 2), (3, 1, 3), (3, 2, 2),
                         (5, 1, 2), (5, 2, 1), (7, 1, 2), (11, 1, 1), (11, 2, 1)]:
        G = hyperbolic(planes)
        for t in (0, 1, 2, q, 3 * q, q * q, q**3):
            want = brute_density(G, [[2 * t]], q, e)
            assert _density(_bins(q, e, [[2 * t]]), 1, e, q**planes) == want, (q, planes, e, t)
    for q in (2, 3, 5, 7, 11):
        for k in (2, 3, 22, 44):
            for e in range(1, 7):
                for t in (1, 2, q - 1, q, 2 * q, q * q, q**3 + q, q**5, q**7):
                    got = _density(_bins(q, e, [[2 * t]]), 1, e, q**k)
                    if q == 2:
                        want = beta_2_n1_fractions(k, t, e)
                    else:
                        want = density1_odd(q, e, 2 * k, kronecker(-1, q) ** k, t)
                    assert got == want, (q, k, e, t)


def test_rank4_unit_peel_matches_the_old_peel():
    # two units peeled one by one, the second on a lattice of rank 2k-1 whose
    # disc class the first changed, against the closed generic binary factor
    for q in (3, 5, 7):
        for a0, a1 in itertools.product(range(1, q), repeat=2):
            for k in (4, 6, 44):
                delta = kronecker(-1, q) ** k * kronecker(a0, q)
                old = (density1_odd(q, 1, 2 * k, kronecker(-1, q) ** k, a0)
                       * density1_odd(q, 1, 2 * k - 1, delta, a1))
                D = -4 * a0 * a1  # -d0 d1, with d = 2a in twoT scale
                assert _generic_factor(2, q, k, D) == old, (q, a0, a1, k)
    # the peel is the density of the unit pair itself, literally counted
    for a0, a1 in itertools.product((1, 2), repeat=2):
        for e in (1, 2):
            want = brute_density(hyperbolic(2), [[2 * a0, 0], [0, 2 * a1]], 3, e)
            assert _generic_factor(2, 3, 2, -4 * a0 * a1) == want, (a0, a1, e)


def test_rank4_level_densities_match_the_peel_oracle():
    # every level up to 4, including the unstable ones below v + 2
    forms = [A2A2, A2B7, [[2, 1, 0, 0], [1, 2, 0, 0], [0, 0, 2, 1], [0, 0, 1, 6]],
             [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]]]
    for T in forms:
        det2T = bareiss_det([r[:] for r in T])
        for q in (q for q in (3, 5, 7, 11) if det2T % q == 0):
            for k in (4, 6, 44):
                for e in range(1, 5):
                    want = beta_odd_on(q, e, 2 * k, kronecker(-1, q) ** k, T)
                    assert rank4_density(q, e, k, T) == want, (T, q, k, e)


def test_stabilization_gate_refuses_a_density_that_never_settles(monkeypatch):
    levels = []

    def never(q, e, twoT, pair=None):
        levels.append(e)
        return {0: e}

    monkeypatch.setattr(localdensity, "_bins", never)
    T, v = ((2 * 27,),), 3  # v_3(2 det 2T) = 3
    last = v + _STABLE_MARGIN + 1
    with pytest.raises(RuntimeError, match=f"did not stabilize up to level {last}$"):
        _beta_q(3, 4, T, 54)
    assert levels == list(range(v + 2, last + 1))


def test_stabilization_gate_counts_levels_until_two_agree(monkeypatch):
    # bins that settle at level L are returned at level L + 1, their first
    # repeat as a polynomial, and never one level earlier
    for q, T in [(3, ((2 * 27,),)), (2, ((2, 1), (1, 2))), (2, ((8, 0), (0, 8))),
                 (5, ((2, 1), (1, 8)))]:
        v = v_p(2 * bareiss_det(T), q)
        for settle in range(v + 2, v + _STABLE_MARGIN + 1):
            levels = []

            def late(q, e, twoT, pair=None):
                levels.append(e)
                return {len(twoT) * e: min(e, settle)}

            _stable_bins.cache_clear()
            monkeypatch.setattr(localdensity, "_bins", late)
            assert _beta_q(q, 4, T, bareiss_det(T)) == settle, (q, T, settle)
            assert levels == list(range(max(2, v + 2), settle + 2)), (q, T, settle)


def test_stabilization_gate_wants_bins_equal_as_polynomials(monkeypatch):
    # from level 5 on, the bins {5: 81^(e-5)} have the value 1 at X = 3^4 at
    # every level, but no level's bins are the previous level's shifted by
    # one: a gate on values at k = 4 would accept level 6, and at k = 6 the
    # levels do differ (1/9, 1/81, ...)
    levels = []

    def same_value_at_k4(q, e, twoT, pair=None):
        levels.append(e)
        return {5: 81 ** (e - 5)}

    monkeypatch.setattr(localdensity, "_bins", same_value_at_k4)
    T, v = ((2 * 27,),), 3
    assert [_density(same_value_at_k4(3, e, T), 1, e, 3**4) for e in (5, 6, 7)] == [1, 1, 1]
    last = v + _STABLE_MARGIN + 1
    for k in (4, 6):
        levels.clear()
        with pytest.raises(RuntimeError, match=f"did not stabilize up to level {last}$"):
            _beta_q(3, k, T, 54)
        assert levels == list(range(v + 2, last + 1))


def test_weight_free_gate_matches_the_per_weight_loop():
    # every rank-2 index of trace <= 12 at five weights, and every sublattice
    # that the direct ladder of A2+A2 and A2+B7 inverts over, at its weights
    cases = [(T, (4, 6, 8, 10, 44)) for T in enumerate_psd_indices(2, 12) if form_rank(T) == 2]
    for S in (A2A2, A2B7):
        visited = []
        primitive_inversion(lambda T: visited.append(T) or ())(minkowski_reduce(S))
        cases += [(T, (44, 296)) for T in visited]
    assert len(cases) > 100
    for T, weights in cases:
        det2T = bareiss_det(T)
        for q in sorted(factorize(2 * det2T)):
            if q == 2 and len(T) == 4:
                continue  # beta_2 is the closed generic factor there
            for k in weights:
                assert _beta_q(q, k, T, det2T) == beta_q_per_weight(q, k, T, det2T), (T, q, k)


def test_an_index_is_counted_once_for_every_weight(monkeypatch):
    # the same index in a new unimodular basis at each weight reduces to one
    # canonical key: only the first weight counts bins
    calls = []
    for name in ("_q2_pair_bins", "_pair_bins_odd"):
        kernel = getattr(localdensity, name)
        monkeypatch.setattr(localdensity, name,
                            lambda *a, kernel=kernel, name=name: calls.append(name) or kernel(*a))
    rng = random.Random(35)
    T = ((2, 1), (1, 8))  # det 2T = 15: q = 2, 3 and 5
    after = []
    for k in (44, 4, 6):
        a, b = rng.choice((-2, -1, 1, 2)), rng.choice((-2, -1, 1, 2))
        U = [[1 + a * b, a], [b, 1]]  # det 1
        assert local_density_coeff(transform(T, U), k) == coeff(eisenstein_qexp(k, 2, 9), T), k
        after.append(len(calls))
    assert set(calls) == {"_q2_pair_bins", "_pair_bins_odd"}
    assert after == [after[0]] * 3, after


# ---------------------------------------------------------------------------
# q = 2
# ---------------------------------------------------------------------------


def test_single_column_2adic_matches_brute():
    for planes in (2, 3):
        G = hyperbolic(planes)
        for e in (2, 3):
            for t in range(0, 9):
                want = brute_density(G, [[2 * t]], 2, e)
                got = _density(_bins(2, e, [[2 * t]]), 1, e, 2**planes)
                assert got == want, (planes, e, t)


def test_single_column_2adic_matches_fraction_oracle():
    for k in (2, 3, 22, 44):
        for e in range(1, 10):
            for t in [*range(0, 34), 3 << 9]:
                got = _density(_bins(2, e, [[2 * t]]), 1, e, 2**k)
                assert got == beta_2_n1_fractions(k, t, e), (k, t, e)


def test_pair_2adic_matches_brute():
    targets = [
        [[2, -1], [-1, 2]],
        [[2, 0], [0, 2]],
        [[2, 0], [0, 4]],
        [[4, 2], [2, 4]],
        [[4, 0], [0, 8]],
        [[2, 1], [1, 4]],
    ]
    for planes in (2, 3):
        G = hyperbolic(planes)
        for e in (2, 3):
            if planes == 3 and e == 3:
                continue
            for T in targets:
                want = brute_density(G, T, 2, e)
                got = _density(_q2_pair_bins(T, e), 2, e, 2**planes)
                assert got == want, (planes, e, T)


def test_pair_2adic_matches_ysum_deeper():
    for e in (4, 5):
        for T in [[[2, -1], [-1, 2]], [[4, 0], [0, 8]], [[4, 2], [2, 4]]]:
            want = ysum_density(2, e, 2, 2, T)
            got = _density(_q2_pair_bins(T, e), 2, e, 4)
            assert got == want, (e, T)


def _v2_arr(x, cap):
    low = x & (-x)
    v = np.full(x.shape, cap, dtype=np.int64)
    nz = x != 0
    v[nz] = np.log2(low[nz].astype(np.float64)).astype(np.int64)
    np.minimum(v, cap, out=v)
    return v


def _q2_pair_components(twoT, e):
    """Brute-force oracle: the pair character sum over all 2^(3e) matrices Y.

    Returns {c: components}, c the capped Smith sum of Y, the components the
    coordinates of sum_Y psi(<Y, T>) in the basis zeta^j, j < 2^(e-1), of
    Q(zeta_{2^e}).
    """
    E = 1 << e
    t1 = (twoT[0][0] // 2) % E
    t2 = (twoT[1][1] // 2) % E
    t3 = twoT[0][1] % E
    nbins = 2 * e + 1
    acc = np.zeros(nbins * E, dtype=np.int64)
    y = np.arange(E, dtype=np.int64)
    y2f = np.repeat(y, E)
    y3f = np.tile(y, E)
    v23 = np.minimum(_v2_arr(y2f, e), _v2_arr(y3f, e))
    sq3 = y3f * y3f
    base_phase = (y2f * t2 + y3f * t3) % E
    for y1 in range(E):
        v1 = min(_v(y1, 2), e) if y1 else e
        c1 = np.minimum(v23, v1)
        det = y1 * y2f - sq3
        vd = _v2_arr(det, 2 * e + 2)
        np.minimum(vd, c1 + e, out=vd)
        cbin = c1 + np.minimum(e, vd - c1)
        phase = (base_phase + y1 * t1) % E
        acc += np.bincount(cbin * E + phase, minlength=nbins * E)
    acc = acc.reshape(nbins, E)
    half = E // 2
    return {
        c: tuple(int(acc[c][j]) - int(acc[c][j + half]) for j in range(half))
        for c in range(nbins)
        if acc[c].any()
    }


def test_pair_2adic_bins_match_full_table():
    # the orbit count against the full Y table, bin by bin; targets cover a
    # unit diagonal coefficient, a unit only off the diagonal, content 2 and 4
    # (2^a > 1 lifts per solution), and T = 0 mod 2^e at e <= 2
    targets = [
        [[2, 0], [0, 2]],
        [[2, 0], [0, 4]],
        [[4, 0], [0, 8]],
        [[2, 1], [1, 2]],
        [[2, -1], [-1, 2]],
        [[4, 1], [1, 4]],
        [[8, 1], [1, 2]],
        [[4, 2], [2, 4]],
        [[4, 2], [2, 8]],
        [[8, 4], [4, 8]],
        [[16, 4], [4, 8]],
    ]
    for e in range(1, 8):
        for T in targets:
            comp = _q2_pair_components(T, e)
            # the fold leaves only the rational coordinate: each bin is an integer
            assert all(not any(v[1:]) for v in comp.values()), (e, T)
            want = {c: v[0] for c, v in comp.items() if v[0]}
            got = {c: g for c, g in _q2_pair_bins(T, e).items() if g}
            assert got == want, (e, T)


def test_pair_2adic_bins_match_valuation_oracle():
    # every reduced binary form of tr(2T) <= 16, up to the level e = 9 that
    # the dual-route benchmark reaches; then phase content 2^a, a = 2 and 3,
    # up to e = 11, which passes through a >= e - 1 (the twin lemma gives no
    # threshold) and T = 0 mod 2^e (no twins) at the lowest levels
    forms = [T for T in enumerate_psd_indices(2, 8) if form_rank(T) == 2]
    assert len(forms) == 46
    cases = [(T, e) for T in forms for e in range(1, 10)]
    cases += [(T, e) for T in (((8, -4), (-4, 8)), ((16, 8), (8, 16)), ((32, 0), (0, 16)))
              for e in range(1, 12)]
    for T, e in cases:
        want = {c: g for c, g in q2_pair_bins_by_valuations(T, e).items() if g}
        assert _q2_pair_bins(T, e) == want, (T, e)


def test_pair_2adic_density_is_stable_at_level_20():
    # the bins deep past stabilisation give the stabilised beta_2 exactly;
    # a scan of all 3 * 2^20 unit orbits would take seconds per index
    start = time.perf_counter()
    for T in (((2, -1), (-1, 2)), ((8, 0), (0, 8))):
        for k in (4, 6, 44):
            want = _beta_q(2, k, T, bareiss_det(T))
            assert _density(_q2_pair_bins(T, 20), 2, 20, 2**k) == want, (T, k)
    assert time.perf_counter() - start < 1


def test_pair_2adic_density_takes_no_valuation_per_lift(monkeypatch):
    # a v_p call per lift would be about 147,000 calls at this index
    calls = 0

    def counting_v_p(x, p):
        nonlocal calls
        calls += 1
        return v_p(x, p)

    monkeypatch.setattr(localdensity, "v_p", counting_v_p)
    local_density_coeff(((8, 0), (0, 8)), 44)
    assert 0 < calls <= 100


def test_unramified_prime_equals_generic_factor():
    # at a good odd prime the stabilized density is the closed Euler factor
    for T, n in [([[2]], 1), ([[2, -1], [-1, 2]], 2)]:
        det2T = bareiss_det([r[:] for r in T])
        for q in (5, 7):
            got = _density((odd_bins if n == 2 else _bins)(q, 2, T), n, 2, q**4)
            D0 = form_disc(n, det2T)[0] if n == 2 else None
            assert got == _generic_factor(n, q, 4, D0), (T, q)


# ---------------------------------------------------------------------------
# assembled coefficients
# ---------------------------------------------------------------------------


# det 2T by rank: at n = 2, -det 2T = D0 f^2 with odd D0 in -3, -7, -15
# and even D0 in -4, -8, -20; at n = 4, det 2T = D0 f^2 with D0 = 1, odd
# D0 in 5, 13, 21 and even D0 in 8, 12
GLOBAL_DETS = {
    1: (2, 4, 12, 30),
    2: (3, 12, 27, 7, 28, 15, 4, 16, 8, 32, 20),
    4: (9, 25, 49, 81, 5, 13, 45, 21, 8, 32, 12),
}


@pytest.mark.parametrize("n", sorted(GLOBAL_DETS))
def test_global_factor_matches_symbolic_assembly(n):
    # the closed zeta/L form against Gamma, pi and square roots carried
    # symbolically until they cancel
    for k in range(4, 51, 2):
        for det2T in GLOBAL_DETS[n]:
            disc = form_disc(n, det2T) if n % 2 == 0 else (None, None)
            assert _global_factor(n, k, det2T, *disc) == symbolic_global_factor(n, k, det2T), (k, det2T)


def test_classical_degree1_values():
    assert local_density_coeff([[2]], 4) == 240
    assert local_density_coeff([[4]], 4) == 2160
    assert local_density_coeff([[6]], 4) == 6720
    assert local_density_coeff([[2]], 6) == -504
    assert local_density_coeff([[12]], 6) == -504 * (1 + 2**5 + 3**5 + 6**5)


def test_classical_degree2_values():
    assert local_density_coeff([[2, -1], [-1, 2]], 4) == 13440
    assert local_density_coeff([[2, 0], [0, 2]], 4) == 30240
    assert local_density_coeff([[2, 1], [1, 4]], 4) == 138240
    assert local_density_coeff([[2, 0], [0, 4]], 4) == 181440
    assert local_density_coeff([[4, 0], [0, 4]], 4) == 1239840


def test_dual_route_against_closed_forms():
    for k in (4, 6):
        F = eisenstein_qexp(k, 2, 5)
        checked = 0
        for idx, want in sorted(F.coeffs.items()):
            M = [list(r) for r in idx]
            if M[0][0] == 0:
                continue  # the constant term is not a density product
            if M[0][0] * M[1][1] - M[0][1] ** 2 == 0:
                # a singular index carries the degree-1 coefficient
                T = [[M[0][0]]]
            else:
                T = M
            assert local_density_coeff(T, k) == want, (k, idx)
            checked += 1
        # 5 singular classes and 14 binary classes up to trace 5
        assert checked == 19


def test_dual_route_large_weight_smoke():
    F = eisenstein_qexp(44, 2, 3)
    for idx in [((2, -1), (-1, 2)), ((2, 0), (0, 2)), ((2, -1), (-1, 4))]:
        T = [list(r) for r in idx]
        assert local_density_coeff(T, 44) == F.coeffs[idx]


def test_e8_representation_numbers_degree2():
    roots = [v for v, q in both_signs(short_vectors(E8, 1)) if q == 1]
    V = np.array(roots, dtype=np.int64)
    B = V @ np.array(E8, dtype=np.int64) @ V.T
    assert len(roots) == 240
    assert int((B == -1).sum()) == local_density_coeff([[2, -1], [-1, 2]], 4)
    assert int((B == 0).sum()) == local_density_coeff([[2, 0], [0, 2]], 4)


def test_e8_representation_numbers_degree4():
    # four-tuples of roots realizing two orthogonal hexagonal pairs; the
    # lattice has one class in its genus so the theta coefficient is the
    # Eisenstein coefficient
    roots = [v for v, q in both_signs(short_vectors(E8, 1)) if q == 1]
    V = np.array(roots, dtype=np.int64)
    B = (V @ np.array(E8, dtype=np.int64) @ V.T).astype(np.int8)
    total = 0
    for i, j in np.argwhere(B == -1):
        idx = ((B[i] == 0) & (B[j] == 0)).nonzero()[0]
        sub = B[np.ix_(idx, idx)]
        total += int((sub == -1).sum())
    assert total == 19353600
    assert local_density_coeff(A2A2, 4) == 19353600


def test_e8_representation_numbers_degree4_mixed():
    sv = both_signs(short_vectors(E8, 2))
    R = np.array([v for v, q in sv if q == 1], dtype=np.int64)
    W = np.array([v for v, q in sv if q == 2], dtype=np.int64)
    G = np.array(E8, dtype=np.int64)
    BRR = (R @ G @ R.T).astype(np.int8)
    BRW = (R @ G @ W.T).astype(np.int8)
    total = 0
    for i, j in np.argwhere(BRR == -1):
        m1 = ((BRR[i] == 0) & (BRR[j] == 0)).nonzero()[0]
        m2 = ((BRW[i] == 0) & (BRW[j] == 0)).nonzero()[0]
        total += int((BRW[np.ix_(m1, m2)] == 1).sum())
    assert total == 58060800
    assert local_density_coeff(A2B7, 4) == 58060800


def test_class_invariance():
    # congruent inputs give the same coefficient
    assert local_density_coeff([[2, 1], [1, 2]], 4) == 13440
    assert local_density_coeff([[4, 1], [1, 2]], 4) == local_density_coeff(
        [[2, -1], [-1, 4]], 4
    )


def test_rank_zero_index_is_refused():
    with pytest.raises(ValueError, match="index rank"):
        local_density_coeff([], 4)


@pytest.mark.parametrize("k", [4.0, Fraction(4), "4"])
def test_non_integer_weight_is_refused_before_any_count(monkeypatch, k):
    monkeypatch.setattr(localdensity, "check_definite", lambda *a: pytest.fail("computed"))
    with pytest.raises(ValueError, match="weight must be an even integer"):
        local_density_coeff([[2]], k)


def test_rejected_inputs():
    with pytest.raises(ValueError):
        local_density_coeff([[2]], 5)
    with pytest.raises(ValueError):
        local_density_coeff([[2]], 2)
    with pytest.raises(ValueError):
        local_density_coeff([[2, 0], [0, -2]], 4)
    with pytest.raises(ValueError, match=r"entry \(0, 0\) of twoT is 2.9"):
        # int() would truncate it to A2's coefficient, 44352
        local_density_coeff(((2.9, 1), (1, 2)), 6)
    with pytest.raises(NotImplementedError):
        local_density_coeff([[2, 0, 0], [0, 2, 0], [0, 0, 2]], 4)
    with pytest.raises(NotImplementedError):
        # rank 4 with even det(2T)
        local_density_coeff(
            [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]], 4
        )
    with pytest.raises(NotImplementedError):
        # det(2T) = 3^4: more than two non-unit Jordan scales at q = 3
        local_density_coeff(
            [[2, -1, 0, 0], [-1, 2, 0, 0], [0, 0, 6, -3], [0, 0, -3, 6]], 4
        )
