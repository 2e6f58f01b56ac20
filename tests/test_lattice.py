import json
import math
import pathlib
import random
from fractions import Fraction
from itertools import product
from operator import mul

import pytest

import eistheta.lattice as lattice_module
from eistheta.cli import parse_matrix_text
from eistheta.exactnum import kronecker, v_p
from eistheta.genus import ClassRecord, partition_into_genera
from eistheta.lattice import (
    _quotient_map,
    as_mat,
    automorphism_count,
    automorphisms,
    check_form,
    content,
    enumerate_classes,
    enumerate_psd_indices,
    eta_S,
    fits_canonical_shape,
    form_rank,
    form_trace,
    is_positive_definite,
    jordan_blocks,
    level,
    minkowski_reduce,
    pad_zero,
    short_vectors,
    transform,
)
from eistheta.linalg import bareiss_det
from forms import direct_sum
from oracles import (
    _extendable,
    both_signs,
    canonical_full_branching,
    chi_S,
    fits_canonical_shape_by_rules,
    is_equivalent,
    is_psd,
    minkowski_reduce_by_search,
    psd_indices_box,
)

A2 = as_mat([[2, 1], [1, 2]])
B7 = as_mat([[2, 1], [1, 4]])
I2 = as_mat([[2, 0], [0, 2]])


# ---------------------------------------------------------------- oracles

def level_brute(twoS):
    """Minimal l with l(2S)^{-1} integral and even-diagonal, by trial l."""
    n = len(twoS)
    d = 1
    M = [[Fraction(x) for x in row] for row in twoS]
    # fraction inverse by Gauss-Jordan
    aug = [row[:] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(M)]
    for c in range(n):
        piv = next(i for i in range(c, n) if aug[i][c])
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    inv = [row[n:] for row in aug]
    l = 1
    while True:
        ok = True
        for i in range(n):
            for j in range(n):
                v = l * inv[i][j]
                if v.denominator != 1 or (i == j and v.numerator % 2):
                    ok = False
        if ok:
            return l
        l += 1
        assert l < 10000


def short_vectors_brute(twoS, bound):
    """Box enumeration of all x with 0 < Q(x) <= bound."""
    n = len(twoS)
    top = int(bound) + 1
    out = set()
    for x in product(range(-3 * top, 3 * top + 1), repeat=n):
        if any(x):
            q = sum(twoS[i][j] * x[i] * x[j] for i in range(n) for j in range(n))
            if 0 < q <= 2 * bound:
                out.add((x, q // 2))
    return out


def _ldl_fraction(twoS):
    """Q(x) = sum_i D_i (x_i + sum_{j>i} L_ij x_j)^2 over Fractions."""
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


def _floor_add_sqrt(c, M):
    """floor(c + sqrt(M)) for rationals c and M >= 0: a float guess, corrected."""
    t = math.floor(float(c) + math.sqrt(float(M)))

    def le(x):  # x <= c + sqrt(M)
        d = x - c
        return d <= 0 or d * d <= M

    while le(t + 1):
        t += 1
    while not le(t):
        t -= 1
    return t


def short_vectors_fraction(twoS, bound):
    """Fincke-Pohst over a Fraction LDL: the oracle for ``short_vectors``."""
    M = check_form(twoS)
    n = len(M)
    bound = Fraction(bound)
    if bound < 0:
        return []
    D, L = _ldl_fraction(M)
    out = []
    x = [0] * n

    def rec(i, acc):
        if i < 0:
            if any(x):
                assert acc.denominator == 1
                out.append((tuple(x), int(acc)))
            return
        c = sum((L[i][j] * x[j] for j in range(i + 1, n)), Fraction(0))
        rem = (bound - acc) / D[i]
        if rem < 0:
            return
        for xi in range(-_floor_add_sqrt(c, rem), _floor_add_sqrt(-c, rem) + 1):
            x[i] = xi
            t = xi + c
            rec(i - 1, acc + D[i] * t * t)
        x[i] = 0

    rec(n - 1, Fraction(0))
    out.sort(key=lambda p: (p[1], p[0]))
    return out


def random_unimodular(rng, n, steps=6):
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        a, b = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if n == 1:
            break
        c = rng.choice([-2, -1, 1, 2])
        for i in range(n):
            U[i][a] += c * U[i][b]
        if rng.random() < 0.3:
            for i in range(n):
                U[i][a] = -U[i][a]
    return U


def random_psd(rng, n, rank=None):
    r = rank if rank is not None else rng.randint(0, n)
    if r == 0:
        return as_mat([[0] * n for _ in range(n)])
    X = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(r)]
    M = [[2 * sum(X[t][i] * X[t][j] for t in range(r)) for j in range(n)] for i in range(n)]
    return as_mat(M)


# ------------------------------------------------------------------ basics

def test_check_form_rejects():
    with pytest.raises(ValueError):
        check_form([[1, 0], [0, 2]])  # odd diagonal
    with pytest.raises(ValueError):
        check_form([[2, 1], [0, 2]])  # asymmetric
    # int() would truncate these to A2, the first one not even symmetric
    for M in (((2.9, 1.5), (1.2, 2)), (("2", "1"), ("1", "2"))):
        with pytest.raises(ValueError, match=r"entry \(0, 0\) of twoT"):
            minkowski_reduce(M)
    # whatever operator.index accepts stays an integer entry
    assert check_form(((2, True), (True, 2))) == ((2, 1), (1, 2))


def test_rank_det_trace_content():
    assert form_rank([[0, 0, 0], [0, 0, 0], [0, 0, 0]]) == 0
    assert form_rank([[2, 0, 0], [0, 2, 0], [0, 0, 0]]) == 2
    assert form_rank(A2) == 2
    assert bareiss_det(A2) == 3
    assert form_trace(A2) == 2
    assert content(as_mat([[4, 2], [2, 8]])) == 2
    assert content(A2) == 1
    assert transform(A2, [[1], [-1]]) == ((2,),)  # Q(1, -1) = 1


def test_direct_sum_pad():
    M = direct_sum(A2, as_mat([[2]]))
    assert M == as_mat([[2, 1, 0], [1, 2, 0], [0, 0, 2]])
    assert pad_zero(A2, 4)[3] == (0, 0, 0, 0)
    assert form_rank(pad_zero(A2, 4)) == 2


# ------------------------------------------------------------------- level

def test_level_examples():
    assert level(I2) == 4
    assert level(A2) == 3
    assert level(B7) == 7


def test_level_matches_brute_and_invariance():
    rng = random.Random(5)
    forms = [I2, A2, B7, direct_sum(A2, A2), direct_sum(I2, B7)]
    count = 0
    while count < 25:
        M = random_psd(rng, rng.randint(1, 3))
        if form_rank(M) == len(M):
            forms.append(M)
            count += 1
    for M in forms:
        got = level(M)
        assert got == level_brute(M), M
        U = random_unimodular(rng, len(M))
        assert level(transform(M, U)) == got


def test_level_rejects_singular():
    with pytest.raises(ValueError):
        level([[2, 0], [0, 0]])


def test_level_refuses_a_negative_definite_form():
    # det(-2I) = 4 > 0: a determinant test alone gave it level 4
    for M in (((-2, 0), (0, -2)), ((-2, 1), (1, -4))):
        with pytest.raises(ValueError, match="level needs a positive definite form"):
            level(M)


# -------------------------------------------------------------- characters

def test_chi_S_examples():
    assert chi_S(B7, 3) == -1
    assert chi_S(B7, 1) == 1
    # square determinant: trivial on positive d coprime to det
    S49 = direct_sum(B7, B7)
    assert bareiss_det(S49) == 49
    for d in range(1, 30):
        if math.gcd(d, 14) == 1:
            assert chi_S(S49, d) == 1
    with pytest.raises(ValueError):
        chi_S([[2]], 3)


def test_chi_S_invariance_and_multiplicativity():
    rng = random.Random(11)
    for M in (A2, B7, I2, direct_sum(A2, B7)):
        U = random_unimodular(rng, len(M))
        MU = transform(M, U)
        for d in range(1, 25):
            assert chi_S(M, d) == chi_S(MU, d)
        for _ in range(20):
            a, b = rng.randint(1, 30), rng.randint(1, 30)
            assert chi_S(M, a * b) == chi_S(M, a) * chi_S(M, b)


def test_eta_S_examples():
    assert eta_S(direct_sum(B7, B7)) == 1
    eta = eta_S(B7)
    assert eta == -7 and abs(eta) == 7
    for d in range(1, 21):
        if d % 7:
            assert kronecker(eta, d) == chi_S(B7, d)
    eta4 = eta_S(I2)
    assert eta4 == -4 and abs(eta4) == 4
    for d in range(1, 21, 2):
        assert kronecker(eta4, d) == chi_S(I2, d)


def test_jordan_blocks_preserve_determinant_valuation():
    forms = [direct_sum(A2, A2), direct_sum(A2, B7), B7, I2,
             *(M for M in enumerate_psd_indices(3, 6) if form_rank(M) == 3)]
    for q in (2, 3, 7):
        for M in forms:
            det = bareiss_det(M)
            blocks = jordan_blocks(M, q)
            assert sum(len(U) for _, U in blocks) == len(M)
            assert [s for s, _ in blocks] == sorted(s for s, _ in blocks)
            v = 0
            for s, U in blocks:
                d = U[0][0] if len(U) == 1 else U[0][0] * U[1][1] - U[0][1] ** 2
                assert d.numerator % q and d.denominator % q  # a unit block
                if len(U) == 2:
                    assert q == 2 and U[0][1].numerator % 2
                    assert U[0][0].numerator % 2 == U[1][1].numerator % 2 == 0
                v += s * len(U)
                det = det / d
            assert v == v_p(det, q)
            # what is left of det(2S) is q^v times a unit square
            u = det / q**v
            r = u.numerator * u.denominator
            assert r % 8 == 1 if q == 2 else kronecker(r, q) == 1


def test_jordan_blocks_reject_degenerate_forms():
    with pytest.raises(ValueError):
        jordan_blocks([[2, 0], [0, 0]], 3)


# ----------------------------------------------------------- short vectors

def test_short_vectors_examples():
    got = both_signs(short_vectors([[2]], 4))
    assert got == [((-1,), 1), ((1,), 1), ((-2,), 4), ((2,), 4)]
    got = both_signs(short_vectors(A2, 1))
    assert len(got) == 6 and all(q == 1 for _, q in got)
    assert both_signs(short_vectors(A2, 0)) == []


def test_short_vectors_against_box():
    rng = random.Random(17)
    forms = [A2, B7, I2, direct_sum(A2, [[2]]), direct_sum(B7, [[4]])]
    for _ in range(10):
        M = random_psd(rng, rng.randint(1, 3))
        if form_rank(M) == len(M):
            forms.append(M)
    for M in forms:
        bound = rng.randint(1, 6)
        got = set(both_signs(short_vectors(M, bound)))
        assert got == short_vectors_brute(M, bound), (M, bound)


def test_short_vectors_rational_bound():
    got = both_signs(short_vectors(A2, Fraction(3, 2)))
    assert len(got) == 6  # nothing between 1 and 3/2


def random_definite(rng, n):
    """A positive definite doubled Gram matrix X^t X * 2 of rank n."""
    while True:
        X = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n + rng.randint(0, 2))]
        M = as_mat([[2 * sum(r[i] * r[j] for r in X) for j in range(n)] for i in range(n)])
        if form_rank(M) == n:
            return M


def test_short_vectors_match_fraction_oracle():
    rng = random.Random(29)
    forms = [A2, B7, I2, as_mat([[2]]), as_mat([[16]]), direct_sum(A2, A2, [[2]])]
    forms += [random_definite(rng, n) for n in range(1, 6) for _ in range(6)]
    for M in forms:
        bounds = [0, 1, rng.randint(2, 8), Fraction(rng.randint(1, 40), rng.randint(2, 7))]
        for bound in bounds:
            assert both_signs(short_vectors(M, bound)) == short_vectors_fraction(M, bound), (
                M, bound)


def test_short_vectors_list_one_of_each_pair_by_ascending_value():
    rng = random.Random(31)
    for n in range(1, 6):
        for _ in range(6):
            M = random_definite(rng, n)
            pool = short_vectors(M, rng.randint(1, 12))
            assert list(pool) == sorted(pool), M
            listed = {x for xs in pool.values() for x in xs}
            for q, xs in pool.items():
                for x in xs:
                    assert [c for c in x if c][-1] > 0, (M, x)
                    assert tuple(-c for c in x) not in listed, (M, x)
                    assert sum(M[i][j] * x[i] * x[j] for i in range(n) for j in range(n)) == 2 * q


def test_short_vectors_e8_counts():
    # Cartan matrix of E8: 2Q(x) = x^t C x, so the 240 roots have Q = 1
    C = [[2 if i == j else 0 for j in range(8)] for i in range(8)]
    for a, b in [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (1, 3)]:
        C[a][b] = C[b][a] = -1
    got = both_signs(short_vectors(C, 2))
    assert sum(q == 1 for _, q in got) == 240
    assert sum(q == 2 for _, q in got) == 2160
    assert len(got) == 2400
    assert len(both_signs(short_vectors(C, Fraction(5, 2)))) == 2400


def test_short_vectors_rejects_non_definite():
    for M in ([[2, 2], [2, 2]], [[2, 3], [3, 2]], [[0]], [[2, 0], [0, 0]]):
        with pytest.raises(ValueError, match="not positive definite"):
            short_vectors(M, 4)


# ---------------------------------------------------------- canonical form

def minkowski_brute_2x2(twoT):
    """Smallest equivalent form over a dense sample of GL_2(Z)."""
    best = None
    for a, b, c, d in product(range(-4, 5), repeat=4):
        if a * d - b * c in (1, -1):
            U = [[a, b], [c, d]]
            M = transform(twoT, U)
            # Minkowski-reduced conditions for 2x2
            if M[0][0] <= M[1][1] and 2 * abs(M[0][1]) <= M[0][0]:
                flat = [x for row in M for x in row]
                if best is None or flat < best:
                    best = flat
    return as_mat([best[:2], best[2:]])


def test_minkowski_reduce_examples():
    assert minkowski_reduce([[4, 0], [0, 2]]) == as_mat([[2, 0], [0, 4]])
    assert minkowski_reduce([[2, 2], [2, 4]]) == as_mat([[2, 0], [0, 2]])
    R = minkowski_reduce(A2)
    assert minkowski_reduce(R) == R  # idempotent


def test_minkowski_reduce_matches_brute_gl2_search():
    rng = random.Random(23)
    done = 0
    while done < 30:
        M = random_psd(rng, 2, rank=2)
        if form_rank(M) < 2 or M[0][0] > 12 or M[1][1] > 12:
            continue
        assert minkowski_reduce(M) == minkowski_brute_2x2(M), M
        done += 1


def random_binary_in_reduced_domain(rng):
    """((a, b), (b, c)) with |2b| <= a and |2b| <= c, in either order and
    with either sign of b; about a third sit on 2|b| = min(a, c), and
    about a third have a = c."""
    a = 2 * rng.randint(1, 10)
    c = a if rng.random() < 1 / 3 else 2 * rng.randint(1, 10)
    h = min(a, c) // 2
    b = rng.choice([-h, h]) if rng.random() < 1 / 3 else rng.randint(-h, h)
    return as_mat([[a, b], [b, c]])


def test_rank2_closed_form_matches_both_oracles_on_skewed_bases():
    rng = random.Random(71)
    # 2|b| = a, a = c, b > 0, and c < a
    boundary = [((4, 2), (2, 6)), ((4, -2), (-2, 6)), ((6, 3), (3, 6)), ((4, 1), (1, 4)),
                ((4, -1), (-1, 4)), ((2, 1), (1, 4)), ((6, 2), (2, 4)), ((2, 0), (0, 2))]
    forms = [as_mat(G) for G in boundary]
    forms += [random_binary_in_reduced_domain(rng) for _ in range(200)]
    for G in forms:
        want = canonical_full_branching(G)
        assert minkowski_brute_2x2(G) == want, G
        U = random_unimodular(rng, 2, steps=rng.randint(6, 30))
        assert minkowski_reduce(transform(G, U)) == want, (G, U)


def test_rank1_binary_forms_reduce_to_their_least_value():
    # T = c v v^t: its values are c (v.x)^2, and v.x runs over gcd(v) Z
    rng = random.Random(73)
    for _ in range(50):
        v = (rng.randint(-9, 9), rng.randint(-9, 9))
        if v == (0, 0):
            continue
        c = rng.randint(1, 5)
        twoT = [[2 * c * v[i] * v[j] for j in range(2)] for i in range(2)]
        assert minkowski_reduce(twoT) == ((2 * c * math.gcd(*v) ** 2, 0), (0, 0)), twoT


def test_rank2_canonical_forms_list_no_short_vectors(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return short_vectors(*args, **kwargs)

    monkeypatch.setattr(lattice_module, "short_vectors", counted)
    lattice_module._canonical_definite.cache_clear()
    rng = random.Random(79)
    for _ in range(20):
        G = random_binary_in_reduced_domain(rng)
        minkowski_reduce(transform(G, random_unimodular(rng, 2, steps=20)))
        minkowski_reduce(pad_zero(G, 3))
        minkowski_reduce(transform(pad_zero(G, 4), random_unimodular(rng, 4)))
    assert lattice_module._canonical_definite.cache_info().currsize > 0
    assert calls == []
    with pytest.raises(ValueError, match="not pair-reduced"):
        lattice_module._canonical_definite(((2, 3), (3, 10)))


def test_minkowski_reduce_canonicity():
    rng = random.Random(29)
    for _ in range(40):
        n = rng.randint(1, 4)
        M = random_psd(rng, n)
        U = random_unimodular(rng, n)
        R1 = minkowski_reduce(M)
        R2 = minkowski_reduce(transform(M, U))
        assert R1 == R2, (M, U)
        r = form_rank(M)
        # canonical shape: definite block then zero tail
        for i in range(r, n):
            assert R1[i] == (0,) * n


def test_minkowski_reduce_matches_full_branching_oracle():
    rng = random.Random(53)
    classes = sorted({M for key, got in RECORDED_CLASSES.items() if key != LEVEL37
                      for M in got})
    for M in classes:
        want = canonical_full_branching(M)
        assert minkowski_reduce(M) == want == M
        for _ in range(2):
            U = random_unimodular(rng, len(M))
            assert minkowski_reduce(transform(M, U)) == want, (M, U)


def short_first_minimum(rng, r):
    """A definite form with Q(e_0) = 1 or 2 below a larger diagonal: its
    Minkowski bound gamma_r^r det(S) / mu_1^(r-1) lies far above 5M/4."""
    while True:
        g = [2 * rng.randint(1, 2)] + sorted(2 * rng.randint(2, 24 // r) for _ in range(r - 1))
        G = [[g[i] if i == j else 0 for j in range(r)] for i in range(r)]
        for i in range(r):
            for j in range(i):
                G[i][j] = G[j][i] = rng.randint(-(g[j] // 2), g[j] // 2)
        if is_positive_definite(G):
            return as_mat(G)


def test_minkowski_reduce_matches_full_branching_oracle_on_random_forms():
    rng = random.Random(61)
    short = 0
    for t in range(60):
        r = rng.randint(2, 4)
        G = short_first_minimum(rng, r) if t % 2 else random_definite(rng, r)
        want = canonical_full_branching(G)
        assert minkowski_reduce(transform(G, random_unimodular(rng, r))) == want, G
        short += want[0][0] <= 4 and bareiss_det(G) >= 64
    assert short >= 20


def test_canonical_pool_of_the_det_50653_reps(monkeypatch):
    # one search, of the vectors of value <= 5M/4; on the first rep
    # (mu_1 = 2) the Minkowski bound gamma_4^4 det(S) / mu_1^3 would hold
    # 219,224 vectors
    with open(pathlib.Path(__file__).parent / "fixtures" / "genera_r4_L37.json") as fh:
        doc = json.load(fh)
    reps = [as_mat(c["twoT"]) for g in doc["genera"] for c in g["classes"]]
    reps = [M for M in reps if bareiss_det(M) == 37**3]
    assert len(reps) == 2
    sizes = []

    def counted(*args, **kwargs):
        out = short_vectors(*args, **kwargs)
        sizes.append(len(both_signs(out)))
        return out

    monkeypatch.setattr(lattice_module, "short_vectors", counted)
    for M in reps:
        lattice_module._canonical_definite.cache_clear()
        sizes.clear()
        assert lattice_module._canonical_definite(M) == M
        assert len(sizes) == 1 and sizes[0] <= 28, (M, sizes)


@pytest.mark.slow
def test_minkowski_reduce_matches_full_branching_oracle_at_level37():
    rng = random.Random(37)
    for M in RECORDED_CLASSES[LEVEL37]:
        assert canonical_full_branching(M) == M
        for _ in range(2):
            assert minkowski_reduce(transform(M, random_unimodular(rng, 4))) == M


def test_minkowski_reduce_skewed_full_rank_basis():
    # a skewed basis (entries up to 1.4e7) of a rank-3 form with
    # det(2S) = 192; unreduced, the search for its minimum ran past 120 s
    M = ((395952, -297216, 616464), (-297216, 223102, -459494),
         (616464, -459494, 13511628))
    assert minkowski_reduce(M) == ((6, -2, 0), (-2, 6, 0), (0, 0, 6))


def test_minkowski_reduce_rejects():
    with pytest.raises(ValueError):
        minkowski_reduce([[-2, 0], [0, 2]])
    with pytest.raises(ValueError):
        minkowski_reduce([[2, 0, 0, 0, 0, 0]] * 6)


def random_even_form(rng):
    """A random even symmetric form of size <= 5: either X^t A X for a
    random small A of any signature and a random X (so often degenerate),
    or random entries (mostly indefinite)."""
    n = rng.randint(1, 5)
    if rng.random() < 0.5:
        k = rng.randint(0, n)
        A = [[0] * k for _ in range(k)]
        for i in range(k):
            A[i][i] = 2 * rng.randint(-1, 3)
            for j in range(i):
                A[i][j] = A[j][i] = rng.randint(-1, 1)
        X = [[rng.randint(-1, 1) for _ in range(n)] for _ in range(k)]
        return transform(A, X) if k else as_mat([[0] * n] * n)
    M = [[0] * n for _ in range(n)]
    for i in range(n):
        M[i][i] = 2 * rng.randint(-2, 4)
        for j in range(i):
            M[i][j] = M[j][i] = rng.randint(-2, 2)
    return as_mat(M)


def test_minkowski_reduce_rejects_exactly_the_non_semidefinite():
    rng = random.Random(5)
    seen = {"indefinite": 0, "negative": 0, "degenerate": 0, "definite": 0}
    for _ in range(4000):
        M = random_even_form(rng)
        try:
            minkowski_reduce(M)
        except ValueError:
            assert not is_psd(M), M
            negative = is_psd([[-x for x in row] for row in M])
            seen["negative" if negative else "indefinite"] += 1
            continue
        assert is_psd(M), M
        seen["definite" if form_rank(M) == len(M) else "degenerate"] += 1
    assert min(seen.values()) >= 100, seen


def near_shape_form(rng):
    """A random even form of size <= 5 near the canonical shape: a
    diagonal that rises, then zeros, with |g_ij| <= g_ii/2 above it; then,
    as often as not, one entry moved (a sign, a diagonal entry, or an entry
    of the zero tail), so that the shape test sees both outcomes."""
    n = rng.randint(1, 5)
    r = rng.randint(0, min(n, 3))
    g = sorted(2 * rng.randint(1, 6) for _ in range(r)) + [0] * (n - r)
    M = [[g[i] if i == j else 0 for j in range(n)] for i in range(n)]
    for j in range(r):
        for i in range(j):
            M[i][j] = M[j][i] = rng.randint(-(g[i] // 2), g[i] // 2)
    if rng.random() < 0.5:
        i, j = rng.randrange(n), rng.randrange(n)
        x = 2 * rng.randint(-3, 3) if i == j else rng.randint(-3, 3)
        M[i][j] = M[j][i] = x
    return as_mat(M)


def test_minkowski_reduce_agrees_with_the_search():
    # the shape reading at rank <= 2 against column_reduce and the search
    # on every input, refusals included
    rng = random.Random(97)
    seen = {"read": 0, "searched": 0, "refused": 0}
    for t in range(10000):
        M = near_shape_form(rng) if t % 2 else random_even_form(rng)
        try:
            want = minkowski_reduce_by_search(M)
        except ValueError:
            with pytest.raises(ValueError):
                minkowski_reduce(M)
            seen["refused"] += 1
            continue
        assert minkowski_reduce(M) == want, M
        seen["read" if want == M and not any(M[i][i] for i in range(2, len(M)))
             else "searched"] += 1
    assert min(seen.values()) >= 1000, seen


@pytest.mark.parametrize("M", [[[-2]], [[-2, 0], [0, 0]], [[0, 0], [0, -2]],
                               [[2, 0], [0, -2]], [[-2, 0, 0], [0, 0, 0], [0, 0, 0]]])
def test_minkowski_reduce_refuses_a_negative_diagonal_in_shape(M):
    # fits_canonical_shape passes g_00 < 0 at column 0
    with pytest.raises(ValueError, match="not positive semidefinite"):
        minkowski_reduce(M)


def test_fits_canonical_shape_is_its_three_rules():
    rng = random.Random(101)
    seen = {True: 0, False: 0}
    for t in range(10000):
        M = near_shape_form(rng) if t % 2 else random_even_form(rng)
        for j in range(len(M)):
            got = fits_canonical_shape(M, j)
            assert got == fits_canonical_shape_by_rules(M, j), (M, j)
            seen[got] += 1
    assert min(seen.values()) >= 5000, seen


# ------------------------------------------------- isometry / automorphisms

def test_is_equivalent_examples():
    U = is_equivalent(A2, A2)
    assert U is not None and transform(A2, U) == A2
    U = is_equivalent([[2, 0], [0, 4]], [[4, 0], [0, 2]])
    assert U is not None
    U = is_equivalent(A2, [[2, -1], [-1, 2]])
    assert U is not None and transform(A2, U) == as_mat([[2, -1], [-1, 2]])
    assert is_equivalent(A2, I2) is None


def test_is_equivalent_random_pairs():
    rng = random.Random(31)
    done = 0
    while done < 25:
        M = random_psd(rng, rng.randint(1, 3))
        if form_rank(M) < len(M):
            continue
        U = random_unimodular(rng, len(M))
        W = is_equivalent(M, transform(M, U))
        assert W is not None and transform(M, W) == transform(M, U)
        done += 1


def automorphism_count_brute(twoS, box):
    n = len(twoS)
    cnt = 0
    for entries in product(range(-box, box + 1), repeat=n * n):
        U = [list(entries[i * n : (i + 1) * n]) for i in range(n)]
        det = (
            U[0][0]
            if n == 1
            else U[0][0] * U[1][1] - U[0][1] * U[1][0]
            if n == 2
            else None
        )
        if n == 3:
            det = (
                U[0][0] * (U[1][1] * U[2][2] - U[1][2] * U[2][1])
                - U[0][1] * (U[1][0] * U[2][2] - U[1][2] * U[2][0])
                + U[0][2] * (U[1][0] * U[2][1] - U[1][1] * U[2][0])
            )
        if det not in (1, -1):
            continue
        if transform(twoS, U) == as_mat(twoS):
            cnt += 1
    return cnt


def test_automorphism_count_examples():
    assert automorphism_count([[2]]) == 2
    assert automorphism_count(I2) == 8
    assert automorphism_count(A2) == 12
    assert automorphism_count(B7) == 4
    assert automorphism_count(direct_sum(A2, A2)) == 288


def test_the_zero_lattice_has_one_automorphism():
    assert automorphisms(()) == [()]
    assert automorphism_count(()) == 1
    assert is_equivalent((), ()) == ()


def test_automorphisms_read_a_pool_the_caller_holds():
    # a wider pool of the same form gives the same group in the same order
    for M in (A2, B7, I2, direct_sum(A2, B7), direct_sum(B7, B7)):
        for extra in (0, 3):
            B = max(M[i][i] for i in range(len(M))) // 2 + extra
            assert automorphisms(M, short_vectors(M, B)) == automorphisms(M), (M, B)


def test_automorphisms_refuse_a_pool_without_some_Q_e_i():
    # every definite form has +-1, so a pool too short for the search is
    # refused rather than read as the empty group
    with pytest.raises(ValueError, match="no vector of value Q\\(e_i\\) = 1"):
        automorphisms(A2, short_vectors(A2, 0))
    with pytest.raises(ValueError, match="= 2"):  # B7 = [[2, 1], [1, 4]]: Q(e_2) = 2
        automorphisms(B7, short_vectors(B7, 1))


def test_automorphism_count_brute_small():
    forms = [
        as_mat([[2]]),
        as_mat([[4]]),
        I2,
        A2,
        B7,
        as_mat([[2, 0], [0, 4]]),
        as_mat([[2, 0], [0, 6]]),
        as_mat([[4, 1], [1, 4]]),
        direct_sum(I2, [[2]]),
        direct_sum(A2, [[2]]),
    ]
    for M in forms:
        # entries of any isometry column are bounded by 1 for the rank-3
        # forms above (all their minimal vectors live in {-1,0,1}^3)
        box = 1 if len(M) == 3 else 2
        assert automorphism_count(M) == automorphism_count_brute(M, box), M


# ------------------------------------------------------------- enumeration

def test_enumerate_classes_examples():
    assert enumerate_classes(2, 1) == []
    got3 = enumerate_classes(2, 3)
    assert len(got3) == 1 and got3[0] == minkowski_reduce(A2)
    got4 = enumerate_classes(2, 4)
    assert got4 == [minkowski_reduce(I2)]
    got7 = enumerate_classes(2, 7)
    assert got7 == [minkowski_reduce(B7)]
    assert enumerate_classes(2, 5) == []  # binary even det is 0 or 3 mod 4
    with pytest.raises(ValueError):
        enumerate_classes(3, 7)


def test_enumerate_classes_doubling_stability(monkeypatch):
    # rank 4 checks the product bound that a cold level-7 ladder run reads;
    # doubling gamma_r^r doubles the search cap gamma_r^r t_max
    cases = ((2, 3), (2, 5), (2, 7), (4, 7), (4, 13))
    base = [enumerate_classes(r, p) for r, p in cases]
    monkeypatch.setattr(lattice_module, "_GAMMA_POW",
                        {r: 2 * g for r, g in lattice_module._GAMMA_POW.items()})
    assert [enumerate_classes(r, p) for r, p in cases] == base


def test_enumerate_classes_pairwise_inequivalent():
    got = [M for M in enumerate_classes(2, 12) if bareiss_det(M) <= 100]
    for i, M in enumerate(got):
        assert level(M) in (1, 2, 3, 4, 6, 12)
        for W in got[i + 1 :]:
            if bareiss_det(M) == bareiss_det(W):
                assert is_equivalent(M, W) is None


# enumerate_classes output recorded when the search still ran over every
# determinant dividing N^r, before the Fricke halving; a key (r, N, bound)
# holds the classes of det 2S <= bound
RECORDED_CLASSES = {
    (2, 1, None): [],
    (2, 2, None): [],
    (2, 3, None): [((2, -1), (-1, 2))],
    (2, 4, None): [((2, 0), (0, 2))],
    (2, 5, None): [],
    (2, 6, None): [((2, -1), (-1, 2)), ((4, -2), (-2, 4))],
    (2, 7, None): [((2, -1), (-1, 4))],
    (2, 8, None): [((2, 0), (0, 2)), ((2, 0), (0, 4)), ((4, 0), (0, 4))],
    (2, 9, None): [((2, -1), (-1, 2)), ((6, -3), (-3, 6))],
    (2, 10, None): [],
    (2, 11, None): [((2, -1), (-1, 6))],
    (2, 12, None): [
        ((2, -1), (-1, 2)), ((2, 0), (0, 2)), ((2, 0), (0, 6)), ((4, -2), (-2, 4)),
        ((6, 0), (0, 6)), ((8, -4), (-4, 8)),
    ],
    (2, 13, None): [],
    (2, 14, None): [((2, -1), (-1, 4)), ((4, -2), (-2, 8))],
    (2, 15, None): [
        ((2, -1), (-1, 2)), ((2, -1), (-1, 8)), ((4, -1), (-1, 4)),
        ((10, -5), (-5, 10)),
    ],
    (2, 16, None): [
        ((2, 0), (0, 2)), ((2, 0), (0, 4)), ((2, 0), (0, 8)), ((4, 0), (0, 4)),
        ((4, 0), (0, 8)), ((8, 0), (0, 8)),
    ],
    (2, 17, None): [],
    (2, 18, None): [
        ((2, -1), (-1, 2)), ((4, -2), (-2, 4)), ((6, -3), (-3, 6)),
        ((12, -6), (-6, 12)),
    ],
    (2, 19, None): [((2, -1), (-1, 10))],
    (2, 20, None): [
        ((2, 0), (0, 2)), ((2, 0), (0, 10)), ((4, -2), (-2, 6)), ((10, 0), (0, 10)),
    ],
    (2, 21, None): [
        ((2, -1), (-1, 2)), ((2, -1), (-1, 4)), ((6, -3), (-3, 12)),
        ((14, -7), (-7, 14)),
    ],
    (2, 22, None): [((2, -1), (-1, 6)), ((4, -2), (-2, 12))],
    (2, 23, None): [((2, -1), (-1, 12)), ((4, -1), (-1, 6))],
    (2, 24, None): [
        ((2, -1), (-1, 2)), ((2, 0), (0, 2)), ((2, 0), (0, 4)), ((2, 0), (0, 6)),
        ((4, -2), (-2, 4)), ((4, 0), (0, 4)), ((2, 0), (0, 12)), ((4, 0), (0, 6)),
        ((6, 0), (0, 6)), ((4, 0), (0, 12)), ((8, -4), (-4, 8)), ((6, 0), (0, 12)),
        ((12, 0), (0, 12)), ((16, -8), (-8, 16)),
    ],
    (2, 25, None): [],
    (2, 26, None): [],
    (2, 27, None): [
        ((2, -1), (-1, 2)), ((2, -1), (-1, 14)), ((6, -3), (-3, 6)),
        ((18, -9), (-9, 18)),
    ],
    (2, 28, None): [
        ((2, 0), (0, 2)), ((2, -1), (-1, 4)), ((2, 0), (0, 14)), ((4, -2), (-2, 8)),
        ((8, -4), (-4, 16)), ((14, 0), (0, 14)),
    ],
    (2, 29, None): [],
    (2, 30, None): [
        ((2, -1), (-1, 2)), ((4, -2), (-2, 4)), ((2, -1), (-1, 8)), ((4, -1), (-1, 4)),
        ((4, -2), (-2, 16)), ((8, -2), (-2, 8)), ((10, -5), (-5, 10)),
        ((20, -10), (-10, 20)),
    ],
    (2, 31, None): [((2, -1), (-1, 16)), ((4, -1), (-1, 8))],
    (2, 32, None): [
        ((2, 0), (0, 2)), ((2, 0), (0, 4)), ((2, 0), (0, 8)), ((4, 0), (0, 4)),
        ((2, 0), (0, 16)), ((4, 0), (0, 8)), ((6, -2), (-2, 6)), ((4, 0), (0, 16)),
        ((8, 0), (0, 8)), ((8, 0), (0, 16)), ((16, 0), (0, 16)),
    ],
    (2, 33, None): [
        ((2, -1), (-1, 2)), ((2, -1), (-1, 6)), ((6, -3), (-3, 18)),
        ((22, -11), (-11, 22)),
    ],
    (2, 34, None): [],
    (2, 35, None): [
        ((2, -1), (-1, 4)), ((2, -1), (-1, 18)), ((6, -1), (-1, 6)),
        ((10, -5), (-5, 20)),
    ],
    (2, 36, None): [
        ((2, -1), (-1, 2)), ((2, 0), (0, 2)), ((2, 0), (0, 6)), ((4, -2), (-2, 4)),
        ((6, -3), (-3, 6)), ((2, 0), (0, 18)), ((4, -2), (-2, 10)), ((6, 0), (0, 6)),
        ((8, -4), (-4, 8)), ((6, 0), (0, 18)), ((12, -6), (-6, 12)), ((18, 0), (0, 18)),
        ((24, -12), (-12, 24)),
    ],
    (2, 37, None): [],
    (2, 38, None): [((2, -1), (-1, 10)), ((4, -2), (-2, 20))],
    (2, 39, None): [
        ((2, -1), (-1, 2)), ((2, -1), (-1, 20)), ((4, -1), (-1, 10)),
        ((6, -3), (-3, 8)), ((26, -13), (-13, 26)),
    ],
    (2, 40, None): [
        ((2, 0), (0, 2)), ((2, 0), (0, 4)), ((4, 0), (0, 4)), ((2, 0), (0, 10)),
        ((4, -2), (-2, 6)), ((2, 0), (0, 20)), ((4, 0), (0, 10)), ((4, 0), (0, 20)),
        ((8, -4), (-4, 12)), ((10, 0), (0, 10)), ((10, 0), (0, 20)), ((20, 0), (0, 20)),
    ],
    (2, 12, 100): [
        ((2, -1), (-1, 2)), ((2, 0), (0, 2)), ((2, 0), (0, 6)), ((4, -2), (-2, 4)),
        ((6, 0), (0, 6)), ((8, -4), (-4, 8)),
    ],
    (4, 11, 121): [
        ((2, -1, -1, -1), (-1, 2, 0, 0), (-1, 0, 8, -3), (-1, 0, -3, 8)),
        ((2, 0, -1, 0), (0, 2, 0, -1), (-1, 0, 6, 0), (0, -1, 0, 6)),
        ((4, -2, -1, -1), (-2, 4, 0, 1), (-1, 0, 4, 2), (-1, 1, 2, 4)),
    ],
    (4, 1, None): [],
    (4, 3, None): [((2, -1, 0, 0), (-1, 2, 0, 0), (0, 0, 2, -1), (0, 0, -1, 2))],
    (4, 7, None): [((2, 0, -1, 0), (0, 2, 0, -1), (-1, 0, 4, 0), (0, -1, 0, 4))],
    (4, 2, None): [((2, -1, -1, -1), (-1, 2, 0, 0), (-1, 0, 2, 0), (-1, 0, 0, 2))],
    (4, 4, None): [
        ((2, -1, -1, -1), (-1, 2, 0, 0), (-1, 0, 2, 0), (-1, 0, 0, 2)),
        ((2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2)),
        ((4, -2, -2, -2), (-2, 4, 0, 0), (-2, 0, 4, 0), (-2, 0, 0, 4)),
    ],
    (4, 5, None): [
        ((2, -1, -1, -1), (-1, 2, 0, 0), (-1, 0, 2, 1), (-1, 0, 1, 2)),
        ((2, -1, -1, -1), (-1, 2, 0, 0), (-1, 0, 4, -1), (-1, 0, -1, 4)),
        ((4, -1, -1, -1), (-1, 4, -1, -1), (-1, -1, 4, -1), (-1, -1, -1, 4)),
    ],
    (4, 6, None): [
        ((2, -1, -1, -1), (-1, 2, 0, 0), (-1, 0, 2, 0), (-1, 0, 0, 2)),
        ((2, -1, 0, 0), (-1, 2, 0, 0), (0, 0, 2, -1), (0, 0, -1, 2)),
        ((2, -1, 0, 0), (-1, 2, 0, 0), (0, 0, 4, -2), (0, 0, -2, 4)),
        ((2, 0, -1, -1), (0, 2, -1, -1), (-1, -1, 4, 1), (-1, -1, 1, 4)),
        ((4, -2, 0, 0), (-2, 4, 0, 0), (0, 0, 4, -2), (0, 0, -2, 4)),
        ((6, -3, -3, -3), (-3, 6, 0, 0), (-3, 0, 6, 0), (-3, 0, 0, 6)),
    ],
    # recorded from the Minkowski-box search, before the walk over
    # canonical shapes replaced it
    (4, 17, None): [
        ((2, -1, 0, -1), (-1, 2, 0, 0), (0, 0, 2, -1), (-1, 0, -1, 4)),
        ((2, -1, -1, -1), (-1, 2, 0, 0), (-1, 0, 12, -5), (-1, 0, -5, 12)),
        ((2, -1, -1, 0), (-1, 4, -1, -1), (-1, -1, 6, -2), (0, -1, -2, 10)),
        ((4, -2, -1, -1), (-2, 4, 0, 1), (-1, 0, 6, 3), (-1, 1, 3, 6)),
        ((6, -3, -2, -2), (-3, 10, 1, 1), (-2, 1, 12, -5), (-2, 1, -5, 12)),
    ],
    (4, 19, None): [
        ((2, -1, -1, -1), (-1, 4, 0, -1), (-1, 0, 6, -2), (-1, -1, -2, 12)),
        ((2, 0, -1, 0), (0, 2, 0, -1), (-1, 0, 10, 0), (0, -1, 0, 10)),
        ((4, 0, -2, -1), (0, 4, -1, -2), (-2, -1, 6, 1), (-1, -2, 1, 6)),
    ],
    (4, 37, None): [
        ((2, -1, -1, -1), (-1, 2, 0, 0), (-1, 0, 2, 1), (-1, 0, 1, 10)),
        ((2, -1, -1, 0), (-1, 2, 0, 0), (-1, 0, 4, -1), (0, 0, -1, 4)),
        ((2, -1, 0, -1), (-1, 8, -1, -3), (0, -1, 10, -2), (-1, -3, -2, 12)),
        ((2, 0, -1, -1), (0, 4, -1, -2), (-1, -1, 10, 1), (-1, -2, 1, 20)),
        ((4, -1, -2, -1), (-1, 4, 0, 0), (-2, 0, 6, 3), (-1, 0, 3, 20)),
        ((4, -1, -1, -1), (-1, 6, 3, 1), (-1, 3, 8, -1), (-1, 1, -1, 10)),
        ((4, -1, -1, -1), (-1, 28, -9, -9), (-1, -9, 28, -9), (-1, -9, -9, 28)),
        ((10, -3, -1, -1), (-3, 12, 4, 4), (-1, 4, 26, -11), (-1, 4, -11, 26)),
    ],
}

# the rank-4 searches at levels 2, 4, 5, 6 and the det-121 one, about 3 s
# together (they took 60 s while canonical forms branched over every
# minimal vector of D4 and A4)
SLOW_CASES = [(4, 2, None), (4, 4, None), (4, 5, None), (4, 6, None), (4, 11, 121)]
# a few seconds on its own, and as long again in the full-branching oracle;
# `pytest -m slow` runs both
LEVEL37 = (4, 37, None)


def fricke_dual(twoS, N):
    """N (2S)^{-1}, by exact Fraction inversion."""
    n = len(twoS)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(twoS)]
    for c in range(n):
        piv = next(i for i in range(c, n) if aug[i][c])
        aug[c], aug[piv] = aug[piv], aug[c]
        aug[c] = [x / aug[c][c] for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    dual = [[N * x for x in row[n:]] for row in aug]
    assert all(x.denominator == 1 for row in dual for x in row)
    return as_mat([[x.numerator for x in row] for row in dual])


def _check_recorded(cases):
    """Same output as recorded, and closed under the Fricke involution."""
    for r, N, bound in cases:
        got = enumerate_classes(r, N)
        if bound is not None:
            got = [M for M in got if bareiss_det(M) <= bound]
        assert got == RECORDED_CLASSES[r, N, bound], (r, N, bound)
        if bound is None:
            for M in got:
                assert bareiss_det(M) != N**r
                assert minkowski_reduce(fricke_dual(M, N)) in got, (r, N, M)


def test_enumerate_classes_matches_recorded():
    _check_recorded([c for c in RECORDED_CLASSES if c not in [*SLOW_CASES, LEVEL37]])


def test_enumerate_classes_matches_recorded_slow():
    _check_recorded(SLOW_CASES)


@pytest.mark.slow
def test_enumerate_classes_matches_recorded_level37():
    from test_genus import check_prime_level_masses

    _check_recorded([LEVEL37])
    for M in RECORDED_CLASSES[LEVEL37]:
        assert canonical_full_branching(M) == M
    genera = partition_into_genera([ClassRecord.from_rep(M) for M in RECORDED_CLASSES[LEVEL37]])
    check_prime_level_masses(genera, 37)


def test_enumerate_classes_det_bound_drops_large_duals():
    # the classes of det 2S <= N^{r/2} are the searched ones; the Fricke
    # dual of each one below N^{r/2} is the rest of the list
    full = enumerate_classes(4, 13)
    got = [M for M in full if bareiss_det(M) <= 169]
    assert [bareiss_det(M) for M in got] == [13, 169]
    dual = fricke_dual(got[0], 13)
    assert bareiss_det(dual) == 13**3 and level(dual) == 13
    assert full == got + [minkowski_reduce(dual)]


def test_enumerate_psd_indices_small():
    got1 = enumerate_psd_indices(1, 3)
    assert got1 == [((0,),), ((2,),), ((4,),), ((6,),)]
    got2 = enumerate_psd_indices(2, 2)
    assert len(got2) == 5
    assert as_mat([[0, 0], [0, 0]]) in got2
    assert minkowski_reduce(A2) in got2
    for M in got2:
        assert minkowski_reduce(M) == M
        assert form_trace(M) <= 2


@pytest.mark.parametrize("n", [1, 2, 3])
def test_enumerate_psd_indices_refuses_a_negative_trace_bound(n):
    with pytest.raises(ValueError, match="trace bound must be >= 0"):
        enumerate_psd_indices(n, -1)


@pytest.mark.parametrize("n,B", [(1, 20), (2, 16), (3, 5), (4, 3), (5, 2)])
def test_enumerate_psd_indices_matches_box_oracle(n, B):
    assert enumerate_psd_indices(n, B) == psd_indices_box(n, B)


@pytest.mark.parametrize("n,B", [(2, 16), (3, 6), (4, 3)])
def test_psd_indices_kept_without_reduction_are_canonical(monkeypatch, n, B):
    # pads of rank <= 2 skip the filter: each must be its own canonical form,
    # and only pads of rank >= 3 are reduced
    reduced = []

    def recording(M):
        reduced.append(M)
        return minkowski_reduce(M)

    monkeypatch.setattr(lattice_module, "minkowski_reduce", recording)
    unreduced = [M for M in enumerate_psd_indices(n, B) if M not in reduced]
    assert all(form_rank(M) >= 3 for M in reduced)
    assert unreduced and all(minkowski_reduce(M) == M for M in unreduced)


def test_extendable():
    assert _extendable([[1, 0, 0]], 3)
    assert _extendable([[2, 1, 0], [1, 1, 0]], 3)
    assert not _extendable([[2, 0, 0]], 3)
    assert not _extendable([[1, 0, 0], [2, 0, 0]], 3)
    assert _extendable([], 3)


def test_quotient_map_agrees_with_extendable():
    # the map Z^r -> Z^(r-j) built over b_0..b_{j-1} is onto (its rows
    # extend to a basis), kills every b_i, and w extends b_0..b_{j-1}
    # exactly when gcd(P w) = 1
    rng = random.Random(83)
    verdicts = set()
    for r in range(2, 6):
        for _ in range(12):
            U = random_unimodular(rng, r, steps=12)
            basis = [tuple(U[i][t] for i in range(r)) for t in range(r)]
            P = [[int(i == t) for t in range(r)] for i in range(r)]
            for j in range(r):
                chosen = basis[:j]
                assert len(P) == r - j and _extendable(P, r)
                assert all(not any(sum(map(mul, p, b)) for p in P) for b in chosen)
                ws = [tuple(rng.randint(-3, 3) for _ in range(r)) for _ in range(8)]
                ws += [tuple(x + 2 * y for x, y in zip(basis[j], b)) for b in basis[:j]]
                ws += [tuple(2 * x + y for x, y in zip(basis[j], b)) for b in basis[:j]]
                for w in ws:
                    if not any(w):
                        continue
                    got = math.gcd(*(sum(map(mul, p, w)) for p in P)) == 1
                    assert got == _extendable(chosen + [w], r), (basis, j, w)
                    verdicts.add((j, got))
                P = _quotient_map(P, [sum(map(mul, p, basis[j])) for p in P])
            assert P == []
    assert verdicts == {(j, v) for j in range(5) for v in (True, False)}


# ------------------------------------------------------------- text format

def test_matrix_text_round_trip():
    assert parse_matrix_text("2; 2 1; 1 2") == A2
    assert parse_matrix_text("1; 2") == ((2,),)
    assert parse_matrix_text("0;") == ()  # the zero form
    with pytest.raises(ValueError):
        parse_matrix_text("2; 2 1; 1")
    with pytest.raises(ValueError):
        parse_matrix_text("2; 1 0; 0 1")  # odd diagonal
    for text in ("-2; 2 1; 1 2", "-1; 2"):  # n < 0, with the n^2 entries it asks for
        with pytest.raises(ValueError):
            parse_matrix_text(text)
