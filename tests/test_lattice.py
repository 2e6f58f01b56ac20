import math
import random
from fractions import Fraction
from itertools import product

import pytest

from eistheta.lattice import (
    QuadCharacter,
    _extendable,
    as_mat,
    automorphism_count,
    check_form,
    chi_S,
    content,
    direct_sum,
    enumerate_classes,
    enumerate_psd_indices,
    eta_S,
    form_det,
    form_rank,
    form_trace,
    is_equivalent,
    is_psd,
    level,
    minkowski_reduce,
    pad_zero,
    parse_matrix_text,
    short_vectors,
    transform,
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


def test_rank_det_trace_content():
    assert form_rank([[0, 0, 0], [0, 0, 0], [0, 0, 0]]) == 0
    assert form_rank([[2, 0, 0], [0, 2, 0], [0, 0, 0]]) == 2
    assert form_rank(A2) == 2
    assert form_det(A2) == 3
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


# -------------------------------------------------------------- characters

def test_chi_S_examples():
    assert chi_S(B7, 3) == -1
    assert chi_S(B7, 1) == 1
    # square determinant: trivial on positive d coprime to det
    S49 = direct_sum(B7, B7)
    assert form_det(S49) == 49
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
    assert eta_S(direct_sum(B7, B7)) == QuadCharacter(1)
    eta = eta_S(B7)
    assert eta.modulus == 7
    for d in range(1, 21):
        if d % 7:
            assert eta(d) == chi_S(B7, d)
    eta4 = eta_S(I2)
    assert eta4.disc == -4 and eta4.modulus == 4
    for d in range(1, 21, 2):
        assert eta4(d) == chi_S(I2, d)


# ----------------------------------------------------------- short vectors

def test_short_vectors_examples():
    got = short_vectors([[2]], 4)
    assert got == [((1,), 1), ((2,), 4)]
    got = short_vectors(A2, 1, both_signs=True)
    assert len(got) == 6 and all(q == 1 for _, q in got)
    assert short_vectors(A2, 0) == []
    assert len(short_vectors(A2, 1)) == 3


def test_short_vectors_against_box():
    rng = random.Random(17)
    forms = [A2, B7, I2, direct_sum(A2, [[2]]), direct_sum(B7, [[4]])]
    for _ in range(10):
        M = random_psd(rng, rng.randint(1, 3))
        if form_rank(M) == len(M):
            forms.append(M)
    for M in forms:
        bound = rng.randint(1, 6)
        got = set(short_vectors(M, bound, both_signs=True))
        assert got == short_vectors_brute(M, bound), (M, bound)


def test_short_vectors_rational_bound():
    got = short_vectors(A2, Fraction(3, 2), both_signs=True)
    assert len(got) == 6  # nothing between 1 and 3/2


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


def test_minkowski_reduce_rejects():
    with pytest.raises(ValueError):
        minkowski_reduce([[-2, 0], [0, 2]])
    with pytest.raises(ValueError):
        minkowski_reduce([[2, 0, 0, 0, 0, 0]] * 6)


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


def test_enumerate_classes_doubling_stability():
    for p in (3, 5, 7):
        base = enumerate_classes(2, p)
        wide = enumerate_classes(2, p, bound_multiplier=2)
        assert base == wide


def test_enumerate_classes_pairwise_inequivalent():
    got = enumerate_classes(2, 12, det_bound=100)
    for i, M in enumerate(got):
        assert level(M) in (1, 2, 3, 4, 6, 12)
        for W in got[i + 1 :]:
            if form_det(M) == form_det(W):
                assert is_equivalent(M, W) is None


# enumerate_classes output recorded when the search still ran over every
# determinant dividing N^r, before the Fricke halving
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
}

# 7-13 s each at rank 4, levels 2, 4, 5, 6 (canonical forms of D4 and A4);
# 2.5 s for the det-121 search, whose class count tier-1 checks elsewhere
SLOW_CASES = [(4, 2, None), (4, 4, None), (4, 5, None), (4, 6, None), (4, 11, 121)]


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
    return as_mat(dual)


def _check_recorded(cases):
    """Same output as recorded, and closed under the Fricke involution."""
    for r, N, det_bound in cases:
        got = enumerate_classes(r, N, det_bound=det_bound)
        assert got == RECORDED_CLASSES[r, N, det_bound], (r, N, det_bound)
        if det_bound is None:
            for M in got:
                assert form_det(M) != N**r
                assert minkowski_reduce(fricke_dual(M, N)) in got, (r, N, M)


def test_enumerate_classes_matches_recorded():
    _check_recorded([c for c in RECORDED_CLASSES if c not in SLOW_CASES])


@pytest.mark.slow
def test_enumerate_classes_matches_recorded_slow():
    _check_recorded(SLOW_CASES)


def test_enumerate_classes_det_bound_drops_large_duals():
    got = enumerate_classes(4, 13, det_bound=169)
    assert [form_det(M) for M in got] == [13, 169]
    dual = fricke_dual(got[0], 13)
    assert form_det(dual) == 13**3 and level(dual) == 13


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


def test_extendable():
    assert _extendable([[1, 0, 0]], 3)
    assert _extendable([[2, 1, 0], [1, 1, 0]], 3)
    assert not _extendable([[2, 0, 0]], 3)
    assert not _extendable([[1, 0, 0], [2, 0, 0]], 3)
    assert _extendable([], 3)


# ------------------------------------------------------------- text format

def test_matrix_text_round_trip():
    assert parse_matrix_text("2; 2 1; 1 2") == A2
    assert parse_matrix_text("1; 2") == ((2,),)
    with pytest.raises(ValueError):
        parse_matrix_text("2; 2 1; 1")
    with pytest.raises(ValueError):
        parse_matrix_text("2; 1 0; 0 1")  # odd diagonal
