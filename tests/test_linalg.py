import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from eistheta.lattice import minkowski_reduce, pad_zero
from eistheta.linalg import (
    adjugate,
    bareiss_det,
    column_reduce,
    echelon_mod,
    identity,
)


def mat_mul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def mat_vec(A, v):
    return [sum(a * x for a, x in zip(row, v)) for row in A]


def det_fraction(A):
    """Reference determinant via plain fraction elimination."""
    n = len(A)
    M = [[Fraction(x) for x in row] for row in A]
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if M[i][k]), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            M[k], M[piv] = M[piv], M[k]
            det = -det
        det *= M[k][k]
        inv = 1 / M[k][k]
        for i in range(k + 1, n):
            f = M[i][k] * inv
            M[i] = [x - f * y for x, y in zip(M[i], M[k])]
    return det


def rank_fraction(A):
    """Reference rank via Gauss-Jordan over Fractions."""
    if not A:
        return 0
    M = [[Fraction(x) for x in row] for row in A]
    rows, cols = len(M), len(M[0])
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if M[i][c]), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        inv = 1 / M[r][c]
        M[r] = [x * inv for x in M[r]]
        for i in range(rows):
            if i != r and M[i][c]:
                f = M[i][c]
                M[i] = [x - f * y for x, y in zip(M[i], M[r])]
        r += 1
        if r == rows:
            break
    return r


def random_matrix(rng, rows, cols, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def test_bareiss_det_matches_fraction_elimination():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(1, 6)
        A = random_matrix(rng, n, n)
        assert bareiss_det(A) == det_fraction(A)


def test_bareiss_det_singular_and_identity():
    assert bareiss_det(identity(5)) == 1
    A = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert bareiss_det(A) == 0
    assert bareiss_det([]) == 1


def test_exact_rank():
    # the rank column_reduce returns, against Gauss-Jordan over Fractions
    rng = random.Random(5)
    ranks = set()
    for _ in range(400):
        n, m, r = rng.randint(1, 5), rng.randint(1, 5), rng.randint(0, 5)
        r = min(r, n, m)
        # a product of n x r and r x m factors, some with zero columns or rows
        B = random_matrix(rng, n, r, -4, 4)
        C = [[rng.choice([0, rng.randint(-4, 4)]) for _ in range(m)] for _ in range(r)]
        A = mat_mul(B, C) if r else [[0] * m for _ in range(n)]
        got = column_reduce(A)[1]
        assert got == rank_fraction(A) <= r, A
        ranks.add((r, got))
    assert all((r, r) in ranks for r in range(6))  # full rank reached
    assert any(got < r for r, got in ranks)  # and rank deficiency
    for A, r in [([[2, 0, 0], [0, 3, 0]], 2), ([[0, 0], [0, 0]], 0),
                 ([[0, 4, 2], [0, 2, 1], [0, 0, 3]], 2), ([], 0)]:
        assert column_reduce(A)[1] == rank_fraction(A) == r


def test_adjugate_identity():
    rng = random.Random(9)
    for _ in range(100):
        n = rng.randint(1, 5)
        A = random_matrix(rng, n, n, -6, 6)
        adj = adjugate(A)
        d = bareiss_det(A)
        prod = mat_mul(A, adj)
        assert prod == [[d if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(A):
    return [list(col) for col in zip(*A)]


def random_unimodular(rng, n):
    """Product of random elementary column operations, entries kept small."""
    U = identity(n)
    for _ in range(3 * n):
        i, j = rng.choice(range(n)), rng.choice(range(n))
        if i == j or rng.random() < 0.2:
            U = [[-x if c == i else x for c, x in enumerate(row)] for row in U]
        else:
            s = rng.choice((-2, -1, 1, 2))
            for row in U:
                row[j] += s * row[i]
    return U


def random_semidefinite(rng, n, r):
    """(M, G): a definite even G of rank r and M = U^t (0 + G) U, U unimodular."""
    base = rng.choice([
        [[2 * rng.randint(1, 3) if a == b else 0 for b in range(r)] for a in range(r)],
        [[2 if a == b else -1 if abs(a - b) == 1 else 0 for b in range(r)]
         for a in range(r)],
    ])
    B = random_matrix(rng, r, r, -2, 2)
    while not bareiss_det(B):
        B = random_matrix(rng, r, r, -2, 2)
    G = mat_mul(mat_mul(transpose(B), base), B)
    padded = [[0] * n for _ in range(n)]
    for a in range(r):
        for b in range(r):
            padded[n - r + a][n - r + b] = G[a][b]
    U = random_unimodular(rng, n)
    return mat_mul(mat_mul(transpose(U), padded), U), G


def semidefinite_samples(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 5)
        r = rng.randint(0, n)
        yield (n, r) + random_semidefinite(rng, n, r)


def test_column_reduce_splits_off_the_kernel():
    ranks = set()
    for n, r, M, _ in semidefinite_samples(41, 320):
        U, rank = column_reduce(M)
        assert bareiss_det(U) in (1, -1)
        assert rank == r == rank_fraction(M)
        MU = mat_mul(M, U)
        assert all(MU[i][j] == 0 for i in range(n) for j in range(n - r))
        ranks.add((n, r))
    assert len(ranks) == 20  # every 0 <= r <= n <= 5
    # non-square and degenerate shapes
    for A in ([[0, 0, 0]], [[1, 2, 3], [2, 4, 6]], [[4], [6]], [[6, 10, 15]]):
        U, rank = column_reduce(A)
        assert bareiss_det(U) in (1, -1) and rank == rank_fraction(A)
        AU = mat_mul(A, U)
        assert all(row[j] == 0 for row in AU for j in range(len(U) - rank))
    assert column_reduce([]) == ([], 0)


def test_minkowski_reduce_of_conjugated_semidefinite_forms():
    checked = 0
    for n, r, M, G in semidefinite_samples(41, 320):
        if r < 5:  # the rank-5 samples are the slow test below
            assert minkowski_reduce(M) == pad_zero(minkowski_reduce(G), n)
            checked += 1
    assert checked > 150


@pytest.mark.slow
def test_minkowski_reduce_of_conjugated_rank5_forms():
    # two of these spend most of their time in the search tree, not in the pool
    samples = [s for s in semidefinite_samples(41, 320) if s[1] == 5]
    assert len(samples) == 15
    for n, r, M, G in samples:
        assert minkowski_reduce(M) == pad_zero(minkowski_reduce(G), n)


def solve_mod(A, b, p, c):
    """x with A x = b mod p^c when every column of A pivots, else None."""
    n = len(A[0])
    rows, pivots = echelon_mod([list(r) + [v] for r, v in zip(A, b)], p, c)
    if pivots != list(range(n)):
        return None
    return [rows[i][n] for i in range(n)]


def rank_mod_p(M, p):
    """Rank over F_p as the size of the largest minor that is a p-unit."""
    m, k = len(M), len(M[0])
    for r in range(min(m, k), 0, -1):
        for rs in combinations(range(m), r):
            for cs in combinations(range(k), r):
                if bareiss_det([[M[i][j] for j in cs] for i in rs]) % p:
                    return r
    return 0


def test_solve_mod_prime_power():
    rng = random.Random(41)
    p, C = 7, 4
    q = p**C
    done = 0
    while done < 80:
        n = rng.randint(1, 4)
        rows = n + rng.randint(0, 2)
        A = random_matrix(rng, rows, n, -20, 20)
        x = [rng.randrange(q) for _ in range(n)]
        b = [v % q for v in mat_vec(A, x)]
        got = solve_mod(A, b, p, C)
        if got is None:
            assert rank_mod_p(A, p) < n
            continue
        assert got == x
        done += 1


def test_solve_mod_prime_power_needs_unit_pivots():
    # no unit pivot at all: both columns are skipped
    rows, pivots = echelon_mod([[7, 0, 0], [0, 7, 0]], 7, 3)
    assert pivots == [] and rows == [[7, 0, 0], [0, 7, 0]]
    # inconsistent overdetermined system: the right-hand side pivots
    rows, pivots = echelon_mod([[1, 0], [1, 1]], 7, 2)
    assert pivots == [0, 1]
    assert echelon_mod([], 7) == ([], [])


def brute_solutions(rows, n, q):
    """{x in (Z/q)^n : every augmented row r has r[:n] . x = r[n] mod q}."""
    return {
        x
        for x in product(range(q), repeat=n)
        if all((sum(a * v for a, v in zip(r, x)) - r[n]) % q == 0 for r in rows)
    }


def random_system(rng, p, c, m, n):
    """An augmented m x (n+1) system over Z/p^c, often singular or
    inconsistent: rows may repeat combinations of earlier rows, columns
    may be divisible by p, and right-hand sides are drawn independently."""
    q = p**c
    A = []
    for _ in range(m):
        if A and rng.random() < 0.4:
            f, g = rng.randrange(q), rng.randrange(q)
            r = rng.choice(A)
            s = rng.choice(A)
            A.append([(f * x + g * y) % q for x, y in zip(r, s)])
        else:
            A.append([rng.randrange(q) for _ in range(n)])
    for j in range(n):
        if rng.random() < 0.25:
            for row in A:
                row[j] = row[j] * p % q
    return [row + [rng.randrange(q)] for row in A]


def test_echelon_mod_matches_brute_force():
    rng = random.Random(59)
    systems = [
        (7, 3, [[7, 0, 0], [0, 7, 0]]),  # no unit pivot
        (7, 2, [[1, 0], [1, 1]]),  # inconsistent
    ]
    for p in (2, 3, 7):
        for c in (1, 2, 3):
            for n in (1, 2, 3):
                if (p**c) ** n > 20_000:
                    continue
                for _ in range(6):
                    m = rng.randint(1, 3)
                    systems.append((p, c, random_system(rng, p, c, m, n)))
    for p, c, M in systems:
        q = p**c
        n = len(M[0]) - 1
        rows, pivots = echelon_mod(M, p, c)
        # shape: unit pivots in increasing columns, cleared elsewhere
        assert len(rows) == len(M)
        assert pivots == sorted(set(pivots))
        assert all(0 <= x < q for row in rows for x in row)
        for i, col in enumerate(pivots):
            assert [rows[k][col] for k in range(len(rows))] == [
                int(k == i) for k in range(len(rows))
            ]
        assert all(x % p == 0 for row in rows[len(pivots):] for x in row)
        # same solution set as the input system (row operations only)
        want = brute_solutions(M, n, q)
        assert brute_solutions(rows, n, q) == want
        if c == 1:
            assert len(pivots) == rank_mod_p(M, p)
        if n in pivots:
            assert want == set()
        elif pivots == list(range(n)):
            # every unknown pivots: unique solution if the rest is zero
            rest = [row[n] for row in rows[n:]]
            x = tuple(rows[i][n] for i in range(n))
            assert want == ({x} if not any(rest) else set())

