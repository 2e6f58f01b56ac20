"""Exact linear algebra over the integers and Z/p^c.

Matrices are plain lists of lists of ints.
Sizes here are tiny (rank <= 8), so clarity wins over vectorization.
"""

from __future__ import annotations

__all__ = [
    "identity",
    "bareiss_det",
    "adjugate",
    "column_reduce",
    "echelon_mod",
]


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def bareiss_det(A) -> int:
    """Determinant of an integer matrix by fraction-free elimination."""
    n = len(A)
    if n == 0:
        return 1
    M = [list(map(int, row)) for row in A]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            for i in range(k + 1, n):
                if M[i][k]:
                    M[k], M[i] = M[i], M[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


def adjugate(A) -> list[list[int]]:
    """Adjugate of an integer matrix: A @ adj(A) = det(A) * I."""
    n = len(A)
    if n == 1:
        return [[1]]
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [[A[r][c] for c in range(n) if c != j] for r in range(n) if r != i]
            adj[j][i] = (-1) ** (i + j) * bareiss_det(minor)
    return adj


def column_reduce(A):
    """Unimodular U that moves the integer kernel of A into its first columns.

    Integer column reduction, the column Hermite step of Cohen (GTM 138,
    §2.4): rows are taken from the bottom, and in each one Euclid steps
    among the columns 0..k gather the row's gcd into column k, which then
    stays as a pivot.  Returns (U, r) with r = rank A: the first n - r
    columns of A U are zero and the last r are in echelon form, so the
    first n - r columns of U are a basis of {x in Z^n : A x = 0}.
    """
    rows = len(A)
    n = len(A[0]) if rows else 0
    cols = [[int(A[i][j]) for i in range(rows)] for j in range(n)]
    ucols = identity(n)  # columns of U, stored as rows
    k = n - 1
    for i in reversed(range(rows)):
        if k < 0:
            break
        for j in range(k):
            while cols[j][i]:
                q = cols[k][i] // cols[j][i]
                cols[k] = [x - q * y for x, y in zip(cols[k], cols[j])]
                ucols[k] = [x - q * y for x, y in zip(ucols[k], ucols[j])]
                cols[j], cols[k] = cols[k], cols[j]
                ucols[j], ucols[k] = ucols[k], ucols[j]
        if cols[k][i]:
            k -= 1
    return [list(row) for row in zip(*ucols)], n - 1 - k


def echelon_mod(M, p: int, c: int = 1):
    """Reduced row echelon form of M over Z/p^c, pivoting on p-units only.

    Returns (rows, pivots), rows reduced mod p^c: rows[i] has a 1 in
    column pivots[i] and 0 in every other pivot column, and every entry
    of the rows after len(pivots) is divisible by p.  A column without a
    unit entry below the current pivots is skipped, so for c = 1 this is
    Gaussian elimination over F_p and len(pivots) is the rank.  For an
    augmented [A | b] with A square and invertible mod p, the solution
    of A x = b mod p^c is the last column of the first len(A) rows.
    """
    q = p**c
    rows = [[x % q for x in row] for row in M]
    pivots = []
    for col in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        if r == len(rows):
            break
        piv = next((i for i in range(r, len(rows)) if rows[i][col] % p), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][col], -1, q)
        rows[r] = [x * inv % q for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [(x - f * y) % q for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
    return rows, pivots
