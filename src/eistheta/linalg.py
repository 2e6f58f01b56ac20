"""Exact linear algebra over the integers and Z/p^c.

Matrices are plain lists of lists of ints.
Sizes here are tiny (rank <= 8), so clarity wins over vectorization.
"""

from __future__ import annotations

__all__ = [
    "identity",
    "bareiss_det",
    "exact_rank",
    "adjugate",
    "smith_normal_form",
    "kernel_basis",
    "unimodular_extension",
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


def exact_rank(A) -> int:
    """Rank of an integer matrix by fraction-free (Bareiss) elimination."""
    M = [list(map(int, row)) for row in A]
    rows = len(M)
    r, prev = 0, 1
    for c in range(len(M[0]) if M else 0):
        piv = next((i for i in range(r, rows) if M[i][c]), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        p = M[r][c]
        for i in range(r + 1, rows):
            f = M[i][c]
            M[i] = [(x * p - f * y) // prev for x, y in zip(M[i], M[r])]
        prev = p
        r += 1
        if r == rows:
            break
    return r


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


def smith_normal_form(A):
    """Smith normal form with transforms: returns (S, U, V) with S = U A V,
    U and V unimodular, S diagonal with d1 | d2 | ... ."""
    S = [list(map(int, row)) for row in A]
    rows = len(S)
    cols = len(S[0]) if rows else 0
    U = identity(rows)
    V = identity(cols)

    def swap_rows(i, j):
        S[i], S[j] = S[j], S[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in S:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):
        S[dst] = [x + c * y for x, y in zip(S[dst], S[src])]
        U[dst] = [x + c * y for x, y in zip(U[dst], U[src])]

    def add_col(src, dst, c):
        for row in S:
            row[dst] += c * row[src]
        for row in V:
            row[dst] += c * row[src]

    t = 0
    while t < min(rows, cols):
        # move a nonzero pivot of smallest magnitude to (t, t)
        piv = None
        for i in range(t, rows):
            for j in range(t, cols):
                if S[i][j] and (piv is None or abs(S[i][j]) < abs(S[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, rows):
                if S[i][t]:
                    add_row(t, i, -(S[i][t] // S[t][t]))
                    if S[i][t]:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, cols):
                if S[t][j]:
                    add_col(t, j, -(S[t][j] // S[t][t]))
                    if S[t][j]:
                        swap_cols(t, j)
                        dirty = True
        t += 1

    # enforce the divisibility chain
    n = min(rows, cols)
    changed = True
    while changed:
        changed = False
        for i in range(n - 1):
            a, b = S[i][i], S[i + 1][i + 1]
            if a == 0 or b % a == 0:
                continue
            # fold S[i+1][i+1] into position (i, i) and re-reduce
            add_col(i + 1, i, 1)
            dirty = True
            while dirty:
                dirty = False
                for r in range(i + 1, rows):
                    if S[r][i]:
                        add_row(i, r, -(S[r][i] // S[i][i]))
                        if S[r][i]:
                            swap_rows(i, r)
                            dirty = True
                for c in range(i + 1, cols):
                    if S[i][c]:
                        add_col(i, c, -(S[i][c] // S[i][i]))
                        if S[i][c]:
                            swap_cols(i, c)
                            dirty = True
            changed = True
    for i in range(n):
        if S[i][i] < 0:
            for j in range(cols):
                S[i][j] = -S[i][j]
            for j in range(rows):
                U[i][j] = -U[i][j]
    return S, U, V


def kernel_basis(A) -> list[list[int]]:
    """Saturated basis of the integer kernel {x : A x = 0}, as a list of
    column vectors.  Saturated means the basis extends to a basis of Z^n."""
    rows = len(A)
    cols = len(A[0]) if rows else 0
    if rows == 0:
        return [list(col) for col in identity(cols)]
    S, _, V = smith_normal_form(A)
    out = []
    for j in range(cols):
        if j >= rows or S[j][j] == 0:
            out.append([V[i][j] for i in range(cols)])
    return out


def unimodular_extension(K: list[list[int]]) -> list[list[int]]:
    """Given independent saturated columns K (n x s), return a unimodular
    n x n matrix whose first s columns span the same sublattice."""
    n = len(K)
    s = len(K[0]) if K else 0
    if s == 0:
        return identity(n)
    S, U, _ = smith_normal_form(K)
    for i in range(s):
        if S[i][i] != 1:
            raise ValueError("columns do not form a saturated sublattice")
    # K = U^{-1} S V^{-1}; the first s columns of U^{-1} span the lattice.
    Uinv = _invert_unimodular(U)
    return Uinv


def _invert_unimodular(U):
    n = len(U)
    adj = adjugate(U)
    d = bareiss_det(U)
    if d not in (1, -1):
        raise ValueError("matrix is not unimodular")
    return [[x * d for x in row] for row in adj]


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
