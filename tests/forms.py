"""Form constructors that only the tests need."""

from eistheta.lattice import Mat, as_mat


def direct_sum(*forms) -> Mat:
    """Block-diagonal doubled Gram matrix of the given forms."""
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
