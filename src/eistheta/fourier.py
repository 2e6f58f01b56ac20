"""Truncated Fourier expansions indexed by half-integral matrices.

A degree-n expansion stores rational coefficients a(T) for canonical
positive semidefinite T with tr(T) <= trace_bound.  Zero coefficients
may be omitted; lookups inside the window return 0, lookups beyond the
window raise (truncation is never silent).  All "for all T" predicates
below are evaluated on the stored window and are window-relative.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .exactnum import check_integers, divisors, frac_from_doc, frac_to_doc, is_prime, v_p
from .lattice import (
    Mat,
    as_mat,
    enumerate_psd_indices,
    form_det,
    form_trace,
    minkowski_reduce,
    pad_zero,
)
from .records import record


@record
class QExpansion:
    degree: int
    trace_bound: int
    coeffs: dict

    def __post_init__(self):
        check_integers("degree must be an integer >= 0", self.degree)
        check_integers("trace bound must be an integer", self.trace_bound)
        if self.degree < 0:
            raise ValueError("degree must be an integer >= 0")
        if self.trace_bound < 0:
            raise ValueError("trace bound must be >= 0")
        clean = {}
        for T, a in self.coeffs.items():
            T = as_mat(T)
            a = Fraction(a)
            if not a:
                continue
            if len(T) != self.degree:
                raise ValueError("index degree mismatch")
            if form_trace(T) > self.trace_bound:
                raise ValueError("index beyond trace bound")
            if minkowski_reduce(T) != T:
                raise ValueError("index not canonical")
            clean[T] = a
        return self._replace(coeffs=clean)


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


def _from_checked(degree, trace_bound, coeffs) -> QExpansion:
    """A QExpansion on indices known to be canonical and to lie within
    ``trace_bound``: skips the canonical-form check of ``__post_init__``,
    drops zeros.  The indices must come from an expansion that passed that
    check, from ``lattice.enumerate_psd_indices`` (which keeps only M with
    ``minkowski_reduce(M) == M``), or be 1 x 1 entries (2t) with t >= 0."""
    F = QExpansion(degree, trace_bound, {})
    F.coeffs.update((T, a) for T, a in coeffs.items() if a)  # the dict __post_init__ made
    return F


def qexp_scale(F: QExpansion, c) -> QExpansion:
    c = Fraction(c)
    return _from_checked(
        F.degree,
        F.trace_bound,
        {T: c * a for T, a in F.coeffs.items()},
    )


def qexp_add(*terms) -> QExpansion:
    """Sum of expansions of one degree, truncated to the smallest bound."""
    degrees = {F.degree for F in terms}
    if len(degrees) != 1:
        raise ValueError("degree mismatch")
    bound = min(F.trace_bound for F in terms)
    acc: dict = {}
    for F in terms:
        for T, a in F.coeffs.items():
            if form_trace(T) <= bound:
                acc[T] = acc.get(T, Fraction(0)) + a
    return _from_checked(degrees.pop(), bound, acc)


def _key_rank(T: Mat) -> int:
    """Rank of a canonical index T = (C 0; 0 0): C's nonzero diagonal entries."""
    return sum(T[i][i] != 0 for i in range(len(T)))


def rank_filter(F: QExpansion, r: int) -> QExpansion:
    """The sub-expansion supported on indices of rank exactly r."""
    if r < 0 or r > F.degree:
        raise ValueError("rank out of range")
    kept = {T: a for T, a in F.coeffs.items() if _key_rank(T) == r}
    return QExpansion(F.degree, F.trace_bound, kept)


def mod_pm_singular_rank(F: QExpansion, p: int, m: int):
    """The p-rank r of a mod-p^m singular expansion, else None.

    r is the largest rank carrying a p-unit coefficient; it qualifies
    only when r < degree and every stored coefficient of rank > r has
    v_p >= m.  Window-relative, like every predicate here.
    """
    if not is_prime(p):
        raise ValueError("p must be a prime")
    if m <= 0:
        raise ValueError("m must be positive")
    by_rank: dict[int, list] = {}
    for T, a in F.coeffs.items():
        v = v_p(a, p)
        if v < 0:
            raise ValueError(f"coefficient at {T} is not {p}-integral")
        by_rank.setdefault(_key_rank(T), []).append(v)
    unit_ranks = [r for r, vs in by_rank.items() if min(vs) == 0]
    if not unit_ranks:
        return None
    r = max(unit_ranks)
    if r == F.degree:
        return None
    for rr, vs in by_rank.items():
        if rr > r and min(vs) < m:
            return None
    return r


def check_weight_rank_congruence(k: int, r: int, p: int, m: int) -> bool:
    """Necessary condition relating weight and p-rank: 2k - r = 0
    mod (p-1)p^(m-1)."""
    return (2 * k - r) % ((p - 1) * p ** (m - 1)) == 0


def u_p(F: QExpansion, p: int) -> QExpansion:
    """Hecke operator at level p on expansions: a(T) -> a(pT)."""
    bound = F.trace_bound // p
    out: dict = {}
    for T, a in F.coeffs.items():
        tr = form_trace(T)
        if tr % p == 0 and tr // p <= bound:
            scaled = tuple(tuple(x // p for x in row) for row in T)
            if all(x % p == 0 for row in T for x in row):
                out[scaled] = a
    return QExpansion(F.degree, bound, out)


# -------------------------------------------------------- primitive part

def _hnf_matrices(r: int, d: int):
    """All upper-triangular Hermite forms of determinant d (row style:
    positive pivots, entries above a pivot reduced mod the pivot)."""
    def diag_splits(rem, length):
        if length == 1:
            yield (rem,)
            return
        for first in divisors(rem):
            for rest in diag_splits(rem // first, length - 1):
                yield (first,) + rest

    for dg in diag_splits(d, r):
        cols = [product(range(dg[j]), repeat=j) for j in range(r)]
        for above in product(*cols):
            H = [[0] * r for _ in range(r)]
            for c, col in enumerate(above):
                for i in range(c):
                    H[i][c] = col[i]
                H[c][c] = dg[c]
            yield tuple(tuple(row) for row in H)


def _transform_by_inverse(twoT: Mat, D) -> Mat | None:
    """(D^{-1})^t (2T) D^{-1} when it lands in even integral matrices.

    D is upper triangular with a positive diagonal, so D^t Y^t = 2T (that
    is Y D = 2T, as 2T is symmetric) and then D^t X = Y are solved by
    substitution, one exact division per entry, and D is refused at the
    first entry that is not integral: Y = D^t X is integral whenever X is.
    """
    n = len(D)

    def solve(B):  # Z with D^t Z = B, row by row, or None
        Z = []
        for i in range(n):
            row = []
            for c in range(n):
                s = B[i][c] - sum(D[l][i] * Z[l][c] for l in range(i))
                if s % D[i][i]:
                    return None
                row.append(s // D[i][i])
            Z.append(row)
        return Z

    Yt = solve(twoT)
    X = Yt and solve(list(zip(*Yt)))
    if not X or any(X[i][i] % 2 for i in range(n)):
        return None
    return tuple(map(tuple, X))


def primitive_inversion(plain):
    """Memoised a* solving a(T) = sum_D a*(T[D^{-1}]) for definite T.

    Returns the function R -> tuple of a*(T), one entry per weight, for T
    the canonical form of a definite R.  plain(R) gives the values a(T) as
    such a tuple, and the walk hands it the very form R that it reduced to
    T, so that plain finds the reduction of R already memoised.  The
    inversion runs by induction on det(2T), subtracting entry by entry the
    contributions of all non-unimodular Hermite forms D with
    det(D)^2 | det(2T) and T[D^{-1}] still even integral, so one walk
    serves every weight.
    """
    memo: dict[Mat, tuple] = {}

    def star(R) -> tuple:
        T = minkowski_reduce(R)
        got = memo.get(T)
        if got is not None:
            return got
        total = list(plain(R))
        det2T = form_det(T)
        for d in divisors(det2T):
            if d == 1 or det2T % (d * d):
                continue
            for D in _hnf_matrices(len(T), d):
                T2 = _transform_by_inverse(T, D)
                if T2 is not None:
                    total = [a - b for a, b in zip(total, star(T2))]
        memo[T] = got = tuple(total)
        return got

    return star


def primitive_coeffs(F: QExpansion, r: int, bound: int) -> dict:
    """Rank-r primitive coefficients a*(T) for definite T with tr <= bound,
    inverting a(T + 0) = sum over sublattice shapes D of a*(T[D^{-1}])."""
    if r <= 0 or r > F.degree:
        raise ValueError("rank out of range")
    if bound > F.trace_bound:
        raise ValueError("bound exceeds stored trace bound")
    star = primitive_inversion(lambda R: (coeff(F, pad_zero(R, F.degree)),))
    return {T: star(T)[0] for T in enumerate_psd_indices(r, bound) if _key_rank(T) == r}


# ------------------------------------------------------------ dump format

def dump_qexp(F: QExpansion) -> dict:
    """F as JSON; "class_invariant" is always true, since every expansion is
    keyed by canonical indices."""
    entries = []
    for T in sorted(F.coeffs):
        a = F.coeffs[T]
        entries.append({"twoT": [list(row) for row in T], **frac_to_doc(a)})
    return {
        "degree": F.degree,
        "trace_bound": F.trace_bound,
        "class_invariant": True,
        "coeffs": entries,
    }


def _dump_field(doc, name: str, kind: type = object, what: str = "expansion dump"):
    """doc[name] of a dump object, of type `kind`, or one that check_integers
    accepts when `kind` is int; ValueError naming `what` and the field otherwise."""
    malformed = f"{what}: missing or malformed field {name!r}"
    if not isinstance(doc, dict) or name not in doc:
        raise ValueError(malformed)
    if kind is int:
        check_integers(malformed, doc[name])
    elif not isinstance(doc[name], kind):
        raise ValueError(malformed)
    return doc[name]


def _dump_twoT(doc, what: str = "expansion dump") -> Mat:
    """doc["twoT"] as a matrix; ValueError naming `what` and the field otherwise."""
    try:
        return as_mat(_dump_field(doc, "twoT", list, what))
    except (TypeError, ValueError):
        raise ValueError(f"{what}: missing or malformed field 'twoT'") from None


def _dump_frac(doc, what: str = "expansion dump") -> Fraction:
    """doc["num"] / doc["den"] as a Fraction; ValueError naming `what` otherwise."""
    num_den = {f: _dump_field(doc, f, what=what) for f in ("num", "den")}
    try:
        return frac_from_doc(num_den)
    except ValueError as exc:
        raise ValueError(f"{what}: {exc}") from None


def load_qexp(doc) -> QExpansion:
    """Inverse of dump_qexp; a malformed dump raises ValueError naming the field."""
    coeffs = {}
    for e in _dump_field(doc, "coeffs", list):
        T = _dump_twoT(e)
        if T in coeffs:
            raise ValueError(f"expansion dump: index {list(map(list, T))} listed twice")
        coeffs[T] = _dump_frac(e)
    degree = _dump_field(doc, "degree", int)
    trace_bound = _dump_field(doc, "trace_bound", int)
    if _dump_field(doc, "class_invariant", bool) is not True:
        raise ValueError("expansion dump: field 'class_invariant' must be true")
    return QExpansion(degree, trace_bound, coeffs)
