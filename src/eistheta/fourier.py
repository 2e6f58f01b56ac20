"""Truncated Fourier expansions indexed by half-integral matrices.

A degree-n expansion stores the nonzero rational coefficients a(T) for
canonical positive semidefinite T with tr(T) <= trace_bound, so a(T) is
0 at every other canonical T of the window.  All "for all T" predicates
below are evaluated on the stored window and are window-relative.
"""

from __future__ import annotations

from fractions import Fraction

from .exactnum import check_integers, frac_from_doc, frac_to_doc, is_prime, v_p
from .lattice import Mat, as_mat, form_trace, minkowski_reduce
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


def _from_checked(degree, trace_bound, coeffs) -> QExpansion:
    """A QExpansion on indices known to be canonical and to lie within
    ``trace_bound``: skips the canonical-form check of ``__post_init__``,
    drops zeros.  The indices must come from an expansion that passed that
    check, be kept by ``minkowski_reduce(M) == M``, be 1 x 1 entries (2t)
    with t >= 0, or be canonical by construction: at most two nonzero
    diagonal entries, none negative, and every column passing
    ``lattice.fits_canonical_shape`` (minkowski_reduce's own shortcut
    test).  ``lattice.enumerate_psd_indices`` and
    ``theta.theta_series`` take their indices of rank <= 2 by construction
    and reduce only the others."""
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
