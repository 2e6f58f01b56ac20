"""Genus partitioning for positive definite even forms of small rank.

Two forms lie in the same genus when they are equivalent over the reals
(automatic for positive definite forms of equal rank) and over Z_q for
every prime q dividing twice the determinant.  Local equivalence at q is
decided by searching for a congruential isometry U with

    U^t (2S) U = 2S'  (mod q^e),   U invertible mod q,

with e = v_q(2 det(2S)) + 3, comfortably above the stabilization
threshold for the determinant sizes handled here (rank <= 4, small
level).  The search lifts candidate columns digit by digit, so a found
witness is genuine mod q^e and a failed exhaustive search certifies
local inequivalence at that precision.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import product

from .exactnum import factorize, frac_from_doc, frac_to_doc, v_p
from .fourier import _dump_field, _dump_twoT
from .lattice import (
    Mat,
    QuadCharacter,
    as_mat,
    automorphism_count,
    check_form,
    enumerate_classes,
    eta_S,
    form_det,
    is_positive_definite,
    level,
    minkowski_reduce,
)
from .linalg import echelon_mod

_SEARCH_BUDGET = 20_000_000


def _affine_solutions_mod_q(rows, rhs, n, q):
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


def _column_candidates(A, B, cols, j, q, e, counter):
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
        s = 0
        for a in range(n):
            if x[a]:
                s += x[a] * sum(A[a][b] * x[b] for b in range(n))
        return s

    basis = echelon_mod(cols, q)[0]  # the placed columns are independent mod q

    def rec(x, t):
        if t == e:
            yield x
            return
        qt = q**t
        rows = []
        rhs = []
        for w, tgt in zip(W, lin_targets):
            rows.append(list(w))
            rhs.append((tgt - sum(w[a] * x[a] for a in range(n))) // qt)
        qdef = qq - quad(x)
        if q == 2:
            if qdef % (qt * 2):
                return
        else:
            ax = [sum(A[a][b] * x[b] for b in range(n)) for a in range(n)]
            rows.append([2 * v for v in ax])
            rhs.append(qdef // qt)
        sol = _affine_solutions_mod_q(rows, rhs, n, q)
        if sol is None:
            return
        part, null = sol
        for coeffs in product(range(q), repeat=len(null)):
            counter[0] += 1
            if counter[0] > _SEARCH_BUDGET:
                raise RuntimeError("local isometry search budget exceeded")
            d = list(part)
            for c, v in zip(coeffs, null):
                if c:
                    d = [(a + c * b) % q for a, b in zip(d, v)]
            y = tuple(xi + qt * di for xi, di in zip(x, d))
            yield from rec(y, t + 1)

    for x0 in product(range(q), repeat=n):
        counter[0] += 1
        if counter[0] > _SEARCH_BUDGET:
            raise RuntimeError("local isometry search budget exceeded")
        if len(echelon_mod(basis + [x0], q)[1]) == len(basis):
            continue  # dependent on the placed columns mod q
        if any((sum(w[a] * x0[a] for a in range(n)) - t) % q for w, t in zip(W, lin_targets)):
            continue
        if (quad(x0) - qq) % q:
            continue
        yield from rec(x0, 1)


def _local_isometry_exists(A, B, q, e):
    n = len(A)
    counter = [0]
    cols = []

    def place(j):
        if j == n:
            return True
        for x in _column_candidates(A, B, cols, j, q, e, counter):
            cols.append(x)
            if place(j + 1):
                return True
            cols.pop()
        return False

    return place(0)


def same_genus(twoS, twoS2):
    """Decide whether two positive definite even forms share a genus."""
    A = as_mat(twoS)
    B = as_mat(twoS2)
    check_form(A)
    check_form(B)
    if len(A) != len(B):
        raise ValueError("rank mismatch")
    if len(A) > 4:
        raise ValueError("genus test implemented for rank <= 4 only")
    if not (is_positive_definite(A) and is_positive_definite(B)):
        raise ValueError("forms must be positive definite")
    d = form_det(A)
    if d != form_det(B):
        return False
    for q in sorted(factorize(2 * d)):
        e = v_p(2 * d, q) + 3
        if not _local_isometry_exists(A, B, q, e):
            return False
    return True


@dataclass(frozen=True)
class ClassRecord:
    """A class representative together with its automorphism count."""

    rep: Mat
    epsilon: int

    @classmethod
    def from_rep(cls, rep):
        rep = minkowski_reduce(rep)
        return cls(rep, automorphism_count(rep))


@dataclass(frozen=True)
class GenusRecord:
    classes: tuple[ClassRecord, ...]
    level: int
    character: QuadCharacter
    mass: Fraction

    @property
    def det(self):
        return form_det(self.classes[0].rep)


def partition_into_genera(classes):
    """Group pairwise-inequivalent class records into genera.

    Level and character are computed from one member of each genus and
    asserted constant across the others; mass is the sum of 1/epsilon.
    """
    groups: list[list[ClassRecord]] = []
    for rec in classes:
        for grp in groups:
            if same_genus(grp[0].rep, rec.rep):
                grp.append(rec)
                break
        else:
            groups.append([rec])
    out = []
    for grp in groups:
        grp.sort(key=lambda r: r.rep)
        lev = level(grp[0].rep)
        char = eta_S(grp[0].rep)
        for rec in grp[1:]:
            if level(rec.rep) != lev:
                raise AssertionError("level not constant on genus")
            if eta_S(rec.rep) != char:
                raise AssertionError("character not constant on genus")
        mass = sum(Fraction(1, rec.epsilon) for rec in grp)
        out.append(GenusRecord(tuple(grp), lev, char, mass))
    out.sort(key=lambda g: (g.det, g.level, g.classes[0].rep))
    return out


def build_genera(rank, level_divides):
    """Enumerate all classes of the given rank and level divisor, grouped."""
    reps = enumerate_classes(rank, level_divides)
    return partition_into_genera([ClassRecord.from_rep(r) for r in reps])


# ------------------------------------------------------------------ caching

def genera_to_doc(rank, level_divides, genera):
    return {
        "rank": rank,
        "level_divides": level_divides,
        "genera": [
            {
                "det": g.det,
                "level": g.level,
                "character_disc": g.character.disc,
                "mass": frac_to_doc(g.mass),
                "classes": [
                    {"twoT": [list(row) for row in rec.rep], "epsilon": rec.epsilon}
                    for rec in g.classes
                ],
            }
            for g in genera
        ],
    }


def genera_from_doc(doc, what="genus dump"):
    """Inverse of genera_to_doc; a malformed doc raises ValueError naming
    `what` and the field."""
    field = partial(_dump_field, what=what)
    out = []
    for g in field(doc, "genera", list):
        classes = tuple(
            ClassRecord(_dump_twoT(c, what), field(c, "epsilon", int))
            for c in field(g, "classes", list)
        )
        mass = field(g, "mass", dict)
        out.append(
            GenusRecord(
                classes,
                field(g, "level", int),
                QuadCharacter(field(g, "character_disc", int)),
                frac_from_doc({f: field(mass, f) for f in ("num", "den")}),
            )
        )
    return out


def write_json_atomic(doc, path):
    text = json.dumps(doc, indent=2)
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def cache_dir_from_env(explicit=None):
    if explicit:
        return explicit
    return os.environ.get("EISTHETA_CACHE_DIR")


def check_cache_fields(path, doc, request):
    """Raise if the cache file at path was written for another request."""
    for field, want in request.items():
        if doc.get(field) != want:
            raise ValueError(
                f"cache {path}: field {field!r} is {doc.get(field)!r}, "
                f"not the requested {want!r}"
            )


def cached_genera(rank, level_divides, cache_dir=None):
    """Genera for (rank, level), persisted to a JSON cache when a dir is set."""
    d = cache_dir_from_env(cache_dir)
    if d is None:
        return build_genera(rank, level_divides)
    path = os.path.join(d, f"genera_r{rank}_L{level_divides}.json")
    if os.path.exists(path):
        with open(path) as fh:
            doc = json.load(fh)
        genera = genera_from_doc(doc, f"cache {path}")
        check_cache_fields(path, doc, {"rank": rank, "level_divides": level_divides})
        if any(len(c.rep) != rank for g in genera for c in g.classes):
            raise ValueError(f"cache {path}: a class is not of rank {rank}")
        return genera
    genera = build_genera(rank, level_divides)
    write_json_atomic(genera_to_doc(rank, level_divides, genera), path)
    return genera
