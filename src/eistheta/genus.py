"""Genus partitioning for positive definite even forms of small rank.

Two forms lie in the same genus when they are equivalent over the reals
(automatic for positive definite forms of equal rank) and over Z_q for
every prime q dividing twice the determinant.  Equivalence over Z_q is
decided by comparing local genus symbols (Conway & Sloane, *Sphere
Packings, Lattices and Groups*, ch. 15, section 7), read off one q-adic
Jordan decomposition of 2S (``lattice.jordan_blocks``):

- odd q: for each scale q^s, its dimension and the Legendre symbol of
  its unit determinant.  This is a complete invariant.
- q = 2: for each scale 2^s, s from 0 to the top, its dimension, its type
  (I if it has a 1 x 1 block, else II), the sign of its unit
  determinant (+ for +-1 mod 8) and its oddity (the sum of its 1 x 1
  units mod 8), put in canonical form: oddity fusion keeps only the
  total oddity of each compartment (a maximal run of consecutive type I
  scales), and sign walking moves every minus sign of a train (a run of
  scales in which each adjacent pair has a type I member, empty scales
  counting as type II) onto its first constituent, adding 4 to the
  oddity of each compartment a step touches (sections 7.3 to 7.6).

The builder's code alone defines a valid dictionary: ``check_genera``
rebuilds one from its reps and refuses any difference, so a rule added
to the builder holds on every cache read.
"""

from __future__ import annotations

import json
import os
import tempfile
from fractions import Fraction
from functools import partial

from .exactnum import factorize, frac_to_doc, kronecker
from .fourier import _dump_field, _dump_frac, _dump_twoT
from .lattice import (
    Mat,
    as_mat,
    automorphism_count,
    check_definite,
    check_form,
    enumerate_classes,
    eta_S,
    jordan_blocks,
    level,
    minkowski_reduce,
)
from .linalg import bareiss_det
from .records import record


def _unit_det_mod8(U):
    """det U mod 8 for a unit block U with odd numerators and denominators."""
    d = U[0][0] if len(U) == 1 else U[0][0] * U[1][1] - U[0][1] ** 2
    return d.numerator * d.denominator % 8  # 1/den = den mod 8 for odd den


def _odd_symbol(blocks, q):
    """(scale, dimension, Legendre symbol of the unit determinant) per scale."""
    out = {}
    for s, ((u,),) in blocks:
        dim, sign = out.get(s, (0, 1))
        out[s] = (dim + 1, sign * kronecker(u.numerator * u.denominator, q))
    return tuple((s, *v) for s, v in sorted(out.items()))


def _two_adic_symbol(blocks):
    """The canonical 2-adic symbol: per scale (dim, type I?, sign), then the
    (first scale, total oddity) of each compartment."""
    top = blocks[-1][0]
    dim = [0] * (top + 1)
    odd = [False] * (top + 1)
    det = [1] * (top + 1)
    oddity = [0] * (top + 1)
    for s, U in blocks:
        u = _unit_det_mod8(U)
        dim[s] += len(U)
        det[s] = det[s] * u % 8
        if len(U) == 1:
            odd[s] = True
            oddity[s] += u
    sign = [1 if d in (1, 7) else -1 for d in det]
    comps = []  # maximal runs of consecutive type I scales
    for s in range(top + 1):
        if odd[s]:
            if comps and comps[-1][-1] == s - 1:
                comps[-1].append(s)
            else:
                comps.append([s])
    comp_of = {s: c for c, run in enumerate(comps) for s in run}
    comp_oddity = [sum(oddity[s] for s in run) % 8 for run in comps]
    trains = [[0]]
    for s in range(1, top + 1):
        if odd[s - 1] or odd[s]:
            trains[-1].append(s)
        else:
            trains.append([s])
    for train in trains:
        full = [s for s in train if dim[s]]
        for a, b in reversed(list(zip(full, full[1:]))):
            if sign[b] == -1:
                sign[b], sign[a] = 1, -sign[a]
                for c in {comp_of.get(a), comp_of.get(b)} - {None}:
                    comp_oddity[c] = (comp_oddity[c] + 4) % 8
    return (
        tuple(zip(dim, odd, sign)),
        tuple((run[0], o) for run, o in zip(comps, comp_oddity)),
    )


def genus_symbol(twoS):
    """Rank, det(2S) and the local symbol at each q | 2 det(2S): equal for
    two positive definite forms exactly when they share a genus."""
    A = as_mat(twoS)
    d = bareiss_det(A)
    local = []
    for q in sorted(factorize(2 * d)):
        blocks = jordan_blocks(A, q)
        local.append((q, _two_adic_symbol(blocks) if q == 2 else _odd_symbol(blocks, q)))
    return (len(A), d, tuple(local))


def same_genus(twoS, twoS2):
    """Decide whether two positive definite even forms share a genus."""
    A, B = check_definite(twoS, "same_genus"), check_definite(twoS2, "same_genus")
    if len(A) != len(B):
        raise ValueError("rank mismatch")
    if len(A) > 4:
        raise ValueError("genus test implemented for rank <= 4 only")
    return genus_symbol(A) == genus_symbol(B)


@record
class ClassRecord:
    """A class representative together with its automorphism count."""

    rep: Mat
    epsilon: int

    @classmethod
    def from_rep(cls, rep):
        rep = minkowski_reduce(rep)
        return cls(rep, automorphism_count(rep))


@record
class GenusRecord:
    classes: tuple[ClassRecord, ...]
    level: int
    character: int  # the fundamental discriminant eta_S of its classes
    mass: Fraction

    @property
    def det(self):
        return bareiss_det(self.classes[0].rep)


def partition_into_genera(classes):
    """Group pairwise-inequivalent class records into genera by genus symbol.

    Level and character are computed from one member of each genus and
    asserted constant across the others; mass is the sum of 1/epsilon.
    """
    by_symbol: dict[tuple, list[ClassRecord]] = {}
    for rec in classes:
        by_symbol.setdefault(genus_symbol(rec.rep), []).append(rec)
    out = []
    for grp in by_symbol.values():
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


def check_genera(genera, rank, level_divides):
    """Raise ValueError unless genera equals partition_into_genera of
    ClassRecord.from_rep of its own reps, the builder's code in its order.
    Refused first, as equality cannot see them: a rep not of the given
    rank, a class listed twice, a level not dividing level_divides."""
    reps = [check_form(rec.rep) for g in genera for rec in g.classes]
    if any(len(M) != rank for M in reps):
        raise ValueError(f"dictionary lattice is not of rank {rank}")
    fresh = [ClassRecord.from_rep(M) for M in reps]
    if len({rec.rep for rec in fresh}) < len(fresh):
        raise ValueError("a class is listed twice")
    truth = partition_into_genera(fresh)
    for h in truth:
        if level_divides % h.level:
            raise ValueError(f"dictionary lattice has level {h.level}, "
                             f"not dividing {level_divides}")
    _require_equal(genera, truth, "genera")


def _require_equal(cached, rebuilt, path=""):
    """Raise ValueError at the first entry where cached and rebuilt differ, by
    path and both values.  Records compare as dicts of their fields, lists
    and tuples entry by entry, leaves by type and value (JSON true is not 1)."""
    if hasattr(cached, "_asdict") and hasattr(rebuilt, "_asdict"):
        cached, rebuilt = cached._asdict(), rebuilt._asdict()
    if isinstance(cached, dict) and isinstance(rebuilt, dict):
        if cached.keys() != rebuilt.keys():
            raise ValueError(f"{path} keys: cached {sorted(cached)}, "
                             f"rebuilt {sorted(rebuilt)}".lstrip())
        for key in rebuilt:
            _require_equal(cached[key], rebuilt[key], f"{path}.{key}".lstrip("."))
    elif isinstance(cached, (list, tuple)) and isinstance(rebuilt, (list, tuple)):
        for i, (a, b) in enumerate(zip(cached, rebuilt)):
            _require_equal(a, b, f"{path}[{i}]")
        _require_equal(len(cached), len(rebuilt), f"len({path})")
    elif type(cached) is not type(rebuilt) or cached != rebuilt:
        raise ValueError(f"{path}: cached {cached!r}, rebuilt {rebuilt!r}")


# ------------------------------------------------------------------ caching

def genera_to_doc(rank, level_divides, genera):
    return {
        "rank": rank,
        "level_divides": level_divides,
        "genera": [
            {
                "det": g.det,
                "level": g.level,
                "character_disc": g.character,
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
        out.append(
            GenusRecord(
                classes,
                field(g, "level", int),
                field(g, "character_disc", int),
                _dump_frac(field(g, "mass", dict), f"{what}: field 'mass'"),
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


def cached_genera(rank, level_divides, cache_dir=None):
    """Genera for (rank, level), cached as JSON in cache_dir or EISTHETA_CACHE_DIR if set.
    A file is read whole, on every read, and only as what a fresh build
    would write for its own classes; a fresh build is returned as built."""
    d = cache_dir or os.environ.get("EISTHETA_CACHE_DIR")
    if d is None:
        return build_genera(rank, level_divides)
    path = os.path.join(d, f"genera_r{rank}_L{level_divides}.json")
    if os.path.exists(path):
        with open(path) as fh:
            try:
                doc = json.load(fh)
            except ValueError as exc:
                raise ValueError(f"cache {path}: {exc}") from None
        genera = genera_from_doc(doc, f"cache {path}")
        for field, want in (("rank", rank), ("level_divides", level_divides)):
            if doc.get(field) != want:
                raise ValueError(f"cache {path}: field {field!r} is {doc.get(field)!r}, "
                                 f"not the requested {want!r}")
        try:
            check_genera(genera, rank, level_divides)
            _require_equal(doc, genera_to_doc(rank, level_divides, genera))
        except ValueError as exc:
            raise ValueError(f"cache {path}: {exc}") from exc
        return genera
    genera = build_genera(rank, level_divides)
    write_json_atomic(genera_to_doc(rank, level_divides, genera), path)
    return genera
