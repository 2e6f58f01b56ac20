import json
import pathlib
import random
from fractions import Fraction
from itertools import product

import pytest

from eistheta import genus
from eistheta.cli import main
from eistheta.exactnum import gen_bernoulli
from eistheta.genus import (
    ClassRecord,
    GenusRecord,
    build_genera,
    cached_genera,
    check_genera,
    genera_from_doc,
    genera_to_doc,
    partition_into_genera,
    same_genus,
    write_json_atomic,
)
from eistheta.lattice import (
    as_mat,
    automorphism_count,
    enumerate_classes,
    enumerate_psd_indices,
    eta_S,
    form_rank,
    level,
    minkowski_reduce,
    transform,
)
from eistheta.linalg import bareiss_det
from forms import direct_sum
from oracles import (
    SearchBudgetExceeded,
    affine_solutions_mod_q,
    chi_S,
    is_equivalent,
    same_genus_by_search,
)
from test_lattice import RECORDED_CLASSES

A2 = as_mat([[2, 1], [1, 2]])
I2 = as_mat([[2, 0], [0, 2]])


def repr_counts(twoS, q, e, tmax):
    """#{x mod q^e : Q(x) = t mod q^e} for t = 0..tmax, by enumeration."""
    n = len(twoS)
    mod = q**e
    counts = [0] * (tmax + 1)
    for x in product(range(mod), repeat=n):
        v = sum(twoS[i][j] * x[i] * x[j] for i in range(n) for j in range(n))
        half = (v // 2) % mod
        if half <= tmax:
            counts[half] += 1
    return counts


def test_same_genus_trivial():
    assert same_genus(A2, A2)
    assert same_genus(A2, transform(A2, [[1, 1], [0, 1]]))
    assert not same_genus(A2, I2)  # det 3 vs 4


def test_same_genus_errors():
    with pytest.raises(ValueError):
        same_genus(A2, as_mat([[2]]))
    with pytest.raises(ValueError):
        same_genus([[2, 0], [0, 0]], [[2, 0], [0, 0]])
    with pytest.raises(ValueError, match=r"entry \(0, 0\) of twoT is 2.9"):
        same_genus(((2.9, 1), (1, 2)), A2)  # not truncated into A2's genus
    with pytest.raises(ValueError, match=r"entry \(0, 0\) of twoT is 2.9"):
        genus.genus_symbol(((2.9, 1), (1, 2)))  # int() would give A2's symbol


def test_same_genus_distinguishes_genera_det15():
    # the two reduced forms of discriminant -15 lie in different genera
    F1 = as_mat([[2, 1], [1, 8]])
    F2 = as_mat([[4, 1], [1, 4]])
    assert bareiss_det(F1) == bareiss_det(F2) == 15
    assert is_equivalent(F1, F2) is None
    assert not same_genus(F1, F2)
    # cross-check: local representation counts differ at q = 3
    assert repr_counts(F1, 3, 2, 8) != repr_counts(F2, 3, 2, 8)


def test_same_genus_joins_classes_det23():
    # discriminant -23: class number 3, one genus; up to GL(2,Z) two classes
    F1 = as_mat([[2, 1], [1, 12]])
    F2 = as_mat([[4, 1], [1, 6]])
    assert bareiss_det(F1) == bareiss_det(F2) == 23
    assert is_equivalent(F1, F2) is None
    assert same_genus(F1, F2)
    # same local data: representation counts mod small prime powers agree
    assert repr_counts(F1, 2, 4, 10) == repr_counts(F2, 2, 4, 10)


def test_equivalent_implies_same_genus():
    rng = random.Random(7)
    for M in (A2, I2, as_mat([[2, 1], [1, 4]]), direct_sum(A2, A2)):
        U = [[int(i == j) for j in range(len(M))] for i in range(len(M))]
        for _ in range(5):
            a, b = rng.sample(range(len(M)), 2)
            c = rng.choice([-1, 1])
            for i in range(len(M)):
                U[i][a] += c * U[i][b]
        assert same_genus(M, transform(M, U))


def test_rank4_level11_classes_share_one_genus():
    # only det(2S) = 121 is possible: det divides 11^4 and is 0 or 1 mod 4,
    # and det 11^4 would force an even unimodular rank-4 form (none exist)
    reps = enumerate_classes(4, 11, det_bound=121)
    assert len(reps) == 3
    for S in reps:
        assert bareiss_det(S) == 121
        assert level(S) == 11
    for i, S1 in enumerate(reps):
        for S2 in reps[i + 1 :]:
            assert is_equivalent(S1, S2) is None
            assert same_genus(S1, S2)
    # theta-congruence cross-check at q = 11 and q = 2
    for q, e in [(11, 1), (2, 4)]:
        assert len({tuple(repr_counts(S, q, e, 10)) for S in reps}) == 1
    # characters: square determinant, trivial character
    for d in range(1, 25):
        if d % 2 and d % 11:
            assert all(chi_S(S, d) == 1 for S in reps)


def check_prime_level_masses(genera, p):
    """Smith-Minkowski-Siegel: at prime level p the masses of rank-4 genera
    are closed forms, so a missed class shows as a mass deficit whatever
    the search cap."""
    assert [g.det for g in genera] == ([p, p**2, p**3] if p % 4 == 1 else [p**2])
    for g in genera:
        assert g.level == p
        if g.character == 1:
            assert g.det == p**2
            assert g.mass == Fraction((p - 1) ** 2, 1152)
        else:
            # det p and det p^3 carry chi_p, a discriminant only for p = 1 mod 4
            assert g.character == p
            assert g.mass == gen_bernoulli(2, p) / 192


@pytest.mark.parametrize("p", [3, 7, 11, 13, 17, 19])
def test_rank4_prime_level_masses_match_closed_forms(p):
    check_prime_level_masses(build_genera(4, p), p)


# the det-36 classes of level 6: the isometry search does not decide this
# pair in usable time, the representation counts tell them apart
LEVEL6_DET36 = [
    ((2, -1, 0, 0), (-1, 2, 0, 0), (0, 0, 4, -2), (0, 0, -2, 4)),
    ((2, 0, -1, -1), (0, 2, -1, -1), (-1, -1, 4, 1), (-1, -1, 1, 4)),
]


def test_build_genera_rank4_level6_splits_the_det36_pair():
    genera = build_genera(4, 6)
    homes = [next(i for i, g in enumerate(genera) for c in g.classes if c.rep == M)
             for M in LEVEL6_DET36]
    assert homes[0] != homes[1]
    assert not same_genus(*LEVEL6_DET36)
    F1, F2 = LEVEL6_DET36
    assert repr_counts(F1, 3, 2, 8) != repr_counts(F2, 3, 2, 8)
    assert repr_counts(F1, 2, 3, 7) != repr_counts(F2, 2, 3, 7)


def same_det_pairs(forms):
    """Every pair of forms of the same rank and det(2S)."""
    by_det = {}
    for M in forms:
        by_det.setdefault((len(M), bareiss_det(M)), []).append(M)
    return [(a, b) for fs in by_det.values() for i, a in enumerate(fs) for b in fs[i + 1:]]


def check_against_search(pairs, budget):
    """same_genus agrees with the search on every pair the search decides
    within budget steps; returns the numbers of decided and skipped pairs."""
    decided = skipped = 0
    for a, b in pairs:
        try:
            want = same_genus_by_search(a, b, budget)
        except SearchBudgetExceeded:
            skipped += 1
            continue
        assert same_genus(a, b) == want, (a, b)
        decided += 1
    return decided, skipped


def test_same_genus_matches_search_oracle():
    rank2 = [M for M in enumerate_psd_indices(2, 30) if form_rank(M) == 2]
    pairs = same_det_pairs(rank2)
    assert len(pairs) == 2549
    recorded = {M for key, got in RECORDED_CLASSES.items() for M in got}
    pairs += [(a, b) for a, b in same_det_pairs(sorted(recorded))
              if sorted([a, b]) != sorted(LEVEL6_DET36)]
    decided, skipped = check_against_search(pairs, budget=1000)
    assert decided >= 2000, (decided, skipped)


@pytest.mark.slow
def test_same_genus_matches_search_oracle_rank3():
    rank3 = [M for M in enumerate_psd_indices(3, 10) if form_rank(M) == 3]
    decided, skipped = check_against_search(same_det_pairs(rank3), budget=1000)
    assert decided >= 190, (decided, skipped)


def test_affine_solutions_mod_q_match_brute_force():
    rng = random.Random(13)
    for q in (2, 3, 7):
        for n in (1, 2, 3):
            for _ in range(12):
                m = rng.randint(0, 3)
                rows = [[rng.randrange(q) for _ in range(n)] for _ in range(m)]
                if m >= 2 and rng.random() < 0.5:
                    rows[-1] = [(a + 2 * b) % q for a, b in zip(rows[0], rows[1])]
                rhs = [rng.randrange(q) for _ in range(m)]
                want = {
                    x
                    for x in product(range(q), repeat=n)
                    if all(
                        (sum(a * v for a, v in zip(r, x)) - b) % q == 0
                        for r, b in zip(rows, rhs)
                    )
                }
                sol = affine_solutions_mod_q(rows, rhs, n, q)
                if sol is None:
                    assert want == set()
                    continue
                part, null = sol
                got = set()
                for t in product(range(q), repeat=len(null)):
                    x = list(part)
                    for c, v in zip(t, null):
                        x = [(a + c * b) % q for a, b in zip(x, v)]
                    got.add(tuple(x))
                assert got == want
                assert len(got) == q ** len(null)


def test_partition_singleton():
    rec = ClassRecord.from_rep(A2)
    assert rec.epsilon == 12
    genera = partition_into_genera([rec])
    assert len(genera) == 1
    g = genera[0]
    assert g.mass == Fraction(1, 12)
    assert g.level == 3
    assert g.character == eta_S(A2)


def test_partition_rank2_level12():
    reps = enumerate_classes(2, 12)
    genera = partition_into_genera([ClassRecord.from_rep(r) for r in reps])
    # dets constant within each genus; union recovers the input
    seen = []
    for g in genera:
        dets = {bareiss_det(rec.rep) for rec in g.classes}
        assert len(dets) == 1
        for rec in g.classes:
            assert level(rec.rep) == g.level
            assert eta_S(rec.rep) == g.character
            assert rec.epsilon == automorphism_count(rec.rep)
            seen.append(rec.rep)
        assert g.mass == sum(Fraction(1, rec.epsilon) for rec in g.classes)
    assert sorted(seen) == sorted(reps)
    # symmetry of the relation on representatives
    for g in genera:
        for rec in g.classes:
            assert same_genus(rec.rep, g.classes[0].rep)
            assert same_genus(g.classes[0].rep, rec.rep)


def test_build_genera_rank4_level7():
    genera = build_genera(4, 7)
    assert len(genera) == 1
    g = genera[0]
    assert len(g.classes) == 1
    assert g.level == 7
    assert bareiss_det(g.classes[0].rep) == 49
    assert g.character == 1
    assert g.mass == Fraction(1, g.classes[0].epsilon)


@pytest.mark.parametrize("rank,L", [(2, 3), (2, 7), (4, 7), (4, 13), (4, 17)])
def test_check_genera_accepts_what_build_genera_makes(rank, L):
    check_genera(build_genera(rank, L), rank, L)


def test_check_genera_accepts_the_level_37_fixture():
    path = pathlib.Path(__file__).parent / "fixtures" / "genera_r4_L37.json"
    with open(path) as fh:
        check_genera(genera_from_doc(json.load(fh)), 4, 37)


def test_check_genera_rejects_a_class_listed_twice_and_a_foreign_level():
    (g,) = build_genera(4, 7)
    twice = GenusRecord(g.classes * 2, g.level, g.character, 2 * g.mass)
    with pytest.raises(ValueError, match="listed twice"):
        check_genera([twice], 4, 7)
    with pytest.raises(ValueError, match="level 7, not dividing 5"):
        check_genera([g], 4, 5)


@pytest.mark.parametrize("field,value,words,where", [
    ("level", 1, "cached 1, rebuilt 7", "genera[0].level"),
    ("character_disc", -7, "cached -7, rebuilt 1", "genera[0].character"),
    ("mass", {"num": "7", "den": "1"}, "cached Fraction(7, 1), rebuilt Fraction(1, 32)",
     "genera[0].mass"),
    ("det", 999, "cached 999, rebuilt 49", "genera[0].det"),
    ("classes", [{"twoT": [[2, 0, -1, 0], [0, 2, 0, -1], [-1, 0, 4, 0], [0, -1, 0, 4]],
                  "epsilon": 16}], "cached 16, rebuilt 32", "genera[0].classes[0].epsilon"),
])
def test_cached_genera_rejects_a_genus_invariant_its_classes_contradict(
        tmp_path, field, value, words, where):
    # the one level-7 class with one cached field changed; the refusal
    # names the first entry that differs from the rebuilt dictionary
    doc = genera_to_doc(4, 7, build_genera(4, 7))
    doc["genera"][0][field] = value
    path = tmp_path / "genera_r4_L7.json"
    write_json_atomic(doc, str(path))
    with pytest.raises(ValueError) as info:
        cached_genera(4, 7, cache_dir=str(tmp_path))
    assert str(info.value) == f"cache {path}: {where}: {words}"


def test_genera_refuses_a_cached_rep_that_is_not_canonical(tmp_path, capsys):
    # the one level-7 class in the basis b0, b1 + b0: the same lattice with
    # the same automorphisms, level, character and mass, but not the
    # canonical form that the dictionary is keyed by
    doc = genera_to_doc(4, 7, build_genera(4, 7))
    cls = doc["genera"][0]["classes"][0]
    U = [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    moved = transform(as_mat(cls["twoT"]), U)
    assert moved != minkowski_reduce(moved)
    cls["twoT"] = [list(row) for row in moved]
    path = tmp_path / "genera_r4_L7.json"
    write_json_atomic(doc, str(path))
    assert main(["genera", "--rank", "4", "--level", "7", "--cache-dir", str(tmp_path)]) == 2
    assert capsys.readouterr() == (
        "", f"eistheta genera: cache {path}: "
            "genera[0].classes[0].rep[0][1]: cached 2, rebuilt 0\n")


def test_write_json_atomic_leaves_the_target_when_the_rename_fails(tmp_path, monkeypatch):
    path = tmp_path / "g.json"
    write_json_atomic({"old": 1}, str(path))
    before = path.read_bytes()

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(genus.os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        write_json_atomic({"new": 2}, str(path))
    assert [p.name for p in tmp_path.iterdir()] == ["g.json"]
    assert path.read_bytes() == before


def test_cache_round_trip(tmp_path):
    genera = build_genera(2, 3)
    doc = genera_to_doc(2, 3, genera)
    assert genera_from_doc(doc) == genera
    path = tmp_path / "g.json"
    write_json_atomic(doc, str(path))
    with open(path) as fh:
        assert genera_from_doc(json.load(fh)) == genera
    # mass serialized as {"num","den"} strings
    m = doc["genera"][0]["mass"]
    assert m == {"num": "1", "den": "12"}


def test_cached_genera_rejects_a_file_of_another_request(tmp_path):
    path = tmp_path / "genera_r4_L7.json"
    rank2 = genera_to_doc(2, 7, build_genera(2, 7))
    relabeled = dict(rank2, rank=4)  # header claims rank 4, classes are 2 x 2
    other_level = genera_to_doc(4, 3, build_genera(4, 3))
    for doc, words in [
        (rank2, ["'rank' is 2", "not the requested 4"]),
        (relabeled, ["not of rank 4"]),
        (other_level, ["'level_divides' is 3", "not the requested 7"]),
    ]:
        write_json_atomic(doc, str(path))
        with pytest.raises(ValueError) as info:
            cached_genera(4, 7, cache_dir=str(tmp_path))
        assert str(path) in str(info.value)
        for w in words:
            assert w in str(info.value)


def test_cached_genera_checks_what_it_reads_and_not_what_it_builds(tmp_path, monkeypatch):
    # one gate: a fresh build is returned as build_genera made it, and
    # every read of the file is checked once
    calls = []
    check = genus.check_genera
    monkeypatch.setattr(genus, "check_genera", lambda *a: calls.append(a) or check(*a))
    cold = cached_genera(4, 7, cache_dir=str(tmp_path))
    assert calls == []
    assert cached_genera(4, 7, cache_dir=str(tmp_path)) == cold
    assert calls == [(cold, 4, 7)]


def test_cached_genera_uses_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("EISTHETA_CACHE_DIR", str(tmp_path))
    first = cached_genera(2, 4)
    files = list(tmp_path.glob("*.json"))
    assert len(files) == 1
    before = files[0].read_bytes()
    second = cached_genera(2, 4)
    assert first == second
    assert files[0].read_bytes() == before
    # explicit dir argument beats the environment
    other = tmp_path / "other"
    cached_genera(2, 3, cache_dir=str(other))
    assert (other / "genera_r2_L3.json").exists()
