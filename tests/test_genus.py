import json
import random
from fractions import Fraction
from itertools import product

import pytest

from eistheta.exactnum import gen_bernoulli
from eistheta.genus import (
    ClassRecord,
    GenusRecord,
    _affine_solutions_mod_q,
    build_genera,
    cached_genera,
    genera_from_doc,
    genera_to_doc,
    partition_into_genera,
    same_genus,
    write_json_atomic,
)
from eistheta.lattice import (
    as_mat,
    automorphism_count,
    chi_S,
    direct_sum,
    enumerate_classes,
    eta_S,
    form_det,
    is_equivalent,
    level,
    minkowski_reduce,
    transform,
)

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


def test_same_genus_distinguishes_genera_det15():
    # the two reduced forms of discriminant -15 lie in different genera
    F1 = as_mat([[2, 1], [1, 8]])
    F2 = as_mat([[4, 1], [1, 4]])
    assert form_det(F1) == form_det(F2) == 15
    assert is_equivalent(F1, F2) is None
    assert not same_genus(F1, F2)
    # cross-check: local representation counts differ at q = 3
    assert repr_counts(F1, 3, 2, 8) != repr_counts(F2, 3, 2, 8)


def test_same_genus_joins_classes_det23():
    # discriminant -23: class number 3, one genus; up to GL(2,Z) two classes
    F1 = as_mat([[2, 1], [1, 12]])
    F2 = as_mat([[4, 1], [1, 6]])
    assert form_det(F1) == form_det(F2) == 23
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
        assert form_det(S) == 121
        assert level(S) == 11
    for i, S1 in enumerate(reps):
        for S2 in reps[i + 1 :]:
            assert is_equivalent(S1, S2) is None
            assert same_genus(S1, S2)
            # theta-congruence cross-check at q = 11 and q = 2
            assert repr_counts(S1, 11, 1, 10) == repr_counts(S2, 11, 1, 10)
            assert repr_counts(S1, 2, 4, 10) == repr_counts(S2, 2, 4, 10)
    # characters: square determinant, trivial character
    for d in range(1, 25):
        if d % 2 and d % 11:
            assert all(chi_S(S, d) == 1 for S in reps)


@pytest.mark.parametrize("p", [3, 7, 11, 13])
def test_rank4_prime_level_masses_match_closed_forms(p):
    # Smith-Minkowski-Siegel: at prime level p the masses of rank-4 genera
    # are closed forms, so a missed class shows as a mass deficit whatever
    # the search cap
    genera = build_genera(4, p)
    assert [g.det for g in genera] == ([p, p**2, p**3] if p % 4 == 1 else [p**2])
    for g in genera:
        assert g.level == p
        if g.character.disc == 1:
            assert g.det == p**2
            assert g.mass == Fraction((p - 1) ** 2, 1152)
        else:
            # det p and det p^3 carry chi_p, a discriminant only for p = 1 mod 4
            assert g.character.disc == p
            assert g.mass == gen_bernoulli(2, p) / 192


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
                sol = _affine_solutions_mod_q(rows, rhs, n, q)
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
        dets = {form_det(rec.rep) for rec in g.classes}
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
    assert form_det(g.classes[0].rep) == 49
    assert g.character.disc == 1
    assert g.mass == Fraction(1, g.classes[0].epsilon)


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
