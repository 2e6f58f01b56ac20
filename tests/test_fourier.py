import json
import math
import sys
from fractions import Fraction
from itertools import combinations, product

import pytest

from eistheta import fourier, lattice, linalg
from eistheta.eisenstein import eisenstein_qexp
from eistheta.exactnum import bernoulli, sigma
from eistheta.fourier import (
    QExpansion,
    check_weight_rank_congruence,
    dump_qexp,
    load_qexp,
    mod_pm_singular_rank,
    qexp_add,
    qexp_scale,
    u_p,
)
from eistheta.lattice import as_mat, check_window, form_trace, minkowski_reduce, pad_zero

from oracles import coeff, congruent_mod, phi_restrict, primitive_coeffs, rank_filter


def theta_interval(B):
    """Degree-1 theta of S=(1): a(t) = #{x : x^2 = t}, t <= B."""
    coeffs = {((0,),): 1}
    x = 1
    while x * x <= B:
        coeffs[((2 * x * x,),)] = 2
        x += 1
    return QExpansion(1, B, coeffs)


def eisenstein_deg1(k, B):
    c = Fraction(-2 * k, 1) / bernoulli(k)
    coeffs = {((0,),): Fraction(1)}
    for t in range(1, B + 1):
        coeffs[((2 * t,),)] = c * sigma(k - 1, t)
    return QExpansion(1, B, coeffs)


def test_construction_validation():
    with pytest.raises(ValueError):
        QExpansion(1, 3, {((8,),): 1})  # trace 4 beyond bound
    with pytest.raises(ValueError, match=r"entry \(0, 0\) of twoT is 2.9"):
        QExpansion(1, 3, {((2.9,),): 1})  # int() would store it as ((2,),)
    with pytest.raises(ValueError):
        QExpansion(2, 3, {((4, 0), (0, 2)): 1})  # not canonical
    with pytest.raises(ValueError):
        QExpansion(2, 3, {((2,),): 1})  # degree mismatch
    F = QExpansion(1, 3, {((2,),): 0, ((4,),): 5})
    assert ((2,),) not in F.coeffs  # zeros dropped


def test_add_and_scale_skip_the_canonical_check(monkeypatch):
    calls = []

    def counting(T):
        calls.append(T)
        return minkowski_reduce(T)

    monkeypatch.setattr(fourier, "minkowski_reduce", counting)
    F = QExpansion(2, 4, {((0, 0), (0, 0)): 1, ((2, -1), (-1, 2)): 3})
    assert len(calls) == 2  # the public constructor checks every index
    with pytest.raises(ValueError):
        QExpansion(2, 4, {((2, 0), (0, 2)): 1, ((4, 0), (0, 2)): 1})
    calls.clear()
    G = qexp_add(F, qexp_scale(F, 2), qexp_scale(F, Fraction(-1, 3)))
    assert G.coeffs == {((0, 0), (0, 0)): Fraction(8, 3), ((2, -1), (-1, 2)): 8}
    assert qexp_add(F, qexp_scale(F, -1)).coeffs == {}  # zeros still dropped
    assert qexp_scale(F, 0).coeffs == {}
    assert calls == []


def test_coeff_examples():
    F = theta_interval(9)
    assert coeff(F, [[2]]) == 2
    assert coeff(F, [[0]]) == 1
    assert coeff(F, [[6]]) == 0  # in window, not a square
    with pytest.raises(ValueError):
        coeff(F, [[20]])  # trace 10 beyond bound
    G = qexp_scale(F, Fraction(3, 2))
    assert coeff(G, [[2]]) == 3
    # class-invariant lookup reduces the index first
    H = QExpansion(2, 4, {((2, -1), (-1, 2)): 7})
    assert coeff(H, [[2, -1], [-1, 2]]) == 7


def test_add_and_scale():
    F = theta_interval(9)
    Z = qexp_add(F, qexp_scale(F, -1))
    assert Z.coeffs == {}
    S = qexp_add(F, F)
    assert coeff(S, [[2]]) == 4
    with pytest.raises(ValueError, match="degree mismatch"):
        qexp_add(F, QExpansion(2, 9, {((0, 0), (0, 0)): 1}))


def test_congruent_mod_basic():
    F = theta_interval(9)
    assert congruent_mod(F, F, 5, 3)
    G = qexp_add(F, QExpansion(1, 9, {((6,),): 49}))
    res = congruent_mod(F, G, 7, 2)
    assert res.ok and res.witness is None
    res = congruent_mod(F, G, 7, 3)
    assert not res.ok and res.witness == ((6,),)
    with pytest.raises(ValueError):
        congruent_mod(F, qexp_scale(F, Fraction(1, 7)), 7, 1)


def test_congruent_mod_eisenstein_weights_4_and_46():
    # Kummer: B_46/46 = B_4/4 (mod 7) and d^45 = d^3 (mod 7), so the
    # classical Eisenstein series of weights 4 and 46 agree mod 7
    E4 = eisenstein_deg1(4, 30)
    E46 = eisenstein_deg1(46, 30)
    assert congruent_mod(E4, E46, 7, 1)
    # 45 = 3 mod 42 makes sigma_45 = sigma_3 mod 49 as well, and the
    # constant difference happens to have 7-valuation exactly 2
    assert congruent_mod(E4, E46, 7, 2)
    res = congruent_mod(E4, E46, 7, 3)
    assert not res.ok and res.witness == ((2,),)


def test_rank_filter_partition():
    F = QExpansion(
        2,
        4,
        {
            ((0, 0), (0, 0)): 1,
            ((2, 0), (0, 0)): 3,
            ((2, -1), (-1, 2)): 5,
            ((2, 0), (0, 2)): 7,
        },
    )
    assert rank_filter(F, 0).coeffs == {((0, 0), (0, 0)): 1}
    total = qexp_add(*[rank_filter(F, r) for r in range(3)])
    assert total == F
    with pytest.raises(ValueError):
        rank_filter(F, 3)


def test_rank_of_canonical_keys_is_read_off_the_diagonal(monkeypatch):
    # rank_filter and primitive_coeffs read a canonical key's rank as its
    # count of nonzero diagonal entries: the only column_reduce calls left
    # are those of minkowski_reduce on indices that are not canonical
    # (both live in the oracles module, so its binding is counted too)
    reductions, searched = [], []
    column_reduce, reduce = linalg.column_reduce, lattice.minkowski_reduce

    def counting_column_reduce(M):
        reductions.append(M)
        return column_reduce(M)

    def counting_reduce(T):
        R = reduce(T)
        if R != as_mat(T):
            searched.append(T)
        return R

    for name, module in list(sys.modules.items()):
        if name.startswith("eistheta") or name == "oracles":
            if getattr(module, "column_reduce", None) is column_reduce:
                monkeypatch.setattr(module, "column_reduce", counting_column_reduce)
            if getattr(module, "minkowski_reduce", None) is reduce:
                monkeypatch.setattr(module, "minkowski_reduce", counting_reduce)
    F = eisenstein_qexp(4, 2, 8)
    reductions.clear()
    assert len(rank_filter(F, 2).coeffs) == 46
    assert reductions == []
    primitive_coeffs(F, 2, 8)
    assert len(reductions) == len(searched) > 0


def test_mod_pm_singular_rank():
    one = QExpansion(2, 4, {((0, 0), (0, 0)): 1})
    assert mod_pm_singular_rank(one, 7, 1) == 0
    assert mod_pm_singular_rank(one, 7, 5) == 0
    # pure rank-1 unit part plus 7^2 times rank-2 junk
    F = QExpansion(
        2,
        4,
        {
            ((0, 0), (0, 0)): 7,
            ((2, 0), (0, 0)): 3,
            ((2, -1), (-1, 2)): 49,
            ((2, 0), (0, 2)): 98,
        },
    )
    assert mod_pm_singular_rank(F, 7, 1) == 1
    assert mod_pm_singular_rank(F, 7, 2) == 1
    assert mod_pm_singular_rank(F, 7, 3) is None  # rank-2 tail only 7^2
    # top-rank unit: not singular
    G = QExpansion(2, 4, {((2, -1), (-1, 2)): 1})
    assert mod_pm_singular_rank(G, 7, 1) is None
    # no unit anywhere
    assert mod_pm_singular_rank(qexp_scale(one, 7), 7, 1) is None
    with pytest.raises(ValueError):
        mod_pm_singular_rank(qexp_scale(one, Fraction(1, 7)), 7, 1)


def test_check_weight_rank_congruence():
    assert check_weight_rank_congruence(296, 4, 7, 3)
    assert not check_weight_rank_congruence(296, 4, 7, 4)
    for m in range(1, 6):
        assert check_weight_rank_congruence(21, 42, 7, m)
    assert check_weight_rank_congruence(44, 4, 7, 2)  # 84 = 6*14 = 6*7*2
    assert not check_weight_rank_congruence(44, 4, 7, 3)


def test_u_p():
    one = QExpansion(1, 20, {((0,),): 5})
    assert u_p(one, 7).coeffs == {((0,),): 5}
    # theta of S = (7): values 7 x^2; U(7) picks a(7t), t = x^2
    F = QExpansion(1, 63, {((0,),): 1, ((14,),): 2, ((56,),): 2})
    G = u_p(F, 7)
    assert G.trace_bound == 9
    assert coeff(G, [[2]]) == 2  # a_F(7*1) counts x^2 = 1
    assert coeff(G, [[4]]) == 0
    assert coeff(G, [[8]]) == 2
    # composition
    H = QExpansion(1, 100, {((2 * t,),): t for t in range(1, 51)})
    assert coeff(u_p(u_p(H, 2), 2), [[8]]) == coeff(H, [[32]])


def test_phi_restrict():
    F = QExpansion(
        2, 4, {((0, 0), (0, 0)): 1, ((2, 0), (0, 0)): 5, ((2, -1), (-1, 2)): 9}
    )
    G = phi_restrict(F)
    assert G.degree == 1
    assert coeff(G, [[0]]) == 1
    assert coeff(G, [[2]]) == 5
    assert coeff(G, [[4]]) == 0


def brute_theta_2I2(B):
    """Degree-2 theta of 2S = 2I_2 with all and primitive counts."""
    full_exact: dict = {}
    prim_exact: dict = {}
    for entries in product(range(-3, 4), repeat=4):
        X = [entries[:2], entries[2:]]
        twoT = tuple(
            tuple(2 * sum(X[a][i] * X[a][j] for a in range(2)) for j in range(2))
            for i in range(2)
        )
        if form_trace(twoT) > B:
            continue
        full_exact[twoT] = full_exact.get(twoT, 0) + 1
        d = X[0][0] * X[1][1] - X[0][1] * X[1][0]
        if d in (1, -1):
            prim_exact[twoT] = prim_exact.get(twoT, 0) + 1
    # coefficients are class functions: read them off at canonical keys
    full = {T: v for T, v in full_exact.items() if minkowski_reduce(T) == T}
    prim = {T: v for T, v in prim_exact.items() if minkowski_reduce(T) == T}
    return full, prim


def test_primitive_coeffs_against_primitive_counts():
    full, prim = brute_theta_2I2(8)
    F = QExpansion(2, 8, {T: Fraction(v) for T, v in full.items()})
    got = primitive_coeffs(F, 2, 8)
    for T, a in got.items():
        assert a == prim.get(T, 0), T
    # squarefree determinant: primitive equals plain
    from eistheta.linalg import bareiss_det

    for T, a in got.items():
        d = bareiss_det(T)
        if all(d % (q * q) for q in range(2, d + 1) if q * q <= d):
            assert a == coeff(F, T)


def test_primitive_coeffs_refuses_a_negative_bound():
    F = QExpansion(1, 4, {((2,),): 1})
    with pytest.raises(ValueError, match="trace bound must be >= 0"):
        primitive_coeffs(F, 1, -1)


def test_primitive_coeffs_resummation():
    # re-substitute the primitive coefficients into the defining relation
    from eistheta.localdensity import _hnf_matrices, _transform_by_inverse
    from eistheta.exactnum import divisors
    from eistheta.linalg import bareiss_det

    full, _ = brute_theta_2I2(8)
    F = QExpansion(2, 8, {T: Fraction(v) for T, v in full.items()})
    star = primitive_coeffs(F, 2, 8)
    for T in star:
        total = Fraction(0)
        d2 = bareiss_det(T)
        for d in divisors(d2):
            if d2 % (d * d):
                continue
            for D in _hnf_matrices(2, d):
                T2 = _transform_by_inverse(T, D)
                if T2 is not None:
                    total += star[minkowski_reduce(T2)]
        assert total == coeff(F, T), T


def transform_by_inverse_fraction(twoT, D):
    """(D^{-1})^t (2T) D^{-1} over the rationals, None unless even integral."""
    r = len(twoT)
    inv = [[Fraction(0)] * r for _ in range(r)]
    for i in range(r):
        inv[i][i] = Fraction(1, D[i][i])
    for j in range(r - 1, -1, -1):
        for i in range(j - 1, -1, -1):
            s = Fraction(0)
            for t in range(i + 1, j + 1):
                s += D[i][t] * inv[t][j]
            inv[i][j] = -s / D[i][i]
    out = [[Fraction(0)] * r for _ in range(r)]
    for i in range(r):
        for j in range(r):
            s = Fraction(0)
            for a in range(r):
                if inv[a][i]:
                    s += inv[a][i] * sum(twoT[a][b] * inv[b][j] for b in range(r))
            out[i][j] = s
    rows = []
    for i in range(r):
        row = []
        for j in range(r):
            v = out[i][j]
            if v.denominator != 1:
                return None
            row.append(v.numerator)
        if row[i] % 2:
            return None
        rows.append(tuple(row))
    return tuple(rows)


def definite_forms(r, bound):
    """Every positive definite even 2T of size r with tr(T) <= bound."""
    from eistheta.lattice import is_positive_definite

    pairs = list(combinations(range(r), 2))
    for diag in product(range(2, 2 * bound + 1, 2), repeat=r):
        if sum(diag) > 2 * bound:
            continue
        tops = [math.isqrt(diag[i] * diag[j] - 1) for i, j in pairs]
        for off in product(*[range(-t, t + 1) for t in tops]):
            T = [[0] * r for _ in range(r)]
            for i in range(r):
                T[i][i] = diag[i]
            for (i, j), x in zip(pairs, off):
                T[i][j] = T[j][i] = x
            if is_positive_definite(T):
                yield as_mat(T)


def test_transform_by_inverse_matches_fraction_oracle():
    from eistheta.exactnum import divisors
    from eistheta.localdensity import _hnf_matrices, _transform_by_inverse
    from eistheta.linalg import bareiss_det

    pairs = hits = 0
    for r, bound in ((1, 12), (2, 8), (3, 4)):
        for T in definite_forms(r, bound):
            d2 = bareiss_det(T)
            for d in divisors(d2):
                if d2 % (d * d):
                    continue
                for D in _hnf_matrices(r, d):
                    want = transform_by_inverse_fraction(T, D)
                    assert _transform_by_inverse(T, D) == want, (T, D)
                    pairs += 1
                    hits += want is not None
    assert (pairs, hits) == (1964, 594)


def test_transform_by_inverse_matches_the_adjugate_route_at_rank_4():
    # every Hermite form of det <= 9 against A2+A2, whose walk refuses
    # every shape, a sublattice of D4 of index 2 and 8 I_4, which accept some
    from eistheta.localdensity import _hnf_matrices, _transform_by_inverse
    from oracles import transform_by_adjugate

    A2A2 = [[2, -1, 0, 0], [-1, 2, 0, 0], [0, 0, 2, -1], [0, 0, -1, 2]]
    D4 = [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]]
    forms = [as_mat(A2A2), lattice.transform(D4, next(_hnf_matrices(4, 2))),
             as_mat([[8 * (i == j) for j in range(4)] for i in range(4)])]
    shapes = [D for d in range(2, 10) for D in _hnf_matrices(4, d)]
    pairs = hits = 0
    for T in forms:
        for D in shapes:
            want = transform_by_adjugate(T, D)
            assert _transform_by_inverse(T, D) == want, (T, D)
            pairs += 1
            hits += want is not None
    assert (len(shapes), pairs, hits) == (3971, 11913, 102)


def test_dump_load_round_trip():
    F = theta_interval(9)
    doc = dump_qexp(F)
    assert load_qexp(doc) == F
    assert doc["class_invariant"] is True
    assert doc["coeffs"] == sorted(doc["coeffs"], key=lambda e: e["twoT"])
    assert all(set(e) == {"twoT", "num", "den"} for e in doc["coeffs"])


@pytest.mark.parametrize("degree,bound,message", [
    (1, 2.5, "trace bound must be an integer"),
    (1.0, 2, "degree must be an integer"),
    (-1, 2, "degree must be an integer >= 0"),
])
def test_expansion_refuses_a_non_integer_window(degree, bound, message):
    with pytest.raises(ValueError, match=message):
        QExpansion(degree, bound, {})


@pytest.mark.parametrize("n,B,message", [
    (1.0, 2, "degree and trace bound must be integers"),
    (1, 2.5, "degree and trace bound must be integers"),
    (0, 2, "degree must be positive"),
    (6, 2, "matrices larger than 5x5 are out of scope"),
    (1, -1, "trace bound must be >= 0"),
])
def test_check_window_refuses(n, B, message):
    with pytest.raises(ValueError, match=message):
        check_window(n, B)


def test_check_window_accepts_degrees_1_to_5():
    for n in range(1, 6):
        check_window(n, 0)


def test_load_refuses_a_negative_trace_bound():
    doc = {"degree": 2, "trace_bound": -1, "class_invariant": True, "coeffs": []}
    with pytest.raises(ValueError, match="trace bound must be >= 0"):
        load_qexp(doc)


@pytest.mark.parametrize("twoT", [[[2.5]], [["2"]]])
def test_load_refuses_an_index_that_is_not_integral(twoT):
    # int() would have read [[2.5]] as [[2]]
    doc = {"degree": 1, "trace_bound": 4, "class_invariant": True,
           "coeffs": [{"twoT": twoT, "num": "240", "den": "1"}]}
    with pytest.raises(ValueError, match="malformed field 'twoT'"):
        load_qexp(doc)


def test_load_refuses_an_index_listed_twice():
    doc = {"degree": 1, "trace_bound": 4, "class_invariant": True, "coeffs": [
        {"twoT": [[2]], "num": "240", "den": "1"},
        {"twoT": [[2]], "num": "7", "den": "1"},
    ]}
    with pytest.raises(ValueError, match=r"index \[\[2\]\] listed twice"):
        load_qexp(doc)


def test_dump_load_beyond_the_int_str_digit_limit():
    # 7^6000 has 5071 digits, over Python's default int/str limit of 4300
    F = QExpansion(1, 1, {((2,),): Fraction(7**6000 + 1, 3)})
    assert load_qexp(json.loads(json.dumps(dump_qexp(F)))) == F
