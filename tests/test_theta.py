import json
import os
import pathlib
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import product

import pytest

from eistheta.eisenstein import WeightTarget
from eistheta.fourier import _key_rank, qexp_scale
from eistheta.genus import (
    ClassRecord,
    build_genera,
    cached_genera,
    genera_from_doc,
    partition_into_genera,
)
from eistheta.fourier import QExpansion
from eistheta.lattice import (
    as_mat,
    automorphism_count,
    automorphisms,
    enumerate_classes,
    form_trace,
    minkowski_reduce,
    short_vectors,
    transform,
)
from eistheta.theta import genus_theta, theta_series
import eistheta.lattice as lattice_module
import eistheta.theta as theta_module
from forms import direct_sum
from oracles import (
    coeff,
    genus_weights,
    serre_series,
    theta_all_tuples,
    verify_rank_decomposition,
)

A2 = as_mat([[2, 1], [1, 2]])
B7 = as_mat([[2, 1], [1, 4]])
D4 = as_mat([[2, -1, -1, -1], [-1, 2, 0, 0], [-1, 0, 2, 0], [-1, 0, 0, 2]])
A4 = as_mat([[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]])
W2_REP = as_mat([[2, 0, -1, 0], [0, 2, 0, -1], [-1, 0, 4, 0], [0, -1, 0, 4]])  # B7 + B7
L37_REP = as_mat([[4, -1, -1, -1], [-1, 6, 3, 1], [-1, 3, 8, -1], [-1, 1, -1, 10]])
E8 = [[2 if i == j else 0 for j in range(8)] for i in range(8)]  # Cartan matrix
for a, b in [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (1, 3)]:
    E8[a][b] = E8[b][a] = -1


def theta_brute(twoS, n, B):
    """Box-enumerated theta coefficients at canonical indices."""
    r = len(twoS)
    # any entry x of a representing matrix has Q(x e_i-part) bounded:
    # x^2 * min diag <= column norm <= B, so |x| <= B works for our forms
    box = range(-B, B + 1)
    counts = {}
    for flat in product(box, repeat=r * n):
        X = [flat[i * n : (i + 1) * n] for i in range(r)]
        twoT = tuple(
            tuple(
                sum(X[a][i] * twoS[a][b] * X[b][j] for a in range(r) for b in range(r))
                for j in range(n)
            )
            for i in range(n)
        )
        if form_trace(twoT) <= B:
            counts[twoT] = counts.get(twoT, 0) + 1
    return {T: c for T, c in counts.items() if minkowski_reduce(T) == T}


def test_theta_examples():
    F = theta_series(((2,),), 1, 9)
    assert coeff(F, [[0]]) == 1
    assert coeff(F, [[2]]) == 2
    assert coeff(F, [[4]]) == 0
    assert coeff(F, [[8]]) == 2
    assert coeff(F, [[18]]) == 2
    G = theta_series(A2, 1, 6)
    assert coeff(G, [[2]]) == 6
    assert coeff(G, [[0]]) == 1


def test_theta_series_accepts_list_input():
    F = theta_series([[2, 1], [1, 2]], 1, 3)
    assert F.coeffs == theta_series(A2, 1, 3).coeffs
    assert theta_series([[2, 1], [1, 2]], 2, 3).coeffs == theta_series(A2, 2, 3).coeffs


def test_mutating_a_theta_series_leaves_the_next_call_unchanged():
    F = theta_series([[2, -1], [-1, 2]], 1, 4)
    want = dict(F.coeffs)
    assert len(want) == 4
    F.coeffs.clear()
    assert theta_series([[2, -1], [-1, 2]], 1, 4).coeffs == want


def test_theta_matches_box_small():
    rng = random.Random(3)
    forms = [((2,),), A2, as_mat([[2, 0], [0, 4]]), as_mat([[2, 1], [1, 4]])]
    for twoS in forms:
        for n in (1, 2):
            B = 4
            got = theta_series(twoS, n, B)
            want = theta_brute(twoS, n, B)
            assert dict(got.coeffs) == {
                T: Fraction(c) for T, c in want.items() if c
            }, (twoS, n)


ORACLE_WINDOWS = [
    (A2, 2, 8), (A2, 3, 6), (A2, 4, 4),
    (direct_sum(A2, A2), 2, 10), (direct_sum(A2, B7), 2, 10), (D4, 2, 10),
    (direct_sum(A2, A2), 3, 4), (direct_sum(A2, B7), 3, 4), (D4, 3, 4),
]


@pytest.mark.parametrize("twoS,n,B", ORACLE_WINDOWS)
def test_theta_matches_all_tuples_oracle(twoS, n, B):
    want = theta_all_tuples(twoS, n, B)
    assert theta_series(twoS, n, B).coeffs == {T: Fraction(c) for T, c in want.items()}


def reductions(monkeypatch):
    """The list of every key theta_series passes to minkowski_reduce."""
    seen = []

    def recording(T):
        seen.append(T)
        return minkowski_reduce(T)

    monkeypatch.setattr(theta_module, "minkowski_reduce", recording)
    return seen


@pytest.mark.parametrize("twoS,kept", [(D4, 64), (direct_sum(A2, B7), 81)])
def test_theta_canonicalises_only_its_coefficients(monkeypatch, twoS, kept):
    # every column of a key fits the canonical shape, so a key with at most
    # two nonzero diagonal entries is canonical as built: at degree 2
    # minkowski_reduce runs on no key
    seen = reductions(monkeypatch)
    assert len(theta_series(twoS, 2, 10).coeffs) == kept
    assert seen == []


@pytest.mark.parametrize("twoS,calls", [(D4, 9), (direct_sum(A2, B7), 8)])
def test_theta_reduces_each_key_of_rank_3_once(monkeypatch, twoS, calls):
    # at degree 3 minkowski_reduce runs once on each key with three nonzero
    # diagonal entries, the only keys it can drop (some of them singular)
    seen = reductions(monkeypatch)
    F = theta_series(twoS, 3, 4)
    assert len(seen) == len(set(seen)) == calls
    assert all(_key_rank(T) == 3 for T in seen)
    assert {T for T in F.coeffs if _key_rank(T) == 3} <= set(seen)
    assert len(F.coeffs) == 16


@pytest.mark.parametrize("twoS,n,B", [
    *ORACLE_WINDOWS, (W2_REP, 2, 24), (W2_REP, 3, 6),
])
def test_theta_keys_kept_without_reduction_are_canonical(monkeypatch, twoS, n, B):
    # the keys the walk keeps without minkowski_reduce are its fixed points
    reduced = reductions(monkeypatch)
    unreduced = [T for T in theta_series(twoS, n, B).coeffs if T not in reduced]
    assert unreduced and all(minkowski_reduce(T) == T for T in unreduced)


@pytest.mark.parametrize("twoS,eps,n,B", [
    (W2_REP, 32, 2, 10), (W2_REP, 32, 3, 4), (A4, 240, 2, 8), (L37_REP, 2, 2, 8),
])
def test_orbit_walk_matches_all_tuples_oracle(monkeypatch, twoS, eps, n, B):
    # x_1 is taken up to Aut(S) here: every diagonal entry of 2S is <= 2B
    groups = []

    def recording(M, pool=None):
        groups.append(automorphisms(M, pool))
        return groups[-1]

    monkeypatch.setattr(theta_module, "automorphisms", recording)
    want = theta_all_tuples(twoS, n, B)
    assert theta_series(twoS, n, B).coeffs == {T: Fraction(c) for T, c in want.items()}
    assert [len(G) for G in groups] == [eps]


def test_degree2_theta_lists_the_vectors_of_S_once(monkeypatch):
    # the automorphism search reads the window's own short vectors
    calls = []

    def counted(twoS, bound):
        calls.append(as_mat(twoS))
        return short_vectors(twoS, bound)

    monkeypatch.setattr(theta_module, "short_vectors", counted)
    monkeypatch.setattr(lattice_module, "short_vectors", counted)
    theta_series(W2_REP, 2, 16)
    assert calls.count(W2_REP) == 1


@pytest.mark.parametrize("n", [1, 2, 3])
def test_theta_of_the_zero_lattice_is_1(n):
    assert theta_series((), n, 4) == QExpansion(n, 4, {((0,) * n,) * n: 1})


def refuse_group_search(monkeypatch):
    def refuse(twoS, pool=None):
        raise AssertionError("automorphism group searched")

    monkeypatch.setattr(theta_module, "automorphisms", refuse)


@pytest.mark.parametrize("twoS,U,n,B", [
    # rank 5: out of the rule whatever its basis
    (direct_sum(A2, A2, ((2,),)), [[1, 0, 0, 0, 1], [0, 1, 0, 0, 0], [0, 0, 1, 1, 0],
                                   [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]], 2, 4),
    # a skewed D4 basis, diagonal (2, 6, 10, 2) against 2B = 8
    (D4, [[1, 2, 3, 1], [0, 1, 2, 1], [0, 0, 1, 1], [0, 0, 0, 1]], 2, 4),
])
def test_walk_outside_the_rule_takes_x1_up_to_sign(monkeypatch, twoS, U, n, B):
    skewed = transform(twoS, U)
    assert len(skewed) > 4 or max(skewed[i][i] for i in range(4)) > 2 * B
    want = theta_series(minkowski_reduce(skewed), n, B)
    refuse_group_search(monkeypatch)
    assert theta_series(skewed, n, B) == want


def test_orbit_walk_work_count(monkeypatch):
    # 27146 shape checks on W2's rep at (2, 16) when x_1 is taken up to
    # sign; 5213 with x_1 one per orbit (53) and x_2 = 0 or either sign of
    # 2580 pairs +-y; 53 + 2580 when x_2 is taken one per pair; 19 + 2580
    # once the 34 orbits with 2Q(x_1) > 16, whose x_2 can only be 0, are
    # counted vector by vector without a walk
    calls = []
    fits = theta_module.fits_canonical_shape

    def counting(g, j):
        calls.append(j)
        return fits(g, j)

    monkeypatch.setattr(theta_module, "fits_canonical_shape", counting)
    theta_series(W2_REP, 2, 16)
    assert len(calls) == 2599


def test_e8_walk_searches_no_group(monkeypatch):
    # |Aut(E8)| is about 7e8: rank 8 keeps x_1 up to sign
    refuse_group_search(monkeypatch)
    F = theta_series(E8, 2, 1)
    assert F.coeffs == {((0, 0), (0, 0)): 1, ((2, 0), (0, 0)): 240}


@pytest.mark.parametrize("n,B", [(1, 4.5), (2, 4.5), (2.0, 4)])
def test_theta_refuses_a_non_integer_window(n, B):
    with pytest.raises(ValueError, match="must be integers"):
        theta_series(A2, n, B)


@pytest.mark.parametrize("n", [1, 2])
def test_theta_refuses_a_negative_trace_bound(n):
    with pytest.raises(ValueError, match="trace bound must be >= 0"):
        theta_series(B7, n, -1)


def test_theta_class_invariance():
    U = [[1, 2], [0, 1]]
    assert theta_series(A2, 2, 6) == theta_series(transform(A2, U), 2, 6)


def test_theta_self_coefficient_counts_automorphisms():
    for twoS in (((2,),), A2, as_mat([[2, 0], [0, 2]])):
        n = len(twoS)
        F = theta_series(twoS, n, form_trace(twoS) + 2)
        assert coeff(F, twoS) == automorphism_count(twoS)


def test_genus_theta_single_class():
    g = build_genera(2, 3)[0]
    avg, zero = genus_theta(g, 2, 6)
    th = theta_series(g.classes[0].rep, 2, 6)
    eps = g.classes[0].epsilon
    assert avg == th
    assert zero == qexp_scale(th, Fraction(1, eps))
    assert coeff(avg, [[0, 0], [0, 0]]) == 1
    assert coeff(zero, [[0, 0], [0, 0]]) == g.mass


def test_genus_theta_multi_class():
    reps = enumerate_classes(4, 11)
    genera = partition_into_genera([ClassRecord.from_rep(r) for r in reps])
    assert len(genera) == 1
    g = genera[0]
    assert len(g.classes) == 3
    avg, zero = genus_theta(g, 1, 6)
    # recompute from per-class expansions
    for t in range(0, 7):
        want = sum(
            Fraction(coeff(theta_series(rec.rep, 1, 6), [[2 * t]]), rec.epsilon)
            for rec in g.classes
        )
        assert coeff(zero, [[2 * t]]) == want
        assert coeff(avg, [[2 * t]]) == want / g.mass
    assert coeff(avg, [[0]]) == 1
    # mass * avg == zero, coefficientwise
    assert qexp_scale(avg, g.mass) == zero


def test_rank_decomposition_on_thetas():
    for twoS in (((2,),), ((4,),), A2):
        for n in (1, 2, 3):
            F = theta_series(twoS, n, 6)
            for r in range(1, min(n, 2) + 1):
                rep = verify_rank_decomposition(F, r, 6)
                assert rep.ok, (twoS, n, r, rep.residuals)


def test_rank_decomposition_zero_part():
    # rank-2 part of a rank-1 theta in degree 2 is empty; primitive
    # coefficients of definite rank-2 indices must all vanish
    F = theta_series(((2,),), 2, 6)
    rep = verify_rank_decomposition(F, 2, 6)
    assert rep.ok
    assert all(astar == 0 for astar, _ in rep.terms.values())


def test_rank_decomposition_rank1_of_rank2_theta():
    # degree-2 theta of A2 restricted to rank-1 indices decomposes over
    # the rank-1 thetas, with primitive coefficients counting primitive
    # vectors of each norm
    F = theta_series(A2, 2, 6)
    rep = verify_rank_decomposition(F, 1, 6)
    assert rep.ok
    # norm-1 vectors of A2 are all primitive: a*((1)) = 6
    assert rep.terms[((2,),)] == (Fraction(6), 2)


def test_rank_decomposition_errors():
    F = theta_series(A2, 2, 6)
    with pytest.raises(ValueError):
        verify_rank_decomposition(F, 3, 6)
    with pytest.raises(ValueError):
        verify_rank_decomposition(F, 1, 10)


# ---------------------------------------------- Serre's limit at degree 1

def degree1_averages(genera, N):
    """[avg_g(n) for each genus g] for n = 0..N, the genera by determinant."""
    avgs = [genus_theta(g, 1, N)[0] for g in sorted(genera, key=lambda g: g.det)]
    return [[coeff(F, [[2 * n]]) for F in avgs] for n in range(N + 1)]


def solve_over_Q(rows, rhs):
    """The one w with rows[n] . w = rhs[n] for every n, over Q; None when
    there is no solution or more than one."""
    m = len(rows[0])
    aug = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for c in range(m):
        piv = next((i for i in range(c, len(aug)) if aug[i][c]), None)
        if piv is None:
            return None
        aug[c], aug[piv] = aug[piv], aug[c]
        aug[c] = [x / aug[c][c] for x in aug[c]]
        for i, row in enumerate(aug):
            if i != c and row[c]:
                aug[i] = [x - row[c] * y for x, y in zip(row, aug[c])]
    if any(row[-1] for row in aug[m:]):
        return None
    return [row[-1] for row in aug[:m]]


def level37_genera():
    path = pathlib.Path(__file__).parent / "fixtures" / "genera_r4_L37.json"
    with open(path) as fh:
        return genera_from_doc(json.load(fh), 4, 37)


@pytest.mark.parametrize("p,j", [(7, 0), (13, 1), (17, 0), (17, 1), (29, 0), (29, 1),
                                 (37, 0), (37, 1)])
def test_serre_series_fixes_the_genus_weights(p, j):
    # both sides lie in M_2(Gamma_0(p), chi^j), so a window past Sturm's
    # bound (p + 1)/6 fixes the weights; genus_weights keeps its own literals
    D = WeightTarget(p, 2, j).character
    genera = level37_genera() if p == 37 else build_genera(4, p)
    genera = [g for g in genera if g.character == D]
    N = (p + 1) // 6 + 1
    w = solve_over_Q(degree1_averages(genera, N), serre_series(p, D, N))
    assert w is not None and w == genus_weights(p, genera), (p, j, w)


def test_serre_series_has_no_weights_on_a_genus_missing_a_class():
    # the det-1369 genus of level 37 (the chi = 1 part) without its class of
    # 2 automorphisms, its mass recomputed from the three left (9/8 -> 5/8):
    # no weight reproduces Serre's limit, with no mass formula consulted
    (g,) = [g for g in level37_genera() if g.character == 1]
    classes = tuple(c for c in g.classes if c.epsilon != 2)
    assert len(classes) == len(g.classes) - 1
    g = g._replace(classes=classes, mass=sum(Fraction(1, c.epsilon) for c in classes))
    assert g.mass == Fraction(5, 8)
    N = (37 + 1) // 6 + 1
    assert solve_over_Q(degree1_averages([g], N), serre_series(37, 1, N)) is None


@pytest.mark.slow
def test_degree1_ladder_reaches_the_sturm_bound_of_rung_3(tmp_path):
    # rung 3 has weight 2060, so Sturm's bound 2060 * 8/12 = 1373 < 1400
    cache = str(tmp_path / "cache")
    (genus,) = [g for g in cached_genera(4, 7, cache_dir=cache) if g.character == 1]
    src = str(pathlib.Path(theta_module.__file__).parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "eistheta.cli", "verify-main", "--p", "7", "--k", "2",
         "--degree", "1", "--bound", "1400", "--m-max", "3", "--cache-dir", cache],
        env=env, capture_output=True, text=True, timeout=300)
    elapsed = time.perf_counter() - start
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["passed"] is True
    assert elapsed < 10, elapsed
    # the half-pair counts where no enumeration oracle can run
    avg = [row[0] for row in degree1_averages([genus], 1400)]
    assert avg == serre_series(7, 1, 1400)
