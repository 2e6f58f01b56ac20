import sys
from collections import Counter
from fractions import Fraction

import pytest

from eistheta import eisenstein, exactnum, fourier, lattice
from eistheta.eisenstein import eisenstein_qexp, eisenstein_residues
from eistheta.exactnum import bernoulli, cohen_H, divisors, primes_upto, sigma, v_p, zeta_neg
from eistheta.lattice import (
    bareiss_det,
    content,
    enumerate_psd_indices,
    form_rank,
    minkowski_reduce,
)

from oracles import coeff, phi_restrict


def test_degree1_weight4_classical_values():
    # E_4 = 1 + 240 q + 2160 q^2 + 6720 q^3 + 17520 q^4 + 30240 q^5 + ...
    F = eisenstein_qexp(4, 1, 5)
    assert coeff(F, ((0,),)) == 1
    expected = [240, 2160, 6720, 17520, 30240]
    for t, val in enumerate(expected, start=1):
        assert coeff(F, ((2 * t,),)) == val


def test_degree1_weight6_classical_values():
    # E_6 = 1 - 504 q - 16632 q^2 - ...
    F = eisenstein_qexp(6, 1, 2)
    assert coeff(F, ((2,),)) == -504
    assert coeff(F, ((4,),)) == -16632


def test_degree1_matches_divisor_sum_formula():
    for k in (4, 6, 8, 44):
        F = eisenstein_qexp(k, 1, 6)
        c = Fraction(-2 * k) / bernoulli(k)
        for t in range(1, 7):
            assert coeff(F, ((2 * t,),)) == c * sigma(k - 1, t)


def test_degree2_constant_term():
    F = eisenstein_qexp(4, 2, 2)
    assert coeff(F, ((0, 0), (0, 0))) == 1


def test_degree2_weight4_rank2_anchors():
    # det(2T) = 3, 4, 7, 8 at content 1; the values are 240 times the
    # coefficients 56, 126, 576, 756 of the weight-4 index-1 Jacobi
    # Eisenstein series (Eichler-Zagier tables).
    F = eisenstein_qexp(4, 2, 3)
    assert coeff(F, ((2, -1), (-1, 2))) == 13440
    assert coeff(F, ((2, 0), (0, 2))) == 30240
    assert coeff(F, ((2, -1), (-1, 4))) == 138240
    assert coeff(F, ((2, 0), (0, 4))) == 181440


def test_degree2_content_two_index():
    # T = 2*I: divisor sum over d | 2 with H(3, 16) = -33/2 and H(3, 4) = -1/2,
    # scale 2/(zeta(-3) zeta(-5)) = -60480, so -60480*(-33/2 - 8*1/2) = 1239840.
    F = eisenstein_qexp(4, 2, 4)
    assert coeff(F, ((4, 0), (0, 4))) == 1239840


@pytest.mark.parametrize("k", [4, 6, 44, 296])
def test_degree2_matches_the_cohen_H_formula(k):
    # Cohen's formula with one H(k - 1, det(2T)/d^2) per divisor d of the
    # content, each from cohen_H on its own: no shared index walk, divisor
    # sum or L-value row
    F = eisenstein_qexp(k, 2, 8)
    const = Fraction(2) / (zeta_neg(k - 1) * zeta_neg(2 * k - 3))
    rank2 = [T for T in enumerate_psd_indices(2, 8) if form_rank(T) == 2]
    assert {T for T in F.coeffs if form_rank(T) == 2} <= set(rank2)
    for T in rank2:
        det = bareiss_det(T)
        want = const * sum(d ** (k - 1) * cohen_H(k - 1, det // (d * d))
                           for d in divisors(content(T)))
        assert F.coeffs.get(T, 0) == want, (k, T)


def test_degree2_rank1_reduces_to_degree1():
    for k in (4, 6, 44):
        F2 = eisenstein_qexp(k, 2, 4)
        F1 = eisenstein_qexp(k, 1, 4)
        assert phi_restrict(F2) == F1
        # content-2 rank-1 index carries the sigma value of its content
        assert coeff(F2, ((4, 0), (0, 0))) == coeff(F1, ((4,),))


def test_class_invariance_of_lookup():
    F = eisenstein_qexp(4, 2, 3)
    # ((2,1),(1,2)) is equivalent to the stored representative ((2,-1),(-1,2))
    assert coeff(F, ((2, 1), (1, 2))) == 13440


def test_coefficients_p_integral_for_large_p():
    for k, n in ((4, 1), (6, 1), (4, 2), (6, 2)):
        F = eisenstein_qexp(k, n, 4)
        for val in F.coeffs.values():
            for p in (7, 11, 13):
                if p > k:
                    assert v_p(val, p) >= 0


def test_large_weight_degree2_runs():
    F = eisenstein_qexp(296, 2, 2)
    assert coeff(F, ((0, 0), (0, 0))) == 1
    assert coeff(F, ((2, 0), (0, 0))) == Fraction(-2 * 296) / bernoulli(296)


def test_degree2_window_reads_one_bernoulli_row(monkeypatch):
    # one table of H(295, .) for the whole window: B_0 .. B_294 once, plus
    # B_296 and B_590 for the constants
    calls = []

    def counting(n):
        calls.append(n)
        return bernoulli(n)

    monkeypatch.setattr(exactnum, "bernoulli", counting)
    monkeypatch.setattr(eisenstein, "bernoulli", counting)
    eisenstein_qexp(296, 2, 16)
    assert len(calls) <= 160


def test_each_ladder_weight_costs_few_factorizations(monkeypatch):
    # an index's prime data (exactnum.cohen_primes) is built once for all
    # weights; a weight adds only sigma_{k-1}(c) at the 16 rank-1 indices
    calls = []
    original = exactnum.factorize

    def counting(n):
        calls.append(n)
        return original(n)

    for name, module in list(sys.modules.items()):
        if name.startswith("eistheta") and getattr(module, "factorize", None) is original:
            monkeypatch.setattr(module, "factorize", counting)
    counts = []
    for weights in ([44], [44, 296], [44, 296, 2060]):
        calls.clear()
        eisenstein_residues(weights, 2, 16, 7, 4)
        counts.append(len(calls))
    assert counts[1] - counts[0] <= 20 and counts[2] - counts[1] <= 20, counts


def test_a_ladder_table_splits_a_character_again_only_past_its_start(monkeypatch):
    # W2's L-table: 72 characters at n = 43 and 295, both 1 mod 6, at p = 7
    # and prec 4.  The 35 with chi(7) = 1 start at 4 + 1 + v_7(49) = 7 terms,
    # the others at 4, and each depth is swept by one call, so a character's
    # residues a < |D|/2 are split by chi again only when one of its values
    # lies deeper than its start assumed: 72 + 6 splits (109 when all
    # started at 4, and the 37 that escalated were split twice)
    Ds = {D0 for _, _, D0, _ in eisenstein._index_shapes(2, 16) if D0}
    got = exactnum.kummer_residues(7, Ds, [43, 295], 4)
    start = {D: 7 if exactnum.kronecker(D, 7) == 1 else 4 for D in Ds}
    again = {D for D in Ds if max(got[D, n][0] for n in (43, 295)) + 4 > start[D]}
    splits = []
    original = exactnum._character_signs

    def counting(ds):
        splits.extend(ds)
        return original(ds)

    monkeypatch.setattr(exactnum, "_character_signs", counting)
    eisenstein_residues([44, 296], 2, 16, 7, 4)
    assert len(Ds) == 72 and len(again) == 6
    assert Counter(splits) == {D: 1 + (D in again) for D in Ds}
    assert len(splits) <= 78


@pytest.mark.parametrize("k,B", [(4, 6), (296, 16)])
def test_degree2_window_is_canonicalised_once(monkeypatch, k, B):
    # enumerate_psd_indices keeps only canonical indices, so the expansion
    # built from them skips the constructor's second check; at degree 2
    # every index is canonical as built, so nothing is reduced at all
    calls = []

    def counting(T):
        calls.append(T)
        return minkowski_reduce(T)

    monkeypatch.setattr(lattice, "minkowski_reduce", counting)
    monkeypatch.setattr(fourier, "minkowski_reduce", counting)
    enumerate_psd_indices(2, B)
    alone = len(calls)
    calls.clear()
    eisenstein_qexp(k, 2, B)
    assert len(calls) == alone == 0


def test_degree3_window_is_canonicalised_once(monkeypatch):
    # a degree-3 window reduces each pad of rank 3 once, and an expansion
    # built from it by _from_checked reduces nothing again
    calls = []

    def counting(T):
        calls.append(T)
        return minkowski_reduce(T)

    monkeypatch.setattr(lattice, "minkowski_reduce", counting)
    monkeypatch.setattr(fourier, "minkowski_reduce", counting)
    window = enumerate_psd_indices(3, 6)
    alone = len(calls)
    fourier._from_checked(3, 6, dict.fromkeys(window, 1))
    assert len(calls) == len(set(calls)) == alone > 0
    assert {T for T in window if form_rank(T) == 3} <= set(calls)


def test_rejects_bad_weight_or_degree():
    with pytest.raises(ValueError):
        eisenstein_qexp(5, 1, 3)
    with pytest.raises(ValueError):
        eisenstein_qexp(2, 1, 3)
    with pytest.raises(ValueError):
        eisenstein_qexp(2, 2, 3)
    with pytest.raises(ValueError):
        eisenstein_qexp(4, 3, 3)
    with pytest.raises(ValueError):
        eisenstein_qexp(4, 1, -1)


@pytest.mark.parametrize("k,n,B", [(4.0, 1, 3), (4, 1, 2.5), (4, 2.0, 3), (Fraction(4), 2, 3)])
def test_rejects_a_non_integer_window(k, n, B):
    with pytest.raises(ValueError, match="must be integers"):
        eisenstein_qexp(k, n, B)
    with pytest.raises(ValueError, match="must be integers"):
        eisenstein_residues([k], n, B, 7, 2)


# ------------------------------------------------- residue windows mod p^N

def reduced(F, p, prec):
    """The coefficients of F as p^v u: v = v_p(a), 0 < u < p^prec, u = a p^-v mod p^prec."""
    out = {}
    for T, a in F.coeffs.items():
        v = v_p(a, p)
        x = a / Fraction(p) ** v
        u = x.numerator * pow(x.denominator, -1, p**prec) % p**prec
        out[T] = u * Fraction(p) ** v
    return out


@pytest.mark.parametrize("p", [q for q in primes_upto(37) if q > 2])
def test_residue_windows_match_the_exact_windows(p):
    # both ladders of p (j = 0 and j = 1) at their smallest weights, at
    # degrees 1 and 2; with prec = 2 the Kummer tables start from two base
    # values, so most of these weights are extrapolated.  Pole classes
    # come up at p = 3 (p - 1 | k), at p = 7, j = 1 (zeta(3 - 2k) and
    # D0 = -7), and at other p = 3 mod 4 with j = 1
    prec = 2
    for j in (0, 1):
        a = p - 1 if j == 0 else (p - 1) // 2
        k = 2 if j == 0 or a % 2 == 0 else 1
        for n, B in ((1, 20), (2, 4)):
            weights = [w for w in (k + a + (p - 1) * s for s in range(6)) if w > n + 1][:4]
            windows = eisenstein_residues(weights, n, B, p, prec)
            for w, F in zip(weights, windows):
                assert F.coeffs == reduced(eisenstein_qexp(w, n, B), p, prec), (p, j, n, w)


def test_residue_windows_at_ladder_weights():
    # the weights of W2 (44 and 296 at p = 7) to relative precision 7^5
    weights = [44, 296]
    for n, B in ((1, 50), (2, 8)):
        windows = eisenstein_residues(weights, n, B, 7, 5)
        for w, F in zip(weights, windows):
            assert F.coeffs == reduced(eisenstein_qexp(w, n, B), 7, 5)


def test_residue_windows_in_irregular_classes():
    # 37 | B_32 and 691 | B_12: in these classes -2k/B_k has v_p = -1, the
    # negative valuations that set a ladder's nu
    for p, weights, degrees in ((37, [32, 68, 104, 140], (1, 2)), (691, [12, 702], (1,))):
        for n in degrees:
            B = 30 if n == 1 else 5
            windows = eisenstein_residues(weights, n, B, p, 3)
            assert min(v_p(a, p) for F in windows for a in F.coeffs.values()) == -1
            for w, F in zip(weights, windows):
                assert F.coeffs == reduced(eisenstein_qexp(w, n, B), p, 3), (p, w, n)


def test_residue_windows_give_up_past_the_headroom(monkeypatch):
    # sigma_7(13) = 1 + 13^7 is 0 mod 7^2: without headroom its unit part is
    # out of reach, and the window says so instead of guessing
    (F,) = eisenstein_residues([8], 1, 13, 7, 2)
    assert v_p(F.coeffs[((26,),)], 7) == 2
    monkeypatch.setattr(eisenstein, "HEADROOM", 0)
    with pytest.raises(ArithmeticError, match="integer factor"):
        eisenstein_residues([8], 1, 13, 7, 2)
    with pytest.raises(ValueError):
        eisenstein_residues([44, 2], 1, 3, 7, 2)
