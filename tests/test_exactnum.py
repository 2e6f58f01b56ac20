import math
import random
import signal
import sys
from fractions import Fraction

import pytest

from eistheta import exactnum
from eistheta.exactnum import (
    bernoulli,
    cohen_H,
    cohen_primes,
    cohen_product,
    dirichlet_L_neg,
    divisors,
    factorize,
    fund_disc_decompose,
    gen_bernoulli,
    gen_bernoulli_rows,
    is_fundamental_discriminant,
    kronecker,
    kummer_residues,
    frac_from_doc,
    frac_to_doc,
    primes_upto,
    sigma,
    v_p,
    zeta_neg,
)
from eistheta.eisenstein import eisenstein_residues
from eistheta.fourier import QExpansion
from eistheta.genus import build_genera
from eistheta.lattice import (
    as_mat,
    check_window,
    enumerate_classes,
    enumerate_psd_indices,
)
from eistheta.eisenstein import WeightTarget, default_sequence
from eistheta.padic import empirical_limit

from oracles import character_signs_every_residue, chi_S, cohen_sum_by_divisors, moebius


# ---------------------------------------------------------------- oracles

def hurwitz_class_number(N):
    """Hurwitz class number by direct enumeration of reduced binary forms.

    Counts SL2(Z)-classes of positive definite forms ax^2+bxy+cy^2 of
    discriminant -N, weighting the square class 1/2 and the hexagonal
    class 1/3.
    """
    assert N > 0
    if N % 4 in (1, 2):
        return Fraction(0)
    total = Fraction(0)
    a = 1
    while 3 * a * a <= N:
        for b in range(-a, a + 1):
            if (b * b + N) % (4 * a):
                continue
            c = (b * b + N) // (4 * a)
            if c < a:
                continue
            if (abs(b) == a or a == c) and b < 0:
                continue  # boundary forms are kept with b >= 0 only
            if a == b == c:
                total += Fraction(1, 3)
            elif a == c and b == 0:
                total += Fraction(1, 2)
            else:
                total += 1
        a += 1
    return total


def bernoulli_recurrence(n):
    """B_0, B_2, ..., B_n (n even) by the integer recurrence.

    sum_{j<=m} C(m+1, j) B_j = 0, run over one shared squarefree
    denominator L, the primorial of n + 1 (by von Staudt-Clausen every
    denominator divides it), with the binomials updated in place.  O(n^2)
    big-integer steps, and no analysis: an independent route to the zeta
    method of ``exactnum.bernoulli``.
    """
    L = 1
    for p in primes_upto(n + 1):
        L *= p
    half_L = L // 2
    scaled = [L]  # B_0 = 1
    for m in range(2, n + 1, 2):
        acc = scaled[0] - (m + 1) * half_L  # the j = 0 and j = 1 terms
        c = (m + 1) * m // 2  # C(m+1, 2)
        for j in range(2, m - 1, 2):
            acc += c * scaled[j // 2]
            c = c * (m + 1 - j) * (m - j) // ((j + 1) * (j + 2))
        scaled.append(-acc // (m + 1))
    return [Fraction(x, L) for x in scaled]


def bernoulli_naive(n):
    """B_n straight from the defining recurrence, all Fraction arithmetic."""
    vals = [Fraction(1)]
    for m in range(1, n + 1):
        s = sum(math.comb(m + 1, j) * vals[j] for j in range(m))
        vals.append(-s / (m + 1))
    return vals[n]


def gen_bernoulli_fraction(n, D):
    """B_{n,chi} for chi = kronecker(D, .) by the finite sum, each term a Fraction."""
    f = abs(D)
    chi = [(a, c) for a in range(1, f + 1) if (c := kronecker(D, a))]
    terms = [c for _, c in chi]  # chi(a) a^(n-i), as i runs down from n
    total = Fraction(0)
    for i in range(n, -1, -1):
        b = bernoulli(i)
        s = sum(terms) if b else 0
        if s:
            total += math.comb(n, i) * b * Fraction(f**i, f) * s
        terms = [x * a for x, (a, _) in zip(terms, chi)]
    return total


# ---------------------------------------------------------------- kronecker

def test_kronecker_euler_criterion():
    for p in primes_upto(60):
        if p == 2:
            continue
        for a in range(-2 * p, 2 * p + 1):
            want = pow(a, (p - 1) // 2, p)
            if want == p - 1:
                want = -1
            assert kronecker(a, p) == want, (a, p)


def test_kronecker_at_two_and_zero():
    for a in range(-40, 41):
        if a % 2 == 0:
            assert kronecker(a, 2) == 0
        elif a % 8 in (1, 7):
            assert kronecker(a, 2) == 1
        else:
            assert kronecker(a, 2) == -1
    assert kronecker(1, 0) == 1
    assert kronecker(-1, 0) == 1
    assert kronecker(5, 0) == 0
    assert kronecker(-1, -1) == -1
    assert kronecker(3, -1) == 1


def test_kronecker_multiplicative():
    rng = random.Random(7)
    for _ in range(300):
        a = rng.randint(-50, 50)
        m = rng.randint(-30, 30)
        n = rng.randint(-30, 30)
        if m * n == 0:
            continue
        assert kronecker(a, m * n) == kronecker(a, m) * kronecker(a, n)
        b = rng.randint(-50, 50)
        assert kronecker(a * b, m) == kronecker(a, m) * kronecker(b, m)


def test_kronecker_periodicity_of_fundamental_characters():
    # chi_D(a) depends only on a mod |D| for fundamental D (a coprime checks
    # suffice; non-coprime values are 0 on both sides anyway).
    for D in (-3, -4, -7, -8, 5, 8, 12, -23, 21):
        f = abs(D)
        for a in range(1, 3 * f):
            assert kronecker(D, a) == kronecker(D, a + f)


# ---------------------------------------------------------------- integers

def test_factorize_and_divisors():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 100000)
        fac = factorize(n)
        prod = 1
        for p, e in fac.items():
            prod *= p**e
        assert prod == n
        divs = divisors(n)
        assert divs == sorted(d for d in range(1, n + 1) if n % d == 0) or n > 2000
        if n <= 2000:
            assert divs == [d for d in range(1, n + 1) if n % d == 0]


def test_moebius_sigma():
    assert [moebius(n) for n in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]
    assert sigma(1, 6) == 12
    assert sigma(3, 4) == 1 + 8 + 64
    # sum_{d|n} mu(d) = [n == 1]
    for n in range(1, 200):
        assert sum(moebius(d) for d in divisors(n)) == (1 if n == 1 else 0)


@pytest.mark.parametrize("k", [-1, -3])
def test_sigma_refuses_a_negative_exponent_without_a_modulus(k):
    with pytest.raises(ValueError, match="negative exponent needs a modulus"):
        sigma(k, 4)
    assert sigma(k, 4, 7) == sum(pow(d, k, 7) for d in (1, 2, 4)) % 7


def test_v_p():
    assert v_p(0, 5) == math.inf
    assert v_p(Fraction(0), 3) == math.inf
    assert v_p(56, 2) == 3
    assert v_p(Fraction(9, 14), 7) == -1
    assert v_p(Fraction(-49, 5), 7) == 2


def test_v_p_rejects_inexact_input():
    # int(0.5) = 0 would never leave the division loop: the alarm turns a
    # hang into a failure
    def hang(signum, frame):
        raise TimeoutError("v_p did not return")

    old = signal.signal(signal.SIGALRM, hang)
    signal.setitimer(signal.ITIMER_REAL, 5)
    try:
        for x in (2.5, 0.5, 0.0):
            with pytest.raises(TypeError):
                v_p(x, 2)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


# every entry point that takes an integer refuses what
# exactnum.check_integers refuses: JSON true == 1, and int() truncates 7.5
INTEGER_INPUTS = {
    "check_window degree": lambda x: check_window(x, 4),
    "check_window trace bound": lambda x: check_window(1, x),
    "QExpansion degree": lambda x: QExpansion(x, 4, {}),
    "QExpansion trace bound": lambda x: QExpansion(1, x, {}),
    "enumerate_psd_indices degree": lambda x: enumerate_psd_indices(x, 2),
    "enumerate_psd_indices trace bound": lambda x: enumerate_psd_indices(1, x),
    "eisenstein_residues degree": lambda x: eisenstein_residues([4], x, 4, 7, 2),
    "empirical_limit trace bound": lambda x: empirical_limit(
        default_sequence(WeightTarget(7, 2, 0), 2), 1, x),
    "enumerate_classes level": lambda x: enumerate_classes(2, x),
    "build_genera level": lambda x: build_genera(2, x),
    "enumerate_classes det bound": lambda x: enumerate_classes(2, 12, det_bound=x),
    "divisors": divisors,
    "sigma": lambda x: sigma(1, x),
    "sigma exponent": lambda x: sigma(x, 6),
    "kronecker numerator": lambda x: kronecker(x, 7),
    "kronecker denominator": lambda x: kronecker(5, x),
    "chi_S": lambda x: chi_S(as_mat([[2, 1], [1, 4]]), x),
    "cohen_H r": lambda x: cohen_H(x, 3),
    "cohen_H N": lambda x: cohen_H(2, x),
    "bernoulli": bernoulli,
    "zeta_neg": zeta_neg,
    "gen_bernoulli index": lambda x: gen_bernoulli(x, -3),
    "gen_bernoulli discriminant": lambda x: gen_bernoulli(3, x),
    "gen_bernoulli_rows index": lambda x: gen_bernoulli_rows([x], [-3]),
    "gen_bernoulli_rows discriminant": lambda x: gen_bernoulli_rows([3], [x]),
    "dirichlet_L_neg r": lambda x: dirichlet_L_neg(x, -3),
    "dirichlet_L_neg D": lambda x: dirichlet_L_neg(3, x),
    "kummer_residues discriminant": lambda x: kummer_residues(7, [x], [3], 2),
    "kummer_residues index": lambda x: kummer_residues(7, [-3], [x], 2),
    "kummer_residues precision": lambda x: kummer_residues(7, [-3], [3], x),
}


@pytest.mark.parametrize("x", [True, 7.5])
@pytest.mark.parametrize("site", list(INTEGER_INPUTS))
def test_integer_inputs_refuse_bools_and_floats(site, x):
    with pytest.raises(ValueError, match="integer"):
        INTEGER_INPUTS[site](x)


# ---------------------------------------------------------------- bernoulli

def test_bernoulli_against_naive_recurrence():
    for n in range(0, 40):
        assert bernoulli(n) == bernoulli_naive(n)


def test_bernoulli_matches_integer_recurrence():
    table = bernoulli_recurrence(600)
    for n in range(601):
        want = table[n // 2] if n % 2 == 0 else Fraction(-1, 2) if n == 1 else 0
        assert bernoulli(n) == want, n


@pytest.mark.slow
def test_bernoulli_matches_integer_recurrence_at_2060():
    assert bernoulli(2060) == bernoulli_recurrence(2060)[-1]


def test_bernoulli_von_staudt_clausen():
    # B_n + sum_{(p-1)|n} 1/p is an integer, and the denominator of B_n is
    # exactly the product of those primes.
    for n in [*range(2, 160, 2), 2060, 4118]:
        b = bernoulli(n)
        ps = [p for p in primes_upto(n + 1) if n % (p - 1) == 0]
        denom = 1
        for p in ps:
            denom *= p
        assert b.denominator == denom
        shifted = b + sum(Fraction(1, p) for p in ps)
        assert shifted.denominator == 1


def test_bernoulli_known_values():
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(12) == Fraction(-691, 2730)
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(13) == 0


def p_adic_residue(x, q):
    return x.numerator * pow(x.denominator, -1, q) % q


def test_bernoulli_kummer_congruences():
    # 37 is irregular: it divides the numerator of B_32, and by Kummer that
    # of every B_n with n = 32 mod 36 and 37 not dividing n.
    assert bernoulli(32).numerator % 37 == 0
    assert bernoulli(2084).numerator % 37 == 0
    # (1 - p^(n-1)) B_n / n mod p^(a+1) depends only on n mod (p-1) p^a;
    # 2060 = 4118 = 2 mod 6 * 7^3.
    assert {p_adic_residue(bernoulli(n) / n, 7) for n in (2, 2060, 4118)} == {3}
    assert {
        p_adic_residue((1 - Fraction(7) ** (n - 1)) * bernoulli(n) / n, 7**4)
        for n in (2, 2060, 4118)
    } == {1200}


def machin_pi_scaled(bits):
    """pi 2^(bits+20) within 2^16, from pi = 16 atan(1/5) - 4 atan(1/239).

    Each arctan series is summed in integers; every floor division errs by
    less than one unit, and there are fewer than 2^10 terms at bits <= 4000.
    """
    one = 1 << (bits + 20)

    def atan_inv(x):
        total, power, k = 0, one // x, 0
        while power:
            total += (-1) ** k * (power // (2 * k + 1))
            power //= x * x
            k += 1
        return total

    return 16 * atan_inv(5) - 4 * atan_inv(239)


def test_pi_fixed_within_six_units():
    from eistheta.exactnum import _pi_fixed

    for w in (1, 10, 47, 100, 1000, 4000):
        assert abs((_pi_fixed(w) << 20) - machin_pi_scaled(w)) < (6 << 20) + (1 << 16), w


def test_pow_up_rounds_up_within_its_bound():
    # m' 2^e' >= (m 2^e)^n with a relative excess below exp(6n 2^-w) - 1,
    # and below 12n 2^-w whenever 6n 2^-w <= 1
    from eistheta.exactnum import _pow_up

    rng = random.Random(5)
    for _ in range(300):
        m, e = rng.randrange(1, 1 << 60), rng.randint(-80, 80)
        n, w = rng.randint(1, 70), rng.choice((12, 20, 33, 64))
        pm, pe = _pow_up(m, e, n, w)
        exact = (Fraction(m) * Fraction(2) ** e) ** n
        got = Fraction(pm) * Fraction(2) ** pe
        assert pm <= 1 << w
        assert exact <= got < exact * (1 + Fraction(12 * n, 1 << w)), (m, e, n, w)


def test_bernoulli_runtime_checks_catch_a_wrong_pi(monkeypatch):
    # pi off by 2^-8 moves den |B_n| far from the integer it should round
    # to; each of the two checks raises instead of returning a wrong B_n.
    from eistheta import exactnum

    real = exactnum._pi_fixed
    monkeypatch.setattr(exactnum, "_pi_fixed", lambda w: real(w) + (1 << (w - 8)))
    for n, match in [(32, "missed its bound"), (40, "not prime to 13530")]:
        with pytest.raises(ArithmeticError, match=match):
            exactnum._bernoulli_even.__wrapped__(n)


def test_zeta_neg_small():
    assert zeta_neg(0) == Fraction(-1, 2)
    assert zeta_neg(1) == Fraction(-1, 12)
    assert zeta_neg(3) == Fraction(1, 120)
    assert zeta_neg(5) == Fraction(-1, 252)
    assert zeta_neg(2) == 0


# ---------------------------------------------------------------- characters

def test_fund_disc_decompose():
    cases = {
        -4: (-4, 1),
        -3: (-3, 1),
        -12: (-3, 2),
        8: (8, 1),
        9: (1, 3),
        49: (1, 7),
        -63: (-7, 3),
        48: (12, 2),
        -16: (-4, 2),
        5: (5, 1),
    }
    for D, want in cases.items():
        assert fund_disc_decompose(D) == want, D
    for D in range(-120, 121):
        if D == 0 or D % 4 in (2, 3):
            continue
        D0, f = fund_disc_decompose(D)
        assert D0 * f * f == D
        assert is_fundamental_discriminant(D0) or D0 == 1
    with pytest.raises(ValueError):
        fund_disc_decompose(6)


def test_gen_bernoulli_odd_characters_match_form_counts():
    # Class number formula: L(0, chi_D) = 2 h(D) / w(D) for D < 0, which is
    # the Hurwitz class number H(|D|) for fundamental D.  The right side is
    # counted directly from reduced forms.
    for D in (-3, -4, -7, -8, -11, -15, -19, -20, -23, -24, -31, -40, -47):
        assert is_fundamental_discriminant(D)
        assert dirichlet_L_neg(1, D) == hurwitz_class_number(-D)


def test_gen_bernoulli_even_characters_vanish_at_zero():
    for D in (5, 8, 12, 13, 21):
        assert gen_bernoulli(1, D) == 0


def test_gen_bernoulli_specific():
    assert gen_bernoulli(1, -4) == Fraction(-1, 2)
    assert gen_bernoulli(3, -4) == Fraction(3, 2)
    assert gen_bernoulli(1, -3) == Fraction(-1, 3)
    # trivial character: matches zeta at every 1-r
    for r in range(1, 12):
        assert dirichlet_L_neg(r, 1) == zeta_neg(r - 1)


def test_gen_bernoulli_matches_fraction_oracle():
    # n from 0, the trivial character D = 1, and characters of both parities
    # at indices of both parities (half of them the parity zeros)
    discs = [D for D in range(-40, 41) if D and is_fundamental_discriminant(D)]
    assert len(discs) == 27 and 1 in discs
    for D in discs:
        for n in range(13):
            assert gen_bernoulli(n, D) == gen_bernoulli_fraction(n, D), (n, D)


def test_gen_bernoulli_matches_fraction_oracle_at_ladder_sizes():
    # the weight-44 and weight-296 rungs of the degree-2 ladder at p = 7
    discs = [D for D in range(-100, 101) if D and is_fundamental_discriminant(D)]
    pairs = [(n, D) for D in discs for n in (43, 44)]
    pairs += [(295, D) for D in (-3, -4, -255, 5, 221)]
    for n, D in pairs:
        assert gen_bernoulli(n, D) == gen_bernoulli_fraction(n, D), (n, D)


def test_gen_bernoulli_reads_half_the_residues(monkeypatch):
    calls = []

    def counting(a, n):
        calls.append(n)
        return kronecker(a, n)

    monkeypatch.setattr(exactnum, "kronecker", counting)
    for n, D in ((2, -3), (3, 8), (44, -255), (43, 221), (1, 5)):
        assert gen_bernoulli(n, D) == 0  # chi(-1) != (-1)^n
    assert calls == []
    # kronecker(D, a) at the primes a < |D|/2 only, none at D = -3 and -4
    for n, D in ((1, -3), (2, 5), (43, -255), (44, 221), (295, -4), (0, 8)):
        calls.clear()
        assert gen_bernoulli(n, D) == gen_bernoulli_fraction(n, D)
        assert calls == primes_upto((abs(D) - 1) // 2), (n, D, calls)


def euler_routed(monkeypatch):
    """The (r, D) that dirichlet_L_neg sends to the Euler product, as they run."""
    routed = []
    real = exactnum._gen_bernoulli_euler

    def spy(r, D):
        b = real(r, D)
        if b is not None:
            routed.append((r, D))
        return b

    monkeypatch.setattr(exactnum, "_gen_bernoulli_euler", spy)
    return routed


def test_dirichlet_L_neg_matches_the_sweep(monkeypatch):
    # both routes, every r <= 60 and every fundamental D with |D| <= 100:
    # the product takes r >= 7 at D = -3, r >= 34 at D = 21 and no r at -95
    routed = euler_routed(monkeypatch)
    discs = [D for D in range(-100, 101) if D != 1 and is_fundamental_discriminant(D)]
    for D in discs:
        rows = gen_bernoulli_rows(range(D < 0, 61, 2), (D,))
        for r in range(1, 61):
            want = -rows[r][D] / r if (D < 0) == (r % 2 == 1) else 0
            assert dirichlet_L_neg(r, D) == want, (r, D)
    assert len(routed) == 333
    assert (5, -3) not in routed and (7, -3) in routed
    assert (32, 21) not in routed and (34, 21) in routed
    assert not any(D == -95 for _, D in routed)
    # the deep values of the direct ladder at weight 296
    for r, D in ((294, 21), (295, -3), (295, -4)):
        routed.clear()
        assert dirichlet_L_neg(r, D) == -gen_bernoulli_rows((r,), (D,))[r][D] / r
        assert routed == [(r, D)]


@pytest.mark.slow
def test_dirichlet_L_neg_matches_the_sweep_at_weight_2060(monkeypatch):
    routed = euler_routed(monkeypatch)
    assert dirichlet_L_neg(2058, 21) == -gen_bernoulli_rows((2058,), (21,))[2058][21] / 2058
    assert routed == [(2058, 21)]


def test_dirichlet_L_neg_takes_no_bernoulli_row_at_weight_296(monkeypatch):
    # L(-293, chi_21) of the A2+B7 rung: no B_i of the sweep's row, and one
    # kronecker(21, p) per Euler factor, at most 294 of them
    want = -gen_bernoulli(294, 21) / 294
    evaluated, calls = [], []
    exact = exactnum._bernoulli_even.__wrapped__
    monkeypatch.setattr(exactnum, "_bernoulli_even", lambda n: evaluated.append(n) or exact(n))
    monkeypatch.setattr(exactnum, "kronecker", lambda a, n: calls.append(n) or kronecker(a, n))
    assert dirichlet_L_neg(294, 21) == want
    assert evaluated == [] and 0 < len(calls) <= 294


def test_dirichlet_L_neg_gates_before_any_work(monkeypatch):
    calls = []
    monkeypatch.setattr(exactnum, "_gen_bernoulli_euler", lambda r, D: calls.append((r, D)))
    monkeypatch.setattr(exactnum, "gen_bernoulli", lambda r, D: calls.append((r, D)))
    for r, D in ((294, -3), (295, 21), (2, -4), (1, 5)):
        assert dirichlet_L_neg(r, D) == 0  # chi(-1) != (-1)^r
    for r, D in ((294, 9), (295, -12), (3, 0), (0, -3)):
        with pytest.raises(ValueError):
            dirichlet_L_neg(r, D)
    assert calls == []


def test_dirichlet_L_neg_gates_D_once_on_the_sweep(monkeypatch):
    # (5, -3) has more Euler factors than 5, so it is swept
    routed, calls = euler_routed(monkeypatch), []
    monkeypatch.setattr(exactnum, "is_fundamental_discriminant",
                        lambda D: calls.append(D) or is_fundamental_discriminant(D))
    assert dirichlet_L_neg(5, -3) == -gen_bernoulli_fraction(5, -3) / 5
    assert routed == [] and calls == [-3]


def test_euler_product_runtime_check_catches_a_wrong_pi(monkeypatch):
    real = exactnum._pi_fixed
    monkeypatch.setattr(exactnum, "_pi_fixed", lambda w: real(w) + (1 << (w - 8)))
    with pytest.raises(ArithmeticError, match="missed its bound"):
        exactnum._gen_bernoulli_euler(294, 21)


def test_character_signs_match_a_kronecker_call_per_residue():
    discs = [D for D in range(-1500, 1500) if D != 1 and is_fundamental_discriminant(D)]
    assert exactnum._character_signs(discs) == [character_signs_every_residue(D)
                                                for D in discs]


def test_gen_bernoulli_table_matches_fraction_oracle_at_weight_296():
    # every odd character of conductor <= 255, as at the weight-296 rung
    discs = [D for D in range(-255, 0) if is_fundamental_discriminant(D)]
    assert len(discs) == 79
    table = gen_bernoulli_rows((295,), discs)[295]
    assert sorted(table) == discs
    for D in discs:
        assert table[D] == gen_bernoulli_fraction(295, D), D


def test_gen_bernoulli_table_mixed_keys():
    # the trivial character, parity zeros of both signs, duplicates, and
    # conductors far apart sharing one power vector
    discs = [1, -3, 5, -4, 5, 1, 221, -255, -3, 8]
    for n in (0, 1, 2, 3, 44):
        want = {D: gen_bernoulli_fraction(n, D) for D in discs}
        assert gen_bernoulli_rows((n,), discs) == {n: want}, n
        assert gen_bernoulli_rows((n,), iter(discs)) == {n: want}, n
        for D in set(discs):
            assert gen_bernoulli(n, D) == want[D], (n, D)
    assert gen_bernoulli_rows((7,), []) == {7: {}}
    assert gen_bernoulli_rows((7,), [5, 8]) == {7: {5: 0, 8: 0}}


def test_gen_bernoulli_table_rejects_before_any_work(monkeypatch):
    calls = []
    monkeypatch.setattr(exactnum, "bernoulli", lambda i: calls.append(i))
    monkeypatch.setattr(exactnum, "kronecker", lambda a, n: calls.append((a, n)))
    for discs in ([-3, -4, -12], [1, 20], [5, 0], [-3, 6], [9]):
        with pytest.raises(ValueError):
            gen_bernoulli_rows((295,), discs)
    with pytest.raises(ValueError):
        gen_bernoulli_rows((-1,), [-3])
    assert calls == []


def test_gen_bernoulli_rejects_negative_index():
    for D in (1, -3, -4, 5):
        with pytest.raises(ValueError):
            gen_bernoulli(-1, D)


def test_cohen_H_r1_is_hurwitz():
    for N in range(1, 200):
        if N % 4 in (1, 2):
            assert cohen_H(1, N) == 0
        else:
            assert cohen_H(1, N) == hurwitz_class_number(N), N


def test_cohen_product_matches_the_divisor_sums():
    # the product over q | f against the two nested divisor sums, for every
    # c | f; q | D0 (chi(q) = 0) included
    Ds = [D for D in range(-199, 200) if is_fundamental_discriminant(D)]
    assert min(Ds) < -190 and max(Ds) > 190 and 1 in Ds
    for D0 in Ds:
        for f in range(1, 41):
            for c in divisors(f):
                primes = cohen_primes(D0, c, f)
                for r in (1, 2, 3, 43):
                    want = cohen_sum_by_divisors(r, D0, c, f)
                    for mod in (None, 7**6, 13**5):
                        got = cohen_product(r, primes, mod)
                        assert got == (want if mod is None else want % mod), (D0, c, f, r, mod)


def test_cohen_H_small():
    assert cohen_H(1, 0) == Fraction(-1, 12)
    assert cohen_H(2, 0) == Fraction(1, 120)
    assert cohen_H(1, 3) == Fraction(1, 3)
    assert cohen_H(1, 4) == Fraction(1, 2)
    assert cohen_H(3, 4) == Fraction(-1, 2)
    assert cohen_H(3, 3) == Fraction(-2, 9)
    assert cohen_H(3, 7) == Fraction(-16, 7)  # -B_{3,chi_{-7}}/3 by hand
    assert cohen_H(3, 5) == 0  # (-1)^3 * 5 = 3 mod 4
    assert cohen_H(2, 7) == 0  # 7 = 3 mod 4
    for r, N in ((0, 3), (1, -1)):
        with pytest.raises(ValueError):
            cohen_H(r, N)


# ---------------------------------------------------------------- fraction codec

def test_frac_doc_matches_plain_int_strings():
    for x in (Fraction(0), Fraction(-7, 3), Fraction(1, 12), Fraction(10**40 + 1, 3**30)):
        doc = frac_to_doc(x)
        assert doc == {"num": str(x.numerator), "den": str(x.denominator)}
        assert frac_from_doc(doc) == x
    assert frac_to_doc(5) == {"num": "5", "den": "1"}


def test_frac_doc_beyond_the_int_str_digit_limit():
    limit = sys.get_int_max_str_digits()
    x = Fraction(-(7**6000) - 1, 3**10000)  # 5071 and 4772 digits
    doc = frac_to_doc(x)
    assert len(doc["num"]) > 5000
    assert frac_from_doc(doc) == x
    assert sys.get_int_max_str_digits() == limit


def test_frac_from_doc_rejects_non_integers():
    for bad in ("1.5", "1e3", "NaN", "Infinity", "", "seven", None):
        with pytest.raises(ValueError):
            frac_from_doc({"num": bad, "den": "1"})


def test_frac_from_doc_rejects_a_denominator_that_is_not_positive():
    for den in ("0", "-3"):
        with pytest.raises(ValueError, match="denominator must be positive"):
            frac_from_doc({"num": "1", "den": den})
    assert frac_to_doc(Fraction(1, -3)) == {"num": "-1", "den": "3"}


# ------------------------------------------------- Kummer congruences mod p^N

def unit_split(x, p, prec):
    """(v, u) with x = p^v u, u a unit taken mod p^prec."""
    v = v_p(x, p)
    y = x / Fraction(p) ** v
    return v, y.numerator * pow(y.denominator, -1, p**prec) % p**prec


def test_gen_bernoulli_rows_are_tables():
    Ds = [1, -3, -4, 5, 8, -7, 12]
    for ns in ([0, 2, 12, 20], [1, 7, 13]):
        rows = gen_bernoulli_rows(ns, Ds)
        assert list(rows) == ns
        for n, row in rows.items():
            assert row == gen_bernoulli_rows((n,), Ds)[n]
            assert row == {D: gen_bernoulli_fraction(n, D) for D in Ds}, n
    with pytest.raises(ValueError):
        gen_bernoulli_rows([2, 3], Ds)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 37])
def test_kummer_residues_match_exact_values(p):
    # every class mod p - 1, all fundamental |D| <= 30 of the right parity;
    # the targets reach past the N = prec base values
    Ds = [D for D in range(-30, 31) if D and is_fundamental_discriminant(D)]
    for n1 in range(1, p):
        ds = [D for D in Ds if (D < 0) == (n1 % 2 == 1)]
        ns = [n for n in (n1 + (p - 1) * t for t in (0, 1, 5)) if n >= 2]
        got = kummer_residues(p, ds, ns, 3)
        for D in ds:
            for n in ns:
                assert got[D, n] == unit_split(gen_bernoulli(n, D) / n, p, 3), (p, D, n)
    # at n1 = 1 a character with chi(p) = 1 starts at prec + 1 + max v_p(t)
    # terms; t = p^2 takes that to prec + 3 (at p = 37 the exact value
    # B_{49285,chi} is out of reach)
    if p < 37:
        ds = [D for D in Ds if D < 0 and kronecker(D, p) == 1]
        ns = [1 + (p - 1) * t for t in (1, 5, p * p)]
        got = kummer_residues(p, ds, ns, 3)
        assert ds and len(got) == len(ds) * len(ns)
        for D in ds:
            for n in ns:
                assert got[D, n] == unit_split(gen_bernoulli(n, D) / n, p, 3), (p, D, n)


def test_kummer_residues_at_the_poles():
    # p - 1 | n: B_n has p in its denominator; D = p* with n = (p-1)/2 mod
    # p - 1: chi_D omega^n is trivial.  Both interpolate e(n) (1 - chi(p)
    # p^(n-1)) B_{n,chi} / n with e(n) = (1 + p)^n - 1, of valuation
    # 1 + v_p(n); 100, 63 and 147 have v_p(n) > 0
    cases = [(7, 1, [6, 300, 294]), (5, 1, [4, 100, 104]), (3, 1, [2, 18, 54]),
             (7, -7, [3, 63, 147, 303]), (5, 5, [2, 50, 102]), (3, -3, [1 + 2 * 13, 81]),
             (37, 37, [18, 54, 126])]
    for p, D, ns in cases:
        got = kummer_residues(p, [D], ns, 4)
        for n in ns:
            want = unit_split(gen_bernoulli(n, D) / n, p, 4)
            assert got[D, n] == want, (p, D, n)
            assert want[0] == -1 - v_p(n, p) if D == 1 else want[0] < 0


def test_kummer_residues_raise_the_precision_where_a_value_is_small():
    # at p = 7, chi_-3 omega^1 has a trivial zero at n = 1 (chi_-3(7) = 1):
    # along the ladder class n = 1 mod 6 the values B_{n,chi}/n shrink
    # p-adically, v_7 = 2, 3, 4 at n = 43, 295, 2059, so more terms are
    # needed for the same relative precision
    got = kummer_residues(7, [-3], [43, 295], 5)
    for n in (43, 295):
        assert got[-3, n] == unit_split(gen_bernoulli(n, -3) / n, 7, 5)
    assert [got[-3, n][0] for n in (43, 295)] == [2, 3]


def test_kummer_residues_check_the_difference_valuations(monkeypatch):
    # one base value B_{n1 + 2(p-1), chi} off by 1 breaks v_p(Delta^2 h(0)) >= 2
    rows = exactnum.gen_bernoulli_rows

    def perturbed(ns, Ds):
        out = rows(ns, Ds)
        if 1 + 2 * 6 in out:
            out[1 + 2 * 6][-3] += 1
        return out

    assert kummer_residues(7, [-3], [295], 4)
    monkeypatch.setattr(exactnum, "gen_bernoulli_rows", perturbed)
    with pytest.raises(ArithmeticError, match="Delta"):
        kummer_residues(7, [-3], [295], 4)


def test_kummer_residues_stop_at_the_term_cap(monkeypatch):
    # a base that is 0 mod p^100 has no unit part within any cap
    rows = exactnum.gen_bernoulli_rows
    seen = []

    def vanishing(ns, Ds):
        seen.extend(ns)
        return {n: {D: 7**100 * b for D, b in row.items()} for n, row in rows(ns, Ds).items()}

    monkeypatch.setattr(exactnum, "gen_bernoulli_rows", vanishing)
    with pytest.raises(ArithmeticError, match="more than 25 terms"):
        kummer_residues(7, [1], [44, 2060], 5)
    assert max(seen) == 2 + 6 * 24


def test_kummer_residues_refuse_a_base_value_that_is_not_p_integral(monkeypatch):
    # Newton's interpolation reads each base value mod p^N, so a 7 in a
    # denominator is refused, never reduced
    rows = exactnum.gen_bernoulli_rows
    monkeypatch.setattr(exactnum, "gen_bernoulli_rows", lambda ns, Ds: {
        n: {D: b / 7**100 for D, b in row.items()} for n, row in rows(ns, Ds).items()})
    with pytest.raises(ArithmeticError, match="a base value of chi_-3 is not 7-integral"):
        kummer_residues(7, [-3], [295], 4)


def test_kummer_residues_reject_what_they_cannot_interpolate():
    with pytest.raises(ValueError):
        kummer_residues(7, [1], [43], 3)  # B_43 = 0
    with pytest.raises(ValueError):
        kummer_residues(7, [-4], [44], 3)  # chi(-1) != (-1)^n
    with pytest.raises(ValueError):
        kummer_residues(7, [20], [44], 3)  # not fundamental
    with pytest.raises(ValueError):
        kummer_residues(7, [-3], [1], 3)  # the Euler factor at n = 1
