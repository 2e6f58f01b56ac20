"""Weight ladder, empirical limit, and fit-and-verify tests.

The degree-1 oracle is classical: removing the p-part of the divisor
sum gives the limit series 1 + c sum_t (sigma_{k-1}(t) - p^{k-1}
sigma_{k-1}(t/p)) q^t with c = -2k/((1 - p^{k-1}) B_k); for p = 7,
k = 2 the constant is 4.  Ladder values of rank-4 coefficients were
frozen from the local-density engine after its dual-route validation.
"""

import json
import pathlib
from fractions import Fraction

import pytest

from eistheta import exactnum, localdensity, padic
from eistheta.eisenstein import (
    WeightSequence,
    WeightTarget,
    default_sequence,
    eisenstein_qexp,
    eisenstein_residues,
)
from eistheta.exactnum import HEADROOM, residue, sigma, v_p
from eistheta.fourier import QExpansion, qexp_add, qexp_scale
from eistheta.genus import (
    GenusRecord,
    build_genera,
    genera_from_doc,
    genera_to_doc,
    write_json_atomic,
)
from eistheta.lattice import form_trace
from eistheta.linalg import echelon_mod
from eistheta.localdensity import (
    direct_limit_coefficient,
    local_density_coeff,
    primitive_density_coeff,
)
from eistheta.padic import (
    PipelineError,
    _select_training,
    empirical_limit,
    fit_and_verify,
    singular_rank_audit,
)
from eistheta.theta import genus_theta

from oracles import congruent_mod, genus_weight_misses

S7 = [[2, 0, -1, 0], [0, 2, 0, -1], [-1, 0, 4, 0], [0, -1, 0, 4]]
A2A2 = [[2, -1, 0, 0], [-1, 2, 0, 0], [0, 0, 2, -1], [0, 0, -1, 2]]
A2B7 = [[2, -1, 0, 0], [-1, 2, 0, 0], [0, 0, 2, 1], [0, 0, 1, 4]]
FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def deprived_sigma_series(p, k, B):
    from eistheta.exactnum import bernoulli

    c = Fraction(-2 * k) / ((1 - p ** (k - 1)) * bernoulli(k))
    coeffs = {((0,),): Fraction(1)}
    for t in range(1, B + 1):
        s = sigma(k - 1, t)
        if t % p == 0:
            s -= p ** (k - 1) * sigma(k - 1, t // p)
        coeffs[((2 * t,),)] = c * s
    return QExpansion(1, B, coeffs)


def per_weight(source):
    """A ladder source, source(seq, n, B), from one that takes a weight."""
    return lambda seq, n, B: [source(k, n, B) for k in seq.weights]


# ---------------------------------------------------------------------------
# weight targets and schedules
# ---------------------------------------------------------------------------


def test_weight_values():
    t = WeightTarget(7, 2, 0)
    seq = default_sequence(t, 3)
    assert [seq.weights[m - 1] for m in (1, 2, 3)] == [44, 296, 2060]
    t13 = WeightTarget(13, 4, 1)
    assert default_sequence(t13, 1).weights[0] == 4 + 6 * 13


def test_weight_lives_in_both_components():
    for t in [WeightTarget(7, 2, 0), WeightTarget(11, 4, 0), WeightTarget(13, 4, 1)]:
        seq = default_sequence(t, 3)
        for m in (1, 2, 3):
            k_m = seq.weights[m - 1]
            assert k_m % 2 == 0
            assert (k_m - t.k) % t.p ** seq.b_schedule[m - 1] == 0
            want = (t.p - 1) // 2**t.j
            assert (k_m - t.k) % (t.p - 1) == want % (t.p - 1)


def test_weight_target_validation():
    with pytest.raises(ValueError):
        WeightTarget(7, 3, 0)  # odd k with j = 0
    with pytest.raises(ValueError):
        WeightTarget(7, 2, 1)  # k and (p-1)/2 of different parity
    with pytest.raises(ValueError):
        WeightTarget(9, 2, 0)  # not prime
    with pytest.raises(ValueError):
        WeightTarget(2, 2, 0)
    with pytest.raises(ValueError):
        WeightSequence(WeightTarget(7, 2, 0), (1, 1, 2))


def test_ladder_inputs_must_be_integers():
    # a float weight used to fail deep in compute, and a float exponent was
    # truncated: (1.5, 3) ran the weights of (1, 3)
    for p, k, j in ((7.0, 2, 0), (7, 2.0, 0), (7, 2, 0.0)):
        with pytest.raises(ValueError, match="integers"):
            WeightTarget(p, k, j)
    t = WeightTarget(7, 2, 0)
    for b in ((1.5, 3), (1, 3.0), ("1", "3")):
        with pytest.raises(ValueError, match="integers"):
            WeightSequence(t, b)


def test_ladder_inputs_refuse_bool():
    # True is an int to isinstance: WeightTarget(13, 2, True) ran j = 1, and
    # a schedule (True, 2) was written to a report as [true, 2]
    for p, k, j in ((True, 2, 0), (7, True, 0), (7, 2, False), (13, 2, True)):
        with pytest.raises(ValueError, match="integers"):
            WeightTarget(p, k, j)
    t = WeightTarget(7, 2, 0)
    with pytest.raises(ValueError, match="integers"):
        WeightSequence(t, (True, 2))
    for m_max in (True, 2.5, "2"):  # 2.5 was a TypeError from range
        with pytest.raises(ValueError, match="integers"):
            default_sequence(t, m_max)


def test_character_of_target():
    assert WeightTarget(7, 2, 0).character == 1
    assert WeightTarget(13, 4, 1).character == 13
    assert WeightTarget(11, 5, 1).character == -11
    assert WeightTarget(7, 2, 0).in_theorem_range()
    assert not WeightTarget(5, 2, 0).in_theorem_range()


# ---------------------------------------------------------------------------
# empirical limits
# ---------------------------------------------------------------------------


def test_empirical_limit_degree1_matches_deprived_series():
    t = WeightTarget(7, 2, 0)
    lad = empirical_limit(default_sequence(t, 2), 1, 30)
    oracle = deprived_sigma_series(7, 2, 30)
    for m in (1, 2):
        assert congruent_mod(lad.rungs[m - 1], oracle, 7, m)
        assert congruent_mod(lad.rungs[m - 1], oracle, 7, m + 1)
    assert not lad.flagged
    assert lad.nu_hat == 0
    # constant term is 1 on every rung
    for F in lad.rungs:
        assert F.coeffs[((0,),)] == 1
    # residues are exact: a(1) = 4 mod 7^2 certified by the m=1 -> m=2 jump
    res, M = lad.residues[((2,),)]
    assert M >= 2 and res % 7**2 == 4
    json.dumps(lad.to_doc())


def test_empirical_limit_certificates_increase():
    t = WeightTarget(7, 2, 0)
    lad = empirical_limit(default_sequence(t, 3), 1, 10)
    for T, certs in lad.certificates.items():
        assert all(y >= x for x, y in zip(certs, certs[1:])), T
        assert certs[0] >= 2  # observed: one better than the bar b(1) = 1


def test_empirical_limit_flags_divergent_index():
    t = WeightTarget(7, 2, 0)

    def source(k, n, B):
        b = v_p(k - 2, 7)  # recover the rung from the weight
        return QExpansion(1, B, {((0,),): 1, ((2,),): 7 ** (6 - b)})

    lad = empirical_limit(default_sequence(t, 3), 1, 2, source=per_weight(source))
    assert lad.flagged == (((2,),),)


def test_empirical_limit_reports_negative_nu():
    t = WeightTarget(7, 2, 0)

    def source(k, n, B):
        return qexp_scale(eisenstein_qexp(k, n, B), Fraction(1, 7))

    lad = empirical_limit(default_sequence(t, 2), 1, 10, source=per_weight(source))
    assert lad.nu_hat == -1
    assert not lad.flagged
    with pytest.raises(ValueError):
        empirical_limit(default_sequence(t, 1), 1, 10)


def constant_window(n, B):
    return QExpansion(n, B, {tuple((0,) * n for _ in range(n)): 1})


def broken_source(seq, n, B):
    raise ZeroDivisionError("no window")


@pytest.mark.parametrize("source,message", [
    (lambda seq, n, B: [constant_window(n, B)] * 2, "2 windows for 3 rungs"),
    (lambda seq, n, B: [constant_window(2, B)] * 3, "degree 2 and trace bound 10"),
    (lambda seq, n, B: [constant_window(n, 3)] * 3, "degree 1 and trace bound 3"),
    (broken_source, "coefficient source failed: no window"),
], ids=["count", "degree", "trace-bound", "raises"])
@pytest.mark.parametrize("entry", [empirical_limit, fit_and_verify])
def test_the_source_hook_checks_its_windows(entry, source, message):
    # a window short of the ladder made empirical_limit certify what it had
    # and fit_and_verify raise a bare IndexError; a window truncated below B
    # had its missing indices read as 0
    seq = default_sequence(WeightTarget(7, 2, 0), 3)
    with pytest.raises(PipelineError, match=message) as info:
        entry(seq, 1, 10, source=source)
    assert info.value.stage == "fit"


# ---------------------------------------------------------------------------
# singular rank audit
# ---------------------------------------------------------------------------


def synthetic_window(p, m, unit_rank, degree=3):
    """Degree-3 window singular mod p^m of p-rank unit_rank by construction."""
    zero = tuple(tuple(0 for _ in range(degree)) for _ in range(degree))
    idx1 = tuple(
        tuple(2 if i == j == 0 else 0 for j in range(degree)) for i in range(degree)
    )
    idx2 = tuple(
        tuple(
            [[2, -1, 0], [-1, 2, 0], [0, 0, 0]][i][j] for j in range(degree)
        )
        for i in range(degree)
    )
    idx3 = tuple(
        tuple(2 if i == j else 0 for j in range(degree)) for i in range(degree)
    )
    vals = {zero: 1, idx1: 3, idx2: 2, idx3: 5}
    ranks = {zero: 0, idx1: 1, idx2: 2, idx3: 3}
    coeffs = {
        T: (v if ranks[T] <= unit_rank else v * p**m) for T, v in vals.items()
    }
    return QExpansion(degree, 3, coeffs)


def test_audit_even_rank_consistent():
    F = synthetic_window(7, 1, 2)
    out = singular_rank_audit(F, 4, 7, 1)  # 2*4 - 2 = 6 = 0 mod 6
    assert out.rank == 2 and out.applicable and out.congruence_ok and out.ok
    G = synthetic_window(7, 2, 2)
    out = singular_rank_audit(G, 22, 7, 2)  # 2*22 - 2 = 42 = 0 mod 42
    assert out.rank == 2 and out.ok


def test_audit_flags_weight_mismatch():
    F = synthetic_window(7, 1, 2)
    out = singular_rank_audit(F, 6, 7, 1)  # 2*6 - 2 = 10 != 0 mod 6
    assert out.rank == 2 and out.applicable and not out.congruence_ok and not out.ok


def test_audit_odd_rank_not_applicable():
    F = synthetic_window(7, 1, 1)
    out = singular_rank_audit(F, 4, 7, 1)
    assert out.rank == 1 and not out.applicable and out.ok


def test_audit_on_classical_windows():
    # E_6 mod 7 collapses to its constant term: rank 0, and 2*6 = 0 mod 6
    E6 = eisenstein_qexp(6, 1, 20)
    out = singular_rank_audit(E6, 6, 7, 1)
    assert out.rank == 0 and out.applicable and out.ok
    # E_4 mod 7 keeps unit coefficients at full rank: nothing to audit
    E4 = eisenstein_qexp(4, 1, 20)
    out = singular_rank_audit(E4, 4, 7, 1)
    assert out.rank is None and not out.applicable and out.ok


# ---------------------------------------------------------------------------
# primitive coefficients from local densities
# ---------------------------------------------------------------------------


def test_primitive_density_matches_window_inversion():
    # same inversion computed from the closed-form degree-2 window
    from oracles import primitive_coeffs

    for k in (4, 6):
        F = eisenstein_qexp(k, 2, 6)
        star = primitive_coeffs(F, 2, 6)
        for T, want in star.items():
            assert primitive_density_coeff(T, k) == want, (k, T)


def test_primitive_equals_plain_when_no_square_divisors():
    # det(2T) in {9, 21, 49} admits no even integral overlattice shapes
    for S in (S7, A2A2, A2B7):
        assert primitive_density_coeff(S, 4) == local_density_coeff(S, 4)


# ---------------------------------------------------------------------------
# direct coefficient ladders
# ---------------------------------------------------------------------------


def test_direct_ladder_level7_class():
    t = WeightTarget(7, 2, 0)
    d = direct_limit_coefficient(S7, t, default_sequence(t, 2))
    assert d.weights == (44, 296)
    assert d.residues == ((32, 3), (32, 4))
    json.dumps(d.to_doc())


def test_direct_ladder_vanishes_off_dictionary():
    t = WeightTarget(7, 2, 0)
    residues = []
    for S in (A2A2, A2B7):
        d = direct_limit_coefficient(S, t, default_sequence(t, 3))
        assert d.weights == (44, 296, 2060) and d.certificates == (2, 3)
        for m, (res, c) in enumerate(d.residues, start=1):
            assert res % 7 ** (m + 1) == 0, (S, m)
        residues.append(d.residues)
    assert residues == [((245, 3), (1715, 4), (12005, 5)), ((196, 3), (1372, 4), (9604, 5))]


def test_direct_ladder_searches_each_canonical_form_once(monkeypatch):
    # the walk hands local_density_coeff the very form it reduced, whose
    # reduction is memoised, so the canonical form is not searched again
    from eistheta import lattice

    searched = []
    real = lattice.short_vectors
    monkeypatch.setattr(lattice, "short_vectors", lambda S, b: searched.append(S) or real(S, b))
    lattice._canonical_definite.cache_clear()
    t = WeightTarget(7, 2, 0)
    U = [[1, 1, 0, 0], [0, 1, 0, 0], [0, -1, 1, 0], [1, 0, 1, 1]]
    for S in (A2A2, A2B7):
        direct_limit_coefficient(lattice.transform(S, U), t, default_sequence(t, 2))
    assert len(searched) == 2


def test_dual_route_evaluates_few_bernoulli_numbers(monkeypatch):
    # the deep L-values of its direct ladders come from their Euler
    # products, not from a row of B_i up to B_294 (150 of them before)
    import functools
    import importlib.util

    evaluated = []
    exact = exactnum._bernoulli_even.__wrapped__
    monkeypatch.setattr(exactnum, "_bernoulli_even",
                        functools.cache(lambda n: evaluated.append(n) or exact(n)))
    path = pathlib.Path(__file__).parent.parent / "bench" / "dual_route.py"
    spec = importlib.util.spec_from_file_location("dual_route", path)
    dual_route = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(dual_route)
    dual_route.run(1)
    assert 0 < len(evaluated) <= 30


def test_direct_ladder_walks_the_inversion_once_for_every_rung(monkeypatch):
    calls = []
    transform = localdensity._transform_by_inverse
    monkeypatch.setattr(localdensity, "_transform_by_inverse",
                        lambda *a: calls.append(1) or transform(*a))
    t = WeightTarget(7, 2, 0)
    seq = default_sequence(t, 2)
    want = tuple(primitive_density_coeff(A2A2, k) for k in seq.weights)
    one_walk = len(calls) // len(seq.weights)
    calls.clear()
    d = direct_limit_coefficient(A2A2, t, seq)
    assert d.values == want
    assert one_walk > 0 and len(calls) == one_walk


def test_direct_ladder_rejects_wrong_rank(monkeypatch):
    t = WeightTarget(7, 2, 0)
    with pytest.raises(ValueError):
        direct_limit_coefficient([[2, -1], [-1, 2]], t, default_sequence(t, 2))
    # rank 6 at k = 3 has the right rank but is past the 5 x 5 reduction:
    # refused before any density is counted
    monkeypatch.setattr(localdensity, "_primitive_densities", lambda *a: pytest.fail("counted"))
    t = WeightTarget(7, 3, 1)
    S = [[2 * (i == j) for j in range(6)] for i in range(6)]
    with pytest.raises(ValueError, match="matrices larger than 5x5 are out of scope"):
        direct_limit_coefficient(S, t, default_sequence(t, 2))


# ---------------------------------------------------------------------------
# fit and verify
# ---------------------------------------------------------------------------


def test_fit_and_verify_degree1():
    t = WeightTarget(7, 2, 0)
    rep = fit_and_verify(default_sequence(t, 2), 1, 30)
    assert rep.passed and rep.mode == "theorem"
    assert rep.nu_hat == 0
    assert rep.train == (((0,),),)
    assert len(rep.genera) == 1 and rep.genera[0].det == 49
    for r in rep.rungs:
        assert r.a_tilde == (32,)
        assert r.residual_exponent == r.b + 1
        assert r.u_p_exponent == r.c
        assert not r.audit.applicable
    assert rep.rungs[1].coherence_exponent == rep.rungs[0].c
    json.dumps(rep.to_doc())


def test_fit_and_verify_degree2():
    t = WeightTarget(7, 2, 0)
    rep = fit_and_verify(default_sequence(t, 2), 2, 8)
    assert rep.passed
    for r in rep.rungs:
        assert r.a_tilde == (32,)
        assert r.residual_exponent == r.b + 1
        assert r.u_p_exponent == r.c


@pytest.mark.parametrize("p", [17, 29])
def test_the_chi_p_pair_weighs_in_over_its_masses(tmp_path, p):
    # k = 2, j = 1 from an empty cache: the genera of det p and p^3 enter the
    # limit with the weights -1/(p - 1) and p/(p - 1) over their masses, to
    # p^(b(m)+1) at every rung (tests/conftest.py checks every other report)
    rep = fit_and_verify(default_sequence(WeightTarget(p, 2, 1), 2), 1, 50,
                         cache_dir=str(tmp_path))
    assert rep.passed and sorted(g.det for g in rep.genera) == [p, p**3]
    assert genus_weight_misses(rep) == []


def test_a_wrong_mass_misses_the_genus_weights(tmp_path):
    rep = fit_and_verify(default_sequence(WeightTarget(7, 2, 0), 2), 1, 30,
                         cache_dir=str(tmp_path))
    assert genus_weight_misses(rep) == []
    doubled = tuple(g._replace(mass=2 * g.mass) for g in rep.genera)
    assert genus_weight_misses(rep._replace(genera=doubled)) == [(1, 49), (2, 49)]


def test_one_elimination_solves_every_rung(monkeypatch):
    # the training rows are invertible mod p, so the fit eliminates once to
    # pick them and once mod p^cap for all its rungs, whatever their count
    calls = []
    monkeypatch.setattr(padic, "echelon_mod", lambda *a: calls.append(a) or echelon_mod(*a))
    t = WeightTarget(7, 2, 0)
    counts = []
    for m in (2, 3, 4):
        calls.clear()
        assert fit_and_verify(default_sequence(t, m), 1, 30).passed
        counts.append(len(calls))
    assert counts == [2, 2, 2]


def test_fit_fixed_point_matches_direct_ladder():
    # the fitted coefficient and the rank-4 primitive ladder agree mod 7^m
    t = WeightTarget(7, 2, 0)
    rep = fit_and_verify(default_sequence(t, 2), 1, 30)
    d = direct_limit_coefficient(S7, t, default_sequence(t, 2))
    for rung, (res, _) in zip(rep.rungs, d.residues):
        m = rung.m
        assert (rung.a_tilde[0] - res) % 7**m == 0


def test_fit_with_scaled_source_reports_nu():
    t = WeightTarget(7, 2, 0)

    def source(k, n, B):
        return qexp_scale(eisenstein_qexp(k, n, B), Fraction(1, 7))

    rep = fit_and_verify(default_sequence(t, 2), 1, 20, source=per_weight(source))
    assert rep.nu_hat == -1
    assert rep.passed
    assert rep.rungs[0].a_tilde == (32,)  # coefficient of the rescaled series


# One test per gate of a rung's verdict: each window passes every gate
# but one, so the run passes once that gate is taken out.

def last_rung_moved(move):
    """The residue source of fit_and_verify, with its last window F
    replaced by move(seq, F)."""
    def source(seq, n, B):
        *first, last = eisenstein_residues(seq.weights, n, B, seq.target.p,
                                           seq.b_schedule[-1] + 2)
        return [*first, move(seq, last)]
    return source


def test_a_held_out_coefficient_one_digit_off_fails_the_bar_alone():
    seq = default_sequence(WeightTarget(7, 2, 0), 2)
    honest = fit_and_verify(seq, 1, 30)
    T = ((60,),)
    assert honest.passed and honest.nu_hat == 0 and T not in honest.train

    def move(seq, F):  # by p^(b - 1) at the last rung, on the integer scale nu = 0
        return QExpansion(1, 30, {**F.coeffs, T: F.coeffs[T] + 7 ** (seq.b_schedule[-1] - 1)})

    first, last = fit_and_verify(seq, 1, 30, source=last_rung_moved(move)).rungs
    assert first.passed
    assert (last.b, last.residual_exponent, last.witness) == (2, 1, T)
    assert last.coherence_exponent >= first.b and last.audit.ok
    assert not last.passed


def test_a_rung_off_by_a_dictionary_column_fails_coherence_alone():
    seq = default_sequence(WeightTarget(7, 2, 0), 2)
    honest = fit_and_verify(seq, 1, 30)
    assert honest.passed and honest.nu_hat == 0
    theta = genus_theta(honest.genera[0], 1, 30)[1]

    def move(seq, F):  # a_tilde moves by p^(b(1) - 1), every index still fits
        return qexp_add(F, qexp_scale(theta, 7 ** (seq.b_schedule[0] - 1)))

    first, last = fit_and_verify(seq, 1, 30, source=last_rung_moved(move)).rungs
    assert first.passed
    assert last.a_tilde == (honest.rungs[1].a_tilde[0] + 1,)
    assert last.coherence_exponent == first.b - 1
    assert last.residual_exponent >= last.b and last.audit.ok
    assert not last.passed


def test_a_singular_window_off_the_weight_congruence_fails_the_audit_alone():
    # at p = 17, j = 1 the det-17^3 genus has no vector of value <= 2, so
    # 17 theta_1 + theta_2 is 3/4 at T = 0 and 0 mod 17 at T = 1, 2: it
    # fits, it is coherent, and it is singular of p-rank 0, where
    # 2 k_m = 4 mod 16 breaks the weight congruence
    t = WeightTarget(17, 2, 1)
    theta = [genus_theta(g, 1, 2)[1] for g in build_genera(4, 17)
             if g.character == t.character]
    W = qexp_add(qexp_scale(theta[0], 17), theta[1])
    assert [v_p(a, 17) for _, a in sorted(W.coeffs.items())] == [0, 1, 1]
    rep = fit_and_verify(default_sequence(t, 2), 1, 2, source=lambda seq, n, B: [W, W])
    for r in rep.rungs:
        assert r.residual_exponent == r.c and r.a_tilde == (17, 1)
        assert (r.audit.rank, r.audit.applicable, r.audit.ok) == (0, True, False)
        assert not r.passed
    assert rep.rungs[1].coherence_exponent == rep.rungs[0].c


def test_a_window_with_nothing_held_out_is_refused():
    # T = 0 and 1 against two genera: both indices train
    seq = default_sequence(WeightTarget(13, 2, 1), 2)
    with pytest.raises(PipelineError, match="2 indices and the 2 genus") as info:
        fit_and_verify(seq, 1, 1)
    assert info.value.stage == "fit"


def test_theorem_gate_and_exploratory():
    t5 = WeightTarget(5, 2, 0)  # 5 is not above 2k+1 = 5
    with pytest.raises(PipelineError) as info:
        fit_and_verify(default_sequence(t5, 2), 1, 10)
    assert info.value.stage == "weights"


@pytest.mark.parametrize("n,B,message", [(3, 4, "degree must be 1 or 2"),
                                         (1, -1, "trace bound must be >= 0"),
                                         (1, 0, "at least the degree 1"),
                                         (2, 1, "at least the degree 2")])
def test_bad_window_is_refused_before_the_genera(monkeypatch, n, B, message):
    # at p = 37 the genus stage would enumerate classes for seconds first
    calls = []
    monkeypatch.setattr(padic, "cached_genera", lambda *a: calls.append(a))
    seq = default_sequence(WeightTarget(37, 2, 1), 2)
    with pytest.raises(PipelineError, match=message) as info:
        fit_and_verify(seq, n, B)
    assert info.value.stage == "weights"
    assert calls == []


def test_training_singular_system_is_an_error():
    cols = [{((0,),): 1}, {((0,),): 2}]
    with pytest.raises(PipelineError) as info:
        _select_training([((0,),)], cols, 2, 7)
    assert info.value.stage == "fit"


def greedy_training(indices, columns, n_unknowns, p):
    """The selection _select_training replaced: walk the indices by trace
    and keep each whose row is independent mod p of the rows kept."""
    basis, train = [], []
    for T in indices:
        red = [residue(c.get(T, 0), p, 1) for c in columns]
        rows, pivots = echelon_mod(basis + [red], p)
        if len(pivots) == len(basis):
            continue
        basis = rows
        train.append(T)
        if len(train) == n_unknowns:
            return train
    raise PipelineError("fit", "training system is singular mod p")


def dictionary_window(genera, target, n, B):
    """The trace-sorted indices and the integer theta columns that
    fit_and_verify selects its training set from, cleared mod p, which is
    all that the selection reads."""
    genera = [g for g in genera if g.character == target.character]
    _, columns = padic._cleared([genus_theta(g, n, B)[1].coeffs for g in genera],
                                target.p, 1)
    indices = sorted({T for c in columns for T in c}, key=lambda T: (form_trace(T), T))
    return indices, columns, len(genera)


@pytest.mark.parametrize("n,B", [(1, 30), (2, 6)])
@pytest.mark.parametrize("p,j", [(7, 0), (13, 1), (37, 1)])
def test_training_set_matches_the_greedy_oracle(n, B, p, j):
    if p == 37:  # the committed cache, so no class enumeration runs
        with open(FIXTURES / "genera_r4_L37.json") as fh:
            genera = genera_from_doc(json.load(fh), 4, 37)
    else:
        genera = build_genera(4, p)
    indices, columns, n_unknowns = dictionary_window(genera, WeightTarget(p, 2, j), n, B)
    want = greedy_training(indices, columns, n_unknowns, p)
    assert _select_training(indices, columns, n_unknowns, p) == want


def test_training_set_skips_indices_dependent_mod_p():
    # rows by trace: r, 2r, one that is 0 mod 5, e2, r + e2 and one outside
    # the span of r and e2; the greedy walk keeps the first, fourth and sixth
    rows = [(1, 2, 3), (2, 4, 6), (5, Fraction(10, 3), 0), (0, 1, 0),
            (1, 3, 3), (0, Fraction(1, 2), 1)]
    indices = [((2 * t,),) for t in range(len(rows))]
    columns = [{T: residue(Fraction(row[i]), 5, 1) for T, row in zip(indices, rows)}
               for i in range(3)]
    want = [indices[0], indices[3], indices[5]]
    assert greedy_training(indices, columns, 3, 5) == want
    assert _select_training(indices, columns, 3, 5) == want


def test_corrupted_cache_fails_in_fit_stage(tmp_path):
    # the cache is checked where it is read, so a fault fails at stage genera
    genera = build_genera(4, 7)
    doc = genera_to_doc(4, 7, genera)
    doc["genera"][0]["classes"][0]["epsilon"] = 16  # tamper
    write_json_atomic(doc, str(tmp_path / "genera_r4_L7.json"))
    t = WeightTarget(7, 2, 0)
    with pytest.raises(PipelineError) as info:
        fit_and_verify(default_sequence(t, 2), 1, 10, cache_dir=str(tmp_path))
    assert info.value.stage == "genera"
    assert "genera[0].classes[0].epsilon: cached 16, rebuilt 32" in str(info.value)


def test_fit_and_verify_rereads_the_genus_cache(tmp_path):
    # the dictionary is revalidated on every call, not once per cache dir
    seq = default_sequence(WeightTarget(7, 2, 0), 2)
    assert fit_and_verify(seq, 1, 10, cache_dir=str(tmp_path)).passed
    path = tmp_path / "genera_r4_L7.json"
    doc = json.loads(path.read_text())
    doc["genera"][0]["classes"][0]["epsilon"] = 16  # tamper
    write_json_atomic(doc, str(path))
    with pytest.raises(PipelineError) as info:
        fit_and_verify(seq, 1, 10, cache_dir=str(tmp_path))
    assert info.value.stage == "genera"
    assert "genera[0].classes[0].epsilon: cached 16, rebuilt 32" in str(info.value)


def fit_on_cache(tmp_path, p, genera):
    """fit_and_verify at (p, k = 2, j = 0) on a rank-4 cache holding genera."""
    write_json_atomic(genera_to_doc(4, p, genera), str(tmp_path / f"genera_r4_L{p}.json"))
    return fit_and_verify(default_sequence(WeightTarget(p, 2, 0), 2), 1, 10,
                          cache_dir=str(tmp_path))


def test_dictionary_of_the_wrong_rank_fails_in_fit_stage(tmp_path):
    # every cached invariant of these rank 2 genera is right but their rank,
    # and the cache read refuses them
    with pytest.raises(PipelineError) as info:
        fit_on_cache(tmp_path, 7, build_genera(2, 7))
    assert info.value.stage == "genera"
    assert "rank 4" in str(info.value)


def test_dictionary_that_splits_a_genus_fails_in_fit_stage(tmp_path):
    # the three classes of the det-289 genus of level 17, cut into two
    # genera whose masses and class invariants are each right
    genera = build_genera(4, 17)
    (g,) = [g for g in genera if g.det == 289]
    assert len(g.classes) == 3
    parts = [g.classes[:1], g.classes[1:]]
    split = [GenusRecord(c, g.level, g.character, sum(Fraction(1, r.epsilon) for r in c))
             for c in parts]
    with pytest.raises(PipelineError) as info:
        fit_on_cache(tmp_path, 17, [h for h in genera if h is not g] + split)
    assert info.value.stage == "genera"
    assert "genera[1].det: cached 4913, rebuilt 289" in str(info.value)


# ---------------------------------------------------------------------------
# the residue windows of the ladder against the exact oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p,n,B", [pytest.param(7, 1, 30, id="1-30"),
                                   pytest.param(7, 2, 8, id="2-8"),
                                   pytest.param(3, 1, 30, id="p3-1-30")])
def test_residue_and_exact_windows_give_one_report(tmp_path, p, n, B):
    # the ladder reads its windows only mod p^(b_last + 2), with exact
    # valuations, so the exact windows of eisenstein_qexp give the same
    # reports; at p = 3 the dictionary's automorphism counts carry 3^2, so
    # its columns are cleared by nu = -2
    seq = default_sequence(WeightTarget(p, 2, 0), 2)
    exact = per_weight(eisenstein_qexp)
    cache = str(tmp_path)
    doc = fit_and_verify(seq, n, B, exploratory=True, cache_dir=cache).to_doc()
    assert doc == fit_and_verify(seq, n, B, exploratory=True, cache_dir=cache,
                                 source=exact).to_doc()
    assert doc["passed"] and doc["nu_hat"] == (-2 if p == 3 else 0)
    assert empirical_limit(seq, n, B).to_doc() == empirical_limit(seq, n, B, source=exact).to_doc()


@pytest.mark.slow
@pytest.mark.parametrize("n,B,m", [pytest.param(2, 8, 3, id="W3"),
                                   pytest.param(1, 50, 4, id="W4")])
def test_the_deep_rungs_give_one_report_from_residue_and_exact_windows(tmp_path, n, B, m):
    # W3 reads weight 2060 at degree 2 and W4 weight 14408 at degree 1; the
    # exact windows of eisenstein_qexp take 2.6 s and 1.3 s there, and give
    # the report of the residue windows byte for byte
    seq = default_sequence(WeightTarget(7, 2, 0), m)
    cache = str(tmp_path)
    doc = fit_and_verify(seq, n, B, cache_dir=cache).to_doc()
    exact = fit_and_verify(seq, n, B, cache_dir=cache, source=per_weight(eisenstein_qexp))
    assert doc["passed"] and json.dumps(doc) == json.dumps(exact.to_doc())


def test_residue_and_exact_windows_give_one_report_with_characters():
    # p = 13, j = 1: the L-values of chi_D0 and the ladder class 8 mod 12
    seq = default_sequence(WeightTarget(13, 2, 1), 2)
    exact = per_weight(eisenstein_qexp)
    assert empirical_limit(seq, 2, 4).to_doc() == empirical_limit(seq, 2, 4, source=exact).to_doc()


def test_ladder_to_weight_2060_reads_only_small_bernoulli_numbers(tmp_path, monkeypatch):
    # W3 at trace 4: the exact route would read B_0 .. B_2058; the residue
    # windows stop below k1 + (p - 1) N with N the term cap b_last + 2 +
    # HEADROOM, here at 2 + 6 * 25 = 152, so the memo of _bernoulli_even
    # collects no ladder weight
    calls = []
    plain = exactnum.bernoulli

    def counting(n):
        calls.append(n)
        return plain(n)

    monkeypatch.setattr(exactnum, "bernoulli", counting)
    seq = default_sequence(WeightTarget(7, 2, 0), 3)
    rep = fit_and_verify(seq, 2, 4, cache_dir=str(tmp_path))
    assert rep.passed and [r.weight for r in rep.rungs] == [44, 296, 2060]
    assert calls and max(calls) < 2 + 6 * (5 + HEADROOM)


def test_a_vanishing_kummer_base_fails_in_fit_stage(monkeypatch):
    # a base that is 0 mod 7^100 leaves no unit part within the term cap:
    # the pipeline stops in the fit stage instead of guessing a valuation
    rows = exactnum.gen_bernoulli_rows
    monkeypatch.setattr(exactnum, "gen_bernoulli_rows", lambda ns, Ds: {
        n: {D: 7**100 * b for D, b in row.items()} for n, row in rows(ns, Ds).items()})
    seq = default_sequence(WeightTarget(7, 2, 0), 2)
    with pytest.raises(PipelineError) as info:
        fit_and_verify(seq, 1, 10)
    assert info.value.stage == "fit"
    assert "terms" in str(info.value)
    with pytest.raises(PipelineError):
        empirical_limit(seq, 1, 10)
