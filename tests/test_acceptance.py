"""Acceptance criteria, one test per criterion.

Each test prints a single summary line (visible with `pytest -s` or in
the captured output); the assertion that follows carries the same
verdict.  Oracles are coded inline and independently of the library
paths they certify: the degree-1 limit is the classical p-deprived
divisor sum, automorphism counts are compared against a finite box
enumeration of integer matrices, and the dual Eisenstein route goes
through the local-density product rather than the closed formulas.
"""

import json
import time
from fractions import Fraction

import numpy as np
import pytest

from eistheta import lattice
from eistheta.cli import main
from eistheta.eisenstein import eisenstein_qexp
from eistheta.exactnum import bernoulli, sigma
from eistheta.fourier import QExpansion, congruent_mod
from eistheta.lattice import (
    automorphism_count,
    enumerate_classes,
    enumerate_psd_indices,
    form_det,
    form_rank,
)
from eistheta.localdensity import local_density_coeff
from eistheta.padic import (
    WeightTarget,
    default_sequence,
    direct_limit_coefficient,
    empirical_limit,
    fit_and_verify,
    singular_rank_audit,
)
from eistheta.theta import theta_series, verify_rank_decomposition


def conclude(number, name, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE [{number}/9] {name}: {verdict}{suffix}")
    assert ok, f"criterion {number} {name}{suffix}"


@pytest.fixture(scope="module")
def flagship_reports():
    t = WeightTarget(7, 2, 0)
    t0 = time.perf_counter()
    deg1 = fit_and_verify(default_sequence(t, 3), 1, 50)
    deg2 = fit_and_verify(default_sequence(t, 2), 2, 8)
    return {"deg1": deg1, "deg2": deg2, "seconds": time.perf_counter() - t0}


def test_criterion_1_rank_decomposition_exact():
    t0 = time.perf_counter()
    forms = [((2 * d,),) for d in range(1, 7)]
    # reduced binary forms with det(2S) <= 12 all have trace <= 12
    forms += [
        R
        for R in enumerate_psd_indices(2, 12)
        if form_rank(R) == 2 and form_det(R) <= 12
    ]
    checked = 0
    bad = []
    for S in forms:
        for n in (1, 2, 3):
            F = theta_series(S, n, 6)
            for r in range(1, min(2, n) + 1):
                rep = verify_rank_decomposition(F, r, 6)
                checked += 1
                if not rep.ok:
                    bad.append((S, n, r, rep.residuals))
    elapsed = time.perf_counter() - t0
    ok = not bad and checked >= 30 and elapsed < 120
    conclude(
        1,
        "theta rank decomposition has zero residual",
        ok,
        f"{checked} windows, {len(forms)} forms, {elapsed:.1f}s",
    )


def test_criterion_2_degree1_limit_oracle():
    p, k = 7, 2
    B = 50
    c = Fraction(-2 * k) / ((1 - p ** (k - 1)) * bernoulli(k))
    coeffs = {((0,),): Fraction(1)}
    for t in range(1, B + 1):
        s = sigma(k - 1, t)
        if t % p == 0:
            s -= p ** (k - 1) * sigma(k - 1, t // p)
        coeffs[((2 * t,),)] = c * s
    oracle = QExpansion(1, B, coeffs)

    ladder = empirical_limit(default_sequence(WeightTarget(p, k, 0), 3), 1, B)
    rung_ok = all(
        congruent_mod(ladder.rungs[m - 1], oracle, p, m).ok for m in (1, 2, 3)
    )
    residue_ok = all(
        (oracle.coeffs[T] - res).numerator % p**M == 0
        for T, (res, M) in ladder.residues.items()
    )
    ok = rung_ok and residue_ok and not ladder.flagged
    conclude(
        2,
        "degree-1 ladder matches the p-deprived divisor sum",
        ok,
        f"{len(ladder.residues)} indices to trace {B}",
    )


def test_criterion_3_flagship_fit_and_verify(flagship_reports):
    deg1 = flagship_reports["deg1"]
    deg2 = flagship_reports["deg2"]
    elapsed = flagship_reports["seconds"]
    held_out = all(r.residual_exponent >= r.b for r in deg1.rungs + deg2.rungs)
    coherent = all(
        r.coherence_exponent is None or r.coherence_exponent >= r.b
        for r in deg1.rungs + deg2.rungs
    )
    ok = deg1.passed and deg2.passed and held_out and coherent and elapsed < 600
    conclude(
        3,
        "fit-and-verify passes at degree 1 (B=50, m<=3) and degree 2 (B=8, m<=2)",
        ok,
        f"{elapsed:.1f}s",
    )


def test_criterion_4_off_dictionary_ladders_vanish():
    t = WeightTarget(7, 2, 0)
    seq = default_sequence(t, 3)  # weights 44, 296 and 2060
    # level 3 does not divide 7; trivial character
    A2A2 = [[2, -1, 0, 0], [-1, 2, 0, 0], [0, 0, 2, -1], [0, 0, -1, 2]]
    # level 21 does not divide 7; character of conductor 21 with 7-part chi_7
    A2B7 = [[2, -1, 0, 0], [-1, 2, 0, 0], [0, 0, 2, 1], [0, 0, 1, 4]]
    ok = True
    ladders = [direct_limit_coefficient(S, t, seq) for S in (A2A2, A2B7)]
    for d in ladders:
        for m, (res, _) in enumerate(d.residues, start=1):
            ok = ok and res % 7**m == 0
    ok = ok and [(d.certificates, d.residues) for d in ladders] == [
        ((2, 3), ((245, 3), (1715, 4), (12005, 5))),
        ((2, 3), ((196, 3), (1372, 4), (9604, 5))),
    ]
    conclude(4, "off-level and twisted-character coefficients vanish mod 7^m", ok, "m <= 3")


def test_criterion_5_u_p_fixed_point(flagship_reports):
    rungs = flagship_reports["deg1"].rungs + flagship_reports["deg2"].rungs
    ok = all(r.u_p_exponent >= r.c for r in rungs)
    conclude(
        5,
        "U(p) reproduces the fitted series mod p^c on the admissible window",
        ok,
        f"{len(rungs)} rungs",
    )


def test_criterion_6_singular_rank_audit(flagship_reports):
    def window(p, m, unit_rank):
        rows = {
            0: ((0, 0, 0), (0, 0, 0), (0, 0, 0)),
            1: ((2, 0, 0), (0, 0, 0), (0, 0, 0)),
            2: ((2, -1, 0), (-1, 2, 0), (0, 0, 0)),
            3: ((2, 0, 0), (0, 2, 0), (0, 0, 2)),
        }
        coeffs = {
            T: Fraction(v if r <= unit_rank else v * p**m)
            for r, (T, v) in enumerate((rows[i], i + 1) for i in range(4))
        }
        return QExpansion(3, 3, coeffs)

    synthetic = [
        (window(7, 1, 0), 6, 7, 1),  # rank 0: 2k = 12 = 0 mod 6
        (window(7, 1, 2), 4, 7, 1),  # rank 2: 2k - 2 = 6 = 0 mod 6
        (window(7, 2, 2), 22, 7, 2),  # rank 2 at depth 2: 42 = 0 mod 42
        (window(7, 1, 1), 4, 7, 1),  # odd rank: condition silent
    ]
    audits = [singular_rank_audit(F, k, p, m) for F, k, p, m in synthetic]
    detected = [a for a in audits if a.rank is not None]
    pipeline = [
        r.audit for r in flagship_reports["deg1"].rungs + flagship_reports["deg2"].rungs
    ]
    ok = (
        len(detected) >= 3
        and all(a.ok for a in audits)
        and all(a.ok for a in pipeline)
    )
    conclude(
        6,
        "no detected singular window contradicts the weight congruence",
        ok,
        f"{len(detected)} synthetic + {len(pipeline)} pipeline audits",
    )


def test_criterion_7_dual_route_coefficients():
    ok = True
    checked = 0
    for k in (4, 6, 44):
        F = eisenstein_qexp(k, 2, 6)
        for T, a in F.coeffs.items():
            if form_rank(T) == 2:
                ok = ok and local_density_coeff(T, k) == a
                checked += 1
        G = eisenstein_qexp(k, 1, 10)
        lin = Fraction(-2 * k) / bernoulli(k)
        for t in range(1, 11):
            ok = ok and G.coeffs[((2 * t,),)] == lin * sigma(k - 1, t)
    conclude(
        7,
        "Eisenstein coefficients agree with the local-density route",
        ok,
        f"{checked} binary indices, k in (4, 6, 44)",
    )


def box_automorphism_count(twoS):
    """Count U with U^t (2S) U = 2S by enumerating a provably large box."""
    S = np.array(twoS, dtype=np.int64)
    r = len(twoS)
    lam = float(np.linalg.eigvalsh(S / 2.0).min())
    c = int(np.floor(np.sqrt(max(S.diagonal()) / 2.0 / lam) + 1e-9))
    assert c <= 2, "box too large for the exhaustive oracle"
    side = 2 * c + 1
    total = side ** (r * r)
    count = 0
    powers = side ** np.arange(r * r, dtype=np.int64)
    for start in range(0, total, 200_000):
        idx = np.arange(start, min(start + 200_000, total), dtype=np.int64)
        digits = (idx[:, None] // powers) % side - c
        U = digits.reshape(-1, r, r)
        G = np.einsum("nij,jk,nkl->nil", U.transpose(0, 2, 1), S, U)
        count += int(np.all(G == S, axis=(1, 2)).sum())
    return count


def test_criterion_8_quadratic_form_kernel(monkeypatch):
    forms = [
        ((2,),),
        ((4,),),
        ((2, -1), (-1, 2)),
        ((2, 0), (0, 2)),
        ((2, 0), (0, 4)),
        ((2, -1), (-1, 4)),
        ((2, 0, 0), (0, 2, 0), (0, 0, 2)),
        ((2, -1, 0), (-1, 2, -1), (0, -1, 2)),
        ((2, -1, 0), (-1, 2, 0), (0, 0, 2)),
        ((2, 0, 0), (0, 2, 0), (0, 0, 4)),
    ]
    mismatches = [
        (S, automorphism_count(S), box_automorphism_count(S))
        for S in forms
        if automorphism_count(S) != box_automorphism_count(S)
    ]
    base = [enumerate_classes(2, p) for p in (3, 5, 7)]
    # doubling gamma_r^r doubles the search cap gamma_r^r t_max
    monkeypatch.setattr(lattice, "_GAMMA_POW", {r: 2 * g for r, g in lattice._GAMMA_POW.items()})
    stable = [enumerate_classes(2, p) for p in (3, 5, 7)] == base
    ok = not mismatches and stable
    conclude(
        8,
        "automorphism counts and class enumeration verified independently",
        ok,
        f"{len(forms)} forms boxed, levels 3/5/7 stable",
    )


def test_criterion_9_irregular_primes_k1(tmp_path):
    # k = 1, j = 1 (rank 2) at every irregular p = 3 mod 4 below 160, with
    # its index 2r: 59 | B_44, 67 | B_58, 103 | B_24, 131 | B_22; from an
    # empty cache, at degrees 1 (B = 50) and 2 (B = 8)
    t0 = time.perf_counter()
    failed = []
    for p in (59, 67, 103, 131):
        for degree, bound in (("1", "50"), ("2", "8")):
            out = tmp_path / f"p{p}_d{degree}.json"
            rc = main(["verify-main", "--p", str(p), "--k", "1", "--j", "1", "--degree", degree,
                       "--bound", bound, "--m-max", "2", "--cache-dir", str(tmp_path / f"c{p}"),
                       "--out", str(out)])
            if rc != 0 or json.loads(out.read_text())["passed"] is not True:
                failed.append((p, degree, rc))
    conclude(9, "irregular primes at k = 1", not failed,
             f"8 runs in {time.perf_counter() - t0:.2f}s, failed {failed}")
