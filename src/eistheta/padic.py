"""Weight ladders of Eisenstein expansions and their p-adic limits.

An odd prime p and a weight pair (k, j) determine weights
k_j(m) = k + a_j * p^{b(m)} with a_j the least positive residue of
(p-1)/2^j mod (p-1).  Along such a ladder the Eisenstein coefficients
converge p-adically, and the limit window is a linear combination of
weighted genus theta series of even lattices of rank 2k with level
dividing p and matching character.  This module computes the finite
rungs, certifies the observed convergence index by index, fits the
genus coefficients on a minimal training set of indices, and verifies
the congruence on everything held out.  Nothing is extrapolated: each
reported residue carries the congruence exponent actually observed,
capped at the working precision p^{b_last+2}.  A report reads the rung
windows only to that precision: every window, and every dictionary column,
enters as integers p^-nu a mod p^cap, nu = min(0, v_p) over its values, and
everything after that runs on those integers.
"""

from __future__ import annotations

from .eisenstein import WeightSequence, WeightTarget, check_weights, eisenstein_residues
from .exactnum import residue, v_p
from .fourier import (
    QExpansion,
    check_weight_rank_congruence,
    mod_pm_singular_rank,
    qexp_scale,
)
from .genus import cached_genera, genera_to_doc
from .lattice import form_trace
from .linalg import echelon_mod
from .records import record
from .theta import genus_theta

__all__ = [
    "LimitLadder",
    "empirical_limit",
    "SingularRankAudit",
    "singular_rank_audit",
    "FitRung",
    "VerificationReport",
    "fit_and_verify",
    "PipelineError",
]


def __getattr__(name):
    # bench/tracer.py times the direct route's primitive_density_coeff under
    # this module's name; the fit reads no local density, so localdensity
    # is loaded only when the name is asked for
    if name == "primitive_density_coeff":
        from .localdensity import primitive_density_coeff

        return primitive_density_coeff
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class PipelineError(RuntimeError):
    """Failure in a named stage of the verification pipeline."""

    def __init__(self, stage: str, message: str):
        self.stage = stage
        super().__init__(f"[{stage}] {message}")


# ---------------------------------------------------------------------------
# rung windows as integers mod p^cap
# ---------------------------------------------------------------------------


def _cleared(dicts, p: int, cap: int):
    """(nu, ints): nu = min(0, v_p(a)) over the values a of the dicts, and
    each dict as the integers {T: p^-nu a mod p^cap}."""
    nu = min([0, *(v_p(a, p) for d in dicts for a in d.values())])
    return nu, [{T: residue(a * p**-nu, p, cap) for T, a in d.items()} for d in dicts]


def _ladder_windows(seq: WeightSequence, n: int, B: int, source=None):
    """(rungs, nu, windows) for the degree-n window of trace bound B.

    rungs are the windows of source(seq, n, B), one per rung; by default
    the p^v u representatives of ``eisenstein_residues``, exact to the
    precision cap b_last + 2.  nu and windows are ``_cleared`` at that
    cap, one scaling for the whole ladder so that rungs stay comparable.
    A source that raises, or whose windows differ from the ladder in
    count, degree or trace bound, is a PipelineError at stage fit.
    """
    p, cap = seq.target.p, seq.caps[-1]
    try:
        rungs = tuple(source(seq, n, B) if source else
                      eisenstein_residues(seq.weights, n, B, p, cap))
    except Exception as exc:
        raise PipelineError("fit", f"coefficient source failed: {exc}") from exc
    if len(rungs) != len(seq):
        raise PipelineError("fit", f"the source gave {len(rungs)} windows "
                                   f"for {len(seq)} rungs")
    for F in rungs:
        if (F.degree, F.trace_bound) != (n, B):
            raise PipelineError(
                "fit", f"the source gave a window of degree {F.degree} and trace "
                       f"bound {F.trace_bound}, not {n} and {B}")
    return (rungs, *_cleared([F.coeffs for F in rungs], p, cap))


# ---------------------------------------------------------------------------
# empirical limits of coefficient windows along a ladder
# ---------------------------------------------------------------------------


@record
class LimitLadder:
    """Per-index convergence record of a weight ladder.

    certificates[T] lists v_p of consecutive rung differences (capped);
    residues[T] = (r, M) means the coefficient at T is r mod p^M, with M
    the last observed certificate.  flagged collects indices whose
    certificates ever decreased.  rungs holds the source's window of each
    weight: by default p^v u representatives, each coefficient's exact
    valuation v with a unit u mod p^cap, not the exact values.
    """

    target: WeightTarget
    degree: int
    trace_bound: int
    b_schedule: tuple
    weights: tuple
    rungs: tuple
    nu_hat: int
    certificates: dict
    residues: dict
    flagged: tuple
    cap: int

    def to_doc(self) -> dict:
        idx = sorted(self.residues, key=lambda T: (form_trace(T), T))
        return {
            "p": self.target.p,
            "k": self.target.k,
            "j": self.target.j,
            "degree": self.degree,
            "trace_bound": self.trace_bound,
            "b_schedule": list(self.b_schedule),
            "weights": list(self.weights),
            "nu_hat": self.nu_hat,
            "precision_cap": self.cap,
            "indices": [
                {
                    "twoT": [list(row) for row in T],
                    "certificates": list(self.certificates[T]),
                    "residue": self.residues[T][0],
                    "mod_exponent": self.residues[T][1],
                }
                for T in idx
            ],
            "flagged": [[list(row) for row in T] for T in self.flagged],
        }


def empirical_limit(seq: WeightSequence, n: int, B: int, source=None) -> LimitLadder:
    """Compute every rung of the ladder and certify coefficientwise
    convergence on the degree-n window of trace bound B.

    source(seq, n, B) gives one window per rung; by default the residue
    windows of ``eisenstein_residues``, and ``eisenstein_qexp`` per weight
    is the exact oracle.  The result is never an extrapolated rational:
    residues are reported exactly to the precision the certificates
    support.  An index whose certificate sequence decreases is flagged,
    not fatal.
    """
    if len(seq) < 2:
        raise ValueError("need at least two rungs to certify convergence")
    check_weights(seq.weights, n, B)
    rungs, nu, windows = _ladder_windows(seq, n, B, source)
    p, cap = seq.target.p, seq.caps[-1]
    certificates, residues = {}, {}
    for T in set().union(*windows):
        vals = [W.get(T, 0) for W in windows]
        certs = tuple(min(v_p(b - a, p), cap) for a, b in zip(vals, vals[1:]))
        certificates[T] = certs
        residues[T] = (vals[-1] % p ** certs[-1], certs[-1])
    flagged = sorted(
        (T for T, certs in certificates.items()
         if any(y < x for x, y in zip(certs, certs[1:]))),
        key=lambda T: (form_trace(T), T),
    )
    return LimitLadder(
        target=seq.target,
        degree=n,
        trace_bound=B,
        b_schedule=seq.b_schedule,
        weights=seq.weights,
        rungs=rungs,
        nu_hat=nu,
        certificates=certificates,
        residues=residues,
        flagged=tuple(flagged),
        cap=cap,
    )


# ---------------------------------------------------------------------------
# weight/rank congruence audit for mod-p^m singular windows
# ---------------------------------------------------------------------------


@record
class SingularRankAudit:
    """Outcome of the necessary-condition check on a singular window.

    A window that is singular mod p^m of even p-rank r must satisfy
    2k - r = 0 mod (p-1)p^(m-1).  ok = False therefore indicates an
    inconsistency in the inputs, not a counterexample.
    """

    p: int
    m: int
    weight: int
    rank: int | None
    applicable: bool
    congruence_ok: bool | None
    ok: bool

    def to_doc(self) -> dict:
        return {
            "p": self.p,
            "m": self.m,
            "weight": self.weight,
            "rank": self.rank,
            "applicable": self.applicable,
            "congruence_ok": self.congruence_ok,
            "ok": self.ok,
        }


def singular_rank_audit(F: QExpansion, k: int, p: int, m: int) -> SingularRankAudit:
    """Detect mod-p^m singularity of F and audit the weight condition."""
    r = mod_pm_singular_rank(F, p, m)
    if r is None:
        return SingularRankAudit(p, m, k, None, False, None, True)
    if r % 2:
        # the necessary condition only speaks about even p-rank
        return SingularRankAudit(p, m, k, r, False, None, True)
    good = check_weight_rank_congruence(k, r, p, m)
    return SingularRankAudit(p, m, k, r, True, good, good)


# ---------------------------------------------------------------------------
# fit the genus coefficients, verify the congruence on held-out indices
# ---------------------------------------------------------------------------


@record
class FitRung:
    m: int
    b: int
    weight: int
    c: int
    a_tilde: tuple  # residues mod p^c of the scaled coefficients
    residual_exponent: int
    witness: tuple | None
    u_p_exponent: int
    coherence_exponent: int | None
    audit: SingularRankAudit
    passed: bool

    def to_doc(self) -> dict:
        return {
            "m": self.m,
            "b": self.b,
            "weight": self.weight,
            "precision": self.c,
            "a_tilde": list(self.a_tilde),
            "residual_exponent": self.residual_exponent,
            "witness": None
            if self.witness is None
            else [list(row) for row in self.witness],
            "u_p_exponent": self.u_p_exponent,
            "coherence_exponent": self.coherence_exponent,
            "audit": self.audit.to_doc(),
            "passed": self.passed,
        }


@record
class VerificationReport:
    mode: str
    target: WeightTarget
    degree: int
    trace_bound: int
    b_schedule: tuple
    genera: tuple
    train: tuple
    nu_hat: int
    rungs: tuple
    passed: bool

    def __bool__(self):
        return self.passed

    def to_doc(self) -> dict:
        return {
            "mode": self.mode,
            "p": self.target.p,
            "k": self.target.k,
            "j": self.target.j,
            "degree": self.degree,
            "trace_bound": self.trace_bound,
            "b_schedule": list(self.b_schedule),
            "dictionary": genera_to_doc(2 * self.target.k, self.target.p, self.genera)[
                "genera"
            ],
            "train_indices": [[list(row) for row in T] for T in self.train],
            "nu_hat": self.nu_hat,
            "rungs": [r.to_doc() for r in self.rungs],
            "passed": self.passed,
        }


def _select_training(indices, columns, n_unknowns, p):
    """The smallest-trace indices whose rows are independent mod p: the
    pivot columns over F_p of the matrix whose rows are the integer
    columns."""
    _, pivots = echelon_mod([[c.get(T, 0) for T in indices] for c in columns], p)
    if len(pivots) < n_unknowns:
        raise PipelineError(
            "fit",
            "training system is singular mod p: the window has too few "
            "independent indices for the genus dictionary; enlarge the window",
        )
    return [indices[j] for j in pivots]


def fit_and_verify(
    seq: WeightSequence,
    n: int,
    B: int,
    exploratory: bool = False,
    cache_dir=None,
    source=None,
) -> VerificationReport:
    """Fit genus coefficients at every rung and verify the congruence.

    For each m the Eisenstein window of weight k_j(m) is matched against
    the dictionary of weighted genus theta series (rank 2k, level
    dividing p, character chi_p^j), read from the genus cache and
    revalidated on every call.  Windows and dictionary columns enter as
    integers mod p^cap, cap = b_last + 2, each cleared by its own nu
    (``_cleared``) so that the training pivots stay p-units, and nothing
    after that reads anything else.  Coefficients are solved for on the
    smallest-trace unisolvent training indices, every rung by one
    elimination mod p^cap read mod p^{b(m)+2}, and the congruence is then
    measured on every held-out index; a rung passes when the worst held-out
    exponent reaches b(m), the coefficients are coherent with the previous
    rung and the singular-rank audit holds.  source(seq, n, B)
    gives one window per rung, by default the residue windows of
    ``eisenstein_residues``.
    """
    target = seq.target
    try:
        check_weights(seq.weights, n, B)
    except ValueError as exc:
        raise PipelineError("weights", str(exc)) from exc
    if B < n:  # the window would hold no index of full rank
        raise PipelineError("weights", f"trace bound must be at least the degree {n}")
    mode = "theorem" if target.in_theorem_range() else "exploratory"
    if mode == "exploratory" and not exploratory:
        raise PipelineError(
            "weights",
            f"p = {target.p} is not above 2k+1 = {2 * target.k + 1}; "
            "pass exploratory=True to run outside the proven range",
        )
    p = target.p
    try:
        genera = cached_genera(2 * target.k, p, cache_dir)
    except Exception as exc:
        raise PipelineError("genera", str(exc)) from exc
    genera = [g for g in genera if g.character == target.character]
    if not genera:
        raise PipelineError(
            "genera",
            f"no even lattices of rank {2 * target.k} with level dividing "
            f"{p} and the requested character",
        )

    try:
        thetas = [genus_theta(g, n, B)[1] for g in genera]  # unnormalized sums
    except Exception as exc:
        raise PipelineError("theta", str(exc)) from exc
    rungs, nu_w, windows = _ladder_windows(seq, n, B, source)
    cap = seq.caps[-1]
    nu_c, columns = _cleared([F.coeffs for F in thetas], p, cap)
    indices = sorted(set().union(*windows, *columns), key=lambda T: (form_trace(T), T))
    train = _select_training(indices, columns, len(genera), p)
    held_out = [T for T in indices if T not in train]
    if not held_out:
        raise PipelineError("fit", f"the window has {len(indices)} indices and the "
                                   f"{len(genera)} genus coefficients train on all of "
                                   "them, so none is held out; enlarge the window")
    # U(p) is linear, so the fitted sum's defect U(p)F - F at T, tr T <= B/p,
    # is its own a(pT) - a(T): pT is canonical when T is, and where either
    # value is nonzero, T or pT is an index
    u_keys = {T for T in indices if form_trace(T) * p <= B} | {
        tuple(tuple(x // p for x in row) for row in T)
        for T in indices if not any(x % p for row in T for x in row)}
    u_pairs = [(tuple(tuple(p * x for x in row) for row in T), T) for T in u_keys]
    # the training rows are invertible mod p, so one elimination mod p^cap
    # solves every rung, and each rung reads its solution mod its own p^c
    t = len(train)
    solved, _ = echelon_mod(
        [[*(col.get(T, 0) for col in columns), *(W.get(T, 0) for W in windows)] for T in train],
        p, cap)

    def fitted(a_tilde, T):
        return sum(a * col.get(T, 0) for a, col in zip(a_tilde, columns))

    fits = []
    prev = None
    for m, (b, c, k_m, F, W) in enumerate(
            zip(seq.b_schedule, seq.caps, seq.weights, rungs, windows), 1):
        P = p**c
        a_tilde = tuple(row[t + m - 1] % P for row in solved)
        worst, witness = c, None
        for T in held_out:
            val = min(v_p((W.get(T, 0) - fitted(a_tilde, T)) % P, p), c)
            if val < worst:
                worst, witness = val, T
        u_exp = min([c, *(v_p((fitted(a_tilde, pT) - fitted(a_tilde, T)) % P, p)
                          for pT, T in u_pairs)])
        if prev is None:
            coh = None
            coherent = True
        else:
            prev_vals, prev_c = prev
            coh = min(
                min(v_p(x - y, p), prev_c) for x, y in zip(a_tilde, prev_vals)
            )
            coherent = coh >= seq.b_schedule[m - 2]
        # the audit reads the window the fit reads mod p: p^-nu times the source's
        audit = singular_rank_audit(qexp_scale(F, p**-nu_w) if nu_w else F, k_m, p, 1)
        passed = worst >= b and coherent and audit.ok
        fits.append(
            FitRung(
                m=m,
                b=b,
                weight=k_m,
                c=c,
                a_tilde=a_tilde,
                residual_exponent=worst,
                witness=witness,
                u_p_exponent=u_exp,
                coherence_exponent=coh,
                audit=audit,
                passed=passed,
            )
        )
        prev = (a_tilde, c)
    return VerificationReport(
        mode=mode,
        target=target,
        degree=n,
        trace_bound=B,
        b_schedule=seq.b_schedule,
        genera=tuple(genera),
        train=tuple(train),
        nu_hat=min(nu_w, nu_c),
        rungs=tuple(fits),
        passed=all(r.passed for r in fits),
    )
