"""Fourier expansions of the level-one Siegel Eisenstein series, degrees 1 and 2.

Degree 1 is the classical normalized Eisenstein series

    E_k = 1 - (2k/B_k) * sum_t sigma_{k-1}(t) q^t.

Degree 2 uses the closed form of the coefficients in terms of Cohen's
class-number function H(k-1, .): for an index T of rank 2 with content c,

    a_k(T) = (2 / (zeta(1-k) * zeta(3-2k)))
             * sum_{d | c} d^{k-1} * H(k-1, det(2T)/d^2),

while rank-1 indices reduce to the degree-1 formula applied to the content
and the constant term is 1.  With -det(2T) = D0 f^2, D0 fundamental, every
H in that sum is L(2 - k, chi_D0) times an integer, and the sum of those
integers is one product over the primes q | f (``exactnum.cohen_product``),
so a rank-2 coefficient is one L-value times that product.

Both routes walk the same index shapes (``_index_shapes``), with the
weight-free prime data of each product (``exactnum.cohen_primes``).
``eisenstein_qexp`` is exact rational arithmetic: zeta(1 - k), zeta(3 - 2k)
from ``dirichlet_L_neg``, and the L-values of a window from one
``gen_bernoulli_rows`` row.  ``eisenstein_residues`` gives the windows of a
whole weight ladder mod p^N instead: each coefficient as p^v u with v its
exact valuation and u a unit residue, with every L-value taken by the
Kummer congruences (``kummer_residues``) and every divisor sum mod p^N.

The weight ladders k_j(m) = k + a_j p^b(m) that both routes feed are
declared here too, beside ``check_weights``: ``WeightTarget``,
``WeightSequence`` and ``default_sequence``.
"""

from __future__ import annotations

from fractions import Fraction

from .exactnum import (
    HEADROOM,
    check_integers,
    cohen_primes,
    cohen_product,
    dirichlet_L_neg,
    gen_bernoulli_rows,
    is_prime,
    kummer_residues,
    sigma,
    v_p,
)
from .fourier import QExpansion, _from_checked, _key_rank
from .lattice import check_window, content, enumerate_psd_indices, form_disc
from .linalg import bareiss_det
from .records import record

__all__ = [
    "check_weights",
    "WeightTarget",
    "WeightSequence",
    "default_sequence",
    "eisenstein_qexp",
    "eisenstein_residues",
]

def check_weights(weights, n: int, B: int) -> None:
    """ValueError unless the window passes lattice.check_window, n is 1
    or 2, and every weight is an even integer > n + 1."""
    check_integers("degree, trace bound and weights must be integers", *weights)
    check_window(n, B)
    if n > 2:
        raise ValueError("degree must be 1 or 2")
    for k in weights:
        if k % 2 or k <= n + 1:
            raise ValueError(f"weight must be even and > {n + 1}, got {k}")


@record
class WeightTarget:
    """Limit weight (k, j) at the odd prime p.

    j = 0 aims at the pair (k, k) and needs k even; j = 1 aims at
    (k, k + (p-1)/2) and needs k = (p-1)/2 mod 2 so that every rung
    k_j(m) is an even weight.
    """

    p: int
    k: int
    j: int

    def __post_init__(self):
        check_integers("p, k and j must be integers", self.p, self.k, self.j)
        if not is_prime(self.p) or self.p == 2:
            raise ValueError("p must be an odd prime")
        if self.k <= 0:
            raise ValueError("k must be positive")
        if self.j not in (0, 1):
            raise ValueError("j must be 0 or 1")
        if self.j == 0 and self.k % 2:
            raise ValueError("j = 0 needs an even k")
        if self.j == 1 and (self.k - (self.p - 1) // 2) % 2:
            raise ValueError("j = 1 needs k = (p-1)/2 mod 2")

    @property
    def a_step(self) -> int:
        """Least positive a with a = (p-1)/2^j mod (p-1)."""
        return (self.p - 1) // 2 if self.j else self.p - 1

    @property
    def character(self) -> int:
        """chi_p^j as the fundamental discriminant of a rank-2k form with
        det(2S) = p^j: 1 for j = 0, else p* = (-1)^((p-1)/2) p, as k is
        (p-1)/2 mod 2."""
        return form_disc(2 * self.k, self.p**self.j)[0]

    def in_theorem_range(self) -> bool:
        return self.p > 2 * self.k + 1


@record
class WeightSequence:
    target: WeightTarget
    b_schedule: tuple

    def __post_init__(self):
        b = tuple(self.b_schedule)
        check_integers("b schedule must be integers", *b)
        if not b or b[0] <= 0 or any(y <= x for x, y in zip(b, b[1:])):
            raise ValueError("b schedule must be strictly increasing and positive")
        return self._replace(b_schedule=b)

    def __len__(self):
        return len(self.b_schedule)

    @property
    def weights(self) -> tuple:
        """k_j(m) = k + a_j * p^{b(m)} for m = 1..len(self)."""
        t = self.target
        return tuple(t.k + t.a_step * t.p**b for b in self.b_schedule)

    @property
    def caps(self) -> tuple:
        """b(m) + 2 for m = 1..len(self): rung m is read mod p^{b(m)+2}, and
        the last entry is the precision cap of the whole ladder."""
        return tuple(b + 2 for b in self.b_schedule)


def default_sequence(target: WeightTarget, m_max: int) -> WeightSequence:
    """The schedule b(m) = m, m = 1..m_max."""
    check_integers("m_max must be integers", m_max)
    if m_max <= 0:
        raise ValueError("m_max must be positive")
    return WeightSequence(target, tuple(range(1, m_max + 1)))


def _index_shapes(n: int, B: int) -> list:
    """(T, c, D0, primes) for every index T of enumerate_psd_indices(n, B):
    c is the content (0 at T = 0); at rank 2, -det 2T = D0 f^2 with
    D0 fundamental and primes = cohen_primes(D0, c, f), else both are None."""
    shapes = []
    for T in enumerate_psd_indices(n, B):
        c = content(T)
        D0, f = form_disc(2, bareiss_det(T)) if _key_rank(T) == 2 else (None, None)
        shapes.append((T, c, D0, cohen_primes(D0, c, f) if D0 else None))
    return shapes


def eisenstein_qexp(k: int, n: int, B: int) -> QExpansion:
    """Expansion of the degree-n weight-k Eisenstein series up to trace B."""
    check_weights((k,), n, B)
    shapes = _index_shapes(n, B)
    linear = 2 / dirichlet_L_neg(k, 1)  # 2 / zeta(1 - k)
    if n == 2:
        const = linear / dirichlet_L_neg(2 * k - 2, 1)  # zeta(3 - 2k)
        row = gen_bernoulli_rows((k - 1,), {D0 for _, _, D0, _ in shapes if D0})[k - 1]
    coeffs = {}
    for T, c, D0, primes in shapes:
        if not c:
            coeffs[T] = Fraction(1)
        elif D0 is None:
            coeffs[T] = linear * sigma(k - 1, c)
        else:  # L(2 - k, chi_D0) = -B_{k-1,chi_D0} / (k - 1)
            coeffs[T] = const * -row[D0] / (k - 1) * cohen_product(k - 1, primes)
    return _from_checked(n, B, coeffs)


def eisenstein_residues(weights, n: int, B: int, p: int, prec: int) -> list:
    """The windows eisenstein_qexp(k, n, B) for k in weights, each
    coefficient a replaced by its representative p^v u, where v = v_p(a)
    exactly and 0 < u < p^prec is the unit with u = a p^-v mod p^prec.

    One index walk and one Kummer table per L-function serve every
    weight: zeta(1 - k), zeta(3 - 2k) and at degree 2 L(2 - k, chi_D0) for
    the fundamental D0 of every rank-2 index, as B_{n,chi}/n mod p^prec
    from ``kummer_residues``.  The integer factors, sigma_{k-1} and the
    products of ``cohen_product``, are taken mod p^(prec + HEADROOM).
    ArithmeticError when a unit part is not determined within HEADROOM
    digits.
    """
    weights = list(weights)
    check_weights(weights, n, B)
    Q, PM = p**prec, p ** (prec + HEADROOM)

    def rep(v, u, x):  # p^v u x as p^w u', x an integer known mod PM
        x %= PM
        e = v_p(x, p)
        if e > HEADROOM:
            raise ArithmeticError(f"an integer factor is 0 mod {p}^{HEADROOM + 1}")
        u, v = u * (x // p**e) % Q, v + e
        return Fraction(u * p**v) if v >= 0 else Fraction(u, p**-v)

    shapes = _index_shapes(n, B)
    zetas = kummer_residues(
        p, (1,), weights + ([2 * k - 2 for k in weights] if n == 2 else []), prec)
    Ls = kummer_residues(p, {D0 for _, _, D0, _ in shapes if D0}, [k - 1 for k in weights], prec)
    windows = []
    for k in weights:
        v1, u1 = zetas[1, k]  # zeta(1 - k) = -B_k / k = -p^v1 u1
        linear = -2 * pow(u1, -1, Q)
        if n == 2:  # zeta(3 - 2k) = -p^v2 u2
            v2, u2 = zetas[1, 2 * k - 2]
            const = -2 * pow(u1 * u2, -1, Q)
        coeffs = {}
        for T, c, D0, primes in shapes:
            if not c:
                coeffs[T] = Fraction(1)
            elif D0 is None:  # (2 / zeta(1 - k)) sigma_{k-1}(c)
                coeffs[T] = rep(-v1, linear, sigma(k - 1, c, PM))
            else:  # (2 / (zeta(1-k) zeta(3-2k))) L(2 - k, chi_D0) times the product
                vL, uL = Ls[D0, k - 1]  # L(2 - k, chi_D0) = -p^vL uL
                coeffs[T] = rep(vL - v1 - v2, const * uL, cohen_product(k - 1, primes, PM))
        windows.append(_from_checked(n, B, coeffs))
    return windows
