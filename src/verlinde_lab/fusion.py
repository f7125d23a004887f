"""The su(2) fusion ring at level k, its characters, and the Verlinde formula.

Representations are labelled by twice the spin throughout the package: the
irreducible of spin i (dimension 2i+1) is the integer label m = 2i, so basis
labels at level k are m = 0, 1, ..., k and no half-integers appear anywhere.
The level-k ring is the quotient of the su(2) representation ring by the
ideal generated by the label m = k+1 (dimension k+2); its structure constants
are the truncated Clebsch-Gordan rule implemented here and enforced, not
assumed, by the character-homomorphism oracle.

``verlinde_dim`` is exact.  Through the residue theorem the trigonometric
Verlinde sum is a polynomial in k+2 with rational coefficients, built once
per genus as integers over one denominator (``verlinde_polynomial``) and
then evaluated at each level in integer arithmetic, with no floating point.
Only the characters, the numeric oracle for ``fusion_product``, are
evaluated in mpmath at PRECISION_BITS of mantissa.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm

import mpmath as mp

# Mantissa bits of the character values, the oracle that the fusion_product
# tests compare against; their residuals are held below 1e-9 up to level 8.
# verlinde_dim is exact and does not use it.
PRECISION_BITS = 200


def clebsch_gordan(m1: int, m2: int) -> list[int]:
    """Decompose the tensor product of labels m1, m2 in the full ring.

    Returns {|m1-m2|, |m1-m2|+2, ..., m1+m2}, each summand with
    multiplicity one.
    """
    if m1 < 0 or m2 < 0:
        raise ValueError("spin labels must be non-negative")
    return list(range(abs(m1 - m2), m1 + m2 + 1, 2))


@dataclass(frozen=True)
class FusionElement:
    """Element of the level-k fusion ring: integer multiplicities over m = 0..k."""

    level: int
    coeffs: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.level < 0:
            raise ValueError("level must be non-negative")
        cleaned = {}
        for m, c in self.coeffs.items():
            if not 0 <= m <= self.level:
                raise ValueError(f"label {m} outside level-{self.level} basis")
            if c != 0:
                cleaned[int(m)] = int(c)
        object.__setattr__(self, "coeffs", cleaned)

    def __getitem__(self, m: int) -> int:
        return self.coeffs.get(m, 0)

    def __add__(self, other: "FusionElement") -> "FusionElement":
        if self.level != other.level:
            raise ValueError("level mismatch in fusion-ring sum")
        merged = dict(self.coeffs)
        for m, c in other.coeffs.items():
            merged[m] = merged.get(m, 0) + c
        return FusionElement(self.level, merged)

    def __repr__(self):
        if not self.coeffs:
            return f"FusionElement(level={self.level}, 0)"
        terms = " + ".join(
            (f"V({m})" if c == 1 else f"{c}*V({m})") for m, c in sorted(self.coeffs.items())
        )
        return f"FusionElement(level={self.level}, {terms})"


def basis_element(k: int, m: int) -> FusionElement:
    """The basis element V(m) of the level-k ring."""
    return FusionElement(k, {m: 1})


def fusion_product(a: FusionElement, b: FusionElement) -> FusionElement:
    """Product in the level-k fusion ring, extended bilinearly from the basis."""
    if a.level != b.level:
        raise ValueError(f"level mismatch: {a.level} != {b.level}")
    k = a.level
    out: dict[int, int] = {}
    for m1, c1 in a.coeffs.items():
        for m2, c2 in b.coeffs.items():
            lo = abs(m1 - m2)
            hi = min(m1 + m2, 2 * k - m1 - m2)
            for m3 in range(lo, hi + 1, 2):
                out[m3] = out.get(m3, 0) + c1 * c2
    return FusionElement(k, out)


@dataclass(frozen=True)
class CharacterPoint:
    """Evaluation point z = n*pi/(k+2) of the level-k character family, 1 <= n <= k+1.

    The pair (n, level) is the exact datum; ``value`` is its numeric
    realization at the module working precision.
    """

    n: int
    level: int

    def __post_init__(self):
        if self.level < 0:
            raise ValueError("level must be non-negative")
        if not 1 <= self.n <= self.level + 1:
            raise ValueError(
                f"character index n={self.n} outside [1, {self.level + 1}] at level {self.level}"
            )

    @property
    def value(self) -> mp.mpf:
        with mp.workprec(PRECISION_BITS):
            return mp.pi * self.n / (self.level + 2)


def character_points(k: int) -> list[CharacterPoint]:
    """The k+1 character evaluation points of the level-k ring."""
    return [CharacterPoint(n, k) for n in range(1, k + 2)]


def character(z: CharacterPoint, m: int) -> mp.mpf:
    """Character value sin((m+1) z)/sin(z) of the label m at the point z.

    Defined for any m >= 0, including labels outside the level-k basis;
    in particular m = k+1 (the ideal generator) evaluates to zero at every
    level-k point.
    """
    if m < 0:
        raise ValueError("spin label must be non-negative")
    with mp.workprec(PRECISION_BITS):
        zv = mp.pi * z.n / (z.level + 2)
        return mp.sin((m + 1) * zv) / mp.sin(zv)


def character_of_element(z: CharacterPoint, a: FusionElement) -> mp.mpf:
    """Linear extension of ``character`` to ring elements."""
    with mp.workprec(PRECISION_BITS):
        total = mp.mpf(0)
        for m, c in a.coeffs.items():
            total += c * character(z, m)
        return total


def character_homomorphism_check(k: int, z: CharacterPoint, m1: int, m2: int) -> float:
    """Residual |chi_z(m1) chi_z(m2) - sum_p N_{m1,m2}^p chi_z(p)|.

    A vanishing residual at every level-k character point certifies that the
    truncated fusion rule realizes the quotient-ring product; this is the
    oracle for ``fusion_product``.
    """
    if z.level != k:
        raise ValueError(f"character point has level {z.level}, expected {k}")
    with mp.workprec(PRECISION_BITS):
        lhs = character(z, m1) * character(z, m2)
        prod = fusion_product(basis_element(k, m1), basis_element(k, m2))
        rhs = character_of_element(z, prod)
        return float(abs(lhs - rhs))


def _series_power(a: list[Fraction], e: int) -> list[Fraction]:
    """a^e for a power series with a[0] = 1, truncated to the length of ``a``.

    J.C.P. Miller's recurrence (Knuth, TAOCP vol. 2, 4.7): p_0 = 1 and
    p_i = (1/i) sum_{j=1..i} ((e+1) j - i) a_j p_(i-j), from p' a = e p a'.
    """
    p = [Fraction(1)]
    for i in range(1, len(a)):
        p.append(sum(((e + 1) * j - i) * a[j] * p[i - j] for j in range(1, i + 1)) / i)
    return p


@dataclass(frozen=True)
class VerlindePolynomial:
    """The genus-g Verlinde rank as a polynomial in n = k+2, with m = g-1.

    rank = n^m * sum_i coeffs[i] * n^(2i) / denominator, i = 0..m: exact
    integers only, exponents m, m+2, ..., 3m.
    """

    denominator: int
    coeffs: tuple[int, ...]

    def monomials(self) -> tuple[Fraction, ...]:
        """The coefficients of n^0, n^1, ..., n^(3m), zeros included."""
        m = len(self.coeffs) - 1
        out = [Fraction(0)] * (3 * m + 1)
        for i, c in enumerate(self.coeffs):
            out[m + 2 * i] = Fraction(c, self.denominator)
        return tuple(out)


@lru_cache(maxsize=256)
def verlinde_polynomial(g: int) -> VerlindePolynomial:
    """The polynomial ``verlinde_dim`` evaluates at genus g, built once per genus.

    With n = k+2 and m = g-1, the function n cot(nx) csc(x)^(2m) has period
    pi, residue csc(pi j/n)^(2m) at each x = pi j/n with 0 < j < n, and
    residues summing to zero over a period, so

        sum_j sin(pi j/n)^(-2m) = -[x^(2m)] (nx cot(nx)) (x / sin x)^(2m),

    a polynomial in n with rational coefficients (Zagier 1996, "Elementary
    aspects of the Verlinde formula and of the Harder-Narasimhan-Atiyah-Bott
    formula").  Both factors are even power series with Bernoulli-number
    coefficients, truncated at x^(2m); the rank is that sum times (n/2)^m.
    """
    if g < 2:
        raise ValueError("genus must be at least 2")
    m = g - 1
    # Coefficients of x^(2i), i = 0..m, of x cot x and x / sin x, both
    # multiples of B_2i / (2i)! (Abramowitz-Stegun 4.3.70 and 4.3.68).
    bernoulli = [Fraction(*map(int, mp.bernfrac(2 * i))) / factorial(2 * i) for i in range(m + 1)]
    x_cot = [(-4) ** i * b for i, b in enumerate(bernoulli)]
    x_csc = [(-1) ** (i + 1) * (4**i - 2) * b for i, b in enumerate(bernoulli)]
    power = _series_power(x_csc, 2 * m)
    terms = [-c * p / 2**m for c, p in zip(x_cot, reversed(power))]
    denominator = lcm(*(t.denominator for t in terms))
    coeffs = tuple(t.numerator * (denominator // t.denominator) for t in terms)
    return VerlindePolynomial(denominator, coeffs)


def verlinde_dim(g: int, k: int) -> int:
    """Rank of the level-k space of non-abelian theta functions at genus g.

    The rank is ((k+2)/2)^(g-1) * sum_{j=1}^{k+1} sin(j pi/(k+2))^-(2g-2),
    evaluated exactly as ``verlinde_polynomial(g)`` at n = k+2: Horner's
    rule in n^2 on integers, then one division by the denominator.  Raises
    ArithmeticError if the result is not an integer.
    """
    poly = verlinde_polynomial(g)
    if k < 0:
        raise ValueError("level must be non-negative")
    n, m = k + 2, g - 1
    n2, total = n * n, 0
    for c in reversed(poly.coeffs):
        total = total * n2 + c
    total *= n**m
    value, remainder = divmod(total, poly.denominator)
    if remainder:
        raise ArithmeticError(
            f"Verlinde rank for g={g}, k={k} is {Fraction(total, poly.denominator)}, "
            "not an integer"
        )
    return value
