"""The su(2) fusion ring at level k, its Chebyshev image, and the Verlinde formula.

Representations are labelled by twice the spin throughout the package: the
irreducible of spin i (dimension 2i+1) is the integer label m = 2i, so basis
labels at level k are m = 0, 1, ..., k and no half-integers appear anywhere.
The level-k ring is the quotient of the su(2) representation ring by the
ideal generated by the label m = k+1 (dimension k+2); its structure constants
are the truncated Clebsch-Gordan rule implemented here and enforced, not
assumed, by the exact map into Z[x]/(U_(k+1)) (``chebyshev_image``), under
which ``fusion_product`` must become the polynomial product.

Everything here is exact integer or rational arithmetic.  Through the
residue theorem the trigonometric Verlinde sum is a polynomial in k+2 with
rational coefficients, built once per genus from Bernoulli numbers as
integers over one denominator (``verlinde_polynomial``) and then evaluated
at each level in integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm


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


def _chebyshev(n: int) -> list[list[int]]:
    """U_0, ..., U_n in Z[x], each as its coefficients of x^0, x^1, ...

    U_0 = 1, U_1 = x and U_(m+1) = x U_m - U_(m-1); U_m is monic of degree m.
    """
    u = [[1], [0, 1]]
    while len(u) <= n:
        u.append([0, *u[-1]])
        for i, c in enumerate(u[-3]):
            u[-1][i] -= c
    return u[: n + 1]


def chebyshev_image(a: FusionElement) -> list[int]:
    """Image of ``a`` in Z[x]/(U_(k+1)) under V_m -> U_m: coefficients of x^0..x^k.

    The images of V_0..V_k are triangular (U_m is monic of degree m), so the
    map is injective and ``a`` is recovered from its image.
    """
    u = _chebyshev(a.level)
    out = [0] * (a.level + 1)
    for m, c in a.coeffs.items():
        for i, x in enumerate(u[m]):
            out[i] += c * x
    return out


def _reduce(k: int, poly: list[int]) -> list[int]:
    """``poly`` mod the monic U_(k+1): its remainder's coefficients of x^0..x^k."""
    out = list(poly) + [0] * (k + 1 - len(poly))
    modulus = _chebyshev(k + 1)[-1]
    for d in range(len(out) - 1, k, -1):
        top = out[d]
        for i, c in enumerate(modulus):
            out[d - k - 1 + i] -= top * c
    return out[: k + 1]


def chebyshev_product(a: FusionElement, b: FusionElement) -> list[int]:
    """Product of the images of a and b in Z[x]/(U_(k+1)), reduced mod U_(k+1).

    The level-k ring is Z[x]/(U_(k+1)) with V_m -> U_m (Gepner 1991, "Fusion
    rings and geometry").  The k+1 simple roots 2cos(n pi/(k+2)) of U_(k+1)
    are the character points, so this one integer identity says what the
    characters say: ``fusion_product`` is certified when
    ``chebyshev_image(fusion_product(a, b)) == chebyshev_product(a, b)``.
    """
    if a.level != b.level:
        raise ValueError(f"level mismatch: {a.level} != {b.level}")
    p, q = chebyshev_image(a), chebyshev_image(b)
    out = [0] * (2 * a.level + 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return _reduce(a.level, out)


def bernoulli_numbers(n: int) -> list[Fraction]:
    """B_0, ..., B_n (B_1 = -1/2), from sum_(j<=m) C(m+1, j) B_j = 0 for m >= 1.

    One table per call: callers needing several B_i build it once up to the largest.
    """
    b = [Fraction(1)]
    for m in range(1, n + 1):
        # B_j vanishes at odd j >= 3.
        b.append(-sum(comb(m + 1, j) * b[j] for j in range(m) if b[j]) / (m + 1))
    return b


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
    table = bernoulli_numbers(2 * m)
    bernoulli = [table[2 * i] / factorial(2 * i) for i in range(m + 1)]
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
