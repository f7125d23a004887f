"""The Verlinde formula for the rank of the level-k space of SU(2) theta functions.

Everything here is exact integer or rational arithmetic.  Through the
residue theorem the trigonometric Verlinde sum is a polynomial in k+2 with
rational coefficients, built once per genus from Bernoulli numbers as
integers over one denominator (``verlinde_polynomial``) and then evaluated
at each level in integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm


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
    if k < 0:
        raise ValueError("level must be non-negative")
    poly = verlinde_polynomial(g)
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
