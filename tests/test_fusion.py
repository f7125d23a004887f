"""Tests for the Verlinde formula: its Bernoulli table and polynomial against
mpmath references, its ranks against hand sums, high-precision sums and the
contraction count, and its refusals.

First, the level-k fusion rules that every count route contracts: the
coefficient N_ab^c is 1 exactly when ``weights.vertex_conditions_hold``
admits (a, b, c).  They must make a commutative, associative ring whose
characters are U_m(x) modulo U_(k+1), the Chebyshev polynomials of the
second kind; these are exact identities in Z[x], with no tolerance.
"""

import math
from fractions import Fraction
from itertools import product

import mpmath as mp
import pytest

from verlinde_lab import fusion, graph
from verlinde_lab.fusion import bernoulli_numbers, verlinde_dim, verlinde_polynomial
from verlinde_lab.polytope import moment_volume
from verlinde_lab.weights import count_via_contraction, vertex_conditions_hold


def _rules(k: int, a: int, b: int) -> dict[int, int]:
    """V_a V_b in the level-k fusion ring, read from the vertex conditions."""
    return {c: 1 for c in range(k + 1) if vertex_conditions_hold(k, (a, b, c))}


def _u(m: int) -> list[int]:
    """U_m from its closed form sum_j (-1)^j C(m-j, j) x^(m-2j)."""
    out = [0] * (m + 1)
    for j in range(m // 2 + 1):
        out[m - 2 * j] = (-1) ** j * math.comb(m - j, j)
    return out


def _residual(k: int, a: int, b: int, coeffs: dict[int, int]) -> list[int]:
    """U_a U_b - sum_c coeffs[c] U_c modulo U_(k+1), coefficients of x^0..x^k.

    U_(k+1) is monic of degree k+1, so the division runs from the top term.
    """
    rest = [0] * (2 * k + 1)
    for i, x in enumerate(_u(a)):
        for j, y in enumerate(_u(b)):
            rest[i + j] += x * y
    for c, n in coeffs.items():
        for i, x in enumerate(_u(c)):
            rest[i] -= n * x
    ideal = _u(k + 1)
    for d in range(2 * k, k, -1):
        if rest[d]:
            top = rest[d]
            for i, x in enumerate(ideal):
                rest[d - k - 1 + i] -= top * x
    return rest[: k + 1]


@pytest.mark.parametrize("k", range(0, 9))
def test_fusion_commutative_associative_exhaustive(k):
    labels = range(k + 1)
    for a, b, c in product(labels, repeat=3):
        assert len({vertex_conditions_hold(k, t) for t in ((a, b, c), (b, a, c), (c, b, a))}) == 1
    # (V_a V_b) V_c = V_a (V_b V_c): the count on a four-holed sphere is the
    # same on either side of a fusion move.
    for a, b, c, d in product(labels, repeat=4):
        left = sum(_rules(k, a, b).get(e, 0) for e in labels if vertex_conditions_hold(k, (e, c, d)))
        right = sum(_rules(k, b, c).get(f, 0) for f in labels if vertex_conditions_hold(k, (a, f, d)))
        assert left == right, (a, b, c, d)


@pytest.mark.parametrize("k", range(0, 9))
def test_character_homomorphism_residuals(k):
    for a in range(k + 1):
        for b in range(a, k + 1):
            assert _residual(k, a, b, _rules(k, a, b)) == [0] * (k + 1), (a, b)


@pytest.mark.parametrize("k", range(0, 9))
def test_ring_identity_fails_for_a_wrong_product(k):
    # The residual pins the rules: one label too few or too many leaves one.
    for a in range(k + 1):
        for b in range(a, k + 1):
            right = _rules(k, a, b)
            for c in right:
                assert any(_residual(k, a, b, {**right, c: 0})), (a, b, c)
            for c in range(k + 1):
                assert any(_residual(k, a, b, {**right, c: right.get(c, 0) + 1})), (a, b, c)


def test_bernoulli_numbers_equal_mpmath():
    table = bernoulli_numbers(200)
    assert len(table) == 201
    for n, b in enumerate(table):
        assert b == Fraction(*map(int, mp.bernfrac(n))), n


def _reference_polynomial(g: int) -> tuple[int, tuple[int, ...]]:
    """``verlinde_polynomial(g)`` as (denominator, coeffs), built as before
    the package had its own Bernoulli table: from ``mpmath.bernfrac``."""
    m = g - 1
    bern = [Fraction(*map(int, mp.bernfrac(2 * i))) / math.factorial(2 * i) for i in range(m + 1)]
    x_cot = [(-4) ** i * b for i, b in enumerate(bern)]
    x_csc = [(-1) ** (i + 1) * (4**i - 2) * b for i, b in enumerate(bern)]
    power = fusion._series_power(x_csc, 2 * m)
    terms = [-c * p / 2**m for c, p in zip(x_cot, reversed(power))]
    denominator = math.lcm(*(t.denominator for t in terms))
    return denominator, tuple(t.numerator * (denominator // t.denominator) for t in terms)


def test_verlinde_polynomial_and_moment_volume_equal_mpmath_reference(fresh_verlinde_cache):
    for g in range(2, 61):
        P = verlinde_polynomial(g)
        assert (P.denominator, P.coeffs) == _reference_polynomial(g), g
        p, q = mp.bernfrac(2 * g - 2)
        volume = Fraction(2 ** (3 * g - 4) * abs(int(p)), int(q) * math.factorial(2 * g - 2))
        assert moment_volume(g) == volume, g


def test_verlinde_dim_base_cases():
    assert verlinde_dim(2, 0) == 1
    assert verlinde_dim(2, 1) == 4
    assert verlinde_dim(2, 2) == 10


def test_verlinde_dim_genus_two_level_one_by_hand():
    # (3/2) * (sin(pi/3)^-2 + sin(2pi/3)^-2) = (3/2)(4/3 + 4/3) = 4.
    value = 1.5 * (math.sin(math.pi / 3) ** -2 + math.sin(2 * math.pi / 3) ** -2)
    assert round(value) == 4 == verlinde_dim(2, 1)


def test_verlinde_dim_genus_two_level_two_by_hand():
    value = 2.0 * sum(math.sin(n * math.pi / 4) ** (-2) for n in (1, 2, 3))
    assert round(value) == 10 == verlinde_dim(2, 2)


def test_verlinde_dim_integer_and_monotone():
    for g in range(2, 7):
        prev = None
        for k in range(0, 21):
            dim = verlinde_dim(g, k)
            assert isinstance(dim, int)
            assert dim >= 1
            if prev is not None and k >= 2:
                assert dim > prev
            prev = dim


def test_verlinde_dim_rejects_bad_input():
    with pytest.raises(ValueError):
        verlinde_dim(1, 3)
    with pytest.raises(ValueError):
        verlinde_dim(2, -1)


def test_verlinde_dim_rejects_negative_level_before_building_the_polynomial(monkeypatch):
    # A cold polynomial costs about a second at genus 200, so a bad level
    # must be refused first.
    def unreachable(g):
        raise AssertionError("verlinde_polynomial built for a negative level")

    monkeypatch.setattr(fusion, "verlinde_polynomial", unreachable)
    with pytest.raises(ValueError, match="level must be non-negative"):
        verlinde_dim(200, -1)


# Ranks above 2^180, where a fixed 200-bit evaluation of the sum printed wrong
# integers or failed to round, plus (20, 20) whose rank has 52 digits.
LARGE_RANKS = [
    (8, 1000), (12, 100), (12, 300), (12, 1000), (16, 50), (16, 100),
    (16, 300), (16, 1000), (20, 50), (20, 100), (20, 300), (20, 1000), (20, 20),
]


def _verlinde_sum(g: int, k: int, bits: int) -> int:
    with mp.workprec(bits):
        total = mp.fsum(mp.sin(mp.pi * n / (k + 2)) ** (2 - 2 * g) for n in range(1, k + 2))
        value = (mp.mpf(k + 2) / 2) ** (g - 1) * total
        nearest = mp.nint(value)
        assert abs(value - nearest) < mp.mpf(2) ** -32
        return int(nearest)


def _reference_rank(g: int, k: int) -> int:
    """The Verlinde sum in mpmath, at a precision sized from a bound on its
    magnitude plus 64 guard bits, confirmed at twice that precision."""
    magnitude = (
        (g - 1) * math.log2((k + 2) / 2)
        + math.log2(k + 1)
        - (2 * g - 2) * math.log2(math.sin(math.pi / (k + 2)))
    )
    bits = max(1, math.ceil(magnitude)) + 64
    low, high = _verlinde_sum(g, k, bits), _verlinde_sum(g, k, 2 * bits)
    assert low == high
    return low


@pytest.mark.parametrize("g, k", LARGE_RANKS)
def test_verlinde_dim_exact_at_large_ranks(g, k, fresh_verlinde_cache):
    # The first call builds the genus's polynomial, the second reads it cached.
    assert verlinde_dim(g, k) == _reference_rank(g, k) == verlinde_dim(g, k)


def test_verlinde_polynomial_shape():
    assert verlinde_polynomial(2) == fusion.VerlindePolynomial(6, (-1, 1))
    for g in range(2, 13):
        P = verlinde_polynomial(g)
        assert P is verlinde_polynomial(g)
        assert len(P.coeffs) == g and P.denominator > 0
        assert len(P.monomials()) == 3 * g - 2
    with pytest.raises(ValueError, match="genus"):
        verlinde_polynomial(1)


def test_verlinde_polynomial_top_coefficient_is_the_volume_law():
    # The rank grows as k^(3g-3) times moment_volume(g) / 2^r, r = 2g-3 the
    # parity rank, and n = k+2 has the same leading coefficient as k.
    for g in range(2, 13):
        P = verlinde_polynomial(g)
        assert Fraction(P.coeffs[-1], P.denominator) == moment_volume(g) / 2 ** (2 * g - 3)
        assert P.monomials()[-1] == Fraction(P.coeffs[-1], P.denominator)


def test_corrupted_cached_polynomial_raises_on_every_call(monkeypatch, fresh_verlinde_cache):
    # A wrong constant term of the x/sin x power gives (4n^3 - 3n)/18 at
    # genus 2, fractional at n = 2..5.  The polynomial is built once and
    # cached; each evaluation checks its own remainder, so every level
    # raises, not only the call that built it.
    real = fusion._series_power

    def off_by_a_third(a, e):
        out = real(a, e)
        return [out[0] + Fraction(1, 3), *out[1:]]

    monkeypatch.setattr(fusion, "_series_power", off_by_a_third)
    for n in range(2, 6):
        wrong = Fraction(4 * n**3 - 3 * n, 18)
        with pytest.raises(ArithmeticError, match=f"g=2, k={n - 2} is {wrong}, not an"):
            verlinde_dim(2, n - 2)
    info = verlinde_polynomial.cache_info()
    assert (info.misses, info.hits) == (1, 3)


@pytest.mark.parametrize(
    "G",
    [graph.generate_genus_graphs(4)[-1], graph._necklace_graph(8)],
    ids=["genus4", "genus5-necklace"],
)
def test_verlinde_dim_equals_contraction_high_genus(G):
    for k in range(0, 9):
        assert verlinde_dim(G.genus, k) == count_via_contraction(G, k)
