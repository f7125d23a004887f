"""Tests for the level-k fusion ring, its Chebyshev image, and the Verlinde formula.

The character of V_m at the point z is U_m(x) with x = 2cos z, and the
level-k points are the roots of U_(k+1).  So the character tests here are
exact identities in Z[x]/(U_(k+1)), with no precision and no tolerance.
"""

import math
from fractions import Fraction
from itertools import product

import mpmath as mp
import pytest

from verlinde_lab import fusion, graph
from verlinde_lab.fusion import (
    FusionElement,
    basis_element,
    bernoulli_numbers,
    chebyshev_image,
    chebyshev_product,
    clebsch_gordan,
    fusion_product,
    verlinde_dim,
    verlinde_polynomial,
)
from verlinde_lab.polytope import moment_volume
from verlinde_lab.weights import count_via_contraction


def test_clebsch_gordan_identity():
    for m in range(8):
        assert clebsch_gordan(0, m) == [m]
        assert clebsch_gordan(m, 0) == [m]


def test_clebsch_gordan_spin_half_pair():
    assert clebsch_gordan(1, 1) == [0, 2]


def test_clebsch_gordan_direct_expansion():
    # Spins 1 and 3/2 combine to 1/2, 3/2, 5/2.
    assert clebsch_gordan(2, 3) == [1, 3, 5]


def test_clebsch_gordan_dimension_count():
    # Total dimension is preserved: sum of (m+1) over summands = (m1+1)(m2+1).
    for m1 in range(6):
        for m2 in range(6):
            dims = sum(m + 1 for m in clebsch_gordan(m1, m2))
            assert dims == (m1 + 1) * (m2 + 1)


def test_clebsch_gordan_rejects_negative():
    with pytest.raises(ValueError):
        clebsch_gordan(-1, 2)


def _u(m: int) -> list[int]:
    """U_m from its closed form sum_j (-1)^j C(m-j, j) x^(m-2j), independent
    of the recurrence the package uses."""
    out = [0] * (m + 1)
    for j in range(m // 2 + 1):
        out[m - 2 * j] = (-1) ** j * math.comb(m - j, j)
    return out


def _from_image(k: int, poly: list[int]) -> dict[int, int]:
    """The ring element whose image is ``poly``, by back-substitution.

    U_m is monic of degree m, so the images of V_0..V_k are triangular: the
    top coefficient of what is left is the multiplicity of the top label.
    """
    rest, coeffs = list(poly), {}
    for m in range(k, -1, -1):
        c = rest[m]
        if c:
            coeffs[m] = c
            for i, x in enumerate(_u(m)):
                rest[i] -= c * x
    assert not any(rest)
    return coeffs


@pytest.mark.parametrize("k", range(0, 7))
def test_fusion_product_matches_character_oracle(k):
    for m1 in range(k + 1):
        for m2 in range(m1, k + 1):
            a, b = basis_element(k, m1), basis_element(k, m2)
            got = fusion_product(a, b)
            assert got.coeffs == _from_image(k, chebyshev_product(a, b))


def test_fusion_product_level_one():
    got = fusion_product(basis_element(1, 1), basis_element(1, 1))
    assert got.coeffs == {0: 1}


def test_fusion_product_level_two():
    got = fusion_product(basis_element(2, 1), basis_element(2, 1))
    assert got.coeffs == {0: 1, 2: 1}


def test_fusion_product_unit():
    for k in range(5):
        one = basis_element(k, 0)
        for m in range(k + 1):
            x = basis_element(k, m)
            assert fusion_product(one, x) == x


def test_fusion_product_level_mismatch():
    with pytest.raises(ValueError, match="level mismatch"):
        fusion_product(basis_element(1, 1), basis_element(2, 1))


def test_fusion_element_drops_zero_coefficients():
    assert FusionElement(3, {1: 0, 2: 2}).coeffs == {2: 2}


def test_fusion_element_rejects_out_of_range_label():
    with pytest.raises(ValueError):
        FusionElement(2, {3: 1})


@pytest.mark.parametrize("k", range(0, 9))
def test_fusion_commutative_associative_exhaustive(k):
    basis = [basis_element(k, m) for m in range(k + 1)]
    for a, b in product(basis, repeat=2):
        assert fusion_product(a, b) == fusion_product(b, a)
    for a, b, c in product(basis, repeat=3):
        left = fusion_product(fusion_product(a, b), c)
        right = fusion_product(a, fusion_product(b, c))
        assert left == right


@pytest.mark.parametrize("k", range(0, 9))
def test_chebyshev_image_of_each_label_is_u(k):
    for m in range(k + 1):
        assert chebyshev_image(basis_element(k, m)) == _u(m) + [0] * (k - m)
    element = FusionElement(k, {m: m + 1 for m in range(k + 1)})
    assert _from_image(k, chebyshev_image(element)) == element.coeffs


def test_character_unit():
    for k in range(5):
        assert chebyshev_image(basis_element(k, 0)) == [1] + [0] * k


def test_character_zero_of_ideal_generator_level_zero():
    # At level 0 the ring is Z[x]/(x): U_1 = x itself vanishes.
    assert fusion._reduce(0, [0, 1]) == [0]


def test_character_sqrt_two():
    # At level 2 the characters of V_1 are the roots 0, +-sqrt(2) of
    # U_3 = x^3 - 2x, so V_1 cubed is 2 V_1 in the ring.
    v1 = basis_element(2, 1)
    assert chebyshev_product(v1, fusion_product(v1, v1)) == [0, 2, 0]
    assert fusion_product(v1, fusion_product(v1, v1)) == FusionElement(2, {1: 2})


@pytest.mark.parametrize("k", range(0, 9))
def test_ideal_generator_character_vanishes(k):
    assert fusion._reduce(k, _u(k + 1)) == [0] * (k + 1)
    # Then U_(k+2) = x U_(k+1) - U_k is -U_k.
    assert fusion._reduce(k, _u(k + 2)) == [-c for c in _u(k)]


@pytest.mark.parametrize("k", range(0, 9))
def test_character_homomorphism_residuals(k):
    for m1 in range(k + 1):
        for m2 in range(m1, k + 1):
            a, b = basis_element(k, m1), basis_element(k, m2)
            image = chebyshev_image(fusion_product(a, b))
            assert [p - q for p, q in zip(image, chebyshev_product(a, b))] == [0] * (k + 1)


@pytest.mark.parametrize("k", range(0, 9))
def test_ring_identity_fails_for_a_wrong_product(k):
    for m1 in range(k + 1):
        for m2 in range(m1, k + 1):
            a, b = basis_element(k, m1), basis_element(k, m2)
            right = fusion_product(a, b)
            for p in right.coeffs:
                removed = FusionElement(k, {**right.coeffs, p: right[p] - 1})
                assert chebyshev_image(removed) != chebyshev_product(a, b)
            for p in range(k + 1):
                added = right + basis_element(k, p)
                assert chebyshev_image(added) != chebyshev_product(a, b)


def test_character_homomorphism_unit_exact():
    for k in (0, 1, 2, 5, 8):
        one = basis_element(k, 0)
        for m in range(k + 1):
            x = basis_element(k, m)
            assert chebyshev_product(one, x) == chebyshev_product(x, one) == chebyshev_image(x)


def test_character_homomorphism_level_mismatch():
    with pytest.raises(ValueError, match="level mismatch"):
        chebyshev_product(basis_element(2, 1), basis_element(3, 1))


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
