"""Tests for the level-k fusion ring, its characters, and the Verlinde formula."""

import math
from fractions import Fraction
from itertools import product

import mpmath as mp
import numpy as np
import pytest

from verlinde_lab import fusion, graph
from verlinde_lab.fusion import (
    CharacterPoint,
    FusionElement,
    basis_element,
    character,
    character_homomorphism_check,
    character_points,
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


def _fusion_from_characters(k: int, m1: int, m2: int) -> dict[int, int]:
    """Independent oracle: recover the product multiplicities from characters.

    The k+1 character points separate the basis, so the multiplicity vector
    is the solution of the linear system
        sum_p c_p chi_z(p) = chi_z(m1) chi_z(m2)   for each point z.
    """
    points = character_points(k)
    A = np.array(
        [[float(character(z, p)) for p in range(k + 1)] for z in points]
    )
    rhs = np.array([float(character(z, m1) * character(z, m2)) for z in points])
    sol = np.linalg.solve(A, rhs)
    coeffs = {}
    for p, c in enumerate(sol):
        r = round(c)
        assert abs(c - r) < 1e-6, f"non-integer multiplicity {c} at p={p}"
        if r:
            coeffs[p] = int(r)
    return coeffs


@pytest.mark.parametrize("k", range(0, 7))
def test_fusion_product_matches_character_oracle(k):
    for m1 in range(k + 1):
        for m2 in range(m1, k + 1):
            got = fusion_product(basis_element(k, m1), basis_element(k, m2))
            assert got.coeffs == _fusion_from_characters(k, m1, m2)


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


def test_character_point_range():
    CharacterPoint(1, 0)
    CharacterPoint(3, 2)
    with pytest.raises(ValueError):
        CharacterPoint(0, 2)
    with pytest.raises(ValueError):
        CharacterPoint(4, 2)


def test_character_point_value():
    z = CharacterPoint(1, 0)
    assert abs(float(z.value) - math.pi / 2) < 1e-15


def test_character_unit():
    for k in range(5):
        for z in character_points(k):
            assert abs(float(character(z, 0)) - 1.0) < 1e-30


def test_character_zero_of_ideal_generator_level_zero():
    # n=1, k=0 puts z = pi/2 where the label m=1 has vanishing character.
    z = CharacterPoint(1, 0)
    assert abs(float(character(z, 1))) < 1e-30


def test_character_sqrt_two():
    z = CharacterPoint(1, 2)
    with mp.workprec(fusion.PRECISION_BITS):
        assert abs(character(z, 1) - mp.sqrt(2)) < mp.mpf(2) ** -150


@pytest.mark.parametrize("k", range(0, 9))
def test_ideal_generator_character_vanishes(k):
    for z in character_points(k):
        assert abs(float(character(z, k + 1))) < 1e-9


@pytest.mark.parametrize("k", range(0, 9))
def test_character_homomorphism_residuals(k):
    for z in character_points(k):
        for m1 in range(k + 1):
            for m2 in range(m1, k + 1):
                assert character_homomorphism_check(k, z, m1, m2) < 1e-9


def test_character_homomorphism_unit_exact():
    for k in (1, 2, 5):
        for z in character_points(k):
            for m2 in range(k + 1):
                assert character_homomorphism_check(k, z, 0, m2) < 1e-40


def test_character_homomorphism_level_mismatch():
    with pytest.raises(ValueError):
        character_homomorphism_check(2, CharacterPoint(1, 3), 1, 1)


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
