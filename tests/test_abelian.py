"""Tests for torus BS counting, label translation, and multisection solving."""

import random
from fractions import Fraction
from itertools import product

import pytest

from verlinde_lab.abelian import (
    AffineMultisection,
    BudgetExceeded,
    Characteristic,
    MultisectionComponent,
    SingularComponentError,
    TorusFibration,
    bs_count,
    bs_points,
    e_bs_fibres,
    fibres_solve_congruence,
    from_json_dict,
    gft_intersection_count,
    to_json_dict,
    translate_label,
)


def _identity(g):
    return tuple(tuple(int(i == j) for j in range(g)) for i in range(g))


def _diag(*entries):
    g = len(entries)
    return tuple(
        tuple(entries[i] if i == j else 0 for j in range(g)) for i in range(g)
    )


def _fraction_fibres(M):
    """e_bs_fibres(M) with each base point as a tuple of Fractions."""
    return [(tuple(Fraction(n, Q) for n in nums), idx) for (nums, Q), idx in e_bs_fibres(M)]


def _component(matrix, shift=None):
    g = len(matrix)
    if shift is None:
        shift = tuple(Fraction(0) for _ in range(g))
    return MultisectionComponent(tuple(tuple(row) for row in matrix), tuple(shift))


def _multisection(*components):
    return AffineMultisection(len(components[0].matrix), tuple(components))


# ---------------------------------------------------------------------------
# BS points and translation
# ---------------------------------------------------------------------------


def test_bs_points_counts():
    assert len(bs_points(TorusFibration(2, 3))) == 9
    assert len(bs_points(TorusFibration(1, 1))) == 1
    assert len(bs_points(TorusFibration(3, 2))) == 8


@pytest.mark.parametrize("g", [1, 2, 3, 4])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_bs_points_cardinality_exact(g, k):
    pts = bs_points(TorusFibration(g, k))
    assert len(pts) == k**g == bs_count(TorusFibration(g, k))
    assert len({p.values for p in pts}) == k**g


def test_bs_points_lexicographic():
    pts = [p.values for p in bs_points(TorusFibration(2, 3))]
    assert pts == sorted(pts)


def test_bs_points_budget():
    with pytest.raises(BudgetExceeded, match="bs_count"):
        bs_points(TorusFibration(4, 100))
    assert bs_count(TorusFibration(4, 100)) == 100**4


def test_translate_identity():
    w = Characteristic(2, 4, (3, 1))
    zero = Characteristic(2, 4, (0, 0))
    assert translate_label(w, zero) == w


def test_translate_wraps():
    assert translate_label(
        Characteristic(1, 3, (1,)), Characteristic(1, 3, (2,))
    ).values == (0,)


def test_translate_orbit_transitive():
    F = TorusFibration(2, 3)
    zero = Characteristic(2, 3, (0, 0))
    orbit = {translate_label(zero, v).values for v in bs_points(F)}
    assert orbit == {p.values for p in bs_points(F)}


@pytest.mark.parametrize("g", [1, 2])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_translate_group_laws_exhaustive(g, k):
    pts = bs_points(TorusFibration(g, k))
    zero = Characteristic(g, k, (0,) * g)
    for w in pts:
        assert translate_label(w, zero) == w
    for w, v, u in product(pts, repeat=3):
        left = translate_label(translate_label(w, v), u)
        right = translate_label(w, translate_label(v, u))
        assert left == right


def test_translate_mismatch():
    with pytest.raises(ValueError):
        translate_label(Characteristic(1, 3, (1,)), Characteristic(1, 4, (1,)))


def test_characteristic_reduces_mod_k():
    assert Characteristic(2, 3, (4, -1)).values == (1, 2)


# ---------------------------------------------------------------------------
# Exact matrix helpers
# ---------------------------------------------------------------------------


def _matmul(X, Y):
    return [
        [sum(X[i][l] * Y[l][j] for l in range(len(Y))) for j in range(len(Y[0]))]
        for i in range(len(X))
    ]


def _det(M):
    n = len(M)
    if n == 1:
        return M[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in M[1:]]
        total += (-1) ** j * M[0][j] * _det(minor)
    return total


# ---------------------------------------------------------------------------
# Intersection counting
# ---------------------------------------------------------------------------


def test_count_scaled_identity_matches_torus_points():
    for g in (1, 2, 3):
        for k in (1, 2, 3):
            M = _multisection(_component(_diag(*([k] * g))))
            assert gft_intersection_count(M) == k**g


def test_count_identity_with_shift():
    M = _multisection(
        _component(_identity(3), (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)))
    )
    assert gft_intersection_count(M) == 1


def test_count_two_components():
    M = _multisection(_component(_diag(2, 1)), _component(_diag(1, 3)))
    assert gft_intersection_count(M) == 5


def test_count_singular_component():
    M = _multisection(_component(((1, 1), (1, 1))))
    with pytest.raises(SingularComponentError):
        gft_intersection_count(M)
    with pytest.raises(SingularComponentError):
        e_bs_fibres(M)


def _brute_force_solutions(comp: MultisectionComponent):
    """Oracle: integer target vectors m with A.b + t = m and b in [0,1)^g.

    Enumerates m over the box A.[0,1)^g + t and solves each affine system in
    exact rationals by Gauss-Jordan elimination.
    """
    g = len(comp.matrix)
    lows, highs = [], []
    for i in range(g):
        lo = sum(min(0, comp.matrix[i][j]) for j in range(g)) + comp.shift[i]
        hi = sum(max(0, comp.matrix[i][j]) for j in range(g)) + comp.shift[i]
        lows.append(lo)
        highs.append(hi)
    sols = []
    ranges = [
        range(int(lo) - 1, int(hi) + 2) for lo, hi in zip(lows, highs)
    ]
    for m in product(*ranges):
        aug = [
            [Fraction(comp.matrix[i][j]) for j in range(g)]
            + [Fraction(m[i]) - comp.shift[i]]
            for i in range(g)
        ]
        for col in range(g):
            piv = next((r for r in range(col, g) if aug[r][col] != 0), None)
            if piv is None:
                raise AssertionError("oracle expects nonsingular matrices")
            aug[col], aug[piv] = aug[piv], aug[col]
            aug[col] = [x / aug[col][col] for x in aug[col]]
            for r in range(g):
                if r != col and aug[r][col] != 0:
                    f = aug[r][col]
                    aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
        b = tuple(aug[i][g] for i in range(g))
        if all(0 <= x < 1 for x in b):
            sols.append(b)
    return sorted(sols)


def test_fibres_match_brute_force_oracle():
    rng = random.Random(2024)
    cases = 0
    while cases < 10:
        g = rng.choice([1, 2, 3])
        A = [[rng.randint(-4, 4) for _ in range(g)] for _ in range(g)]
        d = _det(A)
        if d == 0 or abs(d) > 24:
            continue
        cases += 1
        shift = tuple(Fraction(rng.randint(0, 5), 6) for _ in range(g))
        comp = _component(A, shift)
        M = _multisection(comp)
        expected = _brute_force_solutions(comp)
        got = sorted(pt for pt, _ in _fraction_fibres(M))
        assert got == expected
        assert gft_intersection_count(M) == len(expected) == abs(d)


def test_count_shift_invariant():
    rng = random.Random(77)
    for A in ([[3]], [[2, 1], [0, 2]], [[1, 2], [3, 1]]):
        base = gft_intersection_count(_multisection(_component(A)))
        for _ in range(5):
            g = len(A)
            shift = tuple(Fraction(rng.randint(0, 11), 12) for _ in range(g))
            M = _multisection(_component(A, shift))
            assert gft_intersection_count(M) == base
            assert len(e_bs_fibres(M)) == base


# ---------------------------------------------------------------------------
# Explicit fibres
# ---------------------------------------------------------------------------


def test_fibres_doubled_circle():
    M = _multisection(_component(((2,),)))
    assert e_bs_fibres(M) == [(((0,), 2), 0), (((1,), 2), 0)]
    assert [pt for pt, _ in _fraction_fibres(M)] == [(Fraction(0),), (Fraction(1, 2),)]


def test_fibres_shifted_identity():
    M = _multisection(_component(((1,),), (Fraction(1, 3),)))
    assert [pt for pt, _ in _fraction_fibres(M)] == [(Fraction(2, 3),)]


def test_fibres_direct_sum_multiplicity():
    # r identical components: every point appears once per component.
    r, g, k = 3, 2, 2
    comps = tuple(_component(_diag(*([k] * g))) for _ in range(r))
    M = AffineMultisection(g, comps)
    fib = _fraction_fibres(M)
    assert len(fib) == r * k**g == gft_intersection_count(M)
    by_component = {}
    for pt, idx in fib:
        by_component.setdefault(idx, set()).add(pt)
    assert len(by_component) == r
    points = {pt for pt, _ in fib}
    assert all(s == points for s in by_component.values())


def test_fibres_refinement_matches_bs_points():
    g, k = 2, 3
    M = _multisection(_component(_diag(*([k] * g))))
    fib = {pt for pt, _ in _fraction_fibres(M)}
    expected = {
        tuple(Fraction(v, k) for v in c.values)
        for c in bs_points(TorusFibration(g, k))
    }
    assert fib == expected


def test_fibres_total_equals_count():
    M = _multisection(
        _component(((2, 1), (1, 2))),
        _component(_diag(3, 1), (Fraction(1, 4), Fraction(1, 2))),
    )
    assert len(e_bs_fibres(M)) == gft_intersection_count(M)


def _unimodular(rng, g):
    """Random elementary row operations and a sign: det = +-1, negative entries."""
    U = [[int(i == j) for j in range(g)] for i in range(g)]
    for _ in range(2 * g if g > 1 else 0):
        i, j = rng.sample(range(g), 2)
        c = rng.choice((-2, -1, 1, 2))
        U[i] = [a + c * b for a, b in zip(U[i], U[j])]
    if rng.random() < 0.5:
        U[0] = [-x for x in U[0]]
    return U


def _random_multisection(rng, g):
    """Components A = U1 diag(d) U2 over primes 2, 3, 5, 7, shifts p/q with q in 2..12.

    Returns the multisection and its |det A| total, prod(d) per component.
    """
    comps, total = [], 0
    for _ in range(rng.randint(1, 3)):
        d = [1] * g
        for p in rng.choices((2, 3, 5, 7), k=rng.randint(0, 3)):
            d[rng.randrange(g)] *= p
        D = [[d[i] * (i == j) for j in range(g)] for i in range(g)]
        A = _matmul(_matmul(_unimodular(rng, g), D), _unimodular(rng, g))
        shift = []
        for _ in range(g):
            q = rng.randint(2, 12)
            shift.append(Fraction(rng.randrange(q), q))
        comps.append(_component(A, shift))
        total += _det(D)
    return AffineMultisection(g, tuple(comps)), total


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_fibres_equal_fraction_oracle_on_random_multisections(g):
    rng = random.Random(700 + g)
    for _ in range(8):
        M, total = _random_multisection(rng, g)
        fibres = e_bs_fibres(M)
        # A component has exactly |det A| solutions, so distinct solutions
        # numbering |det A| in all are the full solution set.
        assert fibres_solve_congruence(M, fibres)
        assert gft_intersection_count(M) == total == len(fibres)
        assert [i for _, i in fibres] == sorted(i for _, i in fibres)
        for idx in range(len(M.components)):
            points = [pt for pt, i in _fraction_fibres(M) if i == idx]
            assert points == sorted(points)


def test_count_equals_determinant_on_dense_matrices():
    rng = random.Random(31)
    singular = 0
    for _ in range(120):
        g = rng.randint(1, 4)
        A = [[rng.randint(-2, 2) for _ in range(g)] for _ in range(g)]
        M = _multisection(_component(A))
        if _det(A) == 0:
            singular += 1
            with pytest.raises(SingularComponentError, match="singular"):
                gft_intersection_count(M)
            continue
        assert gft_intersection_count(M) == abs(_det(A)) == len(e_bs_fibres(M))
    assert singular > 0


def test_fibres_solve_congruence_rejects_tampered_and_duplicated_points():
    M = _multisection(
        _component(((2, 1), (-1, 3)), (Fraction(1, 6), Fraction(3, 4))),
        _component(_diag(2, 2)),
    )
    fibres = e_bs_fibres(M)
    assert fibres_solve_congruence(M, fibres)
    ((x, y), Q), idx = fibres[3]
    tampered = list(fibres)
    # y + 1/97 (mod 1), written over 97 Q
    tampered[3] = (((97 * x, (97 * y + Q) % (97 * Q)), 97 * Q), idx)
    assert not fibres_solve_congruence(M, tampered)
    duplicated = list(fibres)
    duplicated[3] = fibres[2]
    assert fibres[2][1] == idx
    assert not fibres_solve_congruence(M, duplicated)
    (u, v), _ = fibres[2][0]
    rescaled = list(fibres)
    rescaled[3] = (((2 * x, 2 * y), 2 * Q), idx)  # the same point over 2Q
    assert fibres_solve_congruence(M, rescaled)
    rescaled[3] = (((2 * u, 2 * v), 2 * Q), idx)  # fibres[2] over 2Q
    assert not fibres_solve_congruence(M, rescaled)
    outside = list(fibres)
    outside[3] = (((x + Q, y), Q), idx)  # the same torus point, outside [0,1)^g
    assert not fibres_solve_congruence(M, outside)


# ---------------------------------------------------------------------------
# Validation and interchange
# ---------------------------------------------------------------------------


def test_component_validation():
    with pytest.raises(ValueError, match="square"):
        MultisectionComponent(((1, 0),), (Fraction(0),))
    with pytest.raises(ValueError, match=r"\[0, 1\)"):
        _component(((1,),), (Fraction(3, 2),))


def test_multisection_validation():
    with pytest.raises(ValueError, match="at least one"):
        AffineMultisection(2, ())
    with pytest.raises(ValueError, match="does not match"):
        AffineMultisection(2, (_component(((1,),)),))


def test_json_roundtrip():
    M = _multisection(
        _component(((2, 1), (0, 3)), (Fraction(1, 2), Fraction(2, 3))),
        _component(_identity(2)),
    )
    data = to_json_dict(M)
    assert data["g"] == 2
    assert data["components"][0]["t"] == ["1/2", "2/3"]
    assert from_json_dict(data) == M
