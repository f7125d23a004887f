"""Tests for the moment polytope: H-rep, exact volume, lattice counts, asymptotics."""

import random
import sys
import tracemalloc
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest

from verlinde_lab import graph, polytope
from verlinde_lab.budget import BudgetExceeded
from verlinde_lab.fusion import verlinde_dim, verlinde_polynomial
from verlinde_lab.graph import dumbbell_graph, generate_genus_graphs, theta_graph
from verlinde_lab.polytope import (
    ClebschGordanPolytope,
    asymptotic_table,
    build_polytope,
    exact_volume,
    lattice_count,
    lattice_counts,
    mc_volume,
    moment_volume,
)
from verlinde_lab.weights import (
    count_admissible_bruteforce,
    count_via_contraction,
    enumerate_admissible,
)

THETA = theta_graph()
DUMBBELL = dumbbell_graph()


def _box(d: int) -> ClebschGordanPolytope:
    rows = []
    for e in range(d):
        rows.append((tuple(-1 if i == e else 0 for i in range(d)), 0))
        rows.append((tuple(1 if i == e else 0 for i in range(d)), 1))
    return ClebschGordanPolytope(d, tuple(rows))


def _simplex(d: int) -> ClebschGordanPolytope:
    rows = list(_box(d).ineqs)
    rows.append(((1,) * d, 1))
    return ClebschGordanPolytope(d, tuple(rows))


def _inside(P: ClebschGordanPolytope, point) -> bool:
    """Exact membership of a point of Fractions: every row a . c <= b holds."""
    return all(sum(x * c for x, c in zip(a, point)) <= b for a, b in P.ineqs)


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def test_build_theta_rows():
    P = build_polytope(THETA)
    assert P.dim == 3
    # Box (6 rows) + three triangle rows + one cap; the second vertex repeats
    # the first exactly and is deduplicated.
    assert len(P.ineqs) == 10
    rows = set(P.ineqs)
    assert ((1, -1, -1), 0) in rows
    assert ((-1, 1, -1), 0) in rows
    assert ((-1, -1, 1), 0) in rows
    assert ((1, 1, 1), 2) in rows


def test_build_dumbbell_rows():
    # Edge order (loop0, bridge, loop1): bridge <= 2*loop at both ends, and
    # the doubled-loop caps 2*loop + bridge <= 2.
    P = build_polytope(DUMBBELL)
    rows = set(P.ineqs)
    assert ((-2, 1, 0), 0) in rows
    assert ((0, 1, -2), 0) in rows
    assert ((2, 1, 0), 2) in rows
    assert ((0, 1, 2), 2) in rows


@pytest.mark.parametrize("g", [2, 3, 4])
def test_origin_inside_every_polytope(g):
    for G in generate_genus_graphs(g):
        P = build_polytope(G)
        assert _inside(P, (0,) * P.dim)


@pytest.mark.parametrize(
    "row, match",
    [
        (((Fraction(1, 3), 0), 1), "not an int"),
        (((0, 0), 1), "reads no coordinate"),
        (((1, 1, 1), 2), "arity"),
    ],
    ids=["fraction-entry", "all-zero-row", "wrong-arity"],
)
def test_construction_refuses_a_row_of_another_shape(row, match):
    # The unit square's box rows are all in place; only the one row is wrong.
    with pytest.raises(ValueError, match=match):
        ClebschGordanPolytope(2, (*_box(2).ineqs, row))


def test_build_deterministic():
    assert build_polytope(THETA) == build_polytope(THETA)


def _dense_build_polytope(G) -> ClebschGordanPolytope:
    """The rows of ``build_polytope``, deduplicated as dense tuples."""
    d = G.edge_count
    rows, seen = [], set()

    def add(coeffs, bound):
        row = (tuple(coeffs.get(i, 0) for i in range(d)), bound)
        if row not in seen:
            seen.add(row)
            rows.append(row)

    for e in range(d):
        add({e: -1}, 0)
        add({e: 1}, 1)
    for triple in G.vertex_edge_triples():
        for x in range(3):
            coeffs = {triple[x]: 1}
            for y in range(3):
                if y != x:
                    coeffs[triple[y]] = coeffs.get(triple[y], 0) - 1
            if any(coeffs.values()):
                add(coeffs, 0)
        total = {}
        for e in triple:
            total[e] = total.get(e, 0) + 1
        add(total, 2)
    return ClebschGordanPolytope(d, tuple(rows))


def test_build_rows_match_the_dense_construction():
    graphs = [G for g in (2, 3, 4) for G in generate_genus_graphs(g)]
    for G in (*graphs, graph._necklace_graph(38)):
        assert build_polytope(G).ineqs == _dense_build_polytope(G).ineqs


def test_build_polytope_makes_no_fraction(monkeypatch):
    # Rows are written in int straight from the deduplicated sparse rows.
    graphs = [G for g in (2, 3, 4) for G in generate_genus_graphs(g)]
    graphs.append(graph._necklace_graph(38))
    expected = [_dense_build_polytope(G) for G in graphs]

    def refuse(*args):
        raise AssertionError("build_polytope made a Fraction")

    monkeypatch.setattr(polytope, "Fraction", refuse)
    for G, want in zip(graphs, expected):
        P = build_polytope(G)
        assert P.ineqs == want.ineqs
        assert all(type(c) is int for a, b in P.ineqs for c in (*a, b))


# ---------------------------------------------------------------------------
# Exact volume
# ---------------------------------------------------------------------------


def test_volume_unit_cube():
    for d in (1, 2, 3, 4):
        assert exact_volume(_box(d)) == 1


def test_volume_simplex():
    # vol {x >= 0, sum x <= 1} = 1/d!
    assert exact_volume(_simplex(2)) == Fraction(1, 2)
    assert exact_volume(_simplex(3)) == Fraction(1, 6)
    assert exact_volume(_simplex(4)) == Fraction(1, 24)


def test_volume_theta():
    # Cube minus three triangle-violating corner tetrahedra and the corner
    # beyond the cap, each of volume 1/6 and pairwise disjoint.
    assert exact_volume(build_polytope(THETA)) == 1 - 4 * Fraction(1, 6)
    assert exact_volume(build_polytope(THETA)) == Fraction(1, 3)


def test_volume_dumbbell():
    # Slicing at bridge value b leaves a (1-b) x (1-b) square: integral 1/3.
    assert exact_volume(build_polytope(DUMBBELL)) == Fraction(1, 3)


def _reduce(mat: list[list[Fraction]], ncols: int) -> list[int]:
    """Gauss-Jordan over the rationals, in place; returns the pivot columns."""
    cols = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        mat[r] = [x / mat[r][c] for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        cols.append(c)
        r += 1
    return cols


def _vertices(P: ClebschGordanPolytope) -> set[tuple[Fraction, ...]]:
    """Exact vertex enumeration: every feasible intersection of d rows."""
    d = P.dim
    vertices = set()
    for rows in combinations(P.ineqs, d):
        mat = [[Fraction(a[i]) for i in range(d)] + [Fraction(b)] for a, b in rows]
        cols = _reduce(mat, d)
        if len(cols) < d:
            continue
        point = [Fraction(0)] * d
        for i, c in enumerate(cols):
            point[c] = mat[i][d]
        if _inside(P, point):
            vertices.add(tuple(point))
    return vertices


def _hull_volume(P: ClebschGordanPolytope) -> float:
    """Independent oracle: exact vertex enumeration, then Qhull triangulation."""
    from scipy.spatial import ConvexHull

    pts = [[float(x) for x in v] for v in _vertices(P)]
    return ConvexHull(pts).volume


def test_volume_genus_two_against_hull_oracle():
    for G in (THETA, DUMBBELL):
        P = build_polytope(G)
        assert abs(_hull_volume(P) - float(exact_volume(P))) < 1e-9


def test_volume_genus_three_shared():
    volumes = {exact_volume(build_polytope(G)) for G in generate_genus_graphs(3)}
    assert volumes == {Fraction(2, 45)}


def test_volume_independent_of_row_order():
    P = build_polytope(DUMBBELL)
    rng = random.Random(3)
    for _ in range(4):
        rows = list(P.ineqs)
        rng.shuffle(rows)
        assert exact_volume(ClebschGordanPolytope(P.dim, tuple(rows))) == Fraction(1, 3)


def test_volume_degenerate_is_zero():
    rows = list(_box(3).ineqs)
    rows.append(((1, 0, 0), 0))  # x <= 0 slab
    assert exact_volume(ClebschGordanPolytope(3, tuple(rows))) == 0


def test_volume_empty_is_zero():
    rows = list(_box(2).ineqs)
    rows.append(((-1, 0), -2))  # x >= 2
    assert exact_volume(ClebschGordanPolytope(2, tuple(rows))) == 0


def test_volume_unbounded_is_an_error():
    # The cone {x >= 0, y >= 0}, the strip 0 <= x <= 1, y >= 1, and the
    # empty strip 1 <= x <= 0, y >= 0 each leave y without an upper box row:
    # rows that bound no region are refused when the polytope is made,
    # whatever their right-hand sides.
    cone = (((-1, 0), 0), ((0, -1), 0))
    strip = (((-1, 0), 0), ((1, 0), 1), ((0, -1), -1))
    empty_strip = (((-1, 0), -1), ((1, 0), 0), ((0, -1), 0))
    for rows in (cone, strip, empty_strip):
        with pytest.raises(ValueError, match="single-coordinate"):
            ClebschGordanPolytope(2, rows)
    # The box closes the cone, and one more row cuts it to a triangle.
    triangle = (*cone, ((1, 0), 1), ((0, 1), 1), ((1, 1), 1))
    assert exact_volume(ClebschGordanPolytope(2, triangle)) == Fraction(1, 2)


#: The random cuts below have rational entries whose denominators divide 36;
#: each is written as its integer row times 36.
_CUT_SCALE = 36


def _random_rows(rng: random.Random, d: int) -> tuple:
    """The unit box, random rational cuts, and some opposite row pairs that
    leave a slab of positive, zero or negative width; rows shuffled."""
    n = _CUT_SCALE
    rows = list(_box(d).ineqs)
    for _ in range(rng.randint(1, 3)):
        # Entries p/q, q in 1..3, and bound p/q, q in 1..4, all times n.
        a = tuple(rng.randint(-3, 3) * n // rng.randint(1, 3) for _ in range(d))
        b = rng.randint(-1, 4) * n // rng.randint(1, 4)
        rows.append((a, b))
        if rng.random() < 0.4:
            # -s*a . x <= -s*b + w: a slab of width w / s against the cut,
            # with s in {1, 2, 1/3} and w = 0 or +-1/q, q in 1..3, times n.
            s, t = rng.choice(((1, 1), (2, 1), (1, 3)))
            w = rng.choice((-1, 0, 0, 1)) * n // rng.randint(1, 3)
            rows.append((tuple(-s * c // t for c in a), -s * b // t + w))
    rng.shuffle(rows)
    return tuple(rows)


def _random_polytope(rng: random.Random, d: int) -> ClebschGordanPolytope:
    return ClebschGordanPolytope(d, _random_rows(rng, d))


def test_volume_random_polytopes_against_hull_oracle():
    rng = random.Random(2024)
    full = degenerate = 0
    for i in range(60):
        P = _random_polytope(rng, 2 + i % 3)
        vertices = sorted(_vertices(P))
        diffs = [[x - y for x, y in zip(v, vertices[0])] for v in vertices[1:]]
        if len(_reduce(diffs, P.dim)) == P.dim:
            full += 1
            assert abs(float(exact_volume(P)) - _hull_volume(P)) < 1e-9, P
        else:
            degenerate += 1
            assert exact_volume(P) == 0, P
    assert full >= 20 and degenerate >= 10


def test_volume_zero_width_slab_is_pruned():
    # 4x <= 2 and -2x <= -1 pin x = 1/2 through rows of different scale.
    rows = list(_box(3).ineqs)
    rows += [((4, 0, 0), 2), ((-2, 0, 0), -1)]
    stats: dict = {}
    assert exact_volume(ClebschGordanPolytope(3, tuple(rows)), stats) == 0
    assert stats == {"memo_entries": 0, "faces_pruned": 1}


def test_volume_stats_are_deterministic():
    G = generate_genus_graphs(3)[0]
    runs = []
    for _ in range(2):
        stats: dict = {}
        assert exact_volume(build_polytope(G), stats) == Fraction(2, 45)
        runs.append(stats)
    assert runs[0] == runs[1]
    assert set(runs[0]) == {"memo_entries", "faces_pruned"}
    assert runs[0]["memo_entries"] > 0 and runs[0]["faces_pruned"] > 0


def test_volume_genus_four_past_the_cap(monkeypatch):
    # Class 11 is the quickest genus-4 class to integrate.
    monkeypatch.setattr(polytope, "MAX_EXACT_DIMENSION", 9)
    G = generate_genus_graphs(4)[11]
    assert exact_volume(build_polytope(G)) == Fraction(8, 945)


def test_volume_dimension_cap():
    with pytest.raises(BudgetExceeded, match="mc_volume"):
        exact_volume(_box(7))


# ---------------------------------------------------------------------------
# Monte Carlo volume
# ---------------------------------------------------------------------------


def test_mc_theta_within_three_sigma():
    P = build_polytope(THETA)
    est, se = mc_volume(P, 10**6, rng_seed=20240801)
    assert abs(est - 1 / 3) <= 3 * se


def test_mc_dumbbell_two_seeds():
    P = build_polytope(DUMBBELL)
    for seed in (1, 2):
        est, se = mc_volume(P, 10**5, rng_seed=seed)
        assert abs(est - 1 / 3) <= 3 * se


def test_mc_unit_cube_exact():
    for seed in (0, 99):
        est, se = mc_volume(_box(3), 10**4, rng_seed=seed)
        assert est == 1.0
        assert se == 0.0


def test_mc_deterministic_given_seed():
    P = build_polytope(THETA)
    assert mc_volume(P, 10**4, 5) == mc_volume(P, 10**4, 5)


def test_mc_sample_floor():
    with pytest.raises(ValueError):
        mc_volume(_box(2), 999, 0)


@pytest.mark.parametrize("lo, hi", [(-1, 1), (0, 2)])
def test_mc_refuses_a_polytope_outside_the_unit_cube(lo, hi):
    # [-1, 1]^2 and [0, 2]^2 both have volume 4, but sampling [0, 1)^2
    # would estimate the volume of their part in the cube, 1.
    rows = []
    for e in range(2):
        rows.append((tuple(-1 if i == e else 0 for i in range(2)), -lo))
        rows.append((tuple(1 if i == e else 0 for i in range(2)), hi))
    P = ClebschGordanPolytope(2, tuple(rows))
    assert exact_volume(P) == 4
    with pytest.raises(ValueError, match="coordinate 0 .*unit cube"):
        mc_volume(P, 10_000, 0)


def _mc_volume_row_major(P, samples, rng_seed):
    """Reference: each stage drawn for all its samples at once, with no slicing.

    Stages are opened as ``mc_volume`` documents: in row order, each row the
    unit cube does not imply draws the coordinates it reads that are still
    undrawn, from the stage's spawned generator.  After each draw, and once
    before any, every row of P whose support is drawn is tested, box and
    implied rows included, one sample per row of x @ A.T.
    """
    stages, seen = [], set()
    for a, b in P.ineqs:
        support = {e for e, c in enumerate(a) if c}
        if sum(c for c in a if c > 0) > b and support - seen:
            stages.append(sorted(support - seen))
            seen |= support
    A = np.array([[float(c) for c in a] for a, _ in P.ineqs], dtype=float).reshape(-1, P.dim)
    b = np.array([float(bb) for _, bb in P.ineqs], dtype=float)
    gens = np.random.default_rng(rng_seed).spawn(len(stages))
    x = np.zeros((samples, P.dim))
    alive = np.arange(samples)
    drawn = np.zeros(P.dim, dtype=bool)
    for gen, cols in [(None, []), *zip(gens, stages)]:
        if cols:
            x[np.ix_(alive, cols)] = gen.random((len(alive), len(cols)))
            drawn[cols] = True
        rows = ~((A != 0) & ~drawn).any(axis=1)
        alive = alive[(x[alive] @ A[rows].T <= b[rows]).all(axis=1)]
    estimate = len(alive) / samples
    return estimate, (estimate * (1.0 - estimate) / samples) ** 0.5


@pytest.mark.parametrize("g", [2, 3, 4])
def test_mc_equals_row_major_reference_on_every_class(g):
    # At genus 4, where mc_volume's slices hold 16,384 to 29,127 samples,
    # two to four full slices and a partial one.
    samples = 68_537
    for i, G in enumerate(generate_genus_graphs(g)):
        P = build_polytope(G)
        assert mc_volume(P, samples, 100 * g + i) == _mc_volume_row_major(P, samples, 100 * g + i)


#: Cuts of the unit square; a rational cut is written as its integer row
#: times the lcm of its denominators.
_EXTRA_ROWS = [
    [((2, 0), 1)],  # 2c_0 <= 1: the cube does not imply it
    [((1, 3), 3)],  # c_0/3 + c_1 <= 1: positive part 4/3 > 1
    [((1, 1), 2)],  # c_0 + c_1 <= 2: implied
    [((1, 1), 3), ((1, -1), 1)],  # implied, c_0/3 + c_1/3 <= 1 among them
    [((2, 0), 1), ((1, 1), 2), ((1, 3), 3), ((-2, 2), 1)],
    [],  # the box alone: every row is skipped
    # Two tested rows, and c_0 + c_1 <= -1, the first, fails on the whole
    # cube: no sample survives mc_volume's first stage.
    [((1, 1), -1), ((2, 0), 1)],
]


def _square_with(extra) -> ClebschGordanPolytope:
    return ClebschGordanPolytope(2, (*_box(2).ineqs, *extra))


@pytest.mark.parametrize("extra", _EXTRA_ROWS)
def test_mc_equals_row_major_reference_on_cut_squares(extra):
    P = _square_with(extra)
    for seed in (0, 1, 2):
        assert mc_volume(P, 20_000, seed) == _mc_volume_row_major(P, 20_000, seed)


def _slicing_cases():
    graphs = [THETA, DUMBBELL, *generate_genus_graphs(3), *generate_genus_graphs(4)[::16]]
    yield from (build_polytope(G) for G in graphs)
    yield from (_square_with(extra) for extra in _EXTRA_ROWS)
    yield _box(3)  # no tested row: every sample hits
    yield _simplex(3)  # one tested row: one stage draws all three coordinates


@pytest.mark.parametrize("cells, samples", [(1, 2_000), (2**30, 40_000)])
def test_mc_slices_leave_estimates_alone(cells, samples, monkeypatch):
    # One sample per slice, then every sample in one slice; by default the
    # genus-4 classes take 40,000 samples in two or three full slices and a
    # partial one.
    cases = list(_slicing_cases())
    default = [mc_volume(P, samples, 11) for P in cases]
    monkeypatch.setattr(polytope, "_MC_CELLS", cells)
    assert [mc_volume(P, samples, 11) for P in cases] == default


@pytest.mark.parametrize("V", [18, 38])  # the genus-10 and genus-20 necklaces
def test_mc_memory_is_bounded_by_the_cell_budget(V):
    P = build_polytope(graph._necklace_graph(V))
    tracemalloc.start()
    try:
        mc_volume(P, 200_000, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # A stage holds four float64 arrays of a slice at once, the coordinates
    # drawn through the stage before, those drawn through its own, the
    # uniforms it draws and its row values, each of at most _MC_CELLS
    # cells: 8 MB in all at the default budget.
    assert peak < 4 * 8 * polytope._MC_CELLS


#: c_0 <= 99/100, then c_1 <= c_0: the second row opens a second stage that
#: draws c_1 for the 99 % of samples the first row keeps.  Were the stages to
#: share one stream, the i-th survivor's c_1 would be the i-th sample's c_0,
#: which is its own c_0 until the first sample is rejected.
_TWO_STAGES = _square_with([((100, 0), 99), ((-1, 1), 0)])


@pytest.mark.parametrize(
    "P, volume",
    [(build_polytope(THETA), 1 / 3), (_TWO_STAGES, 0.99**2 / 2)],
    ids=["theta", "two-stages"],
)
def test_mc_z_scores_follow_the_binomial_law(P, volume):
    # Over independent seeds the z-scores of Binomial(n, volume) / n have
    # mean 0 and variance 1; over N of them the sample mean has standard
    # error 1/sqrt(N) and the sample variance about sqrt(2/(N-1)).
    n, seeds = 1000, 400
    sigma = (volume * (1 - volume) / n) ** 0.5
    z = np.array([(mc_volume(P, n, seed)[0] - volume) / sigma for seed in range(seeds)])
    assert abs(z.mean()) <= 4 / seeds**0.5
    assert abs(z.var(ddof=1) - 1) <= 4 * (2 / (seeds - 1)) ** 0.5


def _mc_stats(P, samples=2_000, seed=3):
    stats: dict = {}
    return mc_volume(P, samples, seed, stats), stats


def test_mc_degenerate_inputs():
    # No coordinate and no row: the one point of [0,1)^0 is inside.
    assert _mc_stats(ClebschGordanPolytope(0, ())) == ((1.0, 0.0), {"draws": 0, "stages": 0})
    # The box alone tests no row, so it draws nothing.
    assert _mc_stats(_box(3)) == ((1.0, 0.0), {"draws": 0, "stages": 0})
    (est, se), stats = _mc_stats(_simplex(3))
    assert stats == {"draws": 3 * 2_000, "stages": 1}
    assert abs(est - 1 / 6) <= 4 * se
    # A first cut row that reads every coordinate draws them all at once;
    # the later rows then read nothing new and open no stage.
    rows = [((1, 1, 1, 1), 2), ((1, -1, 0, 0), 0), ((0, 0, 1, 1), 1)]
    dense = ClebschGordanPolytope(4, (*_box(4).ineqs, *rows))
    assert _mc_stats(dense)[1] == {"draws": 4 * 2_000, "stages": 1}


@pytest.mark.parametrize("g", [2, 5, 10, 20])
def test_mc_draws_per_sample_stay_flat_in_genus(g):
    # Most samples leave the necklace polytope at its first vertex, so a
    # sample costs about four uniforms however many coordinates it has.
    P = build_polytope(graph._necklace_graph(2 * g - 2))
    _, stats = _mc_stats(P, samples=50_000)
    assert stats["stages"] == (1 if g == 2 else 2 * g - 3)
    assert 3 * 50_000 <= stats["draws"] < 4.5 * 50_000


# ---------------------------------------------------------------------------
# Lattice counting
# ---------------------------------------------------------------------------


def test_lattice_count_examples():
    assert lattice_count(build_polytope(THETA), THETA, 1) == 4
    assert lattice_count(build_polytope(THETA), THETA, 2) == 10
    assert lattice_count(build_polytope(DUMBBELL), DUMBBELL, 1) == 4


@pytest.mark.parametrize("k", range(1, 7))
def test_lattice_count_equals_weight_count(k):
    for g in (2, 3):
        for G in generate_genus_graphs(g):
            P = build_polytope(G)
            assert lattice_count(P, G, k) == count_admissible_bruteforce(G, k)


def test_lattice_count_requires_positive_level():
    with pytest.raises(ValueError):
        lattice_count(build_polytope(THETA), THETA, 0)


def test_lattice_count_recursion_limit(frames_left):
    # The lattice route runs on sliced_frontier's explicit stack, not one
    # frame per coordinate, so a recursion limit that leaves fewer than
    # E + 2 frames below lattice_count does not stop it.
    G = graph._necklace_graph(10)  # genus 6, E = 15
    P = build_polytope(G)
    limit = sys.getrecursionlimit()
    try:
        # lattice_count and lattice_counts take two of them.
        sys.setrecursionlimit(limit - frames_left() + G.edge_count + 3)
        assert lattice_count(P, G, 2) == verlinde_dim(6, 2)
    finally:
        sys.setrecursionlimit(limit)


@pytest.mark.parametrize("g,k_max", [(3, 10), (4, 4)])
def test_lattice_count_equals_contraction(g, k_max):
    for G in generate_genus_graphs(g):
        P = build_polytope(G)
        for k in range(1, k_max + 1):
            assert lattice_count(P, G, k) == count_via_contraction(G, k), (G, k)


def test_lattice_count_sliced_frontier(monkeypatch):
    cases = [
        (G, build_polytope(G), k)
        for g in (2, 3)
        for G in generate_genus_graphs(g)
        for k in range(1, 7)
    ]
    expected = [lattice_count(P, G, k) for G, P, k in cases]
    monkeypatch.setattr(graph, "_FRONTIER_CHUNK", 1)
    assert [lattice_count(P, G, k) for G, P, k in cases] == expected


def test_lattice_count_independent_of_row_order():
    rng = random.Random(11)
    for G in (THETA, DUMBBELL, *generate_genus_graphs(3)):
        P = build_polytope(G)
        expected = [lattice_count(P, G, k) for k in (1, 4, 7)]
        rows = list(P.ineqs)
        rng.shuffle(rows)
        Q = ClebschGordanPolytope(P.dim, tuple(rows))
        assert [lattice_count(Q, G, k) for k in (1, 4, 7)] == expected


def test_lattice_count_reads_the_polytope():
    # Dropping any one cap row admits points the cap excluded, so the count
    # rises: the route takes its constraints from P, not from the graph.
    for g in (2, 3):
        for G in generate_genus_graphs(g):
            P = build_polytope(G)
            base = lattice_count(P, G, 2)
            caps = [i for i, (_, b) in enumerate(P.ineqs) if b == 2]
            assert caps
            for i in caps:
                Q = ClebschGordanPolytope(P.dim, P.ineqs[:i] + P.ineqs[i + 1 :])
                assert lattice_count(Q, G, 2) > base


def _theta_with_a_wide_row() -> ClebschGordanPolytope:
    """Theta's polytope and the redundant row c_0 / 2^61 <= 1, written
    c_0 <= 2^61: of magnitude 1 + 2^61 * k at level k."""
    P = build_polytope(THETA)
    return ClebschGordanPolytope(P.dim, (*P.ineqs, ((1, 0, 0), 2**61)))


def test_lattice_count_int64_guard():
    # The wide row stays below the 2^62 working limit at k = 1 and reaches
    # it at k = 2.
    P = _theta_with_a_wide_row()
    assert lattice_count(P, THETA, 1) == 4
    with pytest.raises(ValueError, match="2\\^62"):
        lattice_count(P, THETA, 2)


def _lattice_oracle(P: ClebschGordanPolytope, G, k: int, span=None) -> int:
    """Every label vector in span^dim (span = range(k + 1) by default), tested
    exactly against every row."""
    triples = G.vertex_edge_triples()
    count = 0
    for labels in product(span or range(k + 1), repeat=P.dim):
        if any((labels[a] + labels[b] + labels[c]) % 2 for a, b, c in triples):
            continue
        count += _inside(P, [Fraction(j, k) for j in labels])
    return count


def _with_rational_cuts(P: ClebschGordanPolytope) -> ClebschGordanPolytope:
    """P cut by -3c_0 <= -1 and c_1 - c_2/5 <= 2/3, written 15c_1 - 3c_2 <= 10."""
    d = P.dim
    cuts = (
        (tuple(-3 if i == 0 else 0 for i in range(d)), -1),
        (tuple({1: 15, 2: -3}.get(i, 0) for i in range(d)), 10),
    )
    return ClebschGordanPolytope(d, P.ineqs + cuts)


def test_lattice_count_rational_cuts_match_oracle():
    # Cuts with coefficients other than +-1 and +-2 make the interval bounds
    # round: c_0 >= 1/3 needs ceil division, c_1 <= 2/3 + c_2/5 floor.
    for G, k_max in ((THETA, 7), (DUMBBELL, 7), (generate_genus_graphs(3)[2], 3)):
        Q = _with_rational_cuts(build_polytope(G))
        for k in range(1, k_max + 1):
            assert lattice_count(Q, G, k) == _lattice_oracle(Q, G, k), (G, k)


def _signed_box_with_cuts() -> ClebschGordanPolytope:
    """The box [-1, 1]^3 cut by c_0 + c_1 - c_2 <= 1/2 and c_0 + c_1 + c_2
    <= -1/2, each row written times 2."""
    rows = [(a, 1) for a, _ in _box(3).ineqs]
    rows += [((2, 2, -2), 1), ((2, 2, 2), -1)]
    return ClebschGordanPolytope(3, tuple(rows))


def test_lattice_count_reads_the_label_box():
    # Without the cap and with the box widened to c_e <= 2, theta's polytope
    # holds labels up to 2k, e.g. (2, 2, 2) at k = 1.
    P = build_polytope(THETA)
    rows = [(a, 2 * b if b == 1 else b) for a, b in P.ineqs if b != 2]
    Q = ClebschGordanPolytope(P.dim, tuple(rows))
    assert lattice_count(Q, THETA, 1) == _lattice_oracle(Q, THETA, 1, range(3)) == 11
    for k in (2, 3):
        expected = _lattice_oracle(Q, THETA, k, range(2 * k + 1))
        assert lattice_count(Q, THETA, k) == expected
    # Labels run below zero, and c_0 reaches past 0 only because the later
    # labels can be negative.
    Q = _signed_box_with_cuts()
    for k in (1, 2, 3):
        expected = _lattice_oracle(Q, THETA, k, range(-k, k + 1))
        assert lattice_count(Q, THETA, k) == expected


def test_lattice_count_needs_a_label_box():
    # lattice_counts reads each label box from the single-coordinate rows, so
    # a polytope that drops any one of theta's six is not made.
    P = build_polytope(THETA)
    dropped = 0
    for i, (a, b) in enumerate(P.ineqs):
        if sum(1 for c in a if c) == 1:
            dropped += 1
            with pytest.raises(ValueError, match="single-coordinate"):
                ClebschGordanPolytope(P.dim, P.ineqs[:i] + P.ineqs[i + 1 :])
    assert dropped == 6


@pytest.mark.parametrize("g,k_max", [(2, 10), (3, 6), (4, 4)])
def test_lattice_counts_equal_each_level_on_every_class(g, k_max):
    levels = range(1, k_max + 1)
    for G in generate_genus_graphs(g):
        P = build_polytope(G)
        counts = lattice_counts(P, G, levels)
        assert counts == [lattice_count(P, G, k) for k in levels], G
        assert counts == [verlinde_dim(g, k) for k in levels], G


def test_lattice_counts_on_cut_and_widened_polytopes():
    # The polytopes of the rational-cut and label-box tests, every level in
    # one pass: each level reads its own box and row bounds.
    for G, k_max in ((THETA, 7), (DUMBBELL, 7), (generate_genus_graphs(3)[2], 2)):
        Q = _with_rational_cuts(build_polytope(G))
        levels = list(range(1, k_max + 1))
        assert lattice_counts(Q, G, levels) == [_lattice_oracle(Q, G, k) for k in levels]
    P = build_polytope(THETA)
    rows = [(a, 2 * b if b == 1 else b) for a, b in P.ineqs if b != 2]
    Q = ClebschGordanPolytope(P.dim, tuple(rows))
    expected = [_lattice_oracle(Q, THETA, k, range(2 * k + 1)) for k in (1, 2, 3)]
    assert lattice_counts(Q, THETA, [1, 2, 3]) == expected
    Q = _signed_box_with_cuts()
    expected = [_lattice_oracle(Q, THETA, k, range(-k, k + 1)) for k in (1, 2, 3)]
    assert lattice_counts(Q, THETA, [1, 2, 3]) == expected


def test_lattice_counts_take_levels_in_any_order():
    P = build_polytope(DUMBBELL)
    single = {k: lattice_count(P, DUMBBELL, k) for k in (1, 2, 3, 5)}
    levels = [5, 1, 3, 1, 2, 5]
    assert lattice_counts(P, DUMBBELL, levels) == [single[k] for k in levels]
    assert lattice_counts(P, DUMBBELL, []) == []


def test_lattice_counts_require_positive_levels():
    with pytest.raises(ValueError, match="at least 1"):
        lattice_counts(build_polytope(THETA), THETA, [2, 0, 3])


def test_lattice_counts_int64_guard_names_the_level():
    # As in test_lattice_count_int64_guard: level 1 fits, levels 2 and 3 do
    # not, and the error names the least of them.
    P = _theta_with_a_wide_row()
    assert lattice_counts(P, THETA, [1, 1]) == [4, 4]
    with pytest.raises(ValueError, match="at level 2 .* 2\\^62"):
        lattice_counts(P, THETA, [3, 1, 2])


def test_lattice_counts_sliced_frontier(monkeypatch):
    cases = [(G, build_polytope(G)) for g in (2, 3) for G in generate_genus_graphs(g)]
    expected = [lattice_counts(P, G, range(1, 7)) for G, P in cases]
    monkeypatch.setattr(graph, "_FRONTIER_CHUNK", 1)
    assert [lattice_counts(P, G, range(1, 7)) for G, P in cases] == expected


def test_lattice_counts_past_int64_are_exact():
    # The box [0, 7]^2 x [-2^60, 2^60] with theta's parity, j_0 + j_1 + j_2
    # even: 32 label pairs (j_0, j_1) of even sum admit the 2^60 + 1 even
    # j_2, the 32 others the 2^60 odd ones.  The count passes 2^63 while
    # every row stays below the 2^62 working limit.
    n = 2**60
    rows = []
    for e, hi in enumerate((7, 7, n)):
        unit = tuple(1 if i == e else 0 for i in range(3))
        rows.append((unit, hi))
        rows.append((tuple(-c for c in unit), 0 if hi == 7 else n))
    Q = ClebschGordanPolytope(3, tuple(rows))
    assert lattice_counts(Q, THETA, [1]) == [32 * (n + 1) + 32 * n]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_lattice_refinement_under_doubling(k):
    # Every level-k admissible point c = j/k is also a level-2k point c = 2j/2k.
    for G in (THETA, DUMBBELL, generate_genus_graphs(3)[0]):
        coarse = {w.labels for w in enumerate_admissible(G, k)}
        fine = {w.labels for w in enumerate_admissible(G, 2 * k)}
        for labels in coarse:
            assert tuple(2 * j for j in labels) in fine


# ---------------------------------------------------------------------------
# Asymptotics
# ---------------------------------------------------------------------------


def test_asymptotic_table_single_row():
    table = asymptotic_table(THETA, 1)
    assert len(table.rows) == 1
    assert table.extrapolated_limit is None
    assert table.rows[0].count == 4


def test_asymptotic_theta_limit():
    table = asymptotic_table(THETA, 50)
    assert table.volume == Fraction(1, 3)
    assert table.parity_rank == 1
    assert table.volume_parity_corrected == Fraction(1, 6)
    rel = abs(table.extrapolated_limit - Fraction(1, 6)) / Fraction(1, 6)
    assert rel < Fraction(1, 100)


def test_asymptotic_dumbbell_same_limit():
    table = asymptotic_table(DUMBBELL, 50)
    rel = abs(table.extrapolated_limit - Fraction(1, 6)) / Fraction(1, 6)
    assert rel < Fraction(1, 100)


def test_asymptotic_ratios_monotone_converging():
    for G in (THETA, DUMBBELL):
        table = asymptotic_table(G, 50)
        ratios = [r.ratio for r in table.rows if r.level >= 10]
        diffs = [abs(b - a) for a, b in zip(ratios, ratios[1:])]
        assert all(d2 <= d1 for d1, d2 in zip(diffs, diffs[1:]))


def test_asymptotic_genus_three_ties_volume_to_counts():
    # The count route alone must land on volume / 2^rank.
    G = generate_genus_graphs(3)[0]
    table = asymptotic_table(G, 36)
    target = Fraction(2, 45) / 8
    rel = abs(table.extrapolated_limit - target) / target
    assert rel < Fraction(1, 100)
    assert table.leading_coefficient == target


def test_asymptotic_genus_four_exact():
    # Beyond exact_volume's dimension cap: the count polynomial alone gives
    # the growth constant, equal to moment_volume(4) / 2^5 on every class.
    want = [verlinde_dim(4, k) for k in range(1, 21)]
    for G in generate_genus_graphs(4):
        table = asymptotic_table(G, 20)
        assert [r.count for r in table.rows] == want
        assert table.leading_coefficient == Fraction(1, 3780)
        assert table.volume == Fraction(8, 945)
        assert table.volume_parity_corrected == Fraction(1, 3780)


@pytest.mark.parametrize("node", range(5))
def test_asymptotic_rejects_non_polynomial_counts(monkeypatch, node):
    # Theta has d = 3, so contraction runs at k = 0..4; a count off by one at
    # any of them leaves a nonzero fourth difference.
    def perturbed(G, k, **kwargs):
        return count_via_contraction(G, k, **kwargs) + (k == node)

    monkeypatch.setattr(polytope, "count_via_contraction", perturbed)
    with pytest.raises(ValueError, match="not a polynomial of degree 3"):
        asymptotic_table(THETA, 10)


def test_asymptotic_leading_coefficients_through_genus_six():
    cases = [
        (THETA, Fraction(1, 6), 1),
        (generate_genus_graphs(3)[0], Fraction(1, 180), 3),
        (graph._necklace_graph(8), Fraction(1, 75600), 7),
        (graph._necklace_graph(10), Fraction(1, 1496880), 9),
    ]
    for G, want, rank in cases:
        table = asymptotic_table(G, 3)
        assert table.leading_coefficient == want == table.volume_parity_corrected
        assert table.parity_rank == rank


def test_count_polynomial_equals_the_verlinde_polynomial():
    cases = [*generate_genus_graphs(2), *generate_genus_graphs(3), graph._necklace_graph(8)]
    for G in cases:
        table = asymptotic_table(G, 3)
        d = G.edge_count
        assert table.contraction_counts == tuple(
            verlinde_dim(G.genus, k) for k in range(d + 2)
        )
        P = verlinde_polynomial(G.genus)
        assert table.leading_coefficient == Fraction(P.coeffs[-1], P.denominator)


def test_moment_volume_closed_form():
    # 2^(3g-4) |B_(2g-2)| / (2g-2)!
    got = [moment_volume(g) for g in range(2, 8)]
    assert got == [
        Fraction(1, 3),
        Fraction(2, 45),
        Fraction(8, 945),
        Fraction(8, 4725),
        Fraction(32, 93555),
        Fraction(44224, 638512875),
    ]
