"""Acceptance suite: the headline cross-checks at desk scale.

Each criterion is one test; on success it prints a single
``ACCEPTANCE <n> PASS`` line with its runtime (visible with ``pytest -s``),
and pytest's own PASSED/FAILED line mirrors the verdict.  Tolerances and
runtime budgets are fixed here, not tuned: integer equalities are exact,
the Verlinde rank is exact rational arithmetic, Monte Carlo 4 sigma, the
extrapolated asymptotic limit 1 percent, and the leading coefficient of the
count polynomial is exact.
"""

import random
import time
from fractions import Fraction
from itertools import product

from verlinde_lab import abelian, fusion, graph, polytope, weights

BUDGETS = {1: 10.0, 3: 60.0, 4: 60.0, 5: 30.0}


def _finish(n: int, description: str, start: float):
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {n} PASS: {description} ({elapsed:.2f}s)")
    budget = BUDGETS.get(n)
    if budget is not None:
        assert elapsed < budget, f"criterion {n} took {elapsed:.2f}s, budget {budget}s"


def test_criterion_1_verlinde_weight_agreement():
    start = time.perf_counter()
    for g in (2, 3):
        for G in graph.generate_genus_graphs(g):
            for k in range(0, 7):
                dim = fusion.verlinde_dim(g, k)  # exact; no rounding inside
                assert weights.count_via_contraction(G, k) == dim
    _finish(1, "contraction count equals Verlinde dimension, g in {2,3}, k <= 6", start)


def test_criterion_2_graph_independence():
    start = time.perf_counter()
    for g in (2, 3):
        for k in range(0, 7):
            counts = {
                weights.count_via_contraction(G, k)
                for G in graph.generate_genus_graphs(g)
            }
            assert len(counts) == 1, f"g={g}, k={k}: counts differ: {counts}"
    g2 = graph.generate_genus_graphs(2)
    for k, expected in ((1, 4), (2, 10), (3, 20)):
        for G in g2:
            assert weights.count_via_contraction(G, k) == expected
    _finish(2, "counts identical across all graphs per genus; N1,N2,N3 = 4,10,20", start)


def test_criterion_3_oracle_equivalence():
    start = time.perf_counter()
    budget = 10**7
    cases = 0
    for g in (2, 3):
        for G in graph.generate_genus_graphs(g):
            for k in range(0, 7):
                assert (k + 1) ** G.edge_count <= budget
                brute = weights.count_admissible_bruteforce(G, k, max_states=budget)
                assert brute == weights.count_via_contraction(G, k)
                cases += 1
    for G in graph.generate_genus_graphs(2):
        for k in (15, 30, 50):
            assert (k + 1) ** G.edge_count <= budget
            brute = weights.count_admissible_bruteforce(G, k, max_states=budget)
            assert brute == weights.count_via_contraction(G, k)
            cases += 1
    _finish(3, f"brute force equals contraction on {cases} in-budget cases", start)


def test_criterion_4_polytope_volume():
    start = time.perf_counter()
    for G in graph.generate_genus_graphs(2):
        assert polytope.exact_volume(polytope.build_polytope(G)) == Fraction(1, 3)
    g3_volumes = {
        polytope.exact_volume(polytope.build_polytope(G))
        for G in graph.generate_genus_graphs(3)
    }
    assert len(g3_volumes) == 1
    for g in (2, 3):
        for i, G in enumerate(graph.generate_genus_graphs(g)):
            P = polytope.build_polytope(G)
            exact = float(polytope.exact_volume(P))
            estimate, stderr = polytope.mc_volume(P, 10**6, rng_seed=1000 * g + i)
            assert abs(estimate - exact) <= 4.0 * stderr
    _finish(4, "exact volumes 1/3 (g=2) and shared (g=3); Monte Carlo within 4 sigma", start)


def test_criterion_5_asymptotics():
    start = time.perf_counter()
    for G in graph.generate_genus_graphs(2):
        table = polytope.asymptotic_table(G, 50)
        # The report carries both constants: the bare volume law and the
        # parity-thinned one the counts actually follow.
        assert table.volume == Fraction(1, 3)
        assert table.parity_rank == 1
        assert table.volume_parity_corrected == Fraction(1, 6)
        rel = abs(table.extrapolated_limit - Fraction(1, 6)) / Fraction(1, 6)
        assert rel <= Fraction(1, 100), f"relative error {float(rel):.4%}"
        assert table.leading_coefficient == Fraction(1, 6)
    _finish(5, "N_k has leading coefficient 1/6 = vol/2^r; k <= 50 extrapolates within 1%", start)


def test_criterion_6_abelian_counts():
    start = time.perf_counter()
    for g in range(1, 5):
        for k in range(1, 6):
            F = abelian.TorusFibration(g, k)
            pts = abelian.bs_points(F)
            assert len(pts) == k**g
            assert len({p.values for p in pts}) == k**g
    for g in (1, 2):
        for k in range(1, 5):
            pts = abelian.bs_points(abelian.TorusFibration(g, k))
            zero = abelian.Characteristic(g, k, (0,) * g)
            for w in pts:
                assert abelian.translate_label(w, zero) == w
            for w, v, u in product(pts, repeat=3):
                assert abelian.translate_label(
                    abelian.translate_label(w, v), u
                ) == abelian.translate_label(w, abelian.translate_label(v, u))
    _finish(6, "k^g labels for g <= 4, k <= 5; translation group laws exhaustive", start)


def _brute_force_count(comp: abelian.MultisectionComponent) -> int:
    g = len(comp.matrix)
    ranges = []
    for i in range(g):
        lo = sum(min(0, comp.matrix[i][j]) for j in range(g)) + comp.shift[i]
        hi = sum(max(0, comp.matrix[i][j]) for j in range(g)) + comp.shift[i]
        ranges.append(range(int(lo) - 1, int(hi) + 2))
    count = 0
    for m in product(*ranges):
        aug = [
            [Fraction(comp.matrix[i][j]) for j in range(g)]
            + [Fraction(m[i]) - comp.shift[i]]
            for i in range(g)
        ]
        ok = True
        for col in range(g):
            piv = next((r for r in range(col, g) if aug[r][col] != 0), None)
            if piv is None:
                ok = False
                break
            aug[col], aug[piv] = aug[piv], aug[col]
            aug[col] = [x / aug[col][col] for x in aug[col]]
            for r in range(g):
                if r != col and aug[r][col] != 0:
                    f = aug[r][col]
                    aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
        if ok and all(0 <= aug[i][g] < 1 for i in range(g)):
            count += 1
    return count


def _det(M):
    n = len(M)
    if n == 1:
        return M[0][0]
    return sum(
        (-1) ** j * M[0][j] * _det([row[:j] + row[j + 1 :] for row in M[1:]])
        for j in range(n)
    )


def test_criterion_7_gft_counts():
    start = time.perf_counter()
    rng = random.Random(424242)
    cases = 0
    while cases < 10:
        g = rng.choice([1, 2, 3])
        A = [[rng.randint(-4, 4) for _ in range(g)] for _ in range(g)]
        d = _det(A)
        if d == 0 or abs(d) > 24:
            continue
        cases += 1
        counts = set()
        for _ in range(5):
            shift = tuple(Fraction(rng.randint(0, 9), 10) for _ in range(g))
            comp = abelian.MultisectionComponent(
                tuple(tuple(row) for row in A), shift
            )
            M = abelian.AffineMultisection(g, (comp,))
            n = abelian.gft_intersection_count(M)
            assert n == _brute_force_count(comp)
            assert n == len(abelian.e_bs_fibres(M))
            counts.add(n)
        assert counts == {abs(d)}, "count must be shift-invariant and equal |det|"
    _finish(7, "10 random matrices (|det| <= 24): fibre count = brute force, shift-invariant", start)

