"""Tests for admissible weights: validity, enumeration, and fast counting."""

import random
import re
import sys
from itertools import product
from math import prod

import numpy as np
import pytest

from verlinde_lab import graph, weights
from verlinde_lab.budget import BudgetExceeded
from verlinde_lab.fusion import verlinde_dim
from verlinde_lab.graph import (
    TrinionGraph,
    _necklace_graph,
    connected_edge_order,
    dumbbell_graph,
    fusion_move,
    generate_genus_graphs,
    theta_graph,
)
from verlinde_lab.weights import (
    ThetaLabel,
    WeightAssignment,
    bruteforce_counts,
    count_admissible_bruteforce,
    count_via_contraction,
    enumerate_admissible,
    is_admissible,
    vertex_conditions_hold,
)

THETA = theta_graph()
DUMBBELL = dumbbell_graph()


# ---------------------------------------------------------------------------
# Admissibility
# ---------------------------------------------------------------------------


def test_vertex_conditions_parity():
    assert vertex_conditions_hold(1, (1, 1, 0))
    assert not vertex_conditions_hold(1, (1, 0, 0))


def test_theta_admissible_examples():
    assert is_admissible(THETA, WeightAssignment(THETA, 1, (1, 1, 0)))
    assert not is_admissible(THETA, WeightAssignment(THETA, 1, (1, 0, 0)))


def test_zero_weight_always_admissible():
    for g in (2, 3):
        for G in generate_genus_graphs(g):
            for k in (0, 1, 4):
                zero = WeightAssignment(G, k, (0,) * G.edge_count)
                assert is_admissible(G, zero)


def test_dumbbell_loop_parity():
    # Edge order: (loop at v0, bridge, loop at v1); loop label enters twice,
    # so (1, 1, 0) gives the odd triple (1, 1, 1) at vertex 0.
    w = WeightAssignment(DUMBBELL, 1, (1, 1, 0))
    assert not is_admissible(DUMBBELL, w)


def test_domain_mismatch():
    w = WeightAssignment(THETA, 1, (1, 1, 0))
    with pytest.raises(ValueError, match="different graph"):
        is_admissible(DUMBBELL, w)


def test_weight_assignment_validation():
    with pytest.raises(ValueError):
        WeightAssignment(THETA, 1, (1, 1))  # wrong arity
    with pytest.raises(ValueError):
        WeightAssignment(THETA, 1, (2, 0, 0))  # label above level


def test_theta_label_requires_admissibility():
    ThetaLabel(THETA, 1, (1, 1, 0))
    with pytest.raises(ValueError, match="admissible"):
        ThetaLabel(THETA, 1, (1, 0, 0))


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


def test_enumerate_theta_level_one():
    got = [w.labels for w in enumerate_admissible(THETA, 1)]
    assert got == [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)]


def test_enumerate_dumbbell_level_one():
    # Loops free in {0,1}, bridge forced to 0 by parity.
    got = [w.labels for w in enumerate_admissible(DUMBBELL, 1)]
    assert got == [(0, 0, 0), (0, 0, 1), (1, 0, 0), (1, 0, 1)]


def test_enumerate_level_zero():
    for G in (THETA, DUMBBELL, *generate_genus_graphs(3)):
        labels = enumerate_admissible(G, 0)
        assert len(labels) == 1
        assert labels[0].labels == (0,) * G.edge_count


def test_enumerated_labels_equal_checked_labels():
    # Enumeration builds its labels without ThetaLabel's checks; they equal
    # the checked construction, type included.
    for G in (THETA, DUMBBELL, *generate_genus_graphs(3)):
        for k in (0, 1, 4):
            out = enumerate_admissible(G, k)
            assert out == [ThetaLabel(G, k, w.labels) for w in out]
            assert all(type(w) is ThetaLabel and type(w.labels) is tuple for w in out)


def test_enumerate_sorted_and_admissible():
    for G in (THETA, DUMBBELL):
        for k in range(5):
            out = enumerate_admissible(G, k)
            tuples = [w.labels for w in out]
            assert tuples == sorted(tuples)
            assert all(is_admissible(G, w) for w in out)


def _full_scan(G, k):
    """Oracle: test every point of the label cube against is_admissible."""
    hits = set()
    for labels in product(range(k + 1), repeat=G.edge_count):
        if is_admissible(G, WeightAssignment(G, k, labels)):
            hits.add(labels)
    return hits


@pytest.mark.parametrize("k", range(0, 7))
def test_enumerate_matches_full_scan_genus_two(k):
    for G in (THETA, DUMBBELL):
        assert {w.labels for w in enumerate_admissible(G, k)} == _full_scan(G, k)


@pytest.mark.parametrize("k", range(0, 4))
def test_enumerate_matches_full_scan_genus_three(k):
    for G in generate_genus_graphs(3):
        assert {w.labels for w in enumerate_admissible(G, k)} == _full_scan(G, k)


def test_count_bruteforce_examples():
    assert count_admissible_bruteforce(THETA, 1) == 4
    assert count_admissible_bruteforce(THETA, 2) == 10
    assert count_admissible_bruteforce(DUMBBELL, 0) == 1


def test_count_matches_enumeration_length():
    for G in (THETA, DUMBBELL, *generate_genus_graphs(3)):
        for k in range(4):
            assert count_admissible_bruteforce(G, k) == len(enumerate_admissible(G, k))


def test_work_bound():
    with pytest.raises(BudgetExceeded, match="count_via_contraction"):
        count_admissible_bruteforce(THETA, 1000, max_states=10**6)
    with pytest.raises(BudgetExceeded):
        enumerate_admissible(THETA, 1000, max_states=10**6)


def test_work_bound_recursion_limit(frames_left):
    # The search keeps one slice generator per depth on an explicit stack,
    # not one frame per edge, so a recursion limit that leaves fewer than
    # E + 2 frames below _dfs_admissible does not stop it.
    G = _necklace_graph(10)  # genus 6, E = 15
    limit = sys.getrecursionlimit()
    try:
        # count_admissible_bruteforce and _dfs_admissible take two of them.
        sys.setrecursionlimit(limit - frames_left() + G.edge_count + 3)
        assert count_admissible_bruteforce(G, 1) == verlinde_dim(6, 1)
    finally:
        sys.setrecursionlimit(limit)


def _scan_prefixes(G, k):
    """Oracle for the DFS counters, from every label tuple of every prefix.

    A prefix of connected_edge_order is visited when every vertex it
    completes holds; it is pruned when it is shorter than E and no label of
    the next edge completes the vertices that edge completes.
    """
    order = connected_edge_order(G)
    triples = G.vertex_edge_triples()

    def holds(labels, t):  # every vertex whose edges lie in order[:t]
        done = [v for v in triples if set(v) <= set(order[:t])]
        return all(vertex_conditions_hold(k, tuple(labels[e] for e in v)) for v in done)

    nodes = pruned = 0
    for t in range(G.edge_count):
        for prefix in product(range(k + 1), repeat=t):
            labels = dict(zip(order, prefix))
            if not holds(labels, t):
                continue
            nodes += 1
            pruned += not any(holds({**labels, order[t]: j}, t + 1) for j in range(k + 1))
    return nodes, pruned


@pytest.mark.parametrize("k", range(0, 4))
def test_dfs_counters_match_a_scan_of_prefixes(k):
    for G in (THETA, DUMBBELL, *generate_genus_graphs(3)):
        stats: dict = {}
        count_admissible_bruteforce(G, k, stats=stats)
        assert (stats["nodes"], stats["pruned"]) == _scan_prefixes(G, k)


def test_dfs_counters_are_deterministic():
    G = generate_genus_graphs(4)[5]
    first: dict = {}
    second: dict = {}
    assert count_admissible_bruteforce(G, 4, stats=first) == verlinde_dim(4, 4)
    assert count_admissible_bruteforce(G, 4, stats=second) == verlinde_dim(4, 4)
    assert first == second
    assert set(first) == {"nodes", "pruned"} and first["pruned"] > 0


def test_dfs_loop_completes_at_the_last_edge():
    # The dumbbell's last edge is the loop at v1, so its vertex (l, l, b)
    # completes through the loop label: b even, b/2 <= l <= k - b/2.
    order = connected_edge_order(DUMBBELL)
    loop = order[-1]
    assert sorted(DUMBBELL.vertex_edge_triples()[1]) == [order[1], loop, loop]
    for k in range(0, 9):
        want = _full_scan(DUMBBELL, k)
        assert {w.labels for w in enumerate_admissible(DUMBBELL, k)} == want
        assert count_admissible_bruteforce(DUMBBELL, k) == len(want)
        # By the closed form, one prefix (a, b) leaves k - b + 1 loop labels.
        assert len(want) == sum(
            k - b + 1
            for a in range(k + 1)
            for b in range(0, min(2 * a, 2 * k - 2 * a) + 1, 2)
        )


def test_dfs_opposite_parities_at_one_edge_admit_nothing():
    # In this genus-3 class two vertices complete at depth 4 of 6.  A
    # visited prefix whose two sums of earlier labels differ in parity
    # admits no label there, so the DFS prunes it.  Here the count alone
    # would not show a missed clash: the vertex sums add up to twice the
    # label sum, so one odd vertex needs a second, and this graph has no
    # other depth to hide one.  The counters show it.
    G = generate_genus_graphs(3)[2]
    order = connected_edge_order(G)
    t = 4
    e = order[t]
    triples = G.vertex_edge_triples()
    done = [v for v in triples if set(v) <= set(order[:t])]
    others = [[x for x in v if x != e] for v in triples if e in v and set(v) <= set(order[: t + 1])]
    assert len(others) == 2 and all(len(o) == 2 for o in others)
    for k in range(1, 5):
        clashing = 0
        for prefix in product(range(k + 1), repeat=t):
            labels = dict(zip(order, prefix))
            if all(vertex_conditions_hold(k, tuple(labels[x] for x in v)) for v in done):
                sums = [labels[x] + labels[y] for x, y in others]
                clashing += (sums[0] - sums[1]) % 2
        assert clashing > 0
        stats: dict = {}
        assert count_admissible_bruteforce(G, k, stats=stats) == len(_full_scan(G, k))
        assert (stats["nodes"], stats["pruned"]) == _scan_prefixes(G, k)


@pytest.mark.parametrize("k", (1, 2))
def test_bruteforce_equals_contraction_on_the_genus_six_necklace(k):
    G = _necklace_graph(10)
    n = count_admissible_bruteforce(G, k, max_states=(k + 1) ** G.edge_count)
    assert n == count_via_contraction(G, k) == verlinde_dim(6, k)


@pytest.mark.parametrize("genus, top", [(2, 16), (3, 8), (4, 4)])
def test_bruteforce_counts_equal_the_single_level_counts(genus, top):
    # One search at the top level counts every level below it, with the
    # counters of the single-level search at the top.
    levels = range(top + 1)
    for G in generate_genus_graphs(genus):
        stats: dict = {}
        single: dict = {}
        got = bruteforce_counts(G, levels, stats=stats)
        assert got == {k: count_admissible_bruteforce(G, k) for k in levels}
        count_admissible_bruteforce(G, top, stats=single)
        assert stats == single


def test_bruteforce_counts_takes_levels_in_any_order():
    G = generate_genus_graphs(3)[1]
    want = {k: count_admissible_bruteforce(G, k) for k in (1, 2, 3, 5)}
    assert bruteforce_counts(G, [5, 1, 3, 1, 5]) == {k: want[k] for k in (1, 3, 5)}
    assert bruteforce_counts(G, (3, 2)) == {2: want[2], 3: want[3]}
    assert bruteforce_counts(G, [0]) == {0: 1}
    assert bruteforce_counts(G, []) == {}
    with pytest.raises(ValueError, match="non-negative"):
        bruteforce_counts(G, [2, -1])


def test_bruteforce_counts_leave_out_the_levels_past_the_budget():
    # E = 9 at genus 4: 5^9 fits the default 10^7 states and 6^9 does not.
    G = generate_genus_graphs(4)[3]
    got = bruteforce_counts(G, range(7))
    assert list(got) == [0, 1, 2, 3, 4]
    assert got == {k: count_admissible_bruteforce(G, k) for k in range(5)}
    with pytest.raises(BudgetExceeded):
        count_admissible_bruteforce(G, 5)
    assert bruteforce_counts(G, range(7), max_states=5**9 - 1) == {k: got[k] for k in range(4)}
    # With no level admitted, the lowest one is refused, before any search.
    stats: dict = {}
    message = "(k+1)^E = 1 exceeds the 0 state budget; use count_via_contraction instead"
    with pytest.raises(BudgetExceeded, match=re.escape(message)):
        bruteforce_counts(G, range(7), max_states=0, stats=stats)
    assert stats == {}
    with pytest.raises(BudgetExceeded, match=re.escape("(k+1)^E = 19683 exceeds")):
        bruteforce_counts(G, [3, 2], max_states=3**9 - 1)


@pytest.mark.parametrize("k", (0, 1, 2, 4))
def test_search_slices_leave_counts_counters_and_labelings_alone(k, monkeypatch):
    # A bound of two cells splits every frontier past the root into slices
    # of one parent's children each, against none split at the default
    # bound.  The prefixes visited are the same, so everything read off
    # them is too.
    graphs = (THETA, DUMBBELL, *generate_genus_graphs(3), *generate_genus_graphs(4)[::5][:2])

    def search():
        out = []
        for G in graphs:
            single: dict = {}
            levels: dict = {}
            out.append(
                (
                    count_admissible_bruteforce(G, k, stats=single),
                    single,
                    bruteforce_counts(G, range(k + 1), stats=levels),
                    levels,
                    [w.labels for w in enumerate_admissible(G, k)],
                )
            )
        return out

    whole = search()
    monkeypatch.setattr(graph, "_FRONTIER_CHUNK", 2)
    assert search() == whole


def test_bruteforce_counts_recursion_limit(frames_left):
    # As for count_admissible_bruteforce: fewer than E + 2 frames below
    # _dfs_admissible, and bruteforce_counts and _dfs_admissible take two.
    G = _necklace_graph(10)  # genus 6, E = 15
    limit = sys.getrecursionlimit()
    try:
        sys.setrecursionlimit(limit - frames_left() + G.edge_count + 3)
        assert bruteforce_counts(G, [0, 1]) == {0: 1, 1: verlinde_dim(6, 1)}
    finally:
        sys.setrecursionlimit(limit)


@pytest.mark.parametrize(
    "graphs, top",
    [((THETA, DUMBBELL), 8), (tuple(generate_genus_graphs(3)), 5)],
    ids=["genus-2", "genus-3"],
)
def test_a_labeling_is_admissible_below_its_level_by_its_largest_vertex_sum(graphs, top):
    # The identity bruteforce_counts rests on: admissible at level top, a
    # labeling is admissible at k <= top exactly when every vertex sum is at
    # most 2k, its labels then lying in [0, k] by condition (3).
    for G in graphs:
        triples = G.vertex_edge_triples()
        for w in enumerate_admissible(G, top):
            largest = max(sum(w.labels[e] for e in v) for v in triples)
            for k in range(top + 1):
                fits = max(w.labels) <= k and is_admissible(G, WeightAssignment(G, k, w.labels))
                assert fits == (largest <= 2 * k)


# ---------------------------------------------------------------------------
# Contraction counting
# ---------------------------------------------------------------------------


def test_contraction_equals_bruteforce_dumbbell():
    assert count_via_contraction(DUMBBELL, 3) == count_admissible_bruteforce(DUMBBELL, 3)


@pytest.mark.parametrize("k", range(0, 7))
def test_contraction_equals_bruteforce_all_desk_graphs(k):
    for g in (2, 3, 4):
        for G in generate_genus_graphs(g):
            if (k + 1) ** G.edge_count <= weights.DEFAULT_MAX_STATES:
                assert count_via_contraction(G, k) == count_admissible_bruteforce(G, k)


def _stored_cells(width, k):
    """Cells of the even patterns on ``width`` edges, summed pattern by pattern."""
    sizes = (k // 2 + 1, (k + 1) // 2)  # even and odd labels in [0, k]
    return sum(
        prod(sizes[p] for p in pattern)
        for pattern in product((0, 1), repeat=width)
        if sum(pattern) % 2 == 0
    )


@pytest.mark.parametrize("k", range(0, 13))
def test_vertex_blocks_reassemble_dense_tensor(k):
    for width in (1, 3):
        blocks = weights._vertex_blocks(width, k)
        assert all(sum(p) % 2 == 0 for p in blocks)
        assert sum(b.size for b in blocks.values()) == _stored_cells(width, k)
        dense = np.zeros((k + 1,) * width)
        for pattern, block in blocks.items():
            dense[tuple(slice(p, None, 2) for p in pattern)] = block
        for labels in product(range(k + 1), repeat=width):
            if width == 3:
                want = vertex_conditions_hold(k, labels)
            else:  # a loop vertex (l, l, t), summed over its loop label l
                want = sum(vertex_conditions_hold(k, (l, l, *labels)) for l in range(k + 1))
            assert dense[labels] == want, labels


def _dense_vertex_blocks(width, k):
    """The even-parity blocks built by broadcasting the triangle and cap
    bounds over each pattern's 3-D grid of labels."""
    labels = (np.arange(0, k + 1, 2), np.arange(1, k + 1, 2))
    if width == 1:
        return {(0,): k + 1.0 - labels[0]}
    blocks = {}
    for pa, pb, pc in ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)):
        a, b, c = labels[pa][:, None], labels[pb][None, :], labels[pc]
        lo = np.abs(a - b)[..., None]
        hi = np.minimum(a + b, 2 * k - a - b)[..., None]
        blocks[pa, pb, pc] = ((lo <= c) & (c <= hi)).astype(np.float64)
    return blocks


@pytest.mark.parametrize("k", [*range(0, 13), 200])
def test_vertex_blocks_equal_the_broadcast_construction(k):
    for width in (1, 3):
        blocks = weights._vertex_blocks(width, k)
        expected = _dense_vertex_blocks(width, k)
        assert list(blocks) == list(expected)
        for pattern, block in expected.items():
            assert blocks[pattern].dtype == np.float64
            assert blocks[pattern].shape == block.shape
            assert np.array_equal(blocks[pattern], block), (width, k, pattern)


def test_contraction_plan_is_built_once_per_pairing():
    G = generate_genus_graphs(3)[2]
    weights._contraction_plan.cache_clear()
    for k in range(5):
        count_via_contraction(G, k)
    count_via_contraction(type(G)(G.pairing), 5)
    info = weights._contraction_plan.cache_info()
    assert (info.misses, info.hits) == (1, 5)
    widths, merges = weights._contraction_plan(G.pairing)
    assert len(widths) == G.vertex_count and len(merges) == G.vertex_count - 1
    assert merges[-1].out == ()


def test_building_a_plan_leaves_the_vertex_block_cache_alone():
    # Plans are level-free: they read the even parity patterns of each
    # width, not the blocks of some level.
    weights._contraction_plan.cache_clear()
    before = weights._vertex_blocks.cache_info()
    for g in (2, 3, 4):
        for G in generate_genus_graphs(g):
            for m in weights._contraction_plan(G.pairing)[1]:
                for _, _, out in m.pairs:
                    assert len(out) == m.width and sum(out) % 2 == 0
    assert weights._vertex_blocks.cache_info() == before


def test_contraction_budget_fails_before_any_merge(monkeypatch):
    # The plan knows every tensor's width, so a budget that only the third
    # merge, of width 4, exceeds raises before the first merge runs.
    merges = []
    monkeypatch.setattr(weights, "_merge", lambda *args: merges.append(args))
    G = generate_genus_graphs(4)[3]
    _, plan = weights._contraction_plan(G.pairing)
    assert [m.width for m in plan] == [2, 3, 4, 3, 0]
    with pytest.raises(BudgetExceeded, match="frontier of 4 open edges"):
        count_via_contraction(G, 4, max_frontier=_stored_cells(4, 4) - 1)
    assert merges == []


@pytest.mark.parametrize("k", range(0, 8))
def test_merged_tensors_store_the_closed_form_cells(k, monkeypatch):
    # Every merge of a connected graph fills all even patterns of its open
    # edges, so it stores ((n0+n1)^w + (n0-n1)^w)/2 cells, n0 even labels and
    # n1 odd ones; the budget and peak_cells read that closed form.
    n0, n1 = k // 2 + 1, (k + 1) // 2
    seen = []
    merge = weights._merge

    def recording_merge(*args):
        edges, blocks = merge(*args)
        seen.append((len(edges), sum(np.size(b) for b in blocks.values())))
        assert all(sum(p) % 2 == 0 for p in blocks)
        return edges, blocks

    monkeypatch.setattr(weights, "_merge", recording_merge)
    for G in (*generate_genus_graphs(3), _necklace_graph(8)):
        seen.clear()
        stats: dict = {}
        count_via_contraction(G, k, stats=stats)
        for width, cells in seen:
            assert cells == _stored_cells(width, k)
            assert cells == ((n0 + n1) ** width + (n0 - n1) ** width) // 2
        # Each of these graphs has a plain vertex, of width 3.
        widths = [3] + [width for width, _ in seen]
        assert stats["peak_cells"] == max(_stored_cells(w, k) for w in widths)


def test_contraction_tetrahedron_level_fifty():
    G = generate_genus_graphs(3)[1]
    # K4: every two of the four vertices share exactly one edge.
    triples = [set(t) for t in G.vertex_edge_triples()]
    assert len(triples) == 4
    assert all(len(s & t) == 1 for i, s in enumerate(triples) for t in triples[:i])
    assert count_via_contraction(G, 50) == verlinde_dim(3, 50) == 110242756


@pytest.mark.parametrize("k", range(0, 7))
def test_contraction_exact_path_equals_bruteforce(k, monkeypatch):
    # A bound of 1 sends the first merge, and every later one, to Python ints.
    monkeypatch.setattr(weights, "_FLOAT_EXACT_LIMIT", 1)
    for g in (2, 3):
        for G in generate_genus_graphs(g):
            stats: dict = {}
            count = count_via_contraction(G, k, stats=stats)
            assert stats["int_from_merge"] == 0
            assert type(count) is int
            assert count == count_admissible_bruteforce(G, k)


def test_contraction_switches_to_ints_past_two_pow_53():
    # Both counts reach 2^53, where float64 alone rounds them.
    for G, k, last_merge in ((_necklace_graph(12), 20, 10), (_necklace_graph(14), 16, 12)):
        stats: dict = {}
        count = count_via_contraction(G, k, stats=stats)
        assert type(count) is int
        assert count == verlinde_dim(G.genus, k) >= 2**53
        assert stats["int_from_merge"] == last_merge == G.vertex_count - 2


def test_contraction_genus_five_level_forty_stays_float():
    G = _necklace_graph(8)
    stats: dict = {}
    count = count_via_contraction(G, 40, stats=stats)
    assert type(count) is int
    assert count == verlinde_dim(5, 40) == 401562940621745
    assert stats["int_from_merge"] is None


def test_contraction_stats():
    stats: dict = {}
    count_via_contraction(THETA, 50, stats=stats)
    # Even-parity blocks store ((k+1)^w + 1)/2 cells at even k; theta's one
    # merge spans its three edges and multiplies each stored cell once.
    assert stats == {
        "peak_cells": (51**3 + 1) // 2,
        "int_from_merge": None,
        "plan_cost": (51**3 + 1) // 2,
        "peak_union": 3,
    }
    runs = []
    for _ in range(2):
        stats = {}
        count_via_contraction(_necklace_graph(12), 20, stats=stats)
        runs.append(stats)
    assert runs[0] == runs[1] == {
        "peak_cells": (21**3 + 1) // 2,
        "int_from_merge": 10,
        "plan_cost": 301991,
        "peak_union": 4,
    }


def _even_even_labelings(edges_a, edges_b, k):
    """Labelings in [0, k] of the edges of a and b together whose sum over
    a's edges and whose sum over b's edges are both even."""
    union = sorted(set(edges_a) | set(edges_b))
    labels = np.indices((k + 1,) * len(union)).reshape(len(union), -1)
    axis = {e: i for i, e in enumerate(union)}
    sum_a = sum(labels[axis[e]] for e in edges_a)
    sum_b = sum(labels[axis[e]] for e in edges_b)
    return int(np.count_nonzero((sum_a % 2 == 0) & (sum_b % 2 == 0)))


@pytest.mark.parametrize("k", [0, 1, 4])
def test_plan_cost_counts_the_labelings_each_merge_admits(k):
    # A block pair multiplies M*K*N cells, one per labeling of the merge's
    # edges with the pair's parities, so a merge costs the labelings whose
    # parity both operands admit: an even sum over each one's edges.
    for G in (DUMBBELL, *generate_genus_graphs(3), *generate_genus_graphs(4)):
        stats: dict = {}
        count_via_contraction(G, k, stats=stats)
        _, merges = weights._contraction_plan(G.pairing)
        want = sum(_even_even_labelings(m.edges_a, m.edges_b, k) for m in merges)
        assert stats["plan_cost"] == want
        assert stats["peak_union"] == max(len(set(m.edges_a) | set(m.edges_b)) for m in merges)


def test_genus_four_classes_at_level_24():
    classes = generate_genus_graphs(4)
    assert len(classes) == 17
    for G in classes:
        assert count_via_contraction(G, 24) == verlinde_dim(4, 24)
    # Class 2 has the widest merge, over six edges.
    stats: dict = {}
    count_via_contraction(classes[2], 24, stats=stats)
    assert stats["peak_union"] == 6


# Genus 5: the one class of 71 whose plan copies an operand.
_COPYING = TrinionGraph(
    (15, 18, 21, 12, 19, 22, 9, 16, 23, 6, 13, 20, 3, 10, 17, 0, 7, 14, 1, 4, 11, 2, 5, 8)
)


def _even_patterns(width):
    return [p for p in product((0, 1), repeat=width) if sum(p) % 2 == 0]


def _dense(blocks, width, k, dtype):
    dense = np.zeros((k + 1,) * width, dtype=dtype)
    for pattern, block in blocks.items():
        dense[tuple(slice(p, None, 2) for p in pattern)] = block
    return dense


@pytest.mark.parametrize("dtype", [np.float64, object])
@pytest.mark.parametrize("k", [0, 1, 2, 5])
def test_merge_equals_a_dense_einsum_reference(k, dtype):
    # Random integer blocks on every merge of plans with stacked products,
    # transposed views and a copied operand; at k = 0 the odd blocks are
    # empty.  Object entries reach 2^70, past float64.
    rng = np.random.default_rng(k)
    sizes = (k // 2 + 1, (k + 1) // 2)
    top = 2**70 if dtype is object else 2**12

    def random_blocks(width):
        blocks = {}
        for pattern in _even_patterns(width):
            shape = [sizes[p] for p in pattern]
            cells = [int(x) for x in rng.integers(0, 2**12, size=prod(shape))]
            block = np.array([x * top // 2**12 for x in cells], dtype=dtype)
            blocks[pattern] = block.reshape(shape)
        return blocks

    graphs = (DUMBBELL, generate_genus_graphs(3)[1], generate_genus_graphs(4)[2], _COPYING)
    seen = set()
    for G in graphs:
        for m in weights._contraction_plan(G.pairing)[1]:
            seen.add((m.view_a[0] is not None, len(m.view_a[1]), len(m.view_b[1])))
            a = random_blocks(len(m.edges_a))
            b = random_blocks(len(m.edges_b))
            edges, merged = weights._merge(m, a, b, sizes)
            assert edges == m.out
            want = np.einsum(
                _dense(a, len(m.edges_a), k, dtype),
                list(m.edges_a),
                _dense(b, len(m.edges_b), k, dtype),
                list(m.edges_b),
                list(m.out),
            )
            assert sorted(merged) == _even_patterns(len(m.out))
            assert np.array_equal(_dense(merged, len(m.out), k, dtype), want)
            assert all(block.dtype == dtype for block in merged.values())
    # Both kinds of product ran, a stacked one on either side, and a copy.
    assert {(False, 3, 3), (False, 4, 3), (False, 3, 4), (True, 3, 4)} <= seen


def test_vertex_blocks_are_read_only_and_shared_within_a_level():
    classes = generate_genus_graphs(4)
    weights._vertex_blocks.cache_clear()
    for G in classes:
        assert count_via_contraction(G, 7) == verlinde_dim(4, 7)
    info = weights._vertex_blocks.cache_info()
    # One build per width, 1 and 3; every other vertex a hit.
    assert (info.misses, info.hits) == (2, len(classes) * 6 - 2)
    for width in (1, 3):
        blocks = weights._vertex_blocks(width, 7)
        for block in blocks.values():
            with pytest.raises(ValueError, match="read-only"):
                block[(0,) * width] = 5.0
    assert weights._vertex_blocks(3, 7) is weights._vertex_blocks(3, 7)


def _greedy_steps_all_pairs(edges):
    """Reference: scan every live pair at every merge for the least
    (open edges left, position, position) among pairs sharing an edge."""
    sets = [set(e) for e in edges]
    live = list(range(len(edges)))
    steps = []
    while len(live) > 1:
        _, i, j = min(
            (len(sets[live[i]] ^ sets[live[j]]), i, j)
            for i in range(len(live))
            for j in range(i + 1, len(live))
            if sets[live[i]] & sets[live[j]]
        )
        a, b = live[i], live[j]
        steps.append((a, b))
        live = [s for s in live if s not in (a, b)] + [len(sets)]
        sets.append(sets[a] ^ sets[b])
    return steps, sets


def _walk_graph(g: int, seed: int) -> TrinionGraph:
    rng = random.Random(seed)
    G = _necklace_graph(2 * g - 2)
    for _ in range(10 * g):
        non_loops = [i for i, (x, y) in enumerate(G.edges) if x // 3 != y // 3]
        G = fusion_move(G, rng.choice(non_loops), rng.randrange(2))
    return G


def _open_edges(G: TrinionGraph) -> list[tuple[int, ...]]:
    return [tuple(e for e in sorted(set(t)) if t.count(e) == 1) for t in G.vertex_edge_triples()]


def test_greedy_steps_equal_an_all_pairs_scan():
    graphs = [G for g in (2, 3, 4) for G in generate_genus_graphs(g)]
    graphs += [_necklace_graph(n) for n in (8, 18, 58)]
    graphs += [_walk_graph(g, seed) for g in (6, 15) for seed in (0, 2)]
    for G in graphs:
        edges = _open_edges(G)
        assert weights._greedy_steps(edges) == _greedy_steps_all_pairs(edges), G.pairing


def test_greedy_steps_scale_to_the_genus_four_hundred_necklace():
    steps, sets = weights._greedy_steps(_open_edges(_necklace_graph(798)))
    assert len(steps) == 797 and sets[-1] == set()
    assert sorted(s for step in steps for s in step) == list(range(len(sets) - 1))


def test_plans_copy_no_operand_through_genus_four():
    # The plan fixes axis orders so that every block reshapes into its
    # matrix as a view, on every graph through genus 4 and on necklaces.
    graphs = [G for g in (2, 3, 4) for G in generate_genus_graphs(g)]
    graphs += [_necklace_graph(n) for n in (8, 14, 40)]
    for G in graphs:
        _, merges = weights._contraction_plan(G.pairing)
        assert all(m.view_a[0] is None and m.view_b[0] is None for m in merges), G.pairing
    assert count_via_contraction(_COPYING, 6) == verlinde_dim(5, 6)


def test_contraction_theta_level_fifty_matches_verlinde():
    assert count_via_contraction(THETA, 50) == verlinde_dim(2, 50)


def test_contraction_theta_level_two_hundred_matches_verlinde():
    count = count_via_contraction(THETA, 200)
    assert type(count) is int
    assert count == verlinde_dim(2, 200)


def test_contraction_level_zero():
    for G in (THETA, DUMBBELL, *generate_genus_graphs(3)):
        assert count_via_contraction(G, 0) == 1


@pytest.mark.parametrize("k", [*range(0, 7), 40])
def test_graph_independence_and_verlinde_agreement(k):
    for g in (2, 3):
        counts = {count_via_contraction(G, k) for G in generate_genus_graphs(g)}
        assert counts == {verlinde_dim(g, k)}


def test_genus_two_closed_form():
    # Rank at genus 2 is the simplex count (k+1)(k+2)(k+3)/6; cross-checked
    # against the trigonometric formula over a wide range and against the
    # weight count over a modest one.
    for k in range(0, 21):
        closed = (k + 1) * (k + 2) * (k + 3) // 6
        assert verlinde_dim(2, k) == closed
    for k in range(0, 13):
        closed = (k + 1) * (k + 2) * (k + 3) // 6
        assert count_via_contraction(THETA, k) == closed


def test_genus_three_counts_frozen():
    # Sequence produced identically by contraction, brute force and the
    # trigonometric formula (see the agreement tests above).
    expected = [1, 8, 36, 120, 329, 784, 1680]
    G = generate_genus_graphs(3)[0]
    assert [count_via_contraction(G, k) for k in range(7)] == expected


def test_fusion_move_invariance():
    # Checked independently for every non-loop edge and both regroupings.
    for g in (2, 3):
        for G in generate_genus_graphs(g):
            non_loops = [
                i for i, (h, q) in enumerate(G.edges) if h // 3 != q // 3
            ]
            for e in non_loops:
                for variant in (0, 1):
                    H = fusion_move(G, e, variant)
                    for k in (1, 3):
                        assert count_via_contraction(H, k) == count_via_contraction(G, k)


def test_frontier_budget():
    with pytest.raises(BudgetExceeded, match="budget"):
        count_via_contraction(generate_genus_graphs(3)[0], 9, max_frontier=10)


def test_frontier_budget_checked_before_allocation():
    # A theta vertex tensor at k = 10^4 would need 10^12 cells.
    with pytest.raises(BudgetExceeded, match=r"\(k\+1\)\^3"):
        count_via_contraction(THETA, 10**4)


def test_contraction_rejects_negative_level():
    with pytest.raises(ValueError):
        count_via_contraction(THETA, -1)


# ---------------------------------------------------------------------------
# Theta basis and interchange
# ---------------------------------------------------------------------------


def test_theta_basis_sizes():
    assert len(enumerate_admissible(THETA, 1)) == 4 == verlinde_dim(2, 1)
    assert len(enumerate_admissible(DUMBBELL, 2)) == 10 == verlinde_dim(2, 2)
    assert len(enumerate_admissible(THETA, 0)) == 1


def test_theta_basis_entries_are_labels():
    basis = enumerate_admissible(DUMBBELL, 2)
    assert all(isinstance(w, ThetaLabel) for w in basis)
    # The theta basis is indexed in a fixed order: two calls agree.
    assert [w.labels for w in basis] == [w.labels for w in enumerate_admissible(DUMBBELL, 2)]
