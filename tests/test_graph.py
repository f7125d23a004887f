"""Tests for trinion graphs: canonicalization, generation, fusion moves."""

import json
import random
from functools import lru_cache
from itertools import permutations
from unittest import mock

import pytest

from verlinde_lab import graph
from verlinde_lab.graph import (
    TrinionGraph,
    canonical_form,
    class_name,
    connected_edge_order,
    dumbbell_graph,
    from_json_dict,
    fusion_move,
    generate_genus_graphs,
    graph_from_canonical,
    graph_json_bytes,
    load_graph,
    save_graph,
    theta_graph,
    to_json_dict,
)


@lru_cache(maxsize=None)
def _classes(g: int) -> tuple[TrinionGraph, ...]:
    return tuple(generate_genus_graphs(g))


def _nx_multigraph(G: TrinionGraph):
    """Test-only oracle view: a networkx MultiGraph with loops as self-loops."""
    import networkx as nx

    M = nx.MultiGraph()
    M.add_nodes_from(range(G.vertex_count))
    M.add_edges_from((h // 3, q // 3) for h, q in G.edges)
    return M


def _pairwise_non_isomorphic(graphs) -> bool:
    import networkx as nx

    nets = [_nx_multigraph(G) for G in graphs]
    return not any(nx.is_isomorphic(a, b) for i, a in enumerate(nets) for b in nets[:i])


def k4_graph() -> TrinionGraph:
    # Complete graph on 4 vertices; every vertex 3-valent, E=6, genus 3.
    pairing = [-1] * 12
    slots = {v: iter((3 * v, 3 * v + 1, 3 * v + 2)) for v in range(4)}
    for v in range(4):
        for u in range(v + 1, 4):
            a, b = next(slots[v]), next(slots[u])
            pairing[a], pairing[b] = b, a
    return TrinionGraph(tuple(pairing))


# ---------------------------------------------------------------------------
# Structure and validation
# ---------------------------------------------------------------------------


def test_genus_theta():
    assert theta_graph().genus == 2


def test_genus_dumbbell():
    assert dumbbell_graph().genus == 2


def test_genus_k4():
    assert k4_graph().genus == 3


def test_loop_counts():
    assert theta_graph().loop_count(0) == 0
    assert dumbbell_graph().loop_count(0) == 1
    assert dumbbell_graph().loop_count(1) == 1


def test_vertex_edge_triples_double_loops():
    d = dumbbell_graph()
    triples = d.vertex_edge_triples()
    # Each vertex sees its loop twice and the bridge once.
    for triple in triples:
        counts = {e: triple.count(e) for e in set(triple)}
        assert sorted(counts.values()) == [1, 2]


def test_rejects_fixed_point():
    with pytest.raises(ValueError, match="matched to itself"):
        TrinionGraph((0, 1, 2, 3, 4, 5))


def test_rejects_non_involution():
    with pytest.raises(ValueError):
        TrinionGraph((1, 2, 0, 4, 5, 3))


def test_rejects_disconnected():
    # Two separate 2-vertex theta components on 4 vertices.
    pairing = [3, 4, 5, 0, 1, 2, 9, 10, 11, 6, 7, 8]
    with pytest.raises(ValueError, match="not connected"):
        TrinionGraph(tuple(pairing))


def test_rejects_odd_vertex_count():
    with pytest.raises(ValueError):
        TrinionGraph((1, 0, 2))  # 1 vertex, and a fixed point anyway


# ---------------------------------------------------------------------------
# Canonical form
# ---------------------------------------------------------------------------


def _relabeled(G: TrinionGraph, rng: random.Random) -> TrinionGraph:
    """Random vertex relabeling plus random slot shuffles within vertices."""
    V = G.vertex_count
    vperm = list(range(V))
    rng.shuffle(vperm)
    mapping = {}
    for v in range(V):
        slots = [0, 1, 2]
        rng.shuffle(slots)
        for s in range(3):
            mapping[3 * v + s] = 3 * vperm[v] + slots[s]
    new = [-1] * len(G.pairing)
    for h, q in enumerate(G.pairing):
        new[mapping[h]] = mapping[q]
    return TrinionGraph(tuple(new))


def test_canonical_invariant_under_relabeling():
    rng = random.Random(7)
    for G in (theta_graph(), dumbbell_graph(), k4_graph(), *generate_genus_graphs(3)):
        key = canonical_form(G)
        for _ in range(12):
            assert canonical_form(_relabeled(G, rng)) == key


@lru_cache(maxsize=None)
def _closure_pairings(g: int) -> frozenset[tuple[int, ...]]:
    """Every distinct pairing whose canonical form the genus-g closure asks for."""
    met = set()
    real = graph._canonical_form_cached

    def record(pairing):
        met.add(pairing)
        return real(pairing)

    with mock.patch.object(graph, "_canonical_form_cached", record):
        generate_genus_graphs(g)
    return frozenset(met)


def _exhaustive_key(G: TrinionGraph) -> tuple[int, ...]:
    """The canonical key by definition: the least key over all V! vertex orderings."""
    loops, mult = G.adjacency_counts()
    return (G.vertex_count,) + min(
        tuple(x for i, v in enumerate(order) for x in (loops[v], *(mult[v][u] for u in order[:i])))
        for order in permutations(range(G.vertex_count))
    )


@pytest.mark.parametrize("g, met", [(2, 3), (3, 38), (4, 210)])
def test_canonical_key_is_the_exhaustive_minimum(g, met):
    pairings = _closure_pairings(g)
    assert len(pairings) == met
    for pairing in sorted(pairings):
        G = TrinionGraph(pairing)
        assert graph._canonical_key(*G.adjacency_counts(), G.vertex_count) == _exhaustive_key(G)


def test_canonical_key_invariant_under_relabeling_at_genus_five():
    # V! = 40320 orderings puts the exhaustive oracle out of reach here.
    rng = random.Random(5)
    classes = _classes(5)
    assert len(classes) == 71
    for G in classes:
        key = canonical_form(G)
        for _ in range(3):
            H = _relabeled(G, rng)
            assert graph._canonical_key(*H.adjacency_counts(), H.vertex_count) == key.key


def test_canonical_separates_theta_and_dumbbell():
    assert canonical_form(theta_graph()) != canonical_form(dumbbell_graph())


def test_canonical_roundtrip_representative():
    for g in (2, 3):
        for G in generate_genus_graphs(g):
            form = canonical_form(G)
            assert canonical_form(graph_from_canonical(form)) == form


def _cycle_with_chords(V: int) -> TrinionGraph:
    """3-regular graph: a V-cycle plus a matching between opposite vertices."""
    pairing = [-1] * (3 * V)
    for v in range(V):
        a, b = 3 * v + 1, 3 * ((v + 1) % V)
        pairing[a], pairing[b] = b, a
    for v in range(V // 2):
        a, b = 3 * v + 2, 3 * (v + V // 2) + 2
        pairing[a], pairing[b] = b, a
    return TrinionGraph(tuple(pairing))


def test_canonical_size_cap():
    canonical_form(_cycle_with_chords(12))  # boundary: allowed
    with pytest.raises(ValueError, match="at most 12"):
        canonical_form(_cycle_with_chords(14))


def test_class_names():
    assert class_name(theta_graph()) == "theta"
    assert class_name(dumbbell_graph()) == "dumbbell"
    assert class_name(k4_graph()) is None


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------


def test_generate_genus_two():
    graphs = generate_genus_graphs(2)
    assert len(graphs) == 2
    assert {class_name(G) for G in graphs} == {"theta", "dumbbell"}


@pytest.mark.parametrize("g", [2, 3, 4])
def test_generate_structural_invariants(g):
    graphs = generate_genus_graphs(g)
    keys = [canonical_form(G) for G in graphs]
    assert len(set(keys)) == len(keys)
    assert keys == sorted(keys)
    for G in graphs:
        assert G.vertex_count == 2 * g - 2
        assert G.edge_count == 3 * g - 3
        assert G.genus == g


def test_generate_rejects_out_of_range():
    with pytest.raises(ValueError):
        generate_genus_graphs(1)
    with pytest.raises(ValueError):
        generate_genus_graphs(6)


def _all_raw_matchings(n: int):
    """Every perfect matching on half-edges 0..n-1, as pairing tuples."""
    pairing = [-1] * n

    def rec(unmatched: list[int]):
        if not unmatched:
            yield tuple(pairing)
            return
        h = unmatched[0]
        for i in range(1, len(unmatched)):
            q = unmatched[i]
            pairing[h], pairing[q] = q, h
            yield from rec(unmatched[1:i] + unmatched[i + 1 :])

    yield from rec(list(range(n)))


def _connected(pairing: tuple[int, ...]) -> bool:
    V = len(pairing) // 3
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for h in (3 * v, 3 * v + 1, 3 * v + 2):
            u = pairing[h] // 3
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == V


@pytest.mark.parametrize("g", [2, 3])
def test_generate_against_raw_matching_recount(g):
    """Independent oracle: enumerate all labeled matchings, no pruning at all."""
    V = 2 * g - 2
    raw_keys = set()
    for pairing in _all_raw_matchings(3 * V):
        if _connected(pairing):
            raw_keys.add(canonical_form(TrinionGraph(pairing)))
    generated = {canonical_form(G) for G in generate_genus_graphs(g)}
    assert generated == raw_keys


def test_generate_class_counts_frozen():
    # Connected cubic multigraphs with loops on 2g-2 vertices, OEIS A005967.
    assert [len(_classes(g)) for g in (2, 3, 4, 5)] == [2, 5, 17, 71]


@pytest.mark.parametrize("g", [4, 5])
def test_generated_classes_pairwise_non_isomorphic(g):
    """With the A005967 counts above, this certifies the closure is complete."""
    assert _pairwise_non_isomorphic(_classes(g))


@pytest.mark.parametrize("g", [2, 3, 4])
def test_connected_edge_order(g):
    for G in generate_genus_graphs(g):
        order = connected_edge_order(G)
        assert sorted(order) == list(range(G.edge_count))
        ends = [(h // 3, q // 3) for h, q in G.edges]
        for n in range(1, len(order) + 1):
            prefix = [ends[e] for e in order[:n]]
            touched = {v for pair in prefix for v in pair}
            reached = {prefix[0][0]}
            grown = True
            while grown:
                grown = False
                for a, b in prefix:
                    if (a in reached) != (b in reached):
                        reached |= {a, b}
                        grown = True
            assert reached == touched, (G, n)


# ---------------------------------------------------------------------------
# Fusion moves
# ---------------------------------------------------------------------------


def test_fusion_move_theta_to_dumbbell():
    t = theta_graph()
    for e in range(3):
        assert class_name(fusion_move(t, e, 0)) == "dumbbell"
        assert class_name(fusion_move(t, e, 1)) == "theta"


def test_fusion_move_rejects_loop():
    d = dumbbell_graph()
    loop_edges = [
        i for i, (h, q) in enumerate(d.edges) if h // 3 == q // 3
    ]
    assert loop_edges
    with pytest.raises(ValueError, match="loop"):
        fusion_move(d, loop_edges[0], 0)


def test_fusion_move_rejects_bad_variant():
    with pytest.raises(ValueError):
        fusion_move(theta_graph(), 0, 2)


def _non_loop_edges(G: TrinionGraph):
    return [i for i, (h, q) in enumerate(G.edges) if h // 3 != q // 3]


@pytest.mark.parametrize("g", [2, 3])
def test_fusion_move_preserves_structure(g):
    for G in generate_genus_graphs(g):
        for e in _non_loop_edges(G):
            for variant in (0, 1):
                H = fusion_move(G, e, variant)  # constructor revalidates
                assert H.genus == G.genus
                assert H.vertex_count == G.vertex_count


def test_fusion_move_involution_up_to_isomorphism():
    for g in (2, 3):
        for G in generate_genus_graphs(g):
            key = canonical_form(G)
            for e in _non_loop_edges(G):
                for variant in (0, 1):
                    H = fusion_move(G, e, variant)
                    bridge = None
                    old = G.edges[e]
                    v1, v2 = old[0] // 3, old[1] // 3
                    want = tuple(sorted((3 * v1 + 2, 3 * v2 + 2)))
                    for i, edge in enumerate(H.edges):
                        if edge == want:
                            bridge = i
                            break
                    assert bridge is not None
                    undone = {
                        canonical_form(fusion_move(H, bridge, w)) for w in (0, 1)
                    }
                    assert key in undone


def test_canonical_form_matches_networkx_on_genus4_closure():
    """canonical_form equality is multigraph isomorphism on every graph one
    fusion move from a genus-4 class.

    Each reached graph is isomorphic to the representative of its key and the
    representatives are pairwise non-isomorphic, which by transitivity decides
    every pair of reached graphs.
    """
    import networkx as nx

    assert _pairwise_non_isomorphic(_classes(4))
    reps = {canonical_form(G): _nx_multigraph(G) for G in _classes(4)}
    for G in _classes(4):
        for e in _non_loop_edges(G):
            for variant in (0, 1):
                H = fusion_move(G, e, variant)
                assert nx.is_isomorphic(_nx_multigraph(H), reps[canonical_form(H)])


@pytest.mark.parametrize("g", [2, 3])
def test_fusion_moves_connect_all_classes(g):
    all_keys = {canonical_form(G) for G in generate_genus_graphs(g)}
    start = generate_genus_graphs(g)[0]
    seen = {canonical_form(start)}
    frontier = [start]
    while frontier:
        G = frontier.pop()
        for e in _non_loop_edges(G):
            for variant in (0, 1):
                H = fusion_move(G, e, variant)
                key = canonical_form(H)
                if key not in seen:
                    seen.add(key)
                    frontier.append(graph_from_canonical(key))
    assert seen == all_keys


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------


def test_json_roundtrip():
    for G in (theta_graph(), dumbbell_graph(), k4_graph(), *generate_genus_graphs(3)):
        assert from_json_dict(to_json_dict(G)).pairing == G.pairing


def test_json_shape():
    data = to_json_dict(theta_graph())
    assert list(data.keys()) == ["vertices", "edges"]
    assert data["vertices"] == 2
    assert data["edges"] == [[[0, 0], [1, 0]], [[0, 1], [1, 1]], [[0, 2], [1, 2]]]


def test_json_bytes_deterministic():
    a = graph_json_bytes(generate_genus_graphs(3)[2])
    b = graph_json_bytes(generate_genus_graphs(3)[2])
    assert a == b


def test_json_rejects_reused_half_edge():
    data = {"vertices": 2, "edges": [[[0, 0], [1, 0]], [[0, 0], [1, 1]], [[0, 2], [1, 2]]]}
    with pytest.raises(ValueError):
        from_json_dict(data)


THETA_EDGES = [[[0, 0], [1, 0]], [[0, 1], [1, 1]], [[0, 2], [1, 2]]]


@pytest.mark.parametrize(
    "edges",
    [
        # A "loop" at vertex 0 whose slot 3 would be vertex 1's slot 0.
        [[[0, 3], [0, 0]], *THETA_EDGES[1:]],
        # Vertex 1's slot -1 would be vertex 0's slot 2.
        [*THETA_EDGES[:2], [[1, -1], [1, 2]]],
    ],
)
def test_json_rejects_aliased_half_edges(edges):
    # Range-checking only the flat id 3*v + slot would read both as theta.
    with pytest.raises(ValueError, match="out of range"):
        from_json_dict({"vertices": 2, "edges": edges})


@pytest.mark.parametrize(
    "data",
    [
        {"edges": THETA_EDGES},
        {"vertices": 2, "edges": 5},
        {"vertices": 4, "edges": THETA_EDGES},
        {"vertices": 2, "edges": [[[0, 0], [1, 0]], [0, 1], [[0, 2], [1, 2]]]},
        {"vertices": 2, "edges": [[[0, 0], [1, 0.0]], *THETA_EDGES[1:]]},
        [2, THETA_EDGES],
    ],
)
def test_json_rejects_malformed_shape(data):
    with pytest.raises(ValueError):
        from_json_dict(data)


def test_save_load(tmp_path):
    path = tmp_path / "g.trinion.json"
    save_graph(dumbbell_graph(), path)
    assert load_graph(path).pairing == dumbbell_graph().pairing
    assert json.loads(path.read_text())["vertices"] == 2
