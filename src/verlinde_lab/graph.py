"""Trinion dual graphs: 3-valent multigraphs with loops.

A graph on V vertices is stored in the half-edge model: vertex v owns the
three half-edges 3v, 3v+1, 3v+2, and a fixed-point-free involution pairs the
3V half-edges into edges (both halves at one vertex form a loop).  Nothing
else is stored -- these are abstract duals, with no ribbon or embedding data,
so loops and parallel edges are first class and isomorphism means multigraph
isomorphism.

For a connected 3-valent graph E = 3V/2, so the genus g = E - V + 1 of the
surface it came from is (V + 2)/2 and V = 2g - 2 is forced to be even.

The classes of a genus (2 to 5) are generated as the closure of one seed
graph under elementary fusion moves, which connect every pair of trivalent
graphs of the same genus, so no labeled structures are ever enumerated.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

#: canonical_form is an exact branch-and-bound search; cap the search size.
MAX_CANONICAL_VERTICES = 12

#: Genus range for whole-class generation (desk scale).
MIN_GENUS, MAX_GENUS = 2, 5

GRAPH_FILE_SUFFIX = ".trinion.json"

#: sliced_frontier expands each frontier in slices of at most this many cells.
_FRONTIER_CHUNK = 65536


@dataclass(frozen=True, order=True)
class CanonicalForm:
    """Total-order key identifying a multigraph isomorphism class.

    key = (V, seg_0, seg_1, ...) where placing vertex i contributes the
    segment (loops_i, mult_{i,0}, ..., mult_{i,i-1}) and the whole tuple is
    lexicographically minimal over vertex orderings.
    """

    key: tuple[int, ...]


@dataclass(frozen=True)
class TrinionGraph:
    """Connected 3-valent multigraph with loops, in the half-edge model."""

    pairing: tuple[int, ...]

    def __post_init__(self):
        p = tuple(int(h) for h in self.pairing)
        object.__setattr__(self, "pairing", p)
        n = len(p)
        if n == 0 or n % 3 != 0:
            raise ValueError("pairing length must be a positive multiple of 3")
        if n % 6 != 0:
            raise ValueError("vertex count must be even (got odd V)")
        if sorted(p) != list(range(n)):
            raise ValueError("pairing must be a permutation of the half-edge ids")
        for h, q in enumerate(p):
            if q == h:
                raise ValueError(f"half-edge {h} is matched to itself")
            if p[q] != h:
                raise ValueError("pairing is not an involution")
        if not _is_connected(p):
            raise ValueError("graph is not connected")

    @property
    def vertex_count(self) -> int:
        return len(self.pairing) // 3

    @property
    def edge_count(self) -> int:
        return len(self.pairing) // 2

    @property
    def genus(self) -> int:
        return self.edge_count - self.vertex_count + 1

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Edges as (h, partner) half-edge pairs with h < partner, ascending."""
        return tuple(
            (h, q) for h, q in enumerate(self.pairing) if h < q
        )

    def half_edges_of_vertex(self, v: int) -> tuple[int, int, int]:
        return (3 * v, 3 * v + 1, 3 * v + 2)

    def edge_index_of_halfedge(self) -> dict[int, int]:
        idx = {}
        for i, (h, q) in enumerate(self.edges):
            idx[h] = i
            idx[q] = i
        return idx

    def vertex_edge_triples(self) -> list[tuple[int, int, int]]:
        """Per vertex, the indices of its three incident edges.

        A loop's index appears twice in its vertex's triple, so triples can
        be consumed directly by per-vertex admissibility conditions.
        """
        idx = self.edge_index_of_halfedge()
        return [
            (idx[3 * v], idx[3 * v + 1], idx[3 * v + 2])
            for v in range(self.vertex_count)
        ]

    def loop_count(self, v: int) -> int:
        return sum(
            1 for h in self.half_edges_of_vertex(v) if self.pairing[h] // 3 == v
        ) // 2

    def adjacency_counts(self) -> tuple[list[int], list[list[int]]]:
        """(loops per vertex, symmetric matrix of inter-vertex edge counts)."""
        V = self.vertex_count
        loops = [0] * V
        mult = [[0] * V for _ in range(V)]
        for h, q in self.edges:
            a, b = h // 3, q // 3
            if a == b:
                loops[a] += 1
            else:
                mult[a][b] += 1
                mult[b][a] += 1
        return loops, mult

    def __repr__(self):
        name = class_name(self)
        tag = f" ({name})" if name else ""
        return f"TrinionGraph(V={self.vertex_count}, E={self.edge_count}{tag})"


def _is_connected(pairing: tuple[int, ...]) -> bool:
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


def connected_edge_order(G: TrinionGraph) -> list[int]:
    """Edge order in which every prefix spans a connected vertex set.

    Breadth-first from vertex 0: a vertex's edges are appended as soon as the
    vertex is dequeued, so every edge after the first shares an endpoint with
    an earlier one and vertex conditions complete early in the order.  Both
    counting routes that label edges one at a time (the brute-force search
    and the lattice-point frontier) use it, each on ``sliced_frontier``.
    """
    triples = G.vertex_edge_triples()
    edges = G.edges
    seen_vertices = {0}
    order: list[int] = []
    placed = set()
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for e in triples[v]:
            if e in placed:
                continue
            placed.add(e)
            order.append(e)
            h1, h2 = edges[e]
            for u in (h1 // 3, h2 // 3):
                if u not in seen_vertices:
                    seen_vertices.add(u)
                    queue.append(u)
    return order


def extend_prefixes(labels: np.ndarray, lo: np.ndarray, cnt: np.ndarray, step: int) -> np.ndarray:
    """Each prefix column repeated once per label of its progression, that label appended.

    Prefix i admits the ``cnt[i]`` labels ``lo[i] + step * r`` for r below
    ``cnt[i]``; the result holds one column per (prefix, label) pair, in
    prefix order.
    """
    child = np.empty((labels.shape[0] + 1, int(cnt.sum())), dtype=np.int64)
    child[:-1] = labels.repeat(cnt, axis=1)
    # Label r of a prefix is lo + step * r, r its rank among the prefix's labels.
    child[-1] = (lo - step * (np.cumsum(cnt) - cnt)).repeat(cnt)
    child[-1] += step * np.arange(child.shape[1])
    return child


def sliced_frontier(root: np.ndarray, carried: np.ndarray, admit, cells) -> None:
    """Depth-first search over int64 frontiers that label one edge per depth.

    A frontier holds the prefixes of one depth t as the columns of a t-row
    array, with a per-prefix array the route carries beside them.
    ``admit(t, labels, carried)`` returns, per prefix, the arithmetic
    progression of labels that its next edge admits, as (lo, step, cnt,
    carry), or None when t is the last depth, which the route closes itself.
    Each prefix is then repeated once per admitted label (``extend_prefixes``),
    and ``carry(at, cnt[at], last)`` gives the children of the prefixes
    ``at`` their carried array, ``last`` being the children's new labels.

    Frontiers are expanded in slices, driven from an explicit stack of one
    slice generator per depth, so no depth costs a Python frame.  A prefix
    entering depth t costs ``cells[t]`` cells, and a slice holds at most
    ``_FRONTIER_CHUNK`` cells, except that it takes at least one parent's
    children.  Which prefixes are visited does not depend on the slicing,
    only how they are grouped into the frontiers the route sees.
    """

    def children(t: int, labels: np.ndarray, carried: np.ndarray):
        plan = admit(t, labels, carried)
        if plan is None:
            return
        lo, step, cnt, carry = plan
        ends = np.cumsum(cnt)
        budget = max(_FRONTIER_CHUNK // cells[t + 1], 1)
        start = 0
        while start < len(cnt):
            done = ends[start - 1] if start else 0
            stop = max(int(np.searchsorted(ends, done + budget, side="right")), start + 1)
            at = slice(start, stop)
            n = cnt[at]
            child = extend_prefixes(labels[:, at], lo[at], n, step)
            if child.size:
                yield child, carry(at, n, child[-1])
            start = stop

    stack = [children(0, root, carried)]
    while stack:
        frontier = next(stack[-1], None)
        if frontier is None:
            stack.pop()
        else:
            stack.append(children(len(stack), *frontier))


def _canonical_key(loops: list[int], mult: list[list[int]], V: int) -> tuple[int, ...]:
    """Lexicographically minimal flattened adjacency data over vertex orderings.

    Branch-and-bound over partial orderings: placing vertex v at position i
    appends (loops[v], mult[v][perm[0]], ..., mult[v][perm[i-1]]); any prefix
    already above the best known key is pruned.  The bound starts at the key
    of one greedy ordering, which places at each step the unused vertex with
    the least segment, ties to the lowest index: a real key, so the minimum
    is unchanged, and a non-canonical labelling is pruned from the start.
    """

    def segment(v: int, perm: list[int]) -> tuple[int, ...]:
        return (loops[v],) + tuple(mult[v][u] for u in perm)

    greedy: list[int] = []
    best = ()
    for _ in range(V):
        seg, v = min((segment(v, greedy), v) for v in range(V) if v not in greedy)
        greedy.append(v)
        best += seg

    def extend(perm: list[int], used: int, key: tuple[int, ...]):
        nonlocal best
        if len(perm) == V:
            best = min(best, key)
            return
        for v in range(V):
            if used & (1 << v):
                continue
            new_key = key + segment(v, perm)
            if new_key > best[: len(new_key)]:
                continue
            perm.append(v)
            extend(perm, used | (1 << v), new_key)
            perm.pop()

    extend([], 0, ())
    return (V,) + best


@lru_cache(maxsize=4096)
def _canonical_form_cached(pairing: tuple[int, ...]) -> CanonicalForm:
    G = TrinionGraph(pairing)
    loops, mult = G.adjacency_counts()
    return CanonicalForm(_canonical_key(loops, mult, G.vertex_count))


def canonical_form(G: TrinionGraph) -> CanonicalForm:
    """Isomorphism-class key; equal iff the graphs are isomorphic multigraphs."""
    if G.vertex_count > MAX_CANONICAL_VERTICES:
        raise ValueError(
            f"canonical_form supports at most {MAX_CANONICAL_VERTICES} vertices "
            f"(got {G.vertex_count})"
        )
    return _canonical_form_cached(G.pairing)


def _graph_from_counts(loops: list[int], mult: list[list[int]]) -> TrinionGraph:
    """Deterministic half-edge realization of an adjacency-count structure."""
    V = len(loops)
    free = [list(range(3 * v, 3 * v + 3)) for v in range(V)]
    pairing = [-1] * (3 * V)

    def take(v: int) -> int:
        return free[v].pop(0)

    for v in range(V):
        for _ in range(loops[v]):
            a, b = take(v), take(v)
            pairing[a], pairing[b] = b, a
    for v in range(V):
        for u in range(v + 1, V):
            for _ in range(mult[v][u]):
                a, b = take(v), take(u)
                pairing[a], pairing[b] = b, a
    return TrinionGraph(tuple(pairing))


def graph_from_canonical(form: CanonicalForm) -> TrinionGraph:
    """Rebuild the canonical representative graph of an isomorphism class."""
    key = form.key
    V = key[0]
    loops = [0] * V
    mult = [[0] * V for _ in range(V)]
    pos = 1
    for i in range(V):
        loops[i] = key[pos]
        pos += 1
        for j in range(i):
            mult[i][j] = mult[j][i] = key[pos]
            pos += 1
    return _graph_from_counts(loops, mult)


def theta_graph() -> TrinionGraph:
    """Two vertices joined by three parallel edges."""
    return TrinionGraph((3, 4, 5, 0, 1, 2))


def dumbbell_graph() -> TrinionGraph:
    """Two vertices, one loop each, joined by a bridge."""
    return TrinionGraph((1, 0, 5, 4, 3, 2))


def class_name(G: TrinionGraph) -> str | None:
    """Stable human name for the genus-2 classes, else None.

    A cubic multigraph on two vertices is the theta graph or the dumbbell,
    the one with a loop at each vertex (OEIS A005967).
    """
    if G.vertex_count != 2:
        return None
    return "dumbbell" if G.loop_count(0) else "theta"


def _necklace_graph(V: int) -> TrinionGraph:
    """Seed of the closure: double edges 2i-2i+1, single edges 2i+1-2i+2 (mod V).

    At V = 2 the single edge closes onto the double one and gives theta.
    """
    loops = [0] * V
    mult = [[0] * V for _ in range(V)]
    for i in range(0, V, 2):
        for a, b, m in ((i, i + 1, 2), (i + 1, (i + 2) % V, 1)):
            mult[a][b] += m
            mult[b][a] += m
    return _graph_from_counts(loops, mult)


def generate_genus_graphs(g: int) -> list[TrinionGraph]:
    """All connected 3-valent multigraphs with 2g-2 vertices, one per class.

    Breadth-first closure of the necklace graph under `fusion_move` (both
    variants on every non-loop edge), deduplicated by `canonical_form`.  The
    queue holds half-edge pairings, so each distinct graph is validated
    once, when its canonical form is first computed.  It is complete because
    fusion (Whitehead) moves connect all trivalent graphs of a given rank
    (Hatcher-Thurston 1980, Culler-Vogtmann 1986).  Output is the canonical
    representative of each class, sorted by canonical key, so repeated runs
    are byte-identical.  Genus 2..5 gives 2, 5, 17 and 71 classes (OEIS
    A005967).
    """
    if not MIN_GENUS <= g <= MAX_GENUS:
        raise ValueError(f"genus must lie in [{MIN_GENUS}, {MAX_GENUS}], got {g}")
    seed = _necklace_graph(2 * g - 2).pairing
    keys = {_canonical_form_cached(seed)}
    queue = deque([seed])
    while queue:
        pairing = queue.popleft()
        edges = [(h, q) for h, q in enumerate(pairing) if h < q]
        for h, q in edges:
            if h // 3 == q // 3:
                continue
            for variant in (0, 1):
                moved = _fusion_pairing(pairing, edges, h, q, variant)
                key = _canonical_form_cached(moved)
                if key not in keys:
                    keys.add(key)
                    queue.append(moved)
    return [graph_from_canonical(k) for k in sorted(keys)]


def fusion_move(G: TrinionGraph, edge_index: int, variant: int) -> TrinionGraph:
    """Elementary fusion move: contract a non-loop edge, re-expand the other way.

    Contracting edge e merges its endpoints into a 4-valent vertex carrying
    half-edges {a, b} (rest of one endpoint) and {c, d} (rest of the other);
    re-expansion splits them across a new bridge as {a, c}|{b, d} (variant 0)
    or {a, d}|{b, c} (variant 1).  Genus, connectivity and 3-valence are
    preserved.
    """
    if variant not in (0, 1):
        raise ValueError("variant must be 0 or 1")
    edges = G.edges
    if not 0 <= edge_index < len(edges):
        raise ValueError(f"edge index {edge_index} out of range")
    h1, h2 = edges[edge_index]
    if h1 // 3 == h2 // 3:
        raise ValueError("cannot apply a fusion move to a loop")
    return TrinionGraph(_fusion_pairing(G.pairing, edges, h1, h2, variant))


def _fusion_pairing(pairing, edges, h1: int, h2: int, variant: int) -> tuple[int, ...]:
    """The pairing after ``fusion_move`` on the non-loop edge (h1, h2), h1 < h2.

    ``edges`` lists the pairing's edges as ``TrinionGraph.edges`` does.  The
    result is not validated: the closure validates each distinct graph once,
    in ``_canonical_form_cached``.
    """
    v1, v2 = h1 // 3, h2 // 3
    a, b = (h for h in range(3 * v1, 3 * v1 + 3) if h != h1)
    c, d = (h for h in range(3 * v2, 3 * v2 + 3) if h != h2)
    if variant == 0:
        first, second = (a, c), (b, d)
    else:
        first, second = (a, d), (b, c)

    # Reposition the four external half-edges; the bridge takes slot 2 at both
    # new vertices and every other half-edge keeps its id.
    relabel = {
        first[0]: 3 * v1,
        first[1]: 3 * v1 + 1,
        second[0]: 3 * v2,
        second[1]: 3 * v2 + 1,
    }
    bridge1, bridge2 = 3 * v1 + 2, 3 * v2 + 2
    new_pairing = [-1] * len(pairing)
    for x, y in edges:
        if (x, y) == (h1, h2):
            continue
        nx, ny = relabel.get(x, x), relabel.get(y, y)
        new_pairing[nx], new_pairing[ny] = ny, nx
    new_pairing[bridge1], new_pairing[bridge2] = bridge2, bridge1
    return tuple(new_pairing)


def to_json_dict(G: TrinionGraph) -> dict:
    """Graph JSON: {"vertices": V, "edges": [[[v,slot],[v,slot]], ...]}."""
    return {
        "vertices": G.vertex_count,
        "edges": [
            [[h // 3, h % 3], [q // 3, q % 3]] for h, q in G.edges
        ],
    }


def _json_half_edge(end, V: int) -> int:
    """Half-edge id of a JSON end [v, slot], with 0 <= v < V and slot in {0,1,2}."""
    pair = isinstance(end, list) and len(end) == 2
    if not pair or any(type(x) is not int for x in end):
        raise ValueError(f"edge end must be [vertex, slot] integers, got {end!r}")
    v, slot = end
    if not (0 <= v < V and 0 <= slot < 3):
        raise ValueError(f"half-edge ({v},{slot}) out of range")
    return 3 * v + slot


def from_json_dict(data: dict) -> TrinionGraph:
    """Parse graph JSON; any other shape raises ValueError, never aliases."""
    if not isinstance(data, dict) or type(data.get("vertices")) is not int:
        raise ValueError('graph JSON needs an integer "vertices" field')
    V, edges = data["vertices"], data.get("edges")
    if not isinstance(edges, list) or 2 * len(edges) != 3 * V:
        raise ValueError(f'graph JSON needs an "edges" list of 3V/2 edges (V = {V})')
    pairing = [-1] * (3 * V)
    for edge in edges:
        if not (isinstance(edge, list) and len(edge) == 2):
            raise ValueError(f"edge must be a pair of [vertex, slot], got {edge!r}")
        h1, h2 = (_json_half_edge(end, V) for end in edge)
        if pairing[h1] != -1 or pairing[h2] != -1:
            raise ValueError("half-edge used twice in edge list")
        pairing[h1], pairing[h2] = h2, h1
    return TrinionGraph(tuple(pairing))


def graph_json_bytes(G: TrinionGraph) -> bytes:
    """Serialized graph with deterministic field order, for reproducible hashing."""
    return (json.dumps(to_json_dict(G), indent=2, sort_keys=False) + "\n").encode()


def save_graph(G: TrinionGraph, path: str | Path) -> None:
    Path(path).write_bytes(graph_json_bytes(G))


def load_graph(path: str | Path) -> TrinionGraph:
    return from_json_dict(json.loads(Path(path).read_text()))
