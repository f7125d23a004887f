"""Admissible integer weights of level k on a trinion graph.

An assignment gives every edge e an integer j_e in [0, k]; the encoded weight
is j_e/(2k) and the action coordinate is c_e = j_e/k, so every admissibility
check below is an exact integer comparison.  At each vertex the three
incident labels (a loop's label entering twice) must satisfy

  (1) j_a + j_b + j_c even,
  (2) j_a + j_b + j_c <= 2k,
  (3) every label <= the sum of the other two.

Loops are not special-cased anywhere: condition testing consumes the per
vertex multiset of half-edge labels, which doubles a loop automatically.
This reading makes the count graph-independent within a genus, which is the
consistency criterion the counting cross-checks enforce.

The boundary assignment j_e = k everywhere (the maximally degenerate fibre)
violates condition (2) at every vertex for k >= 1 and is deliberately not
counted; the counts here are strict.

Two routes count the admissible assignments; ``cli.ROUTES`` lists them
with the polytope's lattice points, and ``check`` holds the other routes
to the contraction.  bruteforce_counts is a depth-first enumeration.  It
labels edges in a connected order; at each edge, the labels that satisfy
every vertex completing there form one arithmetic progression (conditions
(1)-(3) solved for that edge), so no label is tried that fails a vertex
closing there, and the last edge's progression is counted by its length,
not listed.  The search runs on numpy frontiers, every prefix of a depth
that it holds at once as one int64 column, expanded by
``graph.sliced_frontier``, which the lattice route shares.  One search
runs at the highest level the state budget admits and counts every lower
level on the way: a labeling admitted there is admitted at level m exactly
when each vertex sum is at most 2m.  count_admissible_bruteforce is its
single-level form.
count_via_contraction gives every vertex a 0/1 numpy tensor over its edge
labels and merges the tensors pairwise, in a greedy order that keeps the
fewest edges open, planned once per graph.  Condition (1) is a Z/2 charge
each vertex conserves, so a tensor vanishes on every parity pattern of its
open edges with odd sum; it is stored as one dense block per even pattern,
about half of the (k+1)^width cells, and a merge multiplies only blocks
that agree on the shared edges, each pair as one matrix product
(np.matmul, on BLAS in float64).  The plan also fixes every tensor's axis
order so that the shared edges of each merge sit together, and the blocks
reshape into matrices as views, without copies.  It computes in float64,
which is exact while every count stays below 2^53, and switches to exact
Python ints (dtype=object) at the first merge whose result reaches 2^53.
Every tensor's stored cells are checked against a budget before the first
is allocated; the default of 10^7 cells holds one tensor, at 8 bytes a
cell, to about 80 MB.  Either route raises BudgetExceeded past its budget.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations, product
from math import prod

import numpy as np

from verlinde_lab.budget import BudgetExceeded
from verlinde_lab.graph import TrinionGraph, connected_edge_order, extend_prefixes, sliced_frontier

#: Enumeration refuses when the raw label space (k+1)^E exceeds this.
DEFAULT_MAX_STATES = 10**7

#: Contraction refuses when any tensor frontier needs more than this many stored cells.
DEFAULT_MAX_FRONTIER = 10**7

# float64 holds every integer below 2^53 exactly; contraction leaves it at
# the first merge that reaches this.
_FLOAT_EXACT_LIMIT = 2**53


@dataclass(frozen=True)
class WeightAssignment:
    """Integer labels j_e in [0, k], one per edge of a specific graph."""

    graph: TrinionGraph
    level: int
    labels: tuple[int, ...]

    def __post_init__(self):
        if self.level < 0:
            raise ValueError("level must be non-negative")
        labels = tuple(int(j) for j in self.labels)
        object.__setattr__(self, "labels", labels)
        if len(labels) != self.graph.edge_count:
            raise ValueError(
                f"expected {self.graph.edge_count} labels, got {len(labels)}"
            )
        for j in labels:
            if not 0 <= j <= self.level:
                raise ValueError(f"label {j} outside [0, {self.level}]")


class ThetaLabel(WeightAssignment):
    """Admissible assignment; the index w of a theta-basis vector s_w.

    Basis vectors are represented by their labels only; no analytic data is
    attached.
    """

    def __post_init__(self):
        super().__post_init__()
        if not is_admissible(self.graph, self):
            raise ValueError("theta label must be admissible")

    @classmethod
    def _admitted(cls, graph: TrinionGraph, level: int, labels: tuple[int, ...]):
        """A label that enumeration has proved admissible, built without re-checking it."""
        label = object.__new__(cls)
        object.__setattr__(label, "graph", graph)
        object.__setattr__(label, "level", level)
        object.__setattr__(label, "labels", labels)
        return label


def vertex_conditions_hold(k: int, triple: tuple[int, int, int]) -> bool:
    """Conditions (1)-(3) for one vertex's multiset of incident labels."""
    a, b, c = triple
    s = a + b + c
    if s % 2 != 0 or s > 2 * k:
        return False
    m = max(a, b, c)
    return m <= s - m


def is_admissible(G: TrinionGraph, w: WeightAssignment) -> bool:
    """True iff conditions (1)-(3) hold at every vertex of G."""
    if w.graph != G:
        raise ValueError("weight assignment belongs to a different graph")
    labels = w.labels
    k = w.level
    for e1, e2, e3 in G.vertex_edge_triples():
        if not vertex_conditions_hold(k, (labels[e1], labels[e2], labels[e3])):
            return False
    return True


def _check_state_budget(G: TrinionGraph, k: int, max_states: int) -> None:
    states = (k + 1) ** G.edge_count
    if states > max_states:
        raise BudgetExceeded(
            f"(k+1)^E = {states} exceeds the {max_states} state budget; "
            "use count_via_contraction instead"
        )


def _dfs_admissible(
    G: TrinionGraph,
    k: int,
    collect: bool,
    max_states: int,
    stats: dict | None = None,
):
    """Depth-first frontier search that labels an edge with a whole progression.

    Edges are labelled in ``connected_edge_order``; a prefix labels the
    first t edges, and all prefixes of one depth that the search holds at
    once form a frontier, one int64 column each.  At depth t the labels
    that edge order[t] may take, given a prefix, are one arithmetic
    progression range(lo, hi + 1, step), read from the vertices whose last
    label is order[t]:

    - a plain completion, with order[t] once and earlier labels x and y,
      admits j = x + y (mod 2) with |x - y| <= j <= min(x + y, 2k - x - y);
    - a loop completion (order[t], order[t], z) admits every j with
      z/2 <= j <= k - z/2 when z is even, and none when z is odd.

    These are conditions (1)-(3) for that vertex, solved for its last
    label.  Two completions that ask for different parities admit nothing.
    A loop edge meets its own vertex alone, so a depth has either plain
    completions or one loop completion, and one step for every prefix.  A
    vertex with two labels set and one to come needs no test: any x and y
    in [0, k] admit the third label |x - y|.  ``graph.sliced_frontier``
    repeats each prefix once per label of its progression, a prefix's cells
    being its labels; the last depth's progressions are counted, not
    materialised, unless ``collect`` lists them.

    The one search at level k counts every level from 0 to k.  A
    labeling admissible at level k is admissible at a level m <= k exactly
    when every vertex sum s_v is at most 2m: condition (3) already bounds
    each label by s_v / 2, hence by m.  So each labeling is counted once, at
    its least level max_v s_v / 2, and the count at level m sums those at
    levels up to m.  Each prefix carries ``mx``, the largest vertex sum
    completed so far, from 0.  Label j completes the sums x + y + j, the
    largest of them top + j, or the sum 2j + z; either is base + slope * j,
    which rises with j, so a child takes the larger of its parent's mx and
    that sum.  At the last depth the labels up to the split where it
    overtakes mx add their number at mx's level, and the rest, one labeling
    per level of an interval (top + j rises by 2 per step of 2, 2j + z by 2
    per step of 1), add a ramp to a difference array at its two ends.

    Returns ({m: count} for m in 0..k, labels_list); labels_list is
    only populated when ``collect`` is set.  A ``stats`` dict, if given,
    receives ``nodes``, the prefixes whose progression was computed, and
    ``pruned``, those whose progression was empty.
    """
    _check_state_budget(G, k, max_states)
    E = G.edge_count
    order = connected_edge_order(G)
    pos = {e: t for t, e in enumerate(order)}
    # Per depth t, the vertices whose last label is order[t]: plain ones as
    # the depths of their other two edges, a loop one as the depth of its
    # non-loop edge (-1 for none).
    plain_at: list[list[tuple[int, int]]] = [[] for _ in range(E)]
    loop_at = [-1] * E
    for triple in G.vertex_edge_triples():
        first, second, last = sorted(pos[e] for e in triple)
        if second == last:
            loop_at[last] = first
        else:
            plain_at[last].append((first, second))
    # The same, as index arrays: row 0 the first depths, row 1 the second.
    pairs_at = [np.array(p, dtype=np.intp).T if p else None for p in plain_at]
    two_k = 2 * k
    found: list[np.ndarray] = []
    # Row 0 counts the labelings by their least level; row 1 is the
    # difference array of the runs that put one labeling at each level of an
    # interval.  Each slice is tallied in int64, at most (k + 1) per prefix,
    # and added into these Python ints, whose totals may pass 2^63.
    tally = [[0] * (k + 2), [0] * (k + 2)]
    nodes = 1  # the root prefix; every later one is counted by its parent
    pruned = 0

    def progressions(t: int, labels: np.ndarray):
        """lo, count, base, step and slope of every prefix's progression at depth t."""
        P = labels.shape[1]
        if loop_at[t] >= 0:
            z = labels[loop_at[t]]
            lo = z >> 1
            hi = np.where(z & 1, -1, k - lo)
            return lo, np.maximum(hi - lo + 1, 0), z, 1, 2
        if pairs_at[t] is None:
            # No vertex completes: every label is admitted, and a base this
            # low leaves every child's mx as it is.
            return np.zeros(P, np.int64), np.full(P, k + 1), np.full(P, -k - 1), 1, 1
        a, b = pairs_at[t]
        x, y = labels[a], labels[b]
        s = x + y
        parity = s[0] & 1
        lo = np.abs(x - y).max(axis=0)
        lo += (lo ^ parity) & 1
        hi = np.minimum(s, two_k - s).min(axis=0)
        hi[((s & 1) != parity).any(axis=0)] = -1
        return lo, np.maximum(hi - lo, -2) // 2 + 1, s.max(axis=0), 2, 1

    def admit(t: int, labels: np.ndarray, mx: np.ndarray):
        """Count the frontier at depth t; below the last depth, its progressions."""
        nonlocal nodes, pruned
        lo, cnt, base, step, slope = progressions(t, labels)
        pruned += int(np.count_nonzero(cnt == 0))
        if t == E - 1:
            # The first i labels keep mx; the rest add a ramp from the level
            # of the sum the first of them completes to that of the last.
            cut = (mx - base) // slope  # the last j with base + slope * j <= mx
            i = np.clip((cut - lo) // step + 1, 0, cnt)
            ramp = i < cnt
            first = base + slope * (lo + i * step)
            final = base + slope * (lo + (cnt - 1) * step)
            sums = np.zeros((2, k + 2), dtype=np.int64)
            np.add.at(sums[0], mx >> 1, i)
            np.add.at(sums[1], first[ramp] >> 1, 1)
            np.add.at(sums[1], (final[ramp] >> 1) + 1, -1)
            for row, add in zip(tally, sums.tolist()):
                for m, value in enumerate(add):
                    row[m] += value
            if collect:
                found.append(extend_prefixes(labels, lo, cnt, step))
            return None
        nodes += int(cnt.sum())

        def carry(at: slice, n: np.ndarray, last: np.ndarray) -> np.ndarray:
            return np.maximum(mx[at].repeat(n), base[at].repeat(n) + slope * last)

        return lo, step, cnt, carry

    # A prefix entering depth t holds t labels.
    sliced_frontier(np.zeros((0, 1), dtype=np.int64), np.zeros(1, dtype=np.int64), admit, range(E))

    if stats is not None:
        stats["nodes"] = nodes
        stats["pruned"] = pruned
    labelings: list[tuple[int, ...]] = []
    if collect:
        by_edge = np.empty((E, sum(f.shape[1] for f in found)), dtype=np.int64)
        by_edge[order] = np.concatenate(found, axis=1)
        # Lexicographic by label tuple: np.lexsort's last key is its first.
        by_edge = by_edge[:, np.lexsort(by_edge[::-1])]
        labelings = list(map(tuple, by_edge.T.tolist()))
    counts = {}
    total = ramp = 0
    least, ramps = tally
    for m in range(k + 1):
        ramp += ramps[m]
        total += least[m] + ramp
        counts[m] = total
    return counts, labelings


def enumerate_admissible(
    G: TrinionGraph, k: int, max_states: int = DEFAULT_MAX_STATES
) -> list[ThetaLabel]:
    """All admissible assignments, sorted lexicographically by label tuple.

    The search admits only labelings that satisfy every vertex, so the
    labels are built without ``ThetaLabel``'s checks.
    """
    if k < 0:
        raise ValueError("level must be non-negative")
    _, found = _dfs_admissible(G, k, collect=True, max_states=max_states)
    return [ThetaLabel._admitted(G, k, labels) for labels in found]


def bruteforce_counts(
    G: TrinionGraph,
    levels,
    max_states: int = DEFAULT_MAX_STATES,
    stats: dict | None = None,
) -> dict[int, int]:
    """Per k in ``levels`` that the state budget admits, |enumerate_admissible(G, k)|.

    A level is admitted when (k+1)^E <= max_states.  One ``_dfs_admissible``
    runs at the highest admitted level and counts every lower one on the
    way; higher levels are left out, and with none admitted the search at
    the lowest raises BudgetExceeded.  Levels may repeat and come in any
    order; none gives {}.  A ``stats`` dict, if given, receives that
    search's ``nodes`` and ``pruned`` counters.
    """
    levels = set(levels)
    if any(k < 0 for k in levels):
        raise ValueError("level must be non-negative")
    if not levels:
        return {}
    admitted = sorted(k for k in levels if (k + 1) ** G.edge_count <= max_states)
    top = max(admitted, default=min(levels))
    counts, _ = _dfs_admissible(G, top, collect=False, max_states=max_states, stats=stats)
    return {k: counts[k] for k in admitted}


def count_admissible_bruteforce(
    G: TrinionGraph,
    k: int,
    max_states: int = DEFAULT_MAX_STATES,
    stats: dict | None = None,
) -> int:
    """|enumerate_admissible(G, k)|: the single-level form of ``bruteforce_counts``."""
    return bruteforce_counts(G, [k], max_states=max_states, stats=stats)[k]


# ---------------------------------------------------------------------------
# Fast counting by tensor contraction
# ---------------------------------------------------------------------------


@lru_cache(maxsize=32)
def _vertex_blocks(width: int, k: int) -> dict[tuple[int, ...], np.ndarray]:
    """Even-parity blocks, in float64, of a vertex with ``width`` open edges.

    The block of parity pattern p is indexed by half-indices: its cell h
    holds the labels j_i = 2 h_i + p_i.  A plain vertex has three open edges
    and the four patterns of even sum; inside a block condition (1) holds by
    construction, so only the triangle bounds and the level cap are tested.
    The blocks are symmetric under permuting the edges together with the
    pattern, so any axis order serves, and the three odd patterns are
    transposes of one block.  A loop vertex (l, l, t) is summed over l at
    once: conditions (1)-(3) read t even, t <= 2l and 2l + t <= 2k, which
    leaves k - t + 1 values of l for every even t, a single block on the
    other edge.

    Every contraction at level k shares one read-only copy.  The last 32
    (width, k) pairs stay cached: ``asymptotic_table`` revisits levels
    0..d+1 in both widths for each class, 2d + 4 pairs, 16 at genus 3, and
    ``check`` levels 0..m for each class, 2m + 2 pairs, 32 at m = 15.  A
    width-3 entry holds about (k+1)^3 / 2 float64 cells (0.5 MB at k = 50),
    never more than the frontier budget of the call that built it; a
    width-1 entry holds k/2 + 1.
    """
    if width == 1:
        blocks = {(0,): k + 1.0 - np.arange(0, k + 1, 2)}
    else:

        def band(pa: int, pb: int, pc: int) -> np.ndarray:
            a = np.arange(pa, k + 1, 2)[:, None, None]
            b = np.arange(pb, k + 1, 2)[:, None]
            c = np.arange(pc, k + 1, 2)
            # Conditions (3) and (2): |b - c| <= a <= b + c, and a + b + c <= 2k.
            inside = (np.abs(b - c) <= a) & (a <= np.minimum(b + c, 2 * k - b - c))
            return inside.astype(np.float64)

        # Contiguous copies, so that every grouping of their axes into a
        # matrix is a view.
        odd = band(0, 1, 1)
        blocks = {
            (0, 0, 0): band(0, 0, 0),
            (0, 1, 1): odd,
            (1, 0, 1): np.ascontiguousarray(odd.transpose(1, 0, 2)),
            (1, 1, 0): np.ascontiguousarray(odd.transpose(2, 1, 0)),
        }
    for block in blocks.values():
        block.setflags(write=False)
    return blocks


def _to_int(blocks: dict) -> dict:
    """Exact Python ints (dtype=object) from float64 blocks of integers below 2^53."""
    return {p: block.astype(np.int64).astype(object) for p, block in blocks.items()}


@dataclass(frozen=True)
class _Merge:
    """One pairwise merge of a contraction plan, one matrix product per block pair.

    It consumes the tensors in slots ``a`` and ``b``, whose blocks' axes
    are the open edges ``edges_a`` and ``edges_b`` in that order, and fills
    the next free slot with a tensor whose axes are the open edges ``out``;
    ``union`` counts the edges of a and b together, and ``inner`` the edges
    summed inside the result, loops included.  Each block of a
    is viewed once per merge as ``view_a`` = (pre, cuts, perm) says: its
    axes permuted by ``pre`` (None when kept, so that nothing is copied),
    grouped at ``cuts`` into the dimensions of a matrix or a stack of them,
    and those permuted by ``perm`` (None when kept); likewise b's blocks by
    ``view_b``.  ``pairs`` lists, per pair of blocks that agree on the
    shared edges, the patterns of a's block, b's block and the merged block
    that their product adds into; ``odd`` counts, per pair, the union's
    edges of odd parity.
    """

    a: int
    b: int
    width: int
    union: int
    inner: int
    edges_a: tuple[int, ...]
    edges_b: tuple[int, ...]
    out: tuple[int, ...]
    view_a: tuple
    view_b: tuple
    pairs: tuple[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]], ...]
    odd: tuple[int, ...]


def _split(order: tuple[int, ...], shared) -> tuple | None:
    """(before, run, after) when ``shared`` is one contiguous run of ``order``, else None."""
    at = [i for i, e in enumerate(order) if e in shared]
    if at[-1] - at[0] + 1 != len(at):
        return None
    return order[: at[0]], order[at[0] : at[-1] + 1], order[at[-1] + 1 :]


def _matrix(slot: int, order: tuple[int, ...], split: tuple, rows: bool) -> tuple:
    """A view of an operand whose shared run sits at an end, as a matrix.

    The matrix is (free, shared) if ``rows``, else (shared, free); when the
    run sits at the other end, it is the transpose of a view, which BLAS
    takes as it is.  Returns (slot, order, cuts, perm).
    """
    before, run, after = split
    run_last = not after if rows else bool(before)
    cut = len(before) if run_last else len(run)
    return slot, order, (0, cut, len(order)), None if run_last == rows else (1, 0)


def _products(x: tuple, sx: tuple, y: tuple, sy: tuple) -> list[tuple]:
    """The matrix products that contract x with y without moving their axes.

    x and y are (slot, axis order), and sx and sy their ``_split`` on the
    shared edges: one run, in the same order in both, and at an end of y.
    Each product is (left, right, out, stacked): left and right are views
    as ``_matrix`` returns them, out is the axis order of the result and
    stacked tells whether x is a stack of matrices.  With x's run at an
    end too, x is viewed as (free, shared) and y as (shared, free), and the
    result's axes are x's free edges, then y's.  With x's run inside, A
    before it and B after, x is a stack over A of matrices (B, shared),
    times y as (shared, free), which gives A, B, y's free edges; or y as
    (free, shared) times the stack over A of (shared, B), which gives A,
    y's free edges, B.
    """
    (ax, run, bx), (ay, _, by) = sx, sy
    if not (ax and bx):
        return [(_matrix(*x, sx, True), _matrix(*y, sy, False), ax + bx + ay + by, False)]
    cuts = (0, len(ax), len(ax) + len(run), len(x[1]))
    return [
        ((*x, cuts, (0, 2, 1)), _matrix(*y, sy, False), ax + bx + ay + by, True),
        (_matrix(*y, sy, True), (*x, cuts, None), ax + ay + by + bx, True),
    ]


def _greedy_steps(edges: list[tuple[int, ...]]) -> tuple[list, list[set[int]]]:
    """The merges, as pairs of slots, and the open edges of every slot.

    Vertex v's tensor fills slot v and merge m fills slot V + m.  Each step
    merges the pair whose result leaves the fewest open edges, ties broken
    by position in the list of live tensors, a merge's result appended last.
    That list stays in slot order, so the tie-break compares slot numbers.
    Only pairs that share an open edge are candidates, and every open edge
    lies in exactly two live tensors: the candidates wait in a heap, a merge
    pushes its result's pairs and a pair is dropped when it is popped after
    one of its slots was merged.  ROADMAP item 2's searched merge order is
    to replace this function.
    """
    sets = [set(e) for e in edges]
    owners: dict[int, list[int]] = {}
    for v, e in enumerate(edges):
        for x in e:
            owners.setdefault(x, []).append(v)
    heap = [(len(sets[a] ^ sets[b]), a, b) for a, b in {tuple(o) for o in owners.values()}]
    heapq.heapify(heap)
    live = set(range(len(edges)))
    steps = []
    while len(live) > 1:
        assert heap, "connected graph always leaves a sharing pair"
        _, a, b = heapq.heappop(heap)
        if a not in live or b not in live:
            continue
        r = len(sets)
        steps.append((a, b))
        live -= {a, b}
        live.add(r)
        sets.append(sets[a] ^ sets[b])
        others = set()
        for x in sets[r]:
            p, q = owners[x]
            other = q if p in (a, b) else p
            owners[x] = [other, r]
            others.add(other)
        for o in others:
            heapq.heappush(heap, (len(sets[o] ^ sets[r]), o, r))
    return steps, sets


def _axis_orders(edges: list[tuple[int, ...]], sets: list[set[int]], steps: list):
    """The axis order of every slot, and per merged slot its (left, right) views.

    A vertex's blocks are symmetric, so it takes any order; a merged tensor
    takes the order of the product that built it.  Per slot, bottom up,
    every order it can be built in is kept with the least (copies, stacked
    products) of the merges below it, and with the product that gets there
    and the orders that product asks of its operands.  An operand is copied
    into an order with the shared run at an end only where no product fits
    without; it then leaves from its cheapest order.  The cheapest order of
    the last tensor, read back down, fixes every other.
    """
    V = len(edges)
    reach: list[dict] = [{o: ((0, 0), None, {}) for o in permutations(e)} for e in edges]
    for a, b in steps:
        shared = sets[a] & sets[b]
        # Per operand, (order built, order used, cost, split): a copy where
        # the two orders differ.
        found = {
            t: [(o, o, c[0], s) for o, c in reach[t].items() if (s := _split(o, shared))]
            for t in (a, b)
        }

        def combine() -> dict:
            options: dict = {}
            for x, y in ((a, b), (b, a)):
                # y's orders with the shared run at an end, by that run.
                ends: dict[tuple, list] = {}
                for c in found[y]:
                    if not (c[3][0] and c[3][2]):
                        ends.setdefault(c[3][1], []).append(c)
                for x_src, xo, x_cost, sx in found[x]:
                    for y_src, yo, y_cost, sy in ends.get(sx[1], ()):
                        for left, right, out, stacked in _products((x, xo), sx, (y, yo), sy):
                            cost = (x_cost[0] + y_cost[0], x_cost[1] + y_cost[1] + stacked)
                            if out not in options or cost < options[out][0]:
                                options[out] = (cost, (left, right), {x: x_src, y: y_src})
            return options

        options = combine()
        if not options:
            runs = {tuple(sorted(shared))} | {c[3][1] for t in (a, b) for c in found[t]}
            for t in (a, b):
                if t >= V:
                    src = min(reach[t], key=lambda o: reach[t][o][0])
                    copies, stacked = reach[t][src][0]
                    free = tuple(e for e in src if e not in shared)
                    for run in sorted(runs):
                        for o in (free + run, run + free):
                            found[t].append((src, o, (copies + 1, stacked), _split(o, shared)))
            options = combine()
        reach.append(options)

    root = len(reach) - 1
    order = {root: min(reach[root], key=lambda o: reach[root][o][0])}
    views = {}
    for r in reversed(range(V, len(reach))):
        _, views[r], operands = reach[r][order[r]]
        order.update(operands)
    return order, views


@lru_cache(maxsize=4096)
def _contraction_plan(
    pairing: tuple[int, ...],
) -> tuple[tuple[int, ...], tuple[_Merge, ...]]:
    """The open-edge count of each vertex tensor, and the merges in order.

    Merges follow ``_greedy_steps`` and axis orders ``_axis_orders``.
    Every edge carries k + 1 labels and the parity patterns of a tensor's
    blocks do not depend on k either: a vertex with w open edges has the
    0/1 patterns of even sum, in lexicographic order as ``_vertex_blocks``
    keys them.  So the plan serves every level.
    """
    G = TrinionGraph(pairing)
    edges: list[tuple[int, ...]] = []
    for triple in G.vertex_edge_triples():
        # A loop's label is summed inside its vertex blocks, so only edges
        # that appear once in the triple stay open.
        edges.append(tuple(e for e in sorted(set(triple)) if triple.count(e) == 1))
    widths = tuple(len(e) for e in edges)
    V = len(edges)
    steps, sets = _greedy_steps(edges)
    order, views = _axis_orders(edges, sets, steps)

    inner = [(3 - w) // 2 for w in widths]
    patterns = [[p for p in product((0, 1), repeat=w) if sum(p) % 2 == 0] for w in widths]
    merges = []
    for r, (a, b) in enumerate(steps, start=V):
        shared = sets[a] & sets[b]
        out = order[r]
        specs = []
        for t, o, cuts, perm in views[r]:
            pre = None if o == order[t] else tuple(order[t].index(e) for e in o)
            specs.append((pre, cuts, perm))
        ta, tb = views[r][0][0], views[r][1][0]
        edges_a, edges_b = order[ta], order[tb]
        shared_a = [i for i, e in enumerate(edges_a) if e in shared]
        shared_b = [edges_b.index(edges_a[i]) for i in shared_a]
        # Where each open edge's parity is read: (0, axis) in a, (1, axis) in b.
        out_from = [
            (0, edges_a.index(e)) if e in edges_a else (1, edges_b.index(e)) for e in out
        ]
        b_by_shared: dict[tuple, list] = {}
        for pb in patterns[tb]:
            b_by_shared.setdefault(tuple(pb[i] for i in shared_b), []).append(pb)
        pairs = [
            (pa, pb, tuple((pa, pb)[side][i] for side, i in out_from))
            for pa in patterns[ta]
            for pb in b_by_shared.get(tuple(pa[i] for i in shared_a), ())
        ]
        inner.append(inner[a] + inner[b] + len(shared))
        merges.append(
            _Merge(
                ta,
                tb,
                len(out),
                len(edges_a) + len(edges_b) - len(shared),
                inner[r],
                edges_a,
                edges_b,
                out,
                *specs,
                tuple(pairs),
                tuple(sum(pa) + sum(pb) - sum(pb[i] for i in shared_b) for pa, pb, _ in pairs),
            )
        )
        patterns.append(list(dict.fromkeys(p for _, _, p in pairs)))
    return widths, tuple(merges)


def _view(block: np.ndarray, view: tuple) -> np.ndarray:
    """``block`` as the matrix, or stack of matrices, that ``view`` describes."""
    pre, cuts, perm = view
    if pre is not None:
        block = block.transpose(pre)
    shape = block.shape
    # A copy only where ``pre`` moved an axis; otherwise a view.
    block = block.reshape([prod(shape[i:j]) for i, j in zip(cuts, cuts[1:])])
    return block if perm is None else block.transpose(perm)


def _merge(m: _Merge, a: dict, b: dict, sizes: tuple[int, int]):
    """Sum a * b over their shared edges; returns (open edges, blocks).

    Each block of a and of b is viewed once as a matrix, or a stack of
    them, and one ``np.matmul`` runs per block pair of ``m.pairs``, summed
    in place into its merged block.  float64 products run on BLAS and
    object ones in numpy's own loop.  ``sizes`` holds the even and the odd
    label counts, the length of a block's axis by its parity, from which
    each product is reshaped into its block.
    """
    va = {p: _view(block, m.view_a) for p, block in a.items()}
    vb = {p: _view(block, m.view_b) for p, block in b.items()}
    merged: dict[tuple[int, ...], np.ndarray] = {}
    for pa, pb, pattern in m.pairs:
        term = va[pa] @ vb[pb]
        if pattern in merged:
            merged[pattern] += term
        else:
            merged[pattern] = term
    return m.out, {p: t.reshape([sizes[i] for i in p]) for p, t in merged.items()}


def count_via_contraction(
    G: TrinionGraph,
    k: int,
    max_frontier: int = DEFAULT_MAX_FRONTIER,
    stats: dict | None = None,
) -> int:
    """Exact |W_g^k| by contracting per-vertex admissibility tensors.

    Condition (1) is a Z/2 charge that every vertex conserves, so every
    tensor, a vertex's or a merged one, vanishes on each parity pattern of
    its open edges whose sum is odd.  A tensor is therefore stored as
    blocks: one dense float64 array per even pattern p, over the
    half-indices h of the labels j = 2h + p.  With n0 = k//2 + 1 even and
    n1 = (k+1)//2 odd labels, a tensor of width w stores
    ((n0+n1)^w + (n0-n1)^w)/2 cells, about half of (k+1)^w, and a merge
    does about a quarter of the dense multiply-adds.

    Tensors are merged pairwise in the order of ``_contraction_plan``,
    built once per graph: the pair whose merge leaves the fewest open
    edges, ties broken by list position.  A merge runs one ``np.matmul``
    per pair of blocks that agree on the shared edges; the plan orders
    every tensor's axes so that its blocks reshape into those matrices as
    views.  The vertex blocks of level k are built once and shared by every
    graph (``_vertex_blocks``).  Before any tensor is built, the stored
    cells of every tensor the plan builds are checked against
    ``max_frontier``, and BudgetExceeded is raised if one passes it; the
    default budget of 10^7 cells bounds one tensor at about 80 MB.  Agrees
    with count_admissible_bruteforce by construction of the vertex blocks.

    Merges run in float64 until the first merge whose largest entry, over
    all its blocks, reaches 2^53.  That merge is redone, and every later one
    done, in exact Python ints (``dtype=object``); earlier results are kept.
    A merge skips the test where no entry can reach 2^53: an entry counts
    labelings of the edges summed inside the result, so it is at most
    (k+1)^inner.  The switch is exact.  BLAS dgemm forms each entry from
    products of operand entries, summed in an order set by its blocking,
    vector width and threads, but with no subtraction (OpenBLAS has no
    Strassen-like path); the products of one merged pattern are then added
    in place.  Every value formed on the way is thus a non-negative count
    of labelings, each product, sum or fused multiply-add rounds once, and
    float64 rounding is monotone.  While every value formed so far is below
    2^53 it is an integer float64 holds, so it is exact.  The first whose
    true value reaches 2^53 is formed from exact inputs and rounds to 2^53
    or more, every value it feeds adds only non-negative terms, and the
    entry computes to 2^53 or more and trips the switch.  If instead every
    computed entry is below 2^53, nothing was rounded, whatever the
    blocking or thread split.

    A ``stats`` dict, if given, receives ``peak_cells``, the stored cells of
    the largest tensor built; ``int_from_merge``, the 0-based index of the
    first merge done in Python ints, or None if all ran in float64;
    ``plan_cost``, the multiply-adds of all merges at level k, the sum of
    M*K*N over their block pairs; and ``peak_union``, the most edges any
    merge spans.  All four follow from the plan and k alone.
    """
    if k < 0:
        raise ValueError("level must be non-negative")
    widths, merges = _contraction_plan(G.pairing)
    n0, n1 = sizes = k // 2 + 1, (k + 1) // 2
    peak = 0
    for width in (*widths, *(m.width for m in merges)):
        need = ((n0 + n1) ** width + (n0 - n1) ** width) // 2
        if need > max_frontier:
            raise BudgetExceeded(
                f"frontier of {width} open edges needs even-parity blocks of "
                f"((k+1)^{width} + {n0 - n1}^{width})/2 = {need} cells; "
                f"budget is {max_frontier}"
            )
        peak = max(peak, need)

    # The live tensors by slot; a merge frees its operands' slots.  Vertex
    # blocks depend on the width and k alone and are read-only, so vertices
    # of one width share one cached dict.
    slots = {v: _vertex_blocks(w, k) for v, w in enumerate(widths)}
    int_from = None
    for step, m in enumerate(merges):
        a, b = slots.pop(m.a), slots.pop(m.b)
        edges, merged = _merge(m, a, b, sizes)
        # An entry counts labelings of the m.inner edges summed inside it, so
        # it is at most (k+1)^inner; the odd blocks are empty at k = 0,
        # hence initial=0.
        if (
            int_from is None
            and (k + 1) ** m.inner >= _FLOAT_EXACT_LIMIT
            and max(np.max(block, initial=0) for block in merged.values())
            >= _FLOAT_EXACT_LIMIT
        ):
            int_from = step
            slots = {s: _to_int(t) for s, t in slots.items()}
            edges, merged = _merge(m, _to_int(a), _to_int(b), sizes)
        slots[len(widths) + step] = merged

    if stats is not None:
        stats["peak_cells"] = peak
        stats["int_from_merge"] = int_from
        stats["plan_cost"] = sum(n0 ** (m.union - o) * n1**o for m in merges for o in m.odd)
        stats["peak_union"] = max(m.union for m in merges)
    (final,) = slots.values()
    assert edges == ()
    return int(final[()])
