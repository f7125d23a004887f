"""The Clebsch-Gordan moment polytope of a trinion graph, in action coordinates.

The polytope lives in [0,1]^E with one coordinate c_e per edge (c = j/k on
the weight lattice).  Each vertex with incident labels (c_a, c_b, c_c) --
loops doubled -- contributes the three triangle inequalities c_x <= c_y + c_z
and the cap c_a + c_b + c_c <= 2; together with the box constraints this is
the full H-representation, held as integer rows: a row given with rational
entries is scaled by the lcm of its denominators when the polytope is made,
so every route reads the one integer form.  Everything except Monte Carlo
sampling is exact: ``exact_volume`` integrates over facets on primitive
integer rows, pruning the faces that opposite rows pin into a slab of zero
width.  ``mc_volume`` draws a sample's coordinates vertex by vertex, in
stages, and only while the sample is still inside, so a sample costs about
four uniforms at any genus.  The CLI holds both to the closed form
``moment_volume`` of every genus-g polytope, exactly and to 4 binomial sigma.

The admissible weights of level k are exactly the points of (1/k)Z^E inside
the polytope whose scaled coordinates j = k*c satisfy the per-vertex parity
condition, so their count is a third route to the weight counts, which
``check`` holds to the contraction at every level from 1.
``lattice_counts`` counts every requested level in one pass, with a numpy
frontier of partial points fixed coordinate by coordinate along a connected
edge order (``lattice_count`` is its single-level form); each point carries
its level's index, which selects its label box and row bounds.  At each coordinate the admitted labels of a partial
point form an interval, cut to one parity class by the vertices that
complete there, so the next frontier is a repeat of arithmetic progressions
and the last coordinate is summed per level in closed form.  Frontiers are
expanded by ``graph.sliced_frontier``, which the brute-force route shares,
in int64 under a checked magnitude bound per level.
The parity condition thins the full (1/k)-lattice by 2^r, r = V - 1 the GF(2)
rank of the parity system, so the counts grow as volume / 2^r times k^dim,
with the volume in closed form (``moment_volume``); ``asymptotic_table``
checks this exactly on the count polynomial, whose every coefficient must
also equal the Verlinde polynomial's.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, gcd, lcm

import numpy as np

from verlinde_lab.budget import BudgetExceeded
from verlinde_lab.fusion import bernoulli_numbers
from verlinde_lab.graph import TrinionGraph, connected_edge_order, sliced_frontier
from verlinde_lab.weights import count_via_contraction

#: exact_volume is a recursive boundary integration; past this dimension it
#: raises BudgetExceeded.
MAX_EXACT_DIMENSION = 6

MIN_MC_SAMPLES = 10**3

#: mc_volume draws and tests its samples in slices; each array a slice holds,
#: its drawn coordinates or its row values by samples, has at most this many
#: cells.
_MC_CELLS = 2**18

#: lattice_counts works in int64; integer rows must stay below this magnitude.
_LATTICE_INT_LIMIT = 2**62


@dataclass(frozen=True)
class ClebschGordanPolytope:
    """H-representation on integer rows: rows (a, b) meaning a . c <= b.

    Rows may be given with rational entries; each such row is scaled by the
    lcm of its denominators, so every stored entry is an ``int``, and a row
    given in ``int`` is kept as it is.  Two polytopes whose rows differ only
    by that scaling compare equal.
    """

    dim: int
    ineqs: tuple[tuple[tuple[int, ...], int], ...]

    def __post_init__(self):
        rows = list(self.ineqs)
        for i, (a, b) in enumerate(rows):
            if len(a) != self.dim:
                raise ValueError("inequality arity does not match dimension")
            # A row of ints sums to an int; any Fraction entry makes it a Fraction.
            if type(sum(a, b)) is not int:
                scale = lcm(b.denominator, *(c.denominator for c in a))
                a = tuple(c.numerator * (scale // c.denominator) for c in a)
                rows[i] = (a, b.numerator * (scale // b.denominator))
        object.__setattr__(self, "ineqs", tuple(rows))


def build_polytope(G: TrinionGraph) -> ClebschGordanPolytope:
    """H-representation of the moment polytope of G, deterministic row order.

    Rows are deduplicated on their sparse form, the nonzero coefficients by
    edge and the bound, so the Python work per row is in its support; each
    kept row is then written out dense, in ``int``.
    """
    d = G.edge_count
    seen: dict[tuple, None] = {}

    def add(coeffs: dict[int, int], bound: int):
        seen.setdefault((tuple(sorted((e, c) for e, c in coeffs.items() if c)), bound))

    for e in range(d):
        add({e: -1}, 0)
        add({e: 1}, 1)
    for triple in G.vertex_edge_triples():
        for x in range(3):
            coeffs: dict[int, int] = {}
            coeffs[triple[x]] = coeffs.get(triple[x], 0) + 1
            for y in range(3):
                if y != x:
                    coeffs[triple[y]] = coeffs.get(triple[y], 0) - 1
            if any(c != 0 for c in coeffs.values()):
                add(coeffs, 0)
        total: dict[int, int] = {}
        for e in triple:
            total[e] = total.get(e, 0) + 1
        add(total, 2)
    rows = []
    for support, bound in seen:
        a = [0] * d
        for e, c in support:
            a[e] = c
        rows.append((tuple(a), bound))
    return ClebschGordanPolytope(d, tuple(rows))


def contains(P: ClebschGordanPolytope, point: tuple[Fraction, ...]) -> bool:
    """Exact membership test."""
    if len(point) != P.dim:
        raise ValueError(f"point has {len(point)} coordinates, polytope is {P.dim}-dimensional")
    for a, b in P.ineqs:
        if sum(ai * xi for ai, xi in zip(a, point)) > b:
            return False
    return True


# ---------------------------------------------------------------------------
# Exact volume: recursive facet integration on primitive integer rows
# ---------------------------------------------------------------------------
#
# For P = {x : a_i . x <= b_i} the divergence theorem with the field x/d gives
#   vol_d(P) = (1/d) * sum_i (b_i / |a_i|) vol_{d-1}(F_i),
# and eliminating the pivot coordinate p on the facet hyperplane turns each
# term into  (1/d) * b_i * vol_{d-1}(P_i) / |a_{i,p}|  where P_i is the
# substituted (d-1)-dimensional system.  Rows stay integers: elimination
# scales a row by |a_{i,p}| > 0 before subtracting the facet row, and
# normalisation divides by the gcd, so Fractions hold only the volumes and
# the ends of 1-D intervals.  Normalised systems (the tightest primitive row
# per direction, sorted) are memoized, so equal faces reached along different
# facet chains are computed once, independent of the input row order.  A
# system with opposite rows u.x <= s and -u.x <= t, s + t <= 0, lies in a slab
# of zero width or is empty: its volume is exactly 0 and it is not recursed
# into.  Most faces of the moment polytopes are such slabs.


def _normalize_rows(rows) -> tuple | None:
    """Canonical system: primitive integer rows, the tightest per direction, sorted.

    Returns None, volume 0, for a row 0 <= b < 0 or a zero-width or empty slab.
    """
    by_dir: dict = {}
    for a, b in rows:
        m = gcd(*a)
        if m == 0:
            if b < 0:
                return None
            continue
        # The row reads u.x <= b/m along the primitive direction u.
        u = tuple([c // m for c in a])
        kept = by_dir.get(u)
        if kept is None or b * kept[1] < kept[0] * m:
            opposite = by_dir.get(tuple([-c for c in u]))
            if opposite is not None and b * opposite[1] + opposite[0] * m <= 0:
                return None
            by_dir[u] = (b, m)
    out = []
    for u, (b, m) in by_dir.items():
        g = gcd(b, m)
        out.append((tuple(c * (m // g) for c in u), b // g))
    return tuple(sorted(out))


def _has_recession(rows, dim: int) -> bool:
    """Whether a . d <= 0 for every row (a, b) has a solution d != 0.

    Fourier-Motzkin on the homogeneous integer rows, one coordinate at a
    time.  Its projection onto the live coordinates is the projection of the
    cone {d : A d <= 0}; that cone is nonzero exactly when, at some step, the
    coordinate about to go has coefficients of one sign only, for then a
    unit step along it stays in the projected cone.  Combined rows are kept
    primitive and deduplicated, and by Chernikov's rule a row combined from
    more than t + 1 input rows after t eliminations is implied by the
    others and dropped.
    """
    system: dict[tuple[int, ...], frozenset] = {}
    for n, (a, _) in enumerate(rows):
        system.setdefault(tuple(a), frozenset([n]))
    for t in range(dim):
        pos = [a for a in system if a[t] > 0]
        neg = [a for a in system if a[t] < 0]
        if not pos or not neg:
            return True
        kept = {a: h for a, h in system.items() if a[t] == 0}
        for p in pos:
            for q in neg:
                history = system[p] | system[q]
                if len(history) > t + 2:
                    continue
                c = [-q[t] * x + p[t] * y for x, y in zip(p, q)]
                m = gcd(*c)
                if m:
                    c = tuple([x // m for x in c])
                    if c not in kept or len(history) < len(kept[c]):
                        kept[c] = history
        system = kept
    return False


def _interval_length(rows) -> Fraction:
    """Length of a normalised 1-D system: a bounded region leaves two rows."""
    ((lo_a,), lo_b), ((hi_a,), hi_b) = rows
    return Fraction(hi_b, hi_a) + Fraction(lo_b, -lo_a)


def _substitute(rows, facet_row, pivot: int):
    """Eliminate coordinate ``pivot`` using equality on ``facet_row``.

    Each other row is scaled by |f_p| > 0 and sign(f_p) * a_p facet rows are
    subtracted, so the rows stay integral and the inequalities keep their sense.
    """
    fa, fb = facet_row
    scale, sign = abs(fa[pivot]), (1 if fa[pivot] > 0 else -1)
    for a, b in rows:
        if (a, b) != facet_row:
            c = sign * a[pivot]
            na = [scale * x - c * y for x, y in zip(a, fa)]
            del na[pivot]
            yield tuple(na), scale * b - c * fb


def exact_volume(P: ClebschGordanPolytope, stats: dict | None = None) -> Fraction:
    """Exact Euclidean volume; 0 for degenerate (lower-dimensional) input.

    Raises BudgetExceeded past ``MAX_EXACT_DIMENSION``, and ValueError when
    the rows bound no region: when a . d <= 0 for every row has a solution
    d != 0, whatever the right-hand sides, so an empty region with unbounded
    rows is refused as well.  That is decided once per call by
    ``_has_recession``; every face of a region it passes is bounded too, so
    each 1-D face ends in two rows.

    A ``stats`` dict, if given, receives ``memo_entries``, the faces
    integrated, and ``faces_pruned``, the empty or zero-width faces that
    normalisation set to 0 without recursing.
    """
    if P.dim > MAX_EXACT_DIMENSION:
        raise BudgetExceeded(
            f"exact_volume supports dimension <= {MAX_EXACT_DIMENSION} "
            f"(got {P.dim}); use mc_volume"
        )
    if _has_recession(P.ineqs, P.dim):
        raise ValueError("polytope is unbounded: its rows admit a recession direction")
    memo: dict = {}
    pruned = 0

    def volume(d: int, rows) -> Fraction:
        nonlocal pruned
        if rows is None:
            pruned += 1
            return Fraction(0)
        if d <= 1:
            return _interval_length(rows) if d else Fraction(1)
        if (d, rows) not in memo:
            total = Fraction(0)
            for a, b in rows:
                if b:  # a facet hyperplane through the origin contributes 0
                    pivot = max(range(d), key=lambda i: (abs(a[i]), -i))
                    sub = _normalize_rows(_substitute(rows, (a, b), pivot))
                    total += b * volume(d - 1, sub) / abs(a[pivot])
            memo[d, rows] = total / d
        return memo[d, rows]

    result = volume(P.dim, _normalize_rows(P.ineqs))
    if stats is not None:
        stats["memo_entries"] = len(memo)
        stats["faces_pruned"] = pruned
    return result


def mc_volume(
    P: ClebschGordanPolytope, samples: int, rng_seed: int, stats: dict | None = None
) -> tuple[float, float]:
    """Hit-or-miss volume estimate over [0,1)^dim with binomial standard error.

    A sample x is a hit when a . x <= b on every row, evaluated in float.
    Only the cut rows, those the sampling cube does not imply, are tested: a
    row whose positive coefficients sum to at most b holds at every point of
    [0,1)^dim, so skipping it changes no hit.  The test is made exactly, on
    the integer rows; for a moment polytope it drops the box rows.  A
    polytope with no cut row (the unit box) estimates 1.0, and one with a
    cut row that reads no coordinate (0 <= b < 0) estimates 0.0.

    A sample's coordinates are drawn stage by stage, and only while it is
    still inside.  Taking the cut rows in row order, each one that reads
    undrawn coordinates opens a stage, which draws those coordinates in
    ascending index order; each cut row is tested at the stage that draws
    its last coordinate.  For a moment polytope a stage opens at each vertex
    that brings new edges, and most samples leave at the first vertex, so a
    sample costs about four uniforms at any genus rather than dim.  Stage s
    of S draws ``rng.random((m, c))`` for its m surviving samples, in sample
    order, from ``np.random.default_rng(rng_seed).spawn(S)[s]``.  Each
    generator yields the same stream however its draws are sliced, so the
    samples are taken in slices, and each array a slice holds, its drawn
    coordinates by samples or its row values by samples, has at most
    ``_MC_CELLS`` cells.  A sample hits when every row holds, whatever
    order the rows are tested in, so neither the slices nor the stages
    change a hit; the estimate is Binomial(samples, volume) / samples.

    A ``stats`` dict, if given, receives ``draws``, the uniforms drawn, and
    ``stages``, the number of stages.
    """
    if samples < MIN_MC_SAMPLES:
        raise ValueError(f"need at least {MIN_MC_SAMPLES} samples, got {samples}")
    cut = [
        (a, b, [e for e, c in enumerate(a) if c])
        for a, b in P.ineqs
        if sum(c for c in a if c > 0) > b
    ]
    if not all(support for *_, support in cut):
        # A cut row that reads no coordinate, 0 <= b < 0, fails everywhere.
        if stats is not None:
            stats.update(draws=0, stages=0)
        return 0.0, 0.0
    pos: dict[int, int] = {}  # coordinate -> its place in draw order
    ends: list[int] = []  # per stage, the coordinates drawn through it
    tested: list[list] = []  # per stage, the rows it tests
    for a, b, support in cut:
        if any(e not in pos for e in support):
            for e in support:
                pos.setdefault(e, len(pos))
            ends.append(len(pos))
            tested.append([])
        # The row is tested at the stage that draws its last coordinate.
        tested[bisect_right(ends, max(pos[e] for e in support))].append((a, b, support))
    # Per stage: how many coordinates it draws, and its rows over every
    # coordinate drawn through it, in draw order, as A and b in A @ x <= b.
    plan = []
    for start, end, rows in zip([0, *ends], ends, tested):
        A = np.zeros((len(rows), end))
        for i, (a, _, support) in enumerate(rows):
            A[i, [pos[e] for e in support]] = [float(a[e]) for e in support]
        plan.append((end - start, A, np.array([[float(b)] for _, b, _ in rows])))
    per_slice = max(1, _MC_CELLS // max([1, len(pos), *map(len, tested)]))
    gens = np.random.default_rng(rng_seed).spawn(len(plan))
    hits = draws = 0
    for start in range(0, samples, per_slice):
        # x holds the drawn coordinates, by samples, of the m samples that
        # entered the last stage, and keep the columns of its survivors.
        # Rows by samples, all(axis=0) ANDs whole rows of samples at once.
        m = min(per_slice, samples - start)
        x = keep = None
        for gen, (c, A, b) in zip(gens, plan):
            y = np.empty((A.shape[1], m))
            if keep is not None:
                x.take(keep, axis=1, out=y[:-c], mode="clip")
            y[-c:] = gen.random((m, c)).T
            draws += c * m
            x, keep = y, np.flatnonzero((A @ y <= b).all(axis=0))
            m = len(keep)
            if not m:
                break
        hits += m
    if stats is not None:
        stats.update(draws=draws, stages=len(plan))
    estimate = hits / samples
    stderr = (estimate * (1.0 - estimate) / samples) ** 0.5
    return estimate, stderr


# ---------------------------------------------------------------------------
# Lattice counting and asymptotics
# ---------------------------------------------------------------------------


def _parity_plan(G: TrinionGraph, order: list[int]):
    """Per position t of ``order``: the parity constraint on the label there.

    Returns (odd, even) lists.  ``odd[t]`` holds, for each vertex completing
    at t whose edge order[t] enters its sum an odd number of times, the
    earlier positions whose labels fix that label's parity.  ``even[t]``
    holds, for each vertex completing at t through a loop on order[t], the
    earlier positions whose label sum must be even whatever the label.
    """
    pos = {e: t for t, e in enumerate(order)}
    odd: list[list[list[int]]] = [[] for _ in order]
    even: list[list[list[int]]] = [[] for _ in order]
    for triple in G.vertex_edge_triples():
        t = max(pos[e] for e in triple)
        rest = [pos[e] for e in triple if pos[e] != t]
        (odd if len(rest) % 2 == 0 else even)[t].append(rest)
    return odd, even


def lattice_counts(P: ClebschGordanPolytope, G: TrinionGraph, levels) -> list[int]:
    """Per k in ``levels``, the points of (1/k)Z^dim in P whose labels j = k*c
    satisfy vertex parity, all counted in one frontier pass.

    This is the polytope-side route to the weight count: only the
    H-representation and the parity condition are consulted.  Labels are
    fixed one coordinate at a time along ``connected_edge_order(G)``, for a
    whole frontier of partial points at once, and the partial points of
    every requested level share that frontier: each carries its level's
    index, so the graph's rows, edge order and parity plan are read once
    for all levels.  Each coordinate's labels lie in the box that P's
    single-coordinate rows give it at that level; a coordinate without both
    a lower and an upper such row raises ValueError.  At coordinate t the
    labels a partial point admits form an interval, read from the rows with
    a nonzero coefficient at t and the least the later coordinates can add
    to each row within their boxes at the point's level; the vertices
    completing at t cut it to one parity class.  ``graph.sliced_frontier``
    repeats each partial point once per admitted label, a point costing its
    labels plus two cells per row read at its next coordinate, where that
    row's bound is gathered for the point's level and its product with the
    labels formed; the last coordinate is counted per level, not
    materialised.  Arithmetic is int64, and the closing sums are exact past
    2^63; a level whose rows' magnitude could reach 2^62 raises ValueError,
    naming the level, before counting.  Levels may repeat and come in any
    order; each must be at least 1.
    """
    levels = list(levels)
    if any(k < 1 for k in levels):
        raise ValueError("level must be at least 1")
    d = P.dim
    if d != G.edge_count:
        raise ValueError("polytope dimension does not match the graph's edge count")
    ks = sorted(set(levels))
    if not ks:
        return []
    # Each coordinate's bounding rows c * j_e <= b * k, from the rows with one
    # nonzero coefficient.
    lows: list[list[tuple[int, int]]] = [[] for _ in range(d)]
    highs: list[list[tuple[int, int]]] = [[] for _ in range(d)]
    support = [[(e, c) for e, c in enumerate(ia) if c] for ia, _ in P.ineqs]
    for (_, ib), sup in zip(P.ineqs, support):
        if len(sup) == 1:
            e, c = sup[0]
            (highs if c > 0 else lows)[e].append((c, ib))
    for e in range(d):
        if not lows[e] or not highs[e]:
            raise ValueError(
                f"coordinate {e} has no lower or no upper single-coordinate row; "
                "lattice_counts reads each label box from those rows"
            )
    box_lo, box_hi = [], []
    for k in ks:
        lo = [max(-(ib * k // -c) for c, ib in rows) for rows in lows]
        hi = [min(ib * k // c for c, ib in rows) for rows in highs]
        reach = [max(abs(x), abs(y)) for x, y in zip(lo, hi)]
        magnitude = max(
            (
                sum(abs(c) * reach[e] for e, c in sup) + abs(ib * k)
                for (_, ib), sup in zip(P.ineqs, support)
            ),
            default=0,
        )
        if magnitude >= _LATTICE_INT_LIMIT:
            raise ValueError(
                f"integer rows at level {k} reach magnitude {magnitude}, past the "
                "int64 working limit 2^62; lattice_counts cannot count exactly"
            )
        box_lo.append(lo)
        box_hi.append(hi)
    # A row with no coefficients never bounds a coordinate; check it once.
    if any(ib < 0 for (_, ib), sup in zip(P.ineqs, support) if not sup):
        return [0] * len(levels)
    rows = [row for row, sup in zip(P.ineqs, support) if sup]
    order = connected_edge_order(G)
    # Rows A . j <= B[level] over the integer labels j, columns in edge order.
    A = np.array([[ia[e] for e in order] for ia, _ in rows], dtype=np.int64)
    A = A.reshape(-1, d)
    B = np.array([[ib * k for _, ib in rows] for k in ks], dtype=np.int64)
    B = B.reshape(len(ks), -1)
    lo_t = np.array(box_lo, dtype=np.int64)[:, order]
    hi_t = np.array(box_hi, dtype=np.int64)[:, order]
    # min_rest[level, row, t]: least contribution of the coordinates at t and after.
    least = np.minimum(A * lo_t[:, None, :], A * hi_t[:, None, :])
    min_rest = np.zeros((len(ks), len(rows), d + 1), dtype=np.int64)
    min_rest[:, :, :d] = np.cumsum(least[:, :, ::-1], axis=2)[:, :, ::-1]
    odd, even = _parity_plan(G, order)
    # Per coordinate, its rows with positive coefficients first: the earlier
    # coordinates they read and their coefficients there, their bound at
    # each level, and their coefficients' magnitudes.  Frontiers hold one
    # column per point, so every per-point reduction runs down a column.
    plan = []
    for t in range(d):
        r = np.concatenate([np.flatnonzero(A[:, t] > 0), np.flatnonzero(A[:, t] < 0)])
        up = int(np.count_nonzero(A[:, t] > 0))
        read = np.flatnonzero(A[r, :t].any(axis=0))
        bound = (B[:, r] - min_rest[:, r, t + 1]).T
        plan.append((read, A[np.ix_(r, read)], bound, up, np.abs(A[r, t])[:, None]))
    # Cells a point entering coordinate t costs: its t labels, then per row
    # read at t the bound gathered for its level and the row's product.
    cells = [t + 2 * len(plan[t][2]) for t in range(d)]
    totals = [0] * len(ks)

    def admitted(t: int, labels, lev):
        """Each point's admitted labels at position t; at the last, counted per level."""
        read, A_read, bound, up, coef = plan[t]
        # np.take keeps the gathered arrays C-ordered, as fancy indexing
        # along the second axis does not.
        lo = lo_t[:, t].take(lev)
        hi = hi_t[:, t].take(lev)
        if coef.size:
            slack = bound.take(lev, axis=1)
            slack -= A_read @ labels[read]
            if up:
                hi = np.minimum(hi, (slack[:up] // coef[:up]).min(axis=0))
            if up < coef.size:
                lo = np.maximum(lo, -(slack[up:] // coef[up:]).min(axis=0))
        step = 1
        if odd[t] or even[t]:
            ok = np.ones(len(lev), dtype=bool)
            for rest in even[t]:
                ok &= (labels[rest].sum(axis=0) & 1) == 0
            parity = [labels[rest].sum(axis=0) & 1 for rest in odd[t]]
            for p in parity[1:]:
                ok &= p == parity[0]
            if parity:
                lo = lo + ((lo + parity[0]) & 1)
                step = 2
            hi = np.where(ok, hi, lo - 1)
        cnt = np.maximum(hi - lo, -step) // step + 1
        if t < d - 1:
            return lo, step, cnt, lambda at, n, last: lev[at].repeat(n)
        # Summed per level as two 31-bit halves, each exact in int64 for any
        # slice of fewer than 2^32 points.
        for shift, half in ((31, cnt >> 31), (0, cnt & (2**31 - 1))):
            sums = np.zeros(len(ks), dtype=np.int64)
            np.add.at(sums, lev, half)
            for i, s in enumerate(sums.tolist()):
                totals[i] += s << shift
        return None

    sliced_frontier(np.zeros((0, len(ks)), dtype=np.int64), np.arange(len(ks)), admitted, cells)
    index = {k: i for i, k in enumerate(ks)}
    return [totals[index[k]] for k in levels]


def lattice_count(P: ClebschGordanPolytope, G: TrinionGraph, k: int) -> int:
    """Points of (1/k)Z^dim in P whose labels j = k*c satisfy vertex parity.

    The single-level form of ``lattice_counts``, which describes the route.
    """
    return lattice_counts(P, G, [k])[0]


@dataclass(frozen=True)
class AsymptoticRow:
    level: int
    count: int
    ratio: Fraction  # count / level**dim


def moment_volume(g: int) -> Fraction:
    """Volume 2^(3g-4)|B_(2g-2)|/(2g-2)! of every genus-g (g >= 2) moment polytope.

    It is 2^(2g-3) times Witten's volume, the Verlinde rank's leading coefficient.
    """
    return 2 ** (3 * g - 4) * abs(bernoulli_numbers(2 * g - 2)[-1]) / factorial(2 * g - 2)


@dataclass(frozen=True)
class AsymptoticTable:
    """Growth law of the lattice counts against the polytope volume.

    The counts are a polynomial in k of degree d = ``dimension``, and
    ``leading_coefficient`` is its exact leading coefficient.  ``volume`` is
    the closed-form ``moment_volume``; the parity condition keeps only a 2^r
    fraction of the lattice, so ``volume_parity_corrected`` = volume / 2^r is
    the constant the leading coefficient equals.  ``count_polynomial`` holds
    all d+1 coefficients, of n^0..n^d in n = k+2, the variable of
    ``fusion.verlinde_polynomial``.  ``extrapolated_limit`` fits
    count/k^d = C + a/k + b/k^2 through the last three levels (None when
    fewer than three rows exist).
    """

    dimension: int
    rows: tuple[AsymptoticRow, ...]
    extrapolated_limit: Fraction | None
    volume: Fraction
    parity_rank: int
    volume_parity_corrected: Fraction
    leading_coefficient: Fraction
    count_polynomial: tuple[Fraction, ...]


def _fit_limit(points: list[tuple[int, Fraction]]) -> Fraction:
    """C in t(k) = C + a/k + b/k^2 through three (k, t) points, by Lagrange at 1/k = 0."""
    xs = [Fraction(1, k) for k, _ in points]
    total = Fraction(0)
    for i, (_, t) in enumerate(points):
        term = t
        for j, x in enumerate(xs):
            if j != i:
                term *= x / (x - xs[i])
        total += term
    return total


def asymptotic_table(G: TrinionGraph, k_max: int) -> AsymptoticTable:
    """Counts N_k for k <= k_max, ratios N_k/k^d, and the exact growth constant.

    N_k has degree d = E = 3g-3 in k (Zagier 1996): contraction runs at
    k = 0..d+1, a nonzero (d+1)-th forward difference raises ValueError, and
    the differences at k = 0 give every other N_k by Newton's forward formula.
    """
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    d = G.edge_count
    diffs = [count_via_contraction(G, k) for k in range(d + 2)]
    for i in range(d + 1):  # diffs[j] becomes the j-th forward difference at k = 0
        diffs[i + 1 :] = [b - a for a, b in zip(diffs[i:], diffs[i + 1 :])]
    if diffs[d + 1]:
        raise ValueError(
            f"contraction counts at k = 0..{d + 1} are not a polynomial of degree "
            f"{d} in k: their {d + 1}-th difference is {diffs[d + 1]}"
        )
    # d! N as a polynomial in n = k+2: N = sum_i diffs[i] C(n-2, i), where
    # i! C(n-2, i) is the falling product (n-2)(n-3)...(n-1-i).
    scaled, falling = [0] * (d + 1), [1]
    for i in range(d + 1):
        weight = diffs[i] * (factorial(d) // factorial(i))
        for j, c in enumerate(falling):
            scaled[j] += weight * c
        # falling *= (n - 2 - i)
        falling = [a - (2 + i) * b for a, b in zip([0, *falling], [*falling, 0])]
    count_polynomial = tuple(Fraction(c, factorial(d)) for c in scaled)
    rows = []
    for k in range(1, k_max + 1):
        n = sum(comb(k, i) * diffs[i] for i in range(d + 1))
        rows.append(AsymptoticRow(k, n, Fraction(n, k**d)))
    limit = None
    if k_max >= 3:
        limit = _fit_limit([(r.level, r.ratio) for r in rows[-3:]])
    vol = moment_volume(G.genus)
    # The parity rows are the GF(2) vertex-edge incidence matrix with loops
    # dropped; a connected graph's has rank V - 1.
    r = G.vertex_count - 1
    return AsymptoticTable(
        dimension=d,
        rows=tuple(rows),
        extrapolated_limit=limit,
        volume=vol,
        parity_rank=r,
        volume_parity_corrected=vol / 2**r,
        leading_coefficient=count_polynomial[d],
        count_polynomial=count_polynomial,
    )


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------


def to_json_dict(P: ClebschGordanPolytope) -> dict:
    """Polytope JSON: {"dim": d, "ineqs": [[a_1..a_d, b], ...]}, integers as strings."""
    return {
        "dim": P.dim,
        "ineqs": [[str(c) for c in (*a, b)] for a, b in P.ineqs],
    }


def from_json_dict(data: dict) -> ClebschGordanPolytope:
    """Parse polytope JSON, rows of rational strings (or ints), each row then
    scaled to integers; any other shape raises ValueError."""
    if not isinstance(data, dict) or type(data.get("dim")) is not int or data["dim"] < 0:
        raise ValueError('polytope JSON needs a non-negative integer "dim" field')
    d, rows = data["dim"], data.get("ineqs")
    if not isinstance(rows, list):
        raise ValueError('polytope JSON needs an "ineqs" list of rows')
    ineqs = []
    for row in rows:
        shaped = isinstance(row, list) and len(row) == d + 1
        if not shaped or not all(type(s) in (str, int) for s in row):
            raise ValueError(f"inequality row needs {d + 1} rational strings, got {row!r}")
        try:
            vals = [Fraction(s) for s in row]
        except ZeroDivisionError:
            raise ValueError(f"inequality entry with zero denominator in {row!r}") from None
        ineqs.append((tuple(vals[:d]), vals[d]))
    return ClebschGordanPolytope(d, tuple(ineqs))
