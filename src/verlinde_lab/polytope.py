"""The Clebsch-Gordan moment polytope of a trinion graph, in action coordinates.

The polytope lives in [0,1]^E with one coordinate c_e per edge (c = j/k on
the weight lattice).  Each vertex with incident labels (c_a, c_b, c_c) --
loops doubled -- contributes the three triangle inequalities c_x <= c_y + c_z
and the cap c_a + c_b + c_c <= 2; together with the box constraints this is
the full H-representation.  Everything except Monte Carlo sampling is exact:
``exact_volume`` integrates over facets on primitive integer rows, pruning
the faces that opposite rows pin into a slab of zero width.

The admissible weights of level k are exactly the points of (1/k)Z^E inside
the polytope whose scaled coordinates j = k*c satisfy the per-vertex parity
condition, so ``lattice_count`` must and does reproduce the weight counts.
It counts them with a level-by-level numpy frontier of partial points along a
connected edge order: at each coordinate the admitted labels of a partial
point form an interval, cut to one parity class by the vertices that
complete there, so the next frontier is a repeat of arithmetic progressions
and the last coordinate is summed in closed form.  Frontiers are expanded
depth-first in bounded slices, in int64 under a checked magnitude bound.
The parity condition thins the full (1/k)-lattice by 2^r, r = V - 1 the GF(2)
rank of the parity system, so the counts grow as volume / 2^r times k^dim,
with the volume in closed form (``moment_volume``); ``asymptotic_table``
checks this exactly on the count polynomial.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb, factorial, gcd, lcm

import mpmath
import numpy as np

from verlinde_lab.graph import TrinionGraph, can_recurse, connected_edge_order
from verlinde_lab.weights import count_via_contraction

#: exact_volume is a recursive boundary integration; cap the dimension.
MAX_EXACT_DIMENSION = 6

MIN_MC_SAMPLES = 10**3

_MC_CHUNK = 65536

#: lattice_count expands each frontier in slices of at most this many cells.
_LATTICE_CHUNK = 65536

#: lattice_count works in int64; integer rows must stay below this magnitude.
_LATTICE_INT_LIMIT = 2**62


@dataclass(frozen=True)
class ClebschGordanPolytope:
    """Rational H-representation: rows (a, b) meaning a . c <= b."""

    dim: int
    ineqs: tuple[tuple[tuple[Fraction, ...], Fraction], ...]

    def __post_init__(self):
        for a, b in self.ineqs:
            if len(a) != self.dim:
                raise ValueError("inequality arity does not match dimension")

    @cached_property
    def integer_rows(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """The rows (a, b), each scaled by the lcm of its denominators to integers."""
        out = []
        for a, b in self.ineqs:
            scale = lcm(*(f.denominator for f in (*a, b)))
            out.append((tuple(int(f * scale) for f in a), int(b * scale)))
        return tuple(out)


def build_polytope(G: TrinionGraph) -> ClebschGordanPolytope:
    """H-representation of the moment polytope of G, deterministic row order."""
    d = G.edge_count
    rows: list[tuple[tuple[Fraction, ...], Fraction]] = []
    seen = set()

    def add(coeffs: dict[int, int], bound: int):
        a = tuple(Fraction(coeffs.get(i, 0)) for i in range(d))
        row = (a, Fraction(bound))
        if row not in seen:
            seen.add(row)
            rows.append(row)

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

    Raises ValueError when the rows bound no region: when a . d <= 0 for
    every row has a solution d != 0, whatever the right-hand sides, so an
    empty region with unbounded rows is refused as well.  That is decided
    once per call by ``_has_recession``; every face of a region it passes
    is bounded too, so each 1-D face ends in two rows.

    A ``stats`` dict, if given, receives ``memo_entries``, the faces
    integrated, and ``faces_pruned``, the empty or zero-width faces that
    normalisation set to 0 without recursing.
    """
    if P.dim > MAX_EXACT_DIMENSION:
        raise ValueError(
            f"exact_volume supports dimension <= {MAX_EXACT_DIMENSION} "
            f"(got {P.dim}); use mc_volume"
        )
    if _has_recession(P.integer_rows, P.dim):
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

    result = volume(P.dim, _normalize_rows(P.integer_rows))
    if stats is not None:
        stats["memo_entries"] = len(memo)
        stats["faces_pruned"] = pruned
    return result


def mc_volume(
    P: ClebschGordanPolytope, samples: int, rng_seed: int
) -> tuple[float, float]:
    """Hit-or-miss volume estimate over [0,1)^dim with binomial standard error.

    A sample x is a hit when a . x <= b on every row, evaluated in float.
    Only the rows the sampling cube does not imply are tested: a row whose
    positive coefficients sum to at most b holds at every point of [0,1)^dim,
    so skipping it changes no hit.  The test is made exactly, on the integer
    rows; for a moment polytope it drops the box rows.  A polytope with no
    row left (the unit box) estimates 1.0.
    """
    if samples < MIN_MC_SAMPLES:
        raise ValueError(f"need at least {MIN_MC_SAMPLES} samples, got {samples}")
    cut = [
        (a, b)
        for (a, b), (ia, ib) in zip(P.ineqs, P.integer_rows)
        if sum(c for c in ia if c > 0) > ib
    ]
    A = np.array([[float(c) for c in a] for a, _ in cut], dtype=float).reshape(-1, P.dim)
    b = np.array([float(bb) for _, bb in cut], dtype=float)[:, None]
    rng = np.random.default_rng(rng_seed)
    hits = 0
    remaining = samples
    while remaining > 0:
        n = min(_MC_CHUNK, remaining)
        x = rng.random((n, P.dim))
        # Rows by samples: all(axis=0) ANDs whole rows of samples at once;
        # reducing one short row per sample cost more than the matmul.
        hits += int(np.count_nonzero((A @ x.T <= b).all(axis=0)))
        remaining -= n
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


def lattice_count(P: ClebschGordanPolytope, G: TrinionGraph, k: int) -> int:
    """Points of (1/k)Z^dim in P whose labels j = k*c satisfy vertex parity.

    This is the polytope-side route to the weight count: only the
    H-representation and the parity condition are consulted.  Labels are
    fixed one coordinate at a time along ``connected_edge_order(G)``, for a
    whole frontier of partial points at once.  Each coordinate's labels lie
    in the box that P's single-coordinate rows give it; a coordinate without
    both a lower and an upper such row raises ValueError.  At coordinate t
    the labels a partial point admits form an interval, read from the rows
    with a nonzero coefficient at t and the least the later coordinates can
    add to each row within their boxes; the vertices completing at t cut it
    to one parity class.
    The next frontier repeats each partial point once per admitted label,
    and the last coordinate is counted, not materialised.  Frontiers are
    expanded depth-first in slices of at most ``_LATTICE_CHUNK`` label cells,
    so memory stays bounded at any level and genus.  Arithmetic is int64;
    rows whose magnitude could reach 2^62 raise ValueError before counting,
    and so does an edge count whose recursion, one frame per coordinate,
    would pass Python's recursion limit.
    """
    if k < 1:
        raise ValueError("level must be at least 1")
    d = P.dim
    if d != G.edge_count:
        raise ValueError("polytope dimension does not match the graph's edge count")
    # expand() once per coordinate, then admitted() and numpy's frames under it.
    if not can_recurse(d + 5):
        raise ValueError(
            f"lattice_count recurses once per coordinate: E = {d} edges need "
            f"{d + 5} nested frames, more than the recursion limit "
            f"{sys.getrecursionlimit()} leaves"
        )
    # Rows A . j <= B over the integer labels j = k*c.
    rows = [(ia, ib * k) for ia, ib in P.integer_rows]
    # Each coordinate's label box, from the rows that bound it alone.
    lows: list[list[int]] = [[] for _ in range(d)]
    highs: list[list[int]] = [[] for _ in range(d)]
    for ia, ib in rows:
        support = [e for e in range(d) if ia[e]]
        if len(support) == 1:
            c = ia[support[0]]
            if c > 0:
                highs[support[0]].append(ib // c)
            else:
                lows[support[0]].append(-(ib // -c))
    for e in range(d):
        if not lows[e] or not highs[e]:
            raise ValueError(
                f"coordinate {e} has no lower or no upper single-coordinate row; "
                "lattice_count reads each label box from those rows"
            )
    box_lo = [max(v) for v in lows]
    box_hi = [min(v) for v in highs]
    reach = [max(abs(lo), abs(hi)) for lo, hi in zip(box_lo, box_hi)]
    magnitude = max(
        (sum(abs(c) * m for c, m in zip(ia, reach)) + abs(ib) for ia, ib in rows),
        default=0,
    )
    if magnitude >= _LATTICE_INT_LIMIT:
        raise ValueError(
            f"integer rows at level {k} reach magnitude {magnitude}, past the "
            "int64 working limit 2^62; lattice_count cannot count exactly"
        )
    # A row with no coefficients never bounds a coordinate; check it once.
    if any(ib < 0 for ia, ib in rows if not any(ia)):
        return 0
    rows = [(ia, ib) for ia, ib in rows if any(ia)]
    order = connected_edge_order(G)
    A = np.array([[ia[e] for e in order] for ia, _ in rows], dtype=np.int64)
    A = A.reshape(-1, d)
    B = np.array([ib for _, ib in rows], dtype=np.int64)
    # min_rest[:, t]: least contribution of the coordinates at positions >= t.
    min_rest = np.zeros((len(rows), d + 1), dtype=np.int64)
    lo_t = np.array([box_lo[e] for e in order], dtype=np.int64)
    hi_t = np.array([box_hi[e] for e in order], dtype=np.int64)
    least = np.minimum(A * lo_t, A * hi_t)
    min_rest[:, :d] = np.cumsum(least[:, ::-1], axis=1)[:, ::-1]
    odd, even = _parity_plan(G, order)
    plan = []
    for t in range(d):
        r = np.flatnonzero(A[:, t])
        plan.append((A[r, :t].T, B[r] - min_rest[r, t + 1], A[r, t]))

    def admitted(t: int, labels):
        """First admitted label, step and count at position t per partial point."""
        A_prev, bound, coef = plan[t]
        n = labels.shape[0]
        lo = np.full(n, lo_t[t], dtype=np.int64)
        hi = np.full(n, hi_t[t], dtype=np.int64)
        if coef.size:
            slack = bound - labels @ A_prev
            up, down = coef > 0, coef < 0
            if up.any():
                hi = np.minimum(hi, (slack[:, up] // coef[up]).min(axis=1))
            if down.any():
                lo = np.maximum(lo, (-(slack[:, down] // -coef[down])).max(axis=1))
        step = 1
        if odd[t] or even[t]:
            ok = np.ones(n, dtype=bool)
            for rest in even[t]:
                ok &= labels[:, rest].sum(axis=1) % 2 == 0
            parity = [labels[:, rest].sum(axis=1) % 2 for rest in odd[t]]
            for p in parity[1:]:
                ok &= p == parity[0]
            if parity:
                lo = lo + (lo + parity[0]) % 2
                step = 2
            hi = np.where(ok, hi, lo - 1)
        cnt = np.maximum(hi - lo, -step) // step + 1
        return lo, step, cnt

    def expand(t: int, labels) -> int:
        lo, step, cnt = admitted(t, labels)
        if t == d - 1:
            return int(cnt.sum())
        total = 0
        ends = np.cumsum(cnt)
        budget = max(_LATTICE_CHUNK // (t + 1), 1)
        start = 0
        while start < len(cnt):
            base = ends[start - 1] if start else 0
            stop = int(np.searchsorted(ends, base + budget, side="right"))
            stop = max(stop, start + 1)
            c = cnt[start:stop]
            parent = np.repeat(np.arange(start, stop), c)
            if parent.size:
                # Rank of each child among its parent's admitted labels.
                offset = np.arange(parent.size) - np.repeat(np.cumsum(c) - c, c)
                child = np.empty((parent.size, t + 1), dtype=np.int64)
                child[:, :t] = labels[parent]
                child[:, t] = lo[parent] + step * offset
                total += expand(t + 1, child)
            start = stop
        return total

    return expand(0, np.zeros((1, 0), dtype=np.int64))


@dataclass(frozen=True)
class AsymptoticRow:
    level: int
    count: int
    ratio: Fraction  # count / level**dim


def moment_volume(g: int) -> Fraction:
    """Volume 2^(3g-4)|B_(2g-2)|/(2g-2)! of every genus-g (g >= 2) moment polytope.

    It is 2^(2g-3) times Witten's volume, the Verlinde rank's leading coefficient.
    """
    p, q = mpmath.bernfrac(2 * g - 2)
    return Fraction(2 ** (3 * g - 4) * abs(int(p)), int(q) * factorial(2 * g - 2))


@dataclass(frozen=True)
class AsymptoticTable:
    """Growth law of the lattice counts against the polytope volume.

    The counts are a polynomial in k of degree d = ``dimension``, and
    ``leading_coefficient`` is its exact leading coefficient.  ``volume`` is
    the closed-form ``moment_volume``; the parity condition keeps only a 2^r
    fraction of the lattice, so ``volume_parity_corrected`` = volume / 2^r is
    the constant the leading coefficient equals.  ``extrapolated_limit`` fits
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
        leading_coefficient=Fraction(diffs[d], factorial(d)),
    )


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------


def to_json_dict(P: ClebschGordanPolytope) -> dict:
    """Polytope JSON: {"dim": d, "ineqs": [[a_1..a_d, b], ...]}, rationals as strings."""
    return {
        "dim": P.dim,
        "ineqs": [[str(c) for c in (*a, b)] for a, b in P.ineqs],
    }


def from_json_dict(data: dict) -> ClebschGordanPolytope:
    """Parse polytope JSON; any other shape raises ValueError."""
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
