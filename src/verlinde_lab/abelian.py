"""Classical torus-fibration counting: theta characteristics and multisections.

For the rank-one model of a principally polarized g-torus fibration at level
k, the fibres carrying a basis vector are the k^g points of order k on the
base; they are labelled by characteristics in (Z/k)^g and the translation
group acts simply transitively on the labels.

The higher-rank generalization is modelled by affine multisections of the
dual fibration: finitely many components b |-> A.b + t (mod Z^g) with A an
integer matrix and t a rational shift.  The fibres supporting a covariant
constant section are the solutions of A.b + t = 0 (mod Z^g); for nonsingular
A there are exactly |det A| of them per component.  They form one coset
-A^-1 t + A^-1 Z^g of the group A^-1 Z^g / Z^g, which has |det A| elements.
The count is read from a fraction-free determinant and the points are listed
as that coset, closed under translation by the columns of A^-1 from its base
point, so the two cross-check each other; the total matches the topological
intersection number of the multisection with the zero section.  Everything
in this module is exact integer/rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm
from operator import mul

from verlinde_lab.budget import BudgetExceeded

#: bs_points and e_bs_fibres refuse to materialize more points than this.
DEFAULT_MAX_POINTS = 10**6


class SingularComponentError(ValueError):
    """A multisection component with det A = 0 has no isolated intersections."""


@dataclass(frozen=True)
class TorusFibration:
    """Lagrangian torus fibration of a g-dimensional abelian phase space."""

    g: int
    level: int

    def __post_init__(self):
        if self.g < 1:
            raise ValueError("fibre dimension g must be at least 1")
        if self.level < 1:
            raise ValueError("level must be at least 1")


@dataclass(frozen=True)
class Characteristic:
    """Label of a basis vector: a vector of residues mod k."""

    g: int
    level: int
    values: tuple[int, ...]

    def __post_init__(self):
        if len(self.values) != self.g:
            raise ValueError(f"expected {self.g} residues, got {len(self.values)}")
        object.__setattr__(
            self, "values", tuple(int(v) % self.level for v in self.values)
        )


def bs_count(F: TorusFibration) -> int:
    """Number of level-k basis labels: k^g."""
    return F.level**F.g


def bs_points(F: TorusFibration, max_points: int = DEFAULT_MAX_POINTS) -> list[Characteristic]:
    """All k^g characteristics, in lexicographic order; BudgetExceeded past max_points."""
    total = bs_count(F)
    if total > max_points:
        raise BudgetExceeded(
            f"k^g = {total} labels exceed the budget of {max_points}; "
            "use bs_count for the count alone"
        )
    return [
        Characteristic(F.g, F.level, values)
        for values in product(range(F.level), repeat=F.g)
    ]


def translate_label(w: Characteristic, v: Characteristic) -> Characteristic:
    """Translation action on labels: componentwise addition mod k."""
    if (w.g, w.level) != (v.g, v.level):
        raise ValueError("characteristics live on different tori")
    return Characteristic(
        w.g, w.level, tuple(a + b for a, b in zip(w.values, v.values))
    )


@dataclass(frozen=True)
class MultisectionComponent:
    """One affine section b |-> A.b + t (mod Z^g)."""

    matrix: tuple[tuple[int, ...], ...]
    shift: tuple[Fraction, ...]

    def __post_init__(self):
        g = len(self.matrix)
        matrix = tuple(tuple(int(x) for x in row) for row in self.matrix)
        object.__setattr__(self, "matrix", matrix)
        for row in matrix:
            if len(row) != g:
                raise ValueError("component matrix must be square")
        shift = tuple(Fraction(x) for x in self.shift)
        object.__setattr__(self, "shift", shift)
        if len(shift) != g:
            raise ValueError("shift length must match matrix size")
        for s in shift:
            if not 0 <= s < 1:
                raise ValueError(f"shift entry {s} outside [0, 1)")


@dataclass(frozen=True)
class AffineMultisection:
    """Finite union of affine sections over a g-torus base."""

    g: int
    components: tuple[MultisectionComponent, ...]

    def __post_init__(self):
        if self.g < 1:
            raise ValueError("base dimension g must be at least 1")
        if not self.components:
            raise ValueError("multisection needs at least one component")
        for comp in self.components:
            if len(comp.matrix) != self.g:
                raise ValueError("component dimension does not match the base")


_SINGULAR = (
    "component matrix is singular: fibrewise intersection is "
    "positive-dimensional and the count is undefined in this model"
)


def _determinant(matrix: tuple[tuple[int, ...], ...]) -> int:
    """Exact integer determinant by fraction-free (Bareiss) elimination."""
    a = [list(row) for row in matrix]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def gft_intersection_count(M: AffineMultisection) -> int:
    """Total number of base points supporting a covariant constant section.

    Per component the congruence A.b + t = 0 (mod Z^g) has exactly |det A|
    solutions on the torus; components are summed with multiplicity.  The
    determinant is computed without the coset closure that lists the points,
    so ``e_bs_fibres`` and this count are independent.
    """
    total = 0
    for comp in M.components:
        det = _determinant(comp.matrix)
        if det == 0:
            raise SingularComponentError(_SINGULAR)
        total += abs(det)
    return total


def _inverse(matrix: tuple[tuple[int, ...], ...]) -> tuple[list[list[Fraction]], Fraction]:
    """(A^-1, |det A|) by Gauss-Jordan on [A | I], which leaves [I | A^-1]."""
    g = len(matrix)
    rows = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(g)]
        for i, row in enumerate(matrix)
    ]
    det = Fraction(1)
    for c in range(g):
        p = next((r for r in range(c, g) if rows[r][c]), None)
        if p is None:
            raise SingularComponentError(_SINGULAR)
        rows[c], rows[p] = rows[p], rows[c]
        pivot = rows[c][c]
        det *= pivot
        rows[c] = [x / pivot for x in rows[c]]
        for r in range(g):
            if r != c and (f := rows[r][c]):
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return [row[g:] for row in rows], abs(det)


def _coset(
    inverse: list[list[Fraction]], shift: tuple[Fraction, ...]
) -> tuple[list[tuple[int, ...]], int]:
    """The coset -A^-1 t + A^-1 Z^g of A^-1 Z^g / Z^g in [0,1)^g, sorted.

    Returns (numerators, Q): the points as integer tuples in [0, Q)^g over
    one common denominator Q, so point p stands for p / Q.
    """
    base = [-sum(map(mul, row, shift)) for row in inverse]
    # Over one common denominator Q the coset is a set of integer tuples mod
    # Q, and sorting those orders the points as rationals.
    Q = lcm(*(x.denominator for row in [base, *inverse] for x in row))
    points = [tuple(x.numerator * (Q // x.denominator) % Q for x in base)]
    seen = set(points)
    for column in zip(*inverse):
        step = [x.numerator * (Q // x.denominator) for x in column]
        # Translates of a coset are equal to it or disjoint from it, so the
        # first translate whose base point is already seen closes the orbit.
        coset = points
        while True:
            coset = [tuple((a + s) % Q for a, s in zip(p, step)) for p in coset]
            if coset[0] in seen:
                break
            seen.update(coset)
            points.extend(coset)
    return sorted(points), Q


#: A fibre's base point (numerators, Q), standing for numerators / Q, and the
#: index of its component.
Fibre = tuple[tuple[tuple[int, ...], int], int]


def e_bs_fibres(M: AffineMultisection) -> list[Fibre]:
    """Explicit solution set: (base point in [0,1)^g, component index) pairs.

    A base point is (numerators, Q) over its component's common
    denominator Q; ``Fraction(n, Q)`` per numerator gives its coordinates.
    Base points shared by several components appear once per component, so
    the list length equals ``gft_intersection_count``.  Each component has
    |det A| points; a total above ``DEFAULT_MAX_POINTS`` raises
    ``BudgetExceeded`` before the component that passes it is listed.
    """
    out: list[Fibre] = []
    for idx, comp in enumerate(M.components):
        inverse, size = _inverse(comp.matrix)
        if len(out) + size > DEFAULT_MAX_POINTS:
            raise BudgetExceeded(
                f"{len(out) + size} fibres exceed the budget of {DEFAULT_MAX_POINTS}"
            )
        points, Q = _coset(inverse, comp.shift)
        out += [((point, Q), idx) for point in points]
    return out


def fibres_solve_congruence(M: AffineMultisection, fibres: list[Fibre]) -> bool:
    """True when each fibre b of component (A, t) lies in [0,1)^g and solves
    A.b + t = 0 (mod Z^g), and no component lists a point twice.

    Per component the points and the shift are written over one common
    denominator Q, so the test runs on integer numerators modulo Q.
    """
    points: list[list[tuple[tuple[int, ...], int]]] = [[] for _ in M.components]
    for point, idx in fibres:
        points[idx].append(point)
    for comp, pts in zip(M.components, points):
        if not all(0 <= n < q for nums, q in pts for n in nums):
            return False
        Q = lcm(*{q for _, q in pts}, *(s.denominator for s in comp.shift))
        B = [tuple(n * (Q // q) for n in nums) for nums, q in pts]
        if len(set(B)) != len(B):
            return False
        for row, s in zip(comp.matrix, comp.shift):
            t = s.numerator * (Q // s.denominator)
            if any((sum(map(mul, row, b)) + t) % Q for b in B):
                return False
    return True


def to_json_dict(M: AffineMultisection) -> dict:
    """Multisection JSON: {"g": g, "components": [{"A": [[..]], "t": ["p/q",..]}]}."""
    return {
        "g": M.g,
        "components": [
            {"A": [list(row) for row in comp.matrix], "t": [str(s) for s in comp.shift]}
            for comp in M.components
        ],
    }


def from_json_dict(data: dict) -> AffineMultisection:
    """Parse multisection JSON; any other shape raises ValueError."""
    if not isinstance(data, dict) or type(data.get("g")) is not int:
        raise ValueError('multisection JSON needs an integer "g" field')
    if not isinstance(data.get("components"), list):
        raise ValueError('multisection JSON needs a "components" list')
    comps = []
    for entry in data["components"]:
        A, t = (entry.get("A"), entry.get("t")) if isinstance(entry, dict) else (None, None)
        if not isinstance(A, list) or not all(
            isinstance(row, list) and all(type(x) is int for x in row) for row in A
        ):
            raise ValueError(f'component needs an "A" list of integer rows, got {A!r}')
        if not isinstance(t, list) or not all(type(s) in (str, int) for s in t):
            raise ValueError(f'component needs a "t" list of rational strings, got {t!r}')
        try:
            shift = tuple(map(Fraction, t))
        except ZeroDivisionError:
            raise ValueError(f"shift entry with zero denominator in {t!r}") from None
        comps.append(MultisectionComponent(tuple(map(tuple, A)), shift))
    return AffineMultisection(data["g"], tuple(comps))
