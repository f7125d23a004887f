"""Reference answers for every verlinde-lab command the benchmark runs.

Nothing here imports verlinde_lab.  Each answer comes from an independent
computation or a closed form, so a wrong integer printed with exit code 0 is
caught:

* Verlinde ranks: the Verlinde sum in mpmath at a working precision sized
  from an a-priori bound on its magnitude, confirmed at twice that precision.
* Graph classes: 2, 5 and 17 connected cubic multigraphs at genus 2, 3 and 4
  (OEIS A005967); every written file is checked for 3-valence, connectivity
  and genus, and the files for pairwise non-isomorphism with networkx.
* Polytope volumes: vol_g = 2^(3g-4) |B_(2g-2)| / (2g-2)!, the leading
  coefficient 2 zeta(2g-2) / (2^(g-1) pi^(2g-2)) of the Verlinde rank in k
  times 2^r, where r = 2g-3 is the rank of the vertex parity system.  It gives
  1/3, 2/45 and 8/945 at genus 2, 3 and 4.
* Multisections: |det A| per component by exact elimination, and every fibre
  b checked for 0 <= b < 1 and A.b + t in Z^g exactly.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cache
from math import ceil, factorial, log2, pi, sin
from pathlib import Path

import mpmath as mp

#: Connected cubic multigraphs with 2g-2 vertices (OEIS A005967).
GRAPH_CLASSES = {2: 2, 3: 5, 4: 17}

#: Bits carried beyond the magnitude of the Verlinde sum.
GUARD_BITS = 64

#: A Monte Carlo estimate further than this many standard errors from the
#: true volume is wrong; a correct estimator crosses it with chance ~2e-9.
MC_SIGMAS = 6


class OracleError(ArithmeticError):
    """The reference computation itself could not settle a value."""


def magnitude_bits(g: int, k: int) -> int:
    """Upper bound on log2 of the Verlinde rank: the sum has k+1 terms, each
    at most ((k+2)/2)^(g-1) sin(pi/(k+2))^-(2g-2)."""
    bound = (
        (g - 1) * log2((k + 2) / 2)
        + log2(k + 1)
        - (2 * g - 2) * log2(sin(pi / (k + 2)))
    )
    return max(1, ceil(bound))


def _verlinde_sum(g: int, k: int, bits: int) -> int:
    with mp.workprec(bits):
        total = mp.fsum(mp.sin(mp.pi * n / (k + 2)) ** (2 - 2 * g) for n in range(1, k + 2))
        value = (mp.mpf(k + 2) / 2) ** (g - 1) * total
        nearest = mp.nint(value)
        if abs(value - nearest) > mp.mpf(2) ** -32:
            raise OracleError(f"Verlinde sum at g={g}, k={k}, {bits} bits is not near an integer")
        return int(nearest)


@cache
def verlinde(g: int, k: int) -> int:
    """Exact rank of the level-k conformal-block space at genus g."""
    bits = magnitude_bits(g, k) + GUARD_BITS
    low, high = _verlinde_sum(g, k, bits), _verlinde_sum(g, k, 2 * bits)
    if low != high:
        raise OracleError(f"Verlinde sum at g={g}, k={k} differs at {bits} and {2 * bits} bits")
    return low


def polytope_volume(g: int) -> Fraction:
    """Volume of the moment polytope of any genus-g trinion graph."""
    p, q = mp.bernfrac(2 * g - 2)
    return Fraction(2 ** (3 * g - 4) * abs(p), q * factorial(2 * g - 2))


def determinant(A: list[list[int]]) -> int:
    """Exact determinant by Gaussian elimination over the rationals."""
    rows = [[Fraction(x) for x in row] for row in A]
    n = len(rows)
    det = Fraction(1)
    for i in range(n):
        pivot = next((r for r in range(i, n) if rows[r][i]), None)
        if pivot is None:
            return 0
        if pivot != i:
            rows[i], rows[pivot] = rows[pivot], rows[i]
            det = -det
        det *= rows[i][i]
        for r in range(i + 1, n):
            f = rows[r][i] / rows[i][i]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[i])]
    return int(det)


def read_graph_file(path: Path):
    """Parse a .trinion.json file into a networkx MultiGraph, requiring every
    half-edge slot used once."""
    # networkx is imported only where graph files are checked, so workloads
    # that write none do not carry its ~18 MB in peak_rss_mb.
    import networkx as nx

    data = json.loads(Path(path).read_text())
    V = data["vertices"]
    G = nx.MultiGraph()
    G.add_nodes_from(range(V))
    half_edges = []
    for (v1, s1), (v2, s2) in data["edges"]:
        half_edges += [(v1, s1), (v2, s2)]
        G.add_edge(v1, v2)
    if sorted(half_edges) != [(v, s) for v in range(V) for s in range(3)]:
        raise ValueError(f"{path}: half-edges are not each vertex's slots 0, 1, 2 once")
    if not nx.is_connected(G):
        raise ValueError(f"{path}: graph is disconnected")
    return G


def _genus(G) -> int:
    return G.number_of_edges() - G.number_of_nodes() + 1


# ---------------------------------------------------------------------------
# One checker per command shape.  Each returns None when the report is right
# and otherwise says what is wrong.
# ---------------------------------------------------------------------------


def _check_verlinde(opts, outputs, checks):
    g, k = int(opts["--genus"]), int(opts["--level"])
    got, want = outputs.get("dimension"), verlinde(g, k)
    return None if got == want else f"dimension {got}, expected {want}"


def _check_count(opts, outputs, checks):
    g, k = int(opts["--genus"]), int(opts["--level"])
    want = verlinde(g, k)
    counts = [row["count"] for row in outputs["per_graph"]]
    if len(counts) != GRAPH_CLASSES[g]:
        return f"{len(counts)} graphs counted, expected {GRAPH_CLASSES[g]}"
    bad = sorted({n for n in counts + [outputs.get("count")] if n != want}, key=str)
    return f"counts {bad}, expected {want}" if bad else None


def _check_check(opts, outputs, checks):
    g, k_max = int(opts["--genus"]), int(opts["--max-level"])
    by_name = {c["name"]: c for c in checks}
    lattice_checks = 0
    for k in range(k_max + 1):
        want = verlinde(g, k)
        graphs = by_name[f"graph-independence[k={k}]"]["counts"]
        if len(graphs) != GRAPH_CLASSES[g]:
            return f"k={k}: {len(graphs)} graphs, expected {GRAPH_CLASSES[g]}"
        entry = by_name[f"contraction-equals-verlinde[k={k}]"]
        found = [entry["verlinde"], *graphs.values(), *entry["counts"].values()]
        for c in checks:
            if c["name"].startswith((f"brute-equals-contraction[k={k},", f"lattice-equals-contraction[k={k},")):
                found += [c.get("brute", want), c.get("lattice", want), c["contraction"]]
                lattice_checks += c["name"].startswith("lattice")
        if any(n != want for n in found):
            return f"k={k}: reported {sorted(set(found))}, expected {want}"
    if lattice_checks != GRAPH_CLASSES[g] * k_max:
        return f"{lattice_checks} lattice checks, expected {GRAPH_CLASSES[g] * k_max}"
    return None


def _fit_limit(points):
    """C in t(k) = C + a/k + b/k^2 through three points, by Lagrange at 1/k = 0."""
    xs = [Fraction(1, k) for k, _ in points]
    total = Fraction(0)
    for i, (_, t) in enumerate(points):
        term = Fraction(t)
        for j, x in enumerate(xs):
            if j != i:
                term *= x / (x - xs[i])
        total += term
    return total


def _check_asymptotics(opts, outputs, checks):
    g, k_max = int(opts["--genus"]), int(opts["--k-max"])
    d, vol = 3 * g - 3, polytope_volume(g)
    tables = outputs["tables"]
    if len(tables) != GRAPH_CLASSES[g]:
        return f"{len(tables)} tables, expected {GRAPH_CLASSES[g]}"
    ratios = [(k, Fraction(verlinde(g, k), k**d)) for k in range(1, k_max + 1)]
    for table in tables:
        rows = [(r["k"], r["count"], r["ratio"]) for r in table["rows"]]
        want_rows = [(k, verlinde(g, k), float(t)) for k, t in ratios]
        if rows != want_rows:
            return f"{table['graph']}: rows differ from the Verlinde ranks"
        if table["volume"] != str(vol):
            return f"{table['graph']}: volume {table['volume']}, expected {vol}"
        if table["volume_parity_corrected"] != str(vol / 2 ** (2 * g - 3)):
            return f"{table['graph']}: parity-corrected volume {table['volume_parity_corrected']}"
        if k_max >= 3 and table["extrapolated_limit"] != str(_fit_limit(ratios[-3:])):
            return f"{table['graph']}: extrapolated limit {table['extrapolated_limit']}"
    return None


def _check_volume_exact(opts, outputs, checks):
    g = int(opts["--genus"])
    volumes = [entry["volume"] for entry in outputs["volumes"]]
    want = [str(polytope_volume(g))] * GRAPH_CLASSES[g]
    return None if volumes == want else f"volumes {volumes}, expected {want}"


def _check_volume_mc(opts, outputs, checks):
    samples = int(opts["--samples"])
    p = float(polytope_volume(_genus(read_graph_file(opts["--graph"]))))
    sigma = (p * (1 - p) / samples) ** 0.5
    (entry,) = outputs["estimates"]
    gap = abs(entry["estimate"] - p)
    return None if gap <= MC_SIGMAS * sigma else f"estimate {entry['estimate']} is {gap / sigma:.1f} sigma from {p}"


def _check_polytope(opts, outputs, checks):
    return {
        "asymptotics": _check_asymptotics,
        "volume-exact": _check_volume_exact,
        "volume-mc": _check_volume_mc,
    }[opts["--mode"]](opts, outputs, checks)


def _check_graphs(opts, outputs, checks):
    import networkx as nx

    g = int(opts["--genus"])
    files = sorted(Path(opts["--out-dir"]).glob("*.trinion.json"))
    if outputs["classes"] != GRAPH_CLASSES[g] or len(files) != GRAPH_CLASSES[g]:
        return f"{outputs['classes']} classes in {len(files)} files, expected {GRAPH_CLASSES[g]}"
    graphs = [read_graph_file(f) for f in files]
    if any(_genus(G) != g for G in graphs):
        return f"a written graph has genus other than {g}"
    for i, G in enumerate(graphs):
        for j in range(i):
            if nx.is_isomorphic(G, graphs[j]):
                return f"{files[j].name} and {files[i].name} are isomorphic"
    return None


def _check_abelian(opts, outputs, checks):
    data = json.loads(Path(opts["--multisection"]).read_text())
    components = [
        ([[int(x) for x in row] for row in c["A"]], [Fraction(s) for s in c["t"]])
        for c in data["components"]
    ]
    dets = [abs(determinant(A)) for A, _ in components]
    seen = [set() for _ in components]
    for fibre in outputs["fibres"]:
        idx = fibre["component"]
        b = tuple(Fraction(s) for s in fibre["point"])
        A, t = components[idx]
        if not all(0 <= x < 1 for x in b) or b in seen[idx]:
            return f"fibre {fibre} is outside [0,1)^g or repeated"
        if any((sum(a * x for a, x in zip(row, b)) + s).denominator != 1 for row, s in zip(A, t)):
            return f"fibre {fibre} does not solve A.b + t in Z^g"
        seen[idx].add(b)
    found = [len(s) for s in seen]
    if found != dets or outputs["count"] != sum(dets):
        return f"count {outputs['count']} with fibres {found}, expected {dets}"
    return None


_CHECKERS = {
    "abelian": _check_abelian,
    "check": _check_check,
    "count": _check_count,
    "graphs": _check_graphs,
    "polytope": _check_polytope,
    "verlinde": _check_verlinde,
}


def check(argv: list[str], rc: int | None, stdout: str) -> str | None:
    """Why the command's answer is wrong, or None when it is right.

    ``argv`` is a subcommand followed by ``--flag value`` pairs.
    """
    if rc != 0:
        return f"exit code {rc}"
    try:
        report = json.loads(stdout)
        failed = [c["name"] for c in report["checks"] if not c["passed"]]
        if failed:
            return f"exit code 0 with failed checks {failed}"
        opts = dict(zip(argv[1::2], argv[2::2]))
        return _CHECKERS[argv[0]](opts, report["outputs"], report["checks"])
    except (AttributeError, KeyError, OSError, TypeError, ValueError) as exc:
        return f"malformed report or output file: {exc!r}"
