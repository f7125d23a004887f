"""Command-line front end: run the computations and cross-check them.

Subcommands: graphs, count, verlinde, check, polytope, abelian.  Every
command emits a run report (JSON by default, CSV for the tabular payloads
with --format csv) and exits 0 exactly when all embedded cross-checks pass.
Work and memory budgets are explicit flags, and seeds are explicit flags.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from dataclasses import dataclass, field
from math import gcd
from pathlib import Path

from verlinde_lab import abelian as abelian_mod
from verlinde_lab import fusion, graph, polytope, weights
from verlinde_lab.budget import BudgetExceeded

DEFAULT_MC_SAMPLES = 10**6
DEFAULT_SEED = 0
DEFAULT_K_MAX = 50


@dataclass
class RunReport:
    """Outcome of one CLI command: echo, inputs, outputs, verdicts, timing."""

    command: str
    inputs: dict
    outputs: dict = field(default_factory=dict)
    checks: list[dict] = field(default_factory=list)
    timing_seconds: float = 0.0

    def add_check(self, name: str, passed: bool, **details):
        entry = {"name": name, "passed": bool(passed)}
        entry.update(details)
        self.checks.append(entry)

    def all_passed(self) -> bool:
        return all(c["passed"] for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "command": self.command,
            "inputs": self.inputs,
            "outputs": self.outputs,
            "checks": self.checks,
            "timing_seconds": round(self.timing_seconds, 6),
        }


def _graphs_for(args) -> list[tuple[str, graph.TrinionGraph]]:
    """Resolve --genus/--graph into (identifier, graph) pairs."""
    if getattr(args, "graph", None):
        G = graph.load_graph(args.graph)
        return [(str(args.graph), G)]
    out = []
    for G in graph.generate_genus_graphs(args.genus):
        name = graph.class_name(G)
        ident = name or "key:" + ",".join(map(str, graph.canonical_form(G).key))
        out.append((ident, G))
    return out


def _check_budget_flags(args) -> None:
    for flag, value in (("--max-states", args.max_states), ("--max-frontier", args.max_frontier)):
        if value < 1:
            raise ValueError(f"{flag} must be at least 1")


# Every count route by its --method name, with the first level it counts.  A
# route maps (G, levels, args, stats) to {k: count} over the levels it
# counted, and fills ``stats`` with its counters.


def _contract(G, levels, args, stats) -> dict[int, int]:
    # One call per level; ``stats`` keeps the last one's counters.
    return {
        k: weights.count_via_contraction(G, k, max_frontier=args.max_frontier, stats=stats)
        for k in levels
    }


def _brute(G, levels, args, stats) -> dict[int, int]:
    return weights.bruteforce_counts(G, levels, max_states=args.max_states, stats=stats)


def _lattice(G, levels, args, stats) -> dict[int, int]:
    return dict(zip(levels, polytope.lattice_counts(polytope.build_polytope(G), G, levels)))


ROUTES = {"contract": (_contract, 0), "brute": (_brute, 0), "lattice": (_lattice, 1)}


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_graphs(args) -> RunReport:
    report = RunReport("graphs", {"genus": args.genus, "out_dir": str(args.out_dir)})
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    classes = graph.generate_genus_graphs(args.genus)
    index = {"genus": args.genus, "count": len(classes), "graphs": []}
    for i, G in enumerate(classes):
        name = graph.class_name(G)
        stem = f"genus{args.genus}_{i:02d}" + (f"_{name}" if name else "")
        filename = stem + graph.GRAPH_FILE_SUFFIX
        graph.save_graph(G, out_dir / filename)
        index["graphs"].append(
            {
                "file": filename,
                "canonical_key": list(graph.canonical_form(G).key),
                "name": name,
            }
        )
    index_path = out_dir / f"genus{args.genus}_index.json"
    index_path.write_bytes((json.dumps(index, indent=2) + "\n").encode())
    report.outputs = {
        "classes": len(classes),
        "files": [g["file"] for g in index["graphs"]] + [index_path.name],
    }
    report.add_check("all-classes-valid", all(G.genus == args.genus for G in classes))
    return report


def cmd_count(args) -> RunReport:
    report = RunReport(
        "count",
        {
            "genus": getattr(args, "genus", None),
            "graph": getattr(args, "graph", None),
            "level": args.level,
            "method": args.method,
        },
    )
    _check_budget_flags(args)
    count, _ = ROUTES[args.method]
    table = []
    for ident, G in _graphs_for(args):
        stats: dict = {}
        n = count(G, [args.level], args, stats)[args.level]
        table.append({"graph": ident, "count": n, **stats})
    counts = [row["count"] for row in table]
    report.outputs["per_graph"] = table
    distinct = sorted(set(counts))
    if len(table) > 1:
        report.add_check("graph-independence", len(distinct) == 1, counts=distinct)
    if len(distinct) == 1:
        report.outputs["count"] = counts[0]
    return report


def cmd_verlinde(args) -> RunReport:
    report = RunReport("verlinde", {"genus": args.genus, "level": args.level})
    report.outputs["dimension"] = fusion.verlinde_dim(args.genus, args.level)
    return report


def cmd_check(args) -> RunReport:
    """Reconcile every route's rank at each level 0..--max-level.

    Each route of ``ROUTES`` runs once per graph, over all its levels, in
    table order: the contraction on every graph first, so that a frontier
    budget error comes before the other routes run.  Per level k the report
    holds graph-independence[k] and contraction-equals-verlinde[k], then per
    graph one <route>-equals-contraction[k,graph] check for each other route
    that counted k: brute at the levels its --max-states budget admits,
    lattice at k >= 1.  outputs.stats[route][graph] holds each route's
    counters, the contraction's at the top level.  first_discrepancy is the
    first failed check's name and its details.
    """
    if args.max_level < 0:
        raise ValueError("--max-level must be non-negative")
    _check_budget_flags(args)
    report = RunReport("check", {"genus": args.genus, "max_level": args.max_level})
    graphs = _graphs_for(args)
    levels = range(args.max_level + 1)
    stats = {name: {ident: {} for ident, _ in graphs} for name in ROUTES}
    # Route by route, so that a contraction over its budget fails before
    # the other routes run.
    by_route = {
        name: {ident: count(G, levels[first:], args, stats[name][ident]) for ident, G in graphs}
        for name, (count, first) in ROUTES.items()
    }
    report.outputs["stats"] = stats
    contraction = by_route.pop("contract")
    for k in levels:
        dim = fusion.verlinde_dim(args.genus, k)
        counts = {ident: contraction[ident][k] for ident, _ in graphs}
        report.add_check(
            f"graph-independence[k={k}]", len(set(counts.values())) == 1, counts=counts
        )
        report.add_check(
            f"contraction-equals-verlinde[k={k}]",
            all(n == dim for n in counts.values()),
            verlinde=dim,
            counts=counts,
        )
        for ident, _ in graphs:
            for route, by_graph in by_route.items():
                if k in by_graph[ident]:
                    n = by_graph[ident][k]
                    report.add_check(
                        f"{route}-equals-contraction[k={k},{ident}]",
                        n == counts[ident],
                        **{route: n, "contraction": counts[ident]},
                    )
    first = next((c for c in report.checks if not c["passed"]), None)
    if first is not None:
        details = ", ".join(
            f"{key}={value}"
            for key, value in first.items()
            if key not in ("name", "passed")
        )
        report.outputs["first_discrepancy"] = f"{first['name']}: {details}"
    return report


def cmd_polytope(args) -> RunReport:
    """Each graph's polytope volume or growth law, against an exact reference.

    volume-exact and volume-mc hold ``exact_volume`` exactly, and ``mc_volume``
    to 4 binomial sigma, to the closed form ``moment_volume(g)``; asymptotics
    holds the count polynomial to the Verlinde rank, both of degree
    d = 3g-3, by comparing them at the d+1 levels k = 0..d.
    """
    report = RunReport(
        "polytope",
        {
            "genus": getattr(args, "genus", None),
            "graph": getattr(args, "graph", None),
            "mode": args.mode,
        },
    )
    pairs = _graphs_for(args)
    if args.mode == "volume-exact":
        volumes = []
        for ident, G in pairs:
            stats: dict = {}
            vol = polytope.exact_volume(polytope.build_polytope(G), stats)
            volumes.append(vol)
            report.outputs.setdefault("volumes", []).append(
                {"graph": ident, "volume": str(vol), **stats}
            )
        closed = polytope.moment_volume(pairs[0][1].genus)
        ok = all(v == closed for v in volumes)
        report.add_check("volume-equals-closed-form", ok, closed_form=str(closed))
    elif args.mode == "volume-mc":
        if args.seed < 0:
            raise ValueError("--seed must be non-negative")
        report.inputs["samples"] = args.samples
        report.inputs["seed"] = args.seed
        closed = polytope.moment_volume(pairs[0][1].genus)
        p = float(closed)
        for ident, G in pairs:
            P = polytope.build_polytope(G)
            stats = {}
            estimate, stderr = polytope.mc_volume(P, args.samples, args.seed, stats)
            # sigma after mc_volume, which refuses too few samples.
            gap, sigma = abs(estimate - p), (p * (1 - p) / args.samples) ** 0.5
            check = {"gap": gap, "sigma": sigma, "closed_form": str(closed)}
            report.add_check(f"mc-within-4-sigma[{ident}]", gap <= 4 * sigma, **check)
            entry = {"graph": ident, "estimate": estimate, "stderr": stderr, **stats}
            report.outputs.setdefault("estimates", []).append(entry)
    else:  # asymptotics
        report.inputs["k_max"] = args.k_max
        for ident, G in pairs:
            table = polytope.asymptotic_table(G, args.k_max)
            entry = {
                "graph": ident,
                "rows": [
                    {"k": r.level, "count": r.count, "ratio": float(r.ratio)}
                    for r in table.rows
                ],
                "volume": str(table.volume),
                "parity_rank": table.parity_rank,
                "volume_parity_corrected": str(table.volume_parity_corrected),
                "leading_coefficient": str(table.leading_coefficient),
            }
            if table.extrapolated_limit is not None:
                entry["extrapolated_limit"] = str(table.extrapolated_limit)
            report.add_check(
                f"leading-coefficient-equals-parity-corrected-volume[{ident}]",
                table.leading_coefficient == table.volume_parity_corrected,
            )
            report.add_check(
                f"count-polynomial-equals-verlinde-polynomial[{ident}]",
                table.contraction_counts[: table.dimension + 1]
                == tuple(fusion.verlinde_dim(G.genus, k) for k in range(table.dimension + 1)),
            )
            report.outputs.setdefault("tables", []).append(entry)
    return report


def _ratio(n: int, q: int) -> str:
    """``str(Fraction(n, q))`` for q > 0, without building the Fraction."""
    d = gcd(n, q)
    return f"{n // d}/{q // d}" if d != q else str(n // d)


def cmd_abelian(args) -> RunReport:
    report = RunReport(
        "abelian",
        {
            "g": getattr(args, "g", None),
            "level": getattr(args, "level", None),
            "multisection": getattr(args, "multisection", None),
        },
    )
    if args.multisection:
        M = abelian_mod.from_json_dict(json.loads(Path(args.multisection).read_text()))
        count = abelian_mod.gft_intersection_count(M)
        fibres = abelian_mod.e_bs_fibres(M)
        report.outputs["count"] = count
        report.outputs["fibres"] = [
            {"point": [_ratio(n, Q) for n in nums], "component": idx}
            for (nums, Q), idx in fibres
        ]
        report.add_check(
            "fibre-total-equals-count", len(fibres) == count, fibres=len(fibres)
        )
        report.add_check(
            "fibres-solve-congruence", abelian_mod.fibres_solve_congruence(M, fibres)
        )
    else:
        F = abelian_mod.TorusFibration(args.g, args.level)
        report.outputs["count"] = abelian_mod.bs_count(F)
    return report


# ---------------------------------------------------------------------------
# Output formatting
# ---------------------------------------------------------------------------


def _csv_payload(report: RunReport) -> str | None:
    """CSV rendering of the command's main table, where one is declared."""
    out = report.outputs
    if report.command == "count" and "per_graph" in out:
        lines = ["graph,count"]
        lines += [f"{row['graph']},{row['count']}" for row in out["per_graph"]]
        return "\n".join(lines) + "\n"
    if report.command == "polytope" and "tables" in out:
        blocks = []
        for entry in out["tables"]:
            lines = [f"# graph={entry['graph']}", "k,count,ratio"]
            lines += [
                f"{r['k']},{r['count']},{r['ratio']!r}" for r in entry["rows"]
            ]
            blocks.append("\n".join(lines))
        return "\n\n".join(blocks) + "\n"
    if report.command == "graphs":
        lines = ["file"]
        lines += out.get("files", [])
        return "\n".join(lines) + "\n"
    return None


def _emit(report: RunReport, fmt: str) -> None:
    if fmt == "csv":
        payload = _csv_payload(report)
        if payload is not None:
            sys.stdout.write(payload)
            return
    sys.stdout.write(json.dumps(report.to_json_dict(), indent=2) + "\n")


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--format", choices=("json", "csv"), default="json")


def _add_budgets(p: argparse.ArgumentParser):
    p.add_argument(
        "--max-states",
        type=int,
        default=weights.DEFAULT_MAX_STATES,
        help="state budget (k+1)^E for brute-force enumeration",
    )
    p.add_argument(
        "--max-frontier",
        type=int,
        default=weights.DEFAULT_MAX_FRONTIER,
        help="cell budget per contraction tensor: w open edges store "
        "((k+1)^w + ((k+1) mod 2)^w)/2 cells of even parity",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The verlinde-lab parser, built once per process: parse_args reuses it."""
    parser = argparse.ArgumentParser(
        prog="verlinde-lab",
        description="Exact rank computations for SU(2) conformal-block spaces.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser(
        "graphs", help="trinion graph classes at genus 2-5, by fusion-move closure"
    )
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--out-dir", default=".", help="directory for .trinion.json files")
    _add_common(p)
    p.set_defaults(func=cmd_graphs)

    p = sub.add_parser("count", help="count admissible weights of a level")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--genus", type=int)
    src.add_argument("--graph", help="path to a .trinion.json file")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--method", choices=tuple(ROUTES), default="contract")
    _add_budgets(p)
    _add_common(p)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("verlinde", help="Verlinde dimension formula")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--level", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_verlinde)

    p = sub.add_parser("check", help="reconcile the Verlinde rank with every count route")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--max-level", type=int, required=True)
    _add_budgets(p)
    _add_common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("polytope", help="moment polytope volumes and asymptotics")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--genus", type=int)
    src.add_argument("--graph", help="path to a .trinion.json file")
    p.add_argument(
        "--mode",
        choices=("volume-exact", "volume-mc", "asymptotics"),
        required=True,
    )
    p.add_argument("--samples", type=int, default=DEFAULT_MC_SAMPLES)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--k-max", type=int, default=DEFAULT_K_MAX)
    _add_common(p)
    p.set_defaults(func=cmd_polytope)

    p = sub.add_parser("abelian", help="torus fibration and multisection counts")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--g", type=int, help="base dimension (with --level)")
    src.add_argument("--multisection", help="path to a multisection JSON file")
    p.add_argument("--level", type=int)
    _add_common(p)
    p.set_defaults(func=cmd_abelian)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.subcommand == "abelian":
        if args.g is not None and args.level is None:
            parser.error("abelian --g requires --level")
        if args.g is None and args.level is not None:
            parser.error("abelian --multisection takes no --level")
    start = time.perf_counter()
    try:
        report: RunReport = args.func(args)
    except (ValueError, OSError, ArithmeticError, BudgetExceeded) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    report.timing_seconds = time.perf_counter() - start
    _emit(report, args.format)
    if not report.all_passed():
        first = report.outputs.get("first_discrepancy")
        if first:
            sys.stderr.write(f"FIRST DISCREPANCY: {first}\n")
        else:
            failed = [c["name"] for c in report.checks if not c["passed"]]
            sys.stderr.write(f"failed checks: {', '.join(failed)}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
