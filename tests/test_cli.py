"""End-to-end tests of the command-line front end."""

import argparse
import json
import os
import re
import shlex
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from verlinde_lab import cli, polytope, weights
from verlinde_lab.abelian import AffineMultisection, MultisectionComponent
from verlinde_lab.abelian import to_json_dict as multisection_json
from verlinde_lab.fusion import verlinde_dim
from verlinde_lab.graph import _necklace_graph, save_graph, theta_graph


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out), err


# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------


def test_graphs_writes_files(tmp_path, capsys):
    code, report, _ = run_json(
        capsys, "graphs", "--genus", "2", "--out-dir", str(tmp_path)
    )
    assert code == 0
    assert report["outputs"]["classes"] == 2
    files = sorted(p.name for p in tmp_path.iterdir())
    assert files == [
        "genus2_00_theta.trinion.json",
        "genus2_01_dumbbell.trinion.json",
        "genus2_index.json",
    ]
    index = json.loads((tmp_path / "genus2_index.json").read_text())
    assert index["count"] == 2
    assert [g["name"] for g in index["graphs"]] == ["theta", "dumbbell"]


def test_graphs_byte_identical_reruns(tmp_path, capsys):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    run_cli(capsys, "graphs", "--genus", "3", "--out-dir", str(d1))
    run_cli(capsys, "graphs", "--genus", "3", "--out-dir", str(d2))
    names = sorted(p.name for p in d1.iterdir())
    assert names == sorted(p.name for p in d2.iterdir())
    for name in names:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_graphs_out_of_range(capsys):
    code, _, err = run_cli(capsys, "graphs", "--genus", "7")
    assert code == 1
    assert "error:" in err


# ---------------------------------------------------------------------------
# count
# ---------------------------------------------------------------------------


def test_count_genus_mode(capsys):
    code, report, _ = run_json(capsys, "count", "--genus", "2", "--level", "1")
    assert code == 0
    assert report["outputs"]["count"] == 4
    names = {row["graph"] for row in report["outputs"]["per_graph"]}
    assert names == {"theta", "dumbbell"}
    assert report["checks"][0]["name"] == "graph-independence"
    assert report["checks"][0]["passed"]


def test_count_level_zero(capsys):
    code, report, _ = run_json(capsys, "count", "--genus", "2", "--level", "0")
    assert code == 0
    assert report["outputs"]["count"] == 1


def test_count_methods_agree(capsys):
    _, brute, _ = run_json(
        capsys, "count", "--genus", "2", "--level", "3", "--method", "brute"
    )
    _, contract, _ = run_json(
        capsys, "count", "--genus", "2", "--level", "3", "--method", "contract"
    )
    assert brute["outputs"]["count"] == contract["outputs"]["count"] == 20


def _main_outcome(capsys, argv):
    """Exit code, report without its timing (or raw stdout), and stderr."""
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:  # argparse errors exit through SystemExit
        code = exc.code
    captured = capsys.readouterr()
    try:
        out = json.loads(captured.out)
        out.pop("timing_seconds")
    except json.JSONDecodeError:
        out = captured.out
    return code, out, captured.err


def test_repeated_main_calls_match_fresh_ones(capsys):
    # The parser is built once per process; every call must parse afresh.
    argvs = [
        ["count", "--genus", "2", "--level", "3", "--method", "brute"],
        ["count", "--genus", "2", "--level", "3"],
        ["count", "--genus", "2"],  # --level missing: argparse exits 2
        ["count", "--genus", "2", "--level", "2"],
        ["verlinde", "--genus", "3", "--level", "2"],
    ]
    repeated = [_main_outcome(capsys, argv) for argv in argvs]
    fresh = []
    for argv in argvs:
        cli.build_parser.cache_clear()
        fresh.append(_main_outcome(capsys, argv))
    assert repeated == fresh
    assert [code for code, _, _ in repeated] == [0, 0, 2, 0, 0]
    assert repeated[1][1]["inputs"]["method"] == "contract"
    assert repeated[3][1]["outputs"]["count"] == 10


def test_count_reports_contraction_counters(capsys):
    _, report, _ = run_json(capsys, "count", "--genus", "2", "--level", "3")
    rows = {row["graph"]: row for row in report["outputs"]["per_graph"]}
    # peak_cells counts the even-parity blocks: at k = 3, two even and two
    # odd labels, so (4^w + 0^w)/2 cells for w open edges.  Theta's one
    # merge spans its three edges and multiplies each stored cell once; the
    # dumbbell's spans the bridge, with its two even labels.
    assert rows["theta"] == {
        "graph": "theta",
        "count": 20,
        "peak_cells": 4**3 // 2,
        "int_from_merge": None,
        "plan_cost": 4**3 // 2,
        "peak_union": 3,
    }
    assert rows["dumbbell"] == {
        "graph": "dumbbell",
        "count": 20,
        "peak_cells": 2,
        "int_from_merge": None,
        "plan_cost": 2,
        "peak_union": 1,
    }
    # The counters are deterministic, so two reports diff clean.
    _, again, _ = run_json(capsys, "count", "--genus", "2", "--level", "3")
    assert again["outputs"] == report["outputs"]
    _, brute, _ = run_json(
        capsys, "count", "--genus", "2", "--level", "3", "--method", "brute"
    )
    # Brute rows carry the DFS counters.  Theta: 1 + 4 + 16 prefixes, the
    # last edge counted in closed form.  Dumbbell: 1 + 4 prefixes, then 6
    # even bridge labels within min(2a, 6 - 2a) of the first loop's a.
    assert {row["graph"]: row for row in brute["outputs"]["per_graph"]} == {
        "theta": {"graph": "theta", "count": 20, "nodes": 21, "pruned": 0},
        "dumbbell": {"graph": "dumbbell", "count": 20, "nodes": 11, "pruned": 0},
    }


def test_count_graph_file(tmp_path, capsys):
    path = tmp_path / "t.trinion.json"
    save_graph(theta_graph(), path)
    code, report, _ = run_json(
        capsys, "count", "--graph", str(path), "--level", "2"
    )
    assert code == 0
    assert report["outputs"]["count"] == 10


@pytest.mark.parametrize(
    "data",
    [
        {"vertices": 2, "edges": [[[0, 3], [0, 0]], [[0, 1], [1, 1]], [[0, 2], [1, 2]]]},
        {"edges": [[[0, 0], [1, 0]], [[0, 1], [1, 1]], [[0, 2], [1, 2]]]},
    ],
)
def test_count_malformed_graph_file(tmp_path, capsys, data):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, _, err = run_cli(capsys, "count", "--graph", str(path), "--level", "1")
    assert code == 1
    assert "error:" in err


def test_count_graph_file_that_is_not_json(tmp_path, capsys):
    # json.JSONDecodeError is a ValueError, so main reports it as one.
    path = tmp_path / "bad.trinion.json"
    path.write_text('{"vertices": 2, "edges": [')
    code, out, err = run_cli(capsys, "count", "--graph", str(path), "--level", "1")
    assert code == 1
    assert err.startswith("error:")
    assert out == ""


def test_count_csv(capsys):
    code, out, _ = run_cli(
        capsys, "count", "--genus", "2", "--level", "1", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "graph,count"
    assert "theta,4" in lines


def test_count_work_bound_error(capsys):
    code, _, err = run_cli(
        capsys,
        "count", "--genus", "2", "--level", "500",
        "--method", "brute", "--max-states", "1000",
    )
    assert code == 1
    assert "count_via_contraction" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            "count --genus 3 --level 8 --method brute --max-states 100",
            "(k+1)^E = 531441 exceeds the 100 state budget; use count_via_contraction instead",
        ),
        (
            "count --genus 4 --level 24 --max-frontier 1000",
            "frontier of 3 open edges needs even-parity blocks of "
            "((k+1)^3 + 1^3)/2 = 7813 cells; budget is 1000",
        ),
        (
            "polytope --genus 4 --mode volume-exact",
            "exact_volume supports dimension <= 6 (got 9); use mc_volume",
        ),
    ],
    ids=["brute-states", "contraction-frontier", "exact-volume-dimension"],
)
def test_budget_refusals_exit_1_with_the_route_message(capsys, argv, message):
    # Every route raises the one BudgetExceeded, which main reports alone.
    assert run_cli(capsys, *argv.split()) == (1, "", f"error: {message}\n")


def test_count_brute_on_a_graph_past_the_recursion_limit(tmp_path, capsys):
    # At k = 0 the state budget admits any graph, (0+1)^E = 1, and the search
    # keeps its depths on a stack, not in frames: genus 400 has E = 1197,
    # past the recursion limit.  Its one labeling, all zeros, is the level-0
    # Verlinde rank, 1 at every genus.
    path = tmp_path / "necklace.trinion.json"
    save_graph(_necklace_graph(798), path)
    code, report, _ = run_json(
        capsys, "count", "--graph", str(path), "--level", "0", "--method", "brute"
    )
    assert code == 0
    assert report["outputs"]["count"] == 1
    (row,) = report["outputs"]["per_graph"]
    # One node per prefix of the all-zero labeling, the empty one among them.
    assert (row["nodes"], row["pruned"]) == (1197, 0)


def test_count_method_choices_are_the_route_table():
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    (method,) = (a for a in sub.choices["count"]._actions if a.dest == "method")
    assert tuple(method.choices) == tuple(cli.ROUTES) == ("contract", "brute", "lattice")


@pytest.mark.parametrize("genus", (2, 3))
def test_count_lattice_equals_contraction_and_verlinde(capsys, genus):
    for k in range(1, 9):
        per_method = {}
        for method in ("lattice", "contract"):
            code, report, _ = run_json(
                capsys, "count", "--genus", str(genus), "--level", str(k), "--method", method
            )
            assert code == 0
            rows = report["outputs"]["per_graph"]
            per_method[method] = [(row["graph"], row["count"]) for row in rows]
        dim = verlinde_dim(genus, k)
        assert per_method["lattice"] == per_method["contract"]
        assert {n for _, n in per_method["lattice"]} == {dim}


def test_count_lattice_refuses_level_zero(capsys):
    # The lattice route counts from level 1: at k = 0 the lattice (1/k)Z^E is undefined.
    code, out, err = run_cli(capsys, "count", "--genus", "2", "--level", "0", "--method", "lattice")
    assert (code, out) == (1, "")
    assert err == "error: level must be at least 1\n"
    assert cli.ROUTES["lattice"][1] == 1


@pytest.mark.parametrize("command", ("count --genus 2 --level 2", "check --genus 2 --max-level 2"))
@pytest.mark.parametrize("flag", ("--max-states", "--max-frontier"))
@pytest.mark.parametrize("value", ("0", "-1"))
def test_budget_flags_below_one_are_input_errors(capsys, command, flag, value):
    argv = [*command.split(), flag, value]
    assert run_cli(capsys, *argv) == (1, "", f"error: {flag} must be at least 1\n")


# ---------------------------------------------------------------------------
# verlinde / check
# ---------------------------------------------------------------------------


def test_verlinde(capsys):
    code, report, _ = run_json(capsys, "verlinde", "--genus", "2", "--level", "1")
    assert code == 0
    assert report["outputs"]["dimension"] == 4
    assert report["checks"] == []


def test_verlinde_level_zero(capsys):
    code, report, _ = run_json(capsys, "verlinde", "--genus", "2", "--level", "0")
    assert code == 0
    assert report["outputs"]["dimension"] == 1


def test_verlinde_large_rank_exact(capsys):
    # 68 digits, past where a 200-bit float sum still rounds to the right integer.
    code, report, _ = run_json(capsys, "verlinde", "--genus", "12", "--level", "300")
    assert code == 0
    assert report["outputs"]["dimension"] == (
        78127582890685710733278837827377553044687101241225179996273589399751
    )


def test_verlinde_non_integer_rank_is_an_error(capsys, monkeypatch, fresh_verlinde_cache):
    # A corrupted series must end the run with an error, never a rounded integer.
    # The polynomial is cached per genus: the fixture empties the cache before
    # the call, so it is built from the corrupted series, and after the test,
    # so the corrupted polynomial is not left for later tests.
    real = cli.fusion._series_power

    def off_by_a_third(a, e):
        out = real(a, e)
        return [out[0] + Fraction(1, 3), *out[1:]]

    monkeypatch.setattr(cli.fusion, "_series_power", off_by_a_third)
    code, out, err = run_cli(capsys, "verlinde", "--genus", "2", "--level", "1")
    assert code == 1 and out == ""
    assert err.startswith("error: Verlinde rank for g=2, k=1 is ")


def test_verlinde_matches_counts_genus_three(capsys):
    code, report, _ = run_json(capsys, "verlinde", "--genus", "3", "--level", "2")
    _, counts, _ = run_json(capsys, "count", "--genus", "3", "--level", "2")
    assert report["outputs"]["dimension"] == counts["outputs"]["count"] == 36


def test_check_passes(capsys):
    code, report, _ = run_json(capsys, "check", "--genus", "2", "--max-level", "6")
    assert code == 0
    assert report["checks"]
    assert all(c["passed"] for c in report["checks"])
    assert "first_discrepancy" not in report["outputs"]


def test_check_genus_three(capsys):
    code, report, _ = run_json(capsys, "check", "--genus", "3", "--max-level", "4")
    assert code == 0
    assert all(c["passed"] for c in report["checks"])


def test_check_trivial_level_zero(capsys):
    code, report, _ = run_json(capsys, "check", "--genus", "2", "--max-level", "0")
    assert code == 0
    assert all(c["passed"] for c in report["checks"])


def test_check_rejects_negative_max_level(capsys):
    code, out, err = run_cli(capsys, "check", "--genus", "2", "--max-level", "-1")
    assert code == 1
    assert out == ""
    assert err == "error: --max-level must be non-negative\n"


@pytest.mark.parametrize(
    "max_states, expected",
    [
        (
            None,
            [
                ("graph-independence[k=0]", ["counts"]),
                ("contraction-equals-verlinde[k=0]", ["verlinde", "counts"]),
                ("brute-equals-contraction[k=0,theta]", ["brute", "contraction"]),
                ("brute-equals-contraction[k=0,dumbbell]", ["brute", "contraction"]),
                ("graph-independence[k=1]", ["counts"]),
                ("contraction-equals-verlinde[k=1]", ["verlinde", "counts"]),
                ("brute-equals-contraction[k=1,theta]", ["brute", "contraction"]),
                ("lattice-equals-contraction[k=1,theta]", ["lattice", "contraction"]),
                ("brute-equals-contraction[k=1,dumbbell]", ["brute", "contraction"]),
                ("lattice-equals-contraction[k=1,dumbbell]", ["lattice", "contraction"]),
                ("graph-independence[k=2]", ["counts"]),
                ("contraction-equals-verlinde[k=2]", ["verlinde", "counts"]),
                ("brute-equals-contraction[k=2,theta]", ["brute", "contraction"]),
                ("lattice-equals-contraction[k=2,theta]", ["lattice", "contraction"]),
                ("brute-equals-contraction[k=2,dumbbell]", ["brute", "contraction"]),
                ("lattice-equals-contraction[k=2,dumbbell]", ["lattice", "contraction"]),
            ],
        ),
        (
            # (k+1)^3 <= 1 only at k = 0: brute drops out above it.
            "1",
            [
                ("graph-independence[k=0]", ["counts"]),
                ("contraction-equals-verlinde[k=0]", ["verlinde", "counts"]),
                ("brute-equals-contraction[k=0,theta]", ["brute", "contraction"]),
                ("brute-equals-contraction[k=0,dumbbell]", ["brute", "contraction"]),
                ("graph-independence[k=1]", ["counts"]),
                ("contraction-equals-verlinde[k=1]", ["verlinde", "counts"]),
                ("lattice-equals-contraction[k=1,theta]", ["lattice", "contraction"]),
                ("lattice-equals-contraction[k=1,dumbbell]", ["lattice", "contraction"]),
                ("graph-independence[k=2]", ["counts"]),
                ("contraction-equals-verlinde[k=2]", ["verlinde", "counts"]),
                ("lattice-equals-contraction[k=2,theta]", ["lattice", "contraction"]),
                ("lattice-equals-contraction[k=2,dumbbell]", ["lattice", "contraction"]),
            ],
        ),
    ],
    ids=["default-max-states", "max-states-1"],
)
def test_check_emits_checks_in_order(capsys, max_states, expected):
    argv = ["check", "--genus", "2", "--max-level", "2"]
    if max_states is not None:
        argv += ["--max-states", max_states]
    code, report, _ = run_json(capsys, *argv)
    assert code == 0
    assert [(c["name"], list(c)[2:]) for c in report["checks"]] == expected
    assert all(list(c)[:2] == ["name", "passed"] for c in report["checks"])


def test_check_counts_each_graph_lattice_in_one_pass(capsys, monkeypatch):
    real, calls = cli.polytope.lattice_counts, []

    def recording(P, G, levels):
        calls.append(list(levels))
        return real(P, G, levels)

    monkeypatch.setattr(cli.polytope, "lattice_counts", recording)
    code, report, _ = run_json(capsys, "check", "--genus", "2", "--max-level", "3")
    assert code == 0
    assert calls == [[1, 2, 3], [1, 2, 3]]
    lattice = [c["lattice"] for c in report["checks"] if "lattice" in c]
    assert lattice == [4, 4, 10, 10, 20, 20]


def test_check_counts_each_graph_brute_route_in_one_search(capsys, monkeypatch):
    # E = 9 at genus 4: 5^9 fits the default 10^7 states and 6^9 does not,
    # so one search per class counts k = 0..4 and k = 5, 6 have no brute check.
    real, calls = cli.weights.bruteforce_counts, []

    def recording(G, levels, **kwargs):
        calls.append((G, list(levels)))
        return real(G, levels, **kwargs)

    monkeypatch.setattr(cli.weights, "bruteforce_counts", recording)
    code, report, _ = run_json(capsys, "check", "--genus", "4", "--max-level", "6")
    assert code == 0
    graphs = cli._graphs_for(argparse.Namespace(genus=4))
    assert calls == [(G, list(range(7))) for _, G in graphs]
    brute = {
        c["name"]: c["brute"]
        for c in report["checks"]
        if c["name"].startswith("brute-equals-contraction[")
    }
    assert brute == {
        f"brute-equals-contraction[k={k},{ident}]": weights.count_admissible_bruteforce(G, k)
        for ident, G in graphs
        for k in range(5)
    }


def test_check_budget_error_comes_before_the_lattice_pass(capsys, monkeypatch):
    # A plain vertex stores 32 cells at k = 3, past a budget of 20: the
    # contraction at every level runs before any lattice count.
    calls = []
    monkeypatch.setattr(cli.polytope, "lattice_counts", lambda *args: calls.append(args))
    code, out, err = run_cli(
        capsys, "check", "--genus", "2", "--max-level", "4", "--max-frontier", "20"
    )
    assert (code, out) == (1, "")
    assert err.startswith("error: frontier of 3 open edges") and "= 32 cells" in err
    assert calls == []


def test_check_equals_the_checks_rebuilt_from_single_level_references(capsys):
    # Each route once per graph over all its levels must emit exactly the
    # checks that one call per level and graph gives, in the same order.
    code, report, _ = run_json(capsys, "check", "--genus", "3", "--max-level", "4")
    assert code == 0
    graphs = cli._graphs_for(argparse.Namespace(genus=3))
    expected = []
    for k in range(5):
        dim = verlinde_dim(3, k)
        counts = {ident: weights.count_via_contraction(G, k) for ident, G in graphs}
        expected.append(
            {"name": f"graph-independence[k={k}]", "passed": True, "counts": counts}
        )
        expected.append(
            {
                "name": f"contraction-equals-verlinde[k={k}]",
                "passed": True,
                "verlinde": dim,
                "counts": counts,
            }
        )
        for ident, G in graphs:
            # E = 6 at genus 3: (k+1)^6 fits the default state budget at k <= 4.
            routes = {"brute": weights.count_admissible_bruteforce(G, k)}
            if k >= 1:
                routes["lattice"] = polytope.lattice_count(polytope.build_polytope(G), G, k)
            for route, n in routes.items():
                expected.append(
                    {
                        "name": f"{route}-equals-contraction[k={k},{ident}]",
                        "passed": True,
                        route: n,
                        "contraction": counts[ident],
                    }
                )
    assert report["checks"] == expected
    assert len(expected) == 5 * 2 + 5 * len(graphs) + 4 * len(graphs)


def test_check_reports_each_routes_counters(capsys):
    # Contraction counters at the top level, the brute search's at its top
    # admitted level, and none for the lattice route; two runs agree.
    code, report, _ = run_json(capsys, "check", "--genus", "2", "--max-level", "3")
    assert code == 0
    graphs = cli._graphs_for(argparse.Namespace(genus=2))
    want: dict = {"contract": {}, "brute": {}, "lattice": {}}
    for ident, G in graphs:
        weights.count_via_contraction(G, 3, stats=want["contract"].setdefault(ident, {}))
        weights.count_admissible_bruteforce(G, 3, stats=want["brute"].setdefault(ident, {}))
        want["lattice"][ident] = {}
    assert report["outputs"]["stats"] == want
    assert list(want["contract"]["theta"]) == [
        "peak_cells", "int_from_merge", "plan_cost", "peak_union"
    ]
    assert list(want["brute"]["theta"]) == ["nodes", "pruned"]
    assert run_json(capsys, "check", "--genus", "2", "--max-level", "3")[1]["outputs"] == (
        report["outputs"]
    )


@pytest.mark.parametrize(
    "module, route, first",
    [
        ("weights", "count_via_contraction", "contraction-equals-verlinde[k=2]"),
        ("weights", "bruteforce_counts", "brute-equals-contraction[k=2,theta]"),
        ("polytope", "lattice_counts", "lattice-equals-contraction[k=2,theta]"),
    ],
    ids=["contraction", "brute", "lattice"],
)
def test_check_reports_first_discrepancy(capsys, monkeypatch, module, route, first):
    # Sabotage one route at level 2 to verify the failure contract: nonzero
    # exit and a first-discrepancy line on stderr.  Every route takes the
    # level last; lattice_counts takes a list of levels and returns a list,
    # bruteforce_counts returns a dict by level.
    real = getattr(getattr(cli, module), route)

    def wrong(*args, **kwargs):
        value = real(*args, **kwargs)
        if isinstance(value, dict):
            return {k: n + 1 if k == 2 else n for k, n in value.items()}
        if isinstance(value, list):
            return [n + 1 if k == 2 else n for k, n in zip(args[-1], value)]
        return value + 1 if args[-1] == 2 else value

    monkeypatch.setattr(getattr(cli, module), route, wrong)
    code, out, err = run_cli(capsys, "check", "--genus", "2", "--max-level", "2")
    assert code == 1
    report = json.loads(out)
    assert not all(c["passed"] for c in report["checks"])
    assert "FIRST DISCREPANCY" in err
    assert "k=2" in report["outputs"]["first_discrepancy"]
    assert report["outputs"]["first_discrepancy"].startswith(first + ": ")


# ---------------------------------------------------------------------------
# polytope
# ---------------------------------------------------------------------------


def test_polytope_volume_exact(capsys):
    code, report, _ = run_json(
        capsys, "polytope", "--genus", "2", "--mode", "volume-exact"
    )
    assert code == 0
    assert [v["volume"] for v in report["outputs"]["volumes"]] == ["1/3", "1/3"]
    assert [c["name"] for c in report["checks"]] == ["volume-equals-closed-form"]
    assert report["checks"][0]["passed"]
    for entry in report["outputs"]["volumes"]:
        assert entry["memo_entries"] > 0 and entry["faces_pruned"] >= 0
    # The work counters are deterministic, so two reports diff clean.
    _, again, _ = run_json(capsys, "polytope", "--genus", "2", "--mode", "volume-exact")
    assert again["outputs"] == report["outputs"]


def test_polytope_volume_exact_flags_one_wrong_class(capsys, monkeypatch):
    real = cli.polytope.exact_volume
    calls = []

    def wrong_on_second(P, stats=None):
        calls.append(P)
        vol = real(P, stats)
        return vol * 2 if len(calls) == 2 else vol

    monkeypatch.setattr(cli.polytope, "exact_volume", wrong_on_second)
    code, out, err = run_cli(capsys, "polytope", "--genus", "2", "--mode", "volume-exact")
    assert code == 1
    report = json.loads(out)
    assert [v["volume"] for v in report["outputs"]["volumes"]] == ["1/3", "2/3"]
    assert [c["name"] for c in report["checks"]] == ["volume-equals-closed-form"]
    assert "failed checks: volume-equals-closed-form" in err


@pytest.mark.parametrize("genus, closed_form", [(2, "1/3"), (3, "2/45")])
def test_polytope_volume_exact_equals_closed_form(capsys, genus, closed_form):
    code, report, _ = run_json(
        capsys, "polytope", "--genus", str(genus), "--mode", "volume-exact"
    )
    assert code == 0
    checks = {c["name"]: c for c in report["checks"]}
    check = checks["volume-equals-closed-form"]
    assert check["passed"] and check["closed_form"] == closed_form


def test_polytope_volume_mc_reproducible(capsys, monkeypatch):
    # The reference is the closed form at every genus: exact_volume never runs.
    def refuse(P, stats=None):
        raise AssertionError("volume-mc called exact_volume")

    monkeypatch.setattr(cli.polytope, "exact_volume", refuse)
    for genus, seed, classes in ((2, 9, 2), (3, 9, 5), (4, 3, 17)):
        args = (
            "polytope", "--genus", str(genus), "--mode", "volume-mc",
            "--samples", "20000", "--seed", str(seed),
        )
        code1, r1, _ = run_json(capsys, *args)
        code2, r2, _ = run_json(capsys, *args)
        assert code1 == code2 == 0
        assert r1["outputs"] == r2["outputs"]
        assert r1["checks"] == r2["checks"]
        estimates = r1["outputs"]["estimates"]
        assert [c["name"] for c in r1["checks"]] == [
            f"mc-within-4-sigma[{e['graph']}]" for e in estimates
        ]
        assert len(estimates) == classes and all(c["passed"] for c in r1["checks"])
        closed = polytope.moment_volume(genus)
        sigma = (float(closed) * (1 - float(closed)) / 20_000) ** 0.5
        for check, entry in zip(r1["checks"], estimates):
            assert "exact" not in entry
            assert check["closed_form"] == str(closed) and check["sigma"] == sigma
            assert check["gap"] == abs(entry["estimate"] - float(closed)) <= 4 * sigma


def test_polytope_volume_mc_checks_a_genus_10_graph_file(tmp_path, capsys):
    # Hit-or-miss sees no sample inside a volume of 5.8e-7 at 10^5 samples,
    # and 0.0 is within 4 sigma of it: a pass that says little, but a check.
    path = tmp_path / "necklace.trinion.json"
    save_graph(_necklace_graph(18), path)
    code, report, _ = run_json(
        capsys, "polytope", "--graph", str(path), "--mode", "volume-mc",
        "--samples", "100000",
    )
    assert code == 0
    [entry] = report["outputs"]["estimates"]
    assert entry["estimate"] == 0.0
    [check] = report["checks"]
    assert check["name"] == f"mc-within-4-sigma[{path}]" and check["passed"]
    assert check["closed_form"] == str(polytope.moment_volume(10))


def test_polytope_volume_mc_fails_against_a_wrong_closed_form(capsys, monkeypatch):
    real = cli.polytope.moment_volume
    monkeypatch.setattr(cli.polytope, "moment_volume", lambda g: real(g) * Fraction(3, 2))
    code, _, err = run_cli(
        capsys, "polytope", "--genus", "2", "--mode", "volume-mc", "--samples", "20000"
    )
    assert code == 1
    assert err.startswith("failed checks: ")


def test_polytope_volume_mc_reports_draws_and_stages(capsys):
    code, report, _ = run_json(
        capsys, "polytope", "--genus", "2", "--mode", "volume-mc", "--samples", "20000"
    )
    assert code == 0
    theta, dumbbell = report["outputs"]["estimates"]
    # Every cut row of theta reads all three edges: one stage draws them all.
    assert (theta["draws"], theta["stages"]) == (3 * 20_000, 1)
    # The dumbbell's second vertex draws its loop only for the survivors.
    assert dumbbell["stages"] == 2 and 2 * 20_000 < dumbbell["draws"] < 3 * 20_000


def test_polytope_volume_mc_rejects_a_negative_seed(capsys):
    code, out, err = run_cli(
        capsys, "polytope", "--genus", "2", "--mode", "volume-mc", "--seed", "-1"
    )
    assert (code, out) == (1, "")
    assert err == "error: --seed must be non-negative\n"


def test_polytope_asymptotics_json(capsys):
    code, report, _ = run_json(
        capsys, "polytope", "--genus", "2", "--mode", "asymptotics", "--k-max", "50"
    )
    assert code == 0
    for entry in report["outputs"]["tables"]:
        assert entry["volume"] == "1/3"
        assert entry["parity_rank"] == 1
        assert entry["volume_parity_corrected"] == "1/6"
        limit = Fraction(entry["extrapolated_limit"])
        assert abs(limit - Fraction(1, 6)) <= Fraction(1, 600)
        assert entry["leading_coefficient"] == "1/6"
    assert all(c["passed"] for c in report["checks"])
    assert [c["name"] for c in report["checks"]] == [
        "leading-coefficient-equals-parity-corrected-volume[theta]",
        "count-polynomial-equals-verlinde-polynomial[theta]",
        "leading-coefficient-equals-parity-corrected-volume[dumbbell]",
        "count-polynomial-equals-verlinde-polynomial[dumbbell]",
    ]


def test_polytope_asymptotics_fails_on_a_perturbed_low_order_coefficient(
    capsys, monkeypatch
):
    # One more weight at every level adds 1 to the count polynomial's constant
    # term: still of degree 3 with leading coefficient 1/6, so only the
    # whole-polynomial comparison catches it.
    real = cli.polytope.count_via_contraction
    monkeypatch.setattr(
        cli.polytope, "count_via_contraction", lambda G, k, **kw: real(G, k, **kw) + 1
    )
    code, report, err = run_json(
        capsys, "polytope", "--genus", "2", "--mode", "asymptotics", "--k-max", "5"
    )
    assert code == 1
    assert {c["name"]: c["passed"] for c in report["checks"]} == {
        "leading-coefficient-equals-parity-corrected-volume[theta]": True,
        "count-polynomial-equals-verlinde-polynomial[theta]": False,
        "leading-coefficient-equals-parity-corrected-volume[dumbbell]": True,
        "count-polynomial-equals-verlinde-polynomial[dumbbell]": False,
    }
    assert err == (
        "failed checks: count-polynomial-equals-verlinde-polynomial[theta], "
        "count-polynomial-equals-verlinde-polynomial[dumbbell]\n"
    )


def test_polytope_asymptotics_fails_on_a_perturbed_verlinde_polynomial(
    capsys, fresh_verlinde_cache, monkeypatch
):
    # Adding the denominator to the constant coefficient moves every rank by
    # n^m, still an integer, so only the comparison with the counts catches it.
    # The cache fixture comes before monkeypatch, so it empties the real
    # function's cache after the patch is undone.
    real = cli.fusion.verlinde_polynomial

    def shifted(g):
        P = real(g)
        return replace(P, coeffs=(P.coeffs[0] + P.denominator, *P.coeffs[1:]))

    monkeypatch.setattr(cli.fusion, "verlinde_polynomial", shifted)
    code, report, err = run_json(
        capsys, "polytope", "--genus", "2", "--mode", "asymptotics", "--k-max", "5"
    )
    assert code == 1
    assert {c["name"]: c["passed"] for c in report["checks"]} == {
        "leading-coefficient-equals-parity-corrected-volume[theta]": True,
        "count-polynomial-equals-verlinde-polynomial[theta]": False,
        "leading-coefficient-equals-parity-corrected-volume[dumbbell]": True,
        "count-polynomial-equals-verlinde-polynomial[dumbbell]": False,
    }
    assert err == (
        "failed checks: count-polynomial-equals-verlinde-polynomial[theta], "
        "count-polynomial-equals-verlinde-polynomial[dumbbell]\n"
    )


def _is_three_point_fit(limit, rows, d):
    """limit = C makes (t - C)/x linear in x = 1/k through the last three rows."""
    pts = [(Fraction(1, r["k"]), Fraction(r["count"], r["k"] ** d)) for r in rows[-3:]]
    (x1, u1), (x2, u2), (x3, u3) = [(x, (t - limit) / x) for x, t in pts]
    return (u2 - u1) / (x2 - x1) == (u3 - u2) / (x3 - x2)


@pytest.mark.parametrize(
    "genus, k_max, leading", [(3, "30", "1/180"), (4, "12", "1/3780")]
)
def test_polytope_asymptotics_exact_checks(capsys, genus, k_max, leading):
    # Genus 3 at k_max 30 is where a 1 % fit gate missed on correct counts;
    # genus 4 is past exact_volume's dimension cap.
    code, report, _ = run_json(
        capsys, "polytope", "--genus", str(genus), "--mode", "asymptotics",
        "--k-max", k_max,
    )
    assert code == 0
    d = 3 * genus - 3
    tables, checks = report["outputs"]["tables"], report["checks"]
    assert len(tables) == len(checks) // 2 == {3: 5, 4: 17}[genus]
    for entry, leading_check, polynomial_check in zip(tables, checks[::2], checks[1::2]):
        assert leading_check == {
            "name": f"leading-coefficient-equals-parity-corrected-volume[{entry['graph']}]",
            "passed": True,
        }
        assert polynomial_check == {
            "name": f"count-polynomial-equals-verlinde-polynomial[{entry['graph']}]",
            "passed": True,
        }
        assert entry["leading_coefficient"] == leading == entry["volume_parity_corrected"]
        assert len(entry["rows"]) == int(k_max)
        limit = Fraction(entry["extrapolated_limit"])
        assert _is_three_point_fit(limit, entry["rows"], d)
        assert not _is_three_point_fit(limit + Fraction(1, 10**30), entry["rows"], d)


def test_polytope_asymptotics_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        "polytope", "--genus", "2", "--mode", "asymptotics",
        "--k-max", "5", "--format", "csv",
    )
    assert code == 0
    blocks = out.strip().split("\n\n")
    assert len(blocks) == 2
    for block in blocks:
        lines = block.split("\n")
        assert lines[0].startswith("# graph=")
        assert lines[1] == "k,count,ratio"
        assert lines[2].startswith("1,4,")


def test_polytope_graph_file(tmp_path, capsys):
    path = tmp_path / "t.trinion.json"
    save_graph(theta_graph(), path)
    code, report, _ = run_json(
        capsys, "polytope", "--graph", str(path), "--mode", "volume-exact"
    )
    assert code == 0
    assert report["outputs"]["volumes"][0]["volume"] == "1/3"


# ---------------------------------------------------------------------------
# abelian
# ---------------------------------------------------------------------------


def test_abelian_torus_count(capsys):
    code, report, _ = run_json(capsys, "abelian", "--g", "2", "--level", "3")
    assert code == 0
    assert report["outputs"]["count"] == 9


def test_abelian_requires_level_with_g(capsys):
    with pytest.raises(SystemExit):
        cli.main(["abelian", "--g", "2"])


def test_abelian_multisection_rejects_level(tmp_path, capsys):
    # The multisection count has no level: one given is refused, not echoed unused.
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"g": 1, "components": [{"A": [[2]], "t": ["0"]}]}))
    with pytest.raises(SystemExit) as exc:
        cli.main(["abelian", "--multisection", str(path), "--level", "3"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "abelian --multisection takes no --level" in captured.err


def test_abelian_multisection_file(tmp_path, capsys):
    M = AffineMultisection(
        2,
        (
            MultisectionComponent(
                ((2, 0), (0, 3)), (Fraction(0), Fraction(0))
            ),
        ),
    )
    path = tmp_path / "m.json"
    path.write_text(json.dumps(multisection_json(M)))
    code, report, _ = run_json(capsys, "abelian", "--multisection", str(path))
    assert code == 0
    assert report["outputs"]["count"] == 6
    assert len(report["outputs"]["fibres"]) == 6
    assert [c["name"] for c in report["checks"]] == [
        "fibre-total-equals-count",
        "fibres-solve-congruence",
    ]
    assert all(c["passed"] for c in report["checks"])


def test_abelian_identity_multisection(tmp_path, capsys):
    M = AffineMultisection(
        2,
        (MultisectionComponent(((1, 0), (0, 1)), (Fraction(1, 2), Fraction(1, 2))),),
    )
    path = tmp_path / "m.json"
    path.write_text(json.dumps(multisection_json(M)))
    code, report, _ = run_json(capsys, "abelian", "--multisection", str(path))
    assert code == 0
    assert report["outputs"]["count"] == 1
    assert report["outputs"]["fibres"] == [
        {"point": ["1/2", "1/2"], "component": 0}
    ]


def test_fibre_coordinates_print_as_reduced_fractions():
    # A fibre coordinate n / Q prints as str(Fraction(n, Q)) did.
    for q in range(1, 40):
        for n in range(q):
            assert cli._ratio(n, q) == str(Fraction(n, q))


def test_abelian_multisection_fails_on_a_repeated_fibre(tmp_path, capsys, monkeypatch):
    M = AffineMultisection(
        2, (MultisectionComponent(((2, 0), (0, 3)), (Fraction(0), Fraction(1, 2))),)
    )
    path = tmp_path / "m.json"
    path.write_text(json.dumps(multisection_json(M)))
    listed = cli.abelian_mod.e_bs_fibres

    def repeat_first(M):
        fibres = listed(M)
        return [fibres[0]] + fibres[:-1]

    monkeypatch.setattr(cli.abelian_mod, "e_bs_fibres", repeat_first)
    code, out, err = run_cli(capsys, "abelian", "--multisection", str(path))
    assert code == 1
    assert err == "failed checks: fibres-solve-congruence\n"


@pytest.mark.parametrize(
    "data",
    [
        {"g": 2},
        {"g": 2, "components": 5},
        {"components": []},
        {"g": 1, "components": [5]},
        {"g": 1, "components": [{"A": [[1]]}]},
        {"g": 1, "components": [{"A": [[1.5]], "t": ["0"]}]},
        {"g": 1, "components": [{"A": [[2]], "t": [None]}]},
        {"g": 1, "components": [{"A": [[2]], "t": ["1/0"]}]},
    ],
)
def test_abelian_malformed_multisection_fails(tmp_path, capsys, data):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "abelian", "--multisection", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_abelian_singular_multisection_fails(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(
        json.dumps({"g": 2, "components": [{"A": [[1, 1], [1, 1]], "t": ["0", "0"]}]})
    )
    code, _, err = run_cli(capsys, "abelian", "--multisection", str(path))
    assert code == 1
    assert "singular" in err


@pytest.mark.parametrize(
    "components",
    [
        [{"A": [[4, 1], [1, 4]], "t": ["0", "0"]}],
        [{"A": [[2, 0], [0, 4]], "t": ["0", "1/2"]}] * 2,
        [{"A": [[10**9, 0], [0, 10**9]], "t": ["0", "0"]}],
    ],
)
def test_abelian_multisection_over_budget_fails(tmp_path, capsys, monkeypatch, components):
    # 15 fibres in one component, or 8 + 8 over two, pass a budget of 10; the
    # budget is checked before listing, so 10^18 fibres fail as fast.
    monkeypatch.setattr(cli.abelian_mod, "DEFAULT_MAX_POINTS", 10)
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"g": 2, "components": components}))
    code, out, err = run_cli(capsys, "abelian", "--multisection", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "budget of 10" in err


# ---------------------------------------------------------------------------
# README command block
# ---------------------------------------------------------------------------


def _readme_command_block():
    """The `verlinde-lab` lines and the multisection JSON of README's command section."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    section = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
    sh = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = [ln for ln in sh.splitlines() if ln.startswith("verlinde-lab ")]
    multisection = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    return lines, json.loads(multisection)


def _answers(outputs):
    """What a `# -> N` comment names: every per-graph volume, else the headline value."""
    if "volumes" in outputs:
        return {v["volume"] for v in outputs["volumes"]}
    return {str(outputs.get("count", outputs.get("dimension")))}


def test_readme_commands_run(tmp_path, capsys, monkeypatch):
    lines, multisection = _readme_command_block()
    assert len(lines) >= 10
    monkeypatch.chdir(tmp_path)
    (tmp_path / "multisection.json").write_text(json.dumps(multisection))
    for line in lines:
        command, _, comment = line.partition("#")
        code, out, err = run_cli(capsys, *shlex.split(command)[1:])
        assert code == 0, (line, err)
        expected = re.match(r"\s*->\s*(\S+)", comment)
        if expected:
            assert _answers(json.loads(out)["outputs"]) == {expected.group(1)}, line


# ---------------------------------------------------------------------------
# Usage and report shape
# ---------------------------------------------------------------------------


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["count", "--level", "1"])  # neither --genus nor --graph
    assert exc.value.code == 2


def test_report_shape(capsys):
    _, report, _ = run_json(capsys, "verlinde", "--genus", "2", "--level", "2")
    assert list(report.keys()) == [
        "command", "inputs", "outputs", "checks", "timing_seconds",
    ]


# ---------------------------------------------------------------------------
# Runtime dependencies
# ---------------------------------------------------------------------------

_WITHOUT_MPMATH = """
import contextlib, io, json, sys
sys.modules["mpmath"] = None  # any import of mpmath now raises ImportError
from verlinde_lab import cli, weights
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
print(json.dumps(codes))
"""


def test_commands_run_without_mpmath(tmp_path):
    path = tmp_path / "theta.trinion.json"
    save_graph(theta_graph(), path)
    commands = [
        ["verlinde", "--genus", "12", "--level", "300"],
        ["count", "--genus", "3", "--level", "24"],
        ["check", "--genus", "2", "--max-level", "4"],
        ["polytope", "--genus", "2", "--mode", "asymptotics"],
        ["polytope", "--genus", "3", "--mode", "volume-exact"],
        ["polytope", "--graph", str(path), "--mode", "volume-mc", "--samples", "1000"],
        ["abelian", "--g", "2", "--level", "2"],
    ]
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_MPMATH, json.dumps(commands)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0] * len(commands)
