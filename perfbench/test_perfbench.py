"""Tests of the benchmark itself: oracle, span arithmetic, tracing, metadata.

Run from the repository root with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

import oracle
import run
import spans
import workloads

cli = run.import_cli()
from verlinde_lab import fusion, polytope, weights  # noqa: E402  (path set by import_cli)


def test_oracle_known_values():
    assert oracle.verlinde(2, 3) == 20
    assert oracle.verlinde(3, 2) == 36
    assert [oracle.verlinde(g, 0) for g in (2, 5, 20)] == [1, 1, 1]
    assert [oracle.polytope_volume(g) for g in (2, 3, 4)] == [
        Fraction(1, 3), Fraction(2, 45), Fraction(8, 945)
    ]
    assert oracle.determinant([[2, 1], [4, 5]]) == 6
    assert oracle.determinant([[0, 1], [1, 0]]) == -1


class PlantedCli:
    """A CLI whose verlinde command answers one pair off by one, exit code 0."""

    def __init__(self, planted):
        self.planted = planted

    def main(self, argv):
        g, k = int(argv[2]), int(argv[4])
        dim = oracle.verlinde(g, k) + ((g, k) == self.planted)
        report = {"outputs": {"dimension": dim}, "checks": [{"name": "rounding-residual", "passed": True}]}
        sys.stdout.write(json.dumps(report))
        return 0


def test_oracle_flags_planted_wrong_integer(tmp_path):
    m = run.measure(PlantedCli((12, 300)), "precision", 0, tmp_path, seconds=0, traced=False)
    assert m.attempted == len(workloads.HARD_VERLINDE) == 12
    assert len(m.failed) == 1 and m.failed[0].startswith("verlinde --genus 12 --level 300: dimension")


def test_crash_and_nonzero_exit_count_as_failures():
    class Crashing:
        def main(self, argv):
            raise KeyError("boom")

    (crash,) = run.run_pass(Crashing(), [["verlinde", "--genus", "2", "--level", "1"]])
    (bad_args,) = run.run_pass(cli, [["verlinde", "--genus", "x"]])
    assert len(run.failures([crash, bad_args])) == 2


def test_self_time_on_nested_overlapping_spans():
    S = spans.Span
    nest = [
        S(0, "cli", None, 1, 0.0, 10.0),
        S(1, "polytope.asymptotic_table", 0, 1, 1.0, 5.0),
        S(2, "weights.count_via_contraction", 1, 1, 2.0, 3.0),
        S(3, "polytope.exact_volume", 1, 1, 2.5, 4.0),  # overlaps its sibling
        S(4, "weights.count_via_contraction", 0, 2, 4.0, 7.0),  # worker thread
        S(5, "weights.count_via_contraction", 0, 3, 6.0, 8.0),  # second worker
    ]
    assert spans.union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert spans.self_seconds(nest, "polytope.asymptotic_table") == 4 - 2
    assert spans.self_seconds(nest, "cli") == 10 - 7
    assert spans.busy_seconds(nest, "weights.count_via_contraction") == 1 + 4


def test_traced_check_records_worker_spans_under_the_command():
    tracer = spans.Tracer()
    with tracer.installed(run.layer_targets()):
        assert polytope.count_via_contraction is weights.count_via_contraction
        (outcome,) = run.run_pass(cli, [["check", "--genus", "2", "--max-level", "2"]], tracer)
    assert outcome.rc == 0
    (root,) = [s for s in tracer.spans if s.name == "cli"]
    contraction = [s for s in tracer.spans if s.name == "weights.count_via_contraction"]
    assert len(contraction) == 2 * 3  # two genus-2 classes, levels 0..2
    assert all(s.parent == root.id for s in contraction)
    assert all(root.start <= s.start <= s.end <= root.end for s in tracer.spans)


def test_untraced_passes_see_unwrapped_functions(tmp_path):
    original = {(mod, a): getattr(mod, a) for mod, a, _ in run.layer_targets()}
    seen = []

    class Recording:
        def main(self, argv):
            seen.append(fusion.verlinde_dim)
            return cli.main(argv)

    m = run.measure(Recording(), "precision", 0, tmp_path, seconds=0, traced=True)
    n = len(workloads.HARD_VERLINDE)
    assert len(m.passes) == len(m.traced_passes) == 1
    assert seen[:n] == [original[(fusion, "verlinde_dim")]] * n
    assert all(f is not original[(fusion, "verlinde_dim")] for f in seen[n:])
    assert {(mod, a): getattr(mod, a) for mod, a, _ in run.layer_targets()} == original
    assert len([s for s in m.tracer.spans if s.name == "fusion.verlinde_dim"]) == n


def test_multisection_work_is_fixed_across_seeds():
    for seed in range(5):
        data = workloads.multisection(seed)
        dets = [abs(oracle.determinant(c["A"])) for c in data["components"]]
        assert dets == [workloads.MULTISECTION_DET] * workloads.MULTISECTION_COMPONENTS
    assert workloads.multisection(1) == workloads.multisection(1) != workloads.multisection(2)


def test_benchmark_json_matches_the_metrics_run_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == [w for w in workloads.WHY if w != "precision"]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == run.per_layer_names()
    assert all(m["unit"] == run.unit(m["name"]) for m in spec["per_layer"])
