"""verlinde-lab benchmark: closed-loop CLI workloads with oracle-checked answers.

Run from the repository root:

    python3 perfbench/run.py --workload reconcile --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

One client calls ``verlinde_lab.cli.main(argv)`` in this process, each command
after the previous one returns, and repeats the workload's command list while
another pass fits in ``--seconds``.  Every answer is checked by ``oracle.py``
outside the timed region.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
traced run alternates untraced and traced passes; ``trace.overhead_s`` is the
difference of their mean command-list times.  ``--workload all`` runs every
workload in its own process and prints setup_s, wall_s, fail_frac and
peak_rss_mb for each.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import oracle
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".perfbench_work"

#: Fresh processes timed through set-up; setup_s is their median.
SETUP_SAMPLES = 5

#: Per-layer statistics reported for each traced function.  "cli" is the
#: benchmark's own span around each cli.main call; its self time is the
#: command time no layer span covers (argparse, naming, JSON, thread hand-off).
LAYER_STATS = {
    "fusion.verlinde_dim": ("calls", "busy_s", "errors", "wrong"),
    "graph.generate_genus_graphs": ("calls", "busy_s"),
    "graph.canonical_form": ("calls", "busy_s"),
    "graph.save_graph": ("busy_s",),
    "graph.load_graph": ("busy_s",),
    "weights.count_via_contraction": ("calls", "busy_s", "p50_ms"),
    "weights.count_admissible_bruteforce": ("calls", "busy_s", "labelings_per_s"),
    "polytope.build_polytope": ("busy_s",),
    "polytope.lattice_count": ("calls", "busy_s", "points_per_s"),
    "polytope.exact_volume": ("calls", "busy_s"),
    "polytope.mc_volume": ("calls", "busy_s", "samples_per_s"),
    "polytope.asymptotic_table": ("self_s",),
    "abelian.gft_intersection_count": ("busy_s",),
    "abelian.e_bs_fibres": ("busy_s", "fibres_per_s"),
    "cli": ("self_s",),
}
TRACE_STATS = ("trace.wall_s", "trace.overhead_s")
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def unit(metric: str) -> str:
    if metric in END_TO_END:
        return END_TO_END[metric]
    stat = metric.rsplit(".", 1)[1]
    if stat in ("calls", "errors", "wrong"):
        return "count"
    if stat.endswith("_per_s"):
        return "1/s"
    return "ms" if stat.endswith("_ms") else "s"


def per_layer_names() -> list[str]:
    names = [f"{fn}.{stat}" for fn, stats in LAYER_STATS.items() for stat in stats]
    return names + list(TRACE_STATS)


def import_cli():
    """The verlinde_lab CLI module from this checkout's sources."""
    src = ROOT / "src"
    if not (src / "verlinde_lab" / "cli.py").is_file():
        sys.exit(f"perfbench: no verlinde_lab sources under {src}")
    sys.path.insert(0, str(src))
    from verlinde_lab import cli

    return cli


def layer_targets():
    """(module, attribute, work) for every traced function.  ``work`` turns a
    call's arguments and result into the count its rate statistic divides."""
    from verlinde_lab import abelian, fusion, graph, polytope, weights

    return [
        (fusion, "verlinde_dim", lambda a, r: (a[0], a[1], r)),
        (graph, "generate_genus_graphs", None),
        (graph, "canonical_form", None),
        (graph, "save_graph", None),
        (graph, "load_graph", None),
        (weights, "count_via_contraction", None),
        # asymptotic_table calls the name polytope bound by ``from ... import``.
        (polytope, "count_via_contraction", None),
        (weights, "count_admissible_bruteforce", lambda a, r: r),
        (polytope, "build_polytope", None),
        (polytope, "lattice_count", lambda a, r: r),
        (polytope, "exact_volume", None),
        (polytope, "mc_volume", lambda a, r: a[1]),
        (polytope, "asymptotic_table", None),
        (abelian, "gft_intersection_count", None),
        (abelian, "e_bs_fibres", lambda a, r: len(r)),
    ]


@dataclass
class Outcome:
    argv: list[str]
    seconds: float
    rc: int | None
    stdout: str
    error: str | None


def run_command(cli, argv: list[str]) -> Outcome:
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc, error = cli.main(argv), None
    except (Exception, SystemExit) as exc:  # a crash fails the command, not the run
        rc, error = None, f"raised {exc!r}"
    return Outcome(argv, time.perf_counter() - start, rc, out.getvalue(), error)


def run_pass(cli, argvs, tracer: spans.Tracer | None = None) -> list[Outcome]:
    outcomes = []
    for argv in argvs:
        if tracer is None:
            outcomes.append(run_command(cli, argv))
        else:
            with tracer.span("cli"):
                outcomes.append(run_command(cli, argv))
    return outcomes


def failures(outcomes: list[Outcome]) -> list[str]:
    """One line per failed command: it raised, exited non-zero, or answered wrong."""
    out = []
    for o in outcomes:
        reason = o.error or oracle.check(o.argv, o.rc, o.stdout)
        if reason:
            out.append(f"{' '.join(o.argv)}: {reason}")
    return out


@dataclass
class Measurement:
    """Per pass, the seconds of each command, untraced and traced."""

    passes: list[list[float]]
    traced_passes: list[list[float]]
    attempted: int
    failed: list[str]
    tracer: spans.Tracer


def list_seconds(passes: list[list[float]]) -> float:
    """Time of the whole command list: each command's median over the passes,
    summed, so that a stall of the machine in one pass does not count."""
    return sum(statistics.median(column) for column in zip(*passes))


def measure(cli, workload, seed, work_dir, seconds, traced) -> Measurement:
    """Repeat the workload while another pass fits in ``seconds``.  With
    ``traced`` the passes alternate untraced and traced, starting untraced, and
    at least one of each runs."""
    m = Measurement([], [], 0, [], spans.Tracer())
    start = time.perf_counter()
    while True:
        use_trace = traced and len(m.passes) > len(m.traced_passes)
        argvs = workloads.commands(workload, seed, work_dir)
        if use_trace:
            with m.tracer.installed(layer_targets()):
                outcomes = run_pass(cli, argvs, m.tracer)
            m.traced_passes.append([o.seconds for o in outcomes])
        else:
            outcomes = run_pass(cli, argvs)
            m.passes.append([o.seconds for o in outcomes])
        m.attempted += len(outcomes)
        m.failed += failures(outcomes)
        elapsed = time.perf_counter() - start
        per_pass = elapsed / (len(m.passes) + len(m.traced_passes))
        if elapsed + per_pass > seconds and (m.traced_passes or not traced):
            return m


def stat_value(all_spans: list[spans.Span], fn: str, stat: str, passes: int) -> float:
    mine = [s for s in all_spans if s.name == fn]
    if stat == "calls":
        return len(mine) / passes
    if stat == "busy_s":
        return spans.busy_seconds(mine, fn) / passes
    if stat == "self_s":
        return spans.self_seconds(all_spans, fn) / passes
    if stat == "errors":
        return sum(s.error is not None for s in mine) / passes
    if stat == "wrong":
        wrong = [s for s in mine if s.work is not None and s.work[2] != oracle.verlinde(*s.work[:2])]
        return len(wrong) / passes
    if stat == "p50_ms":
        return 1000 * statistics.median(s.end - s.start for s in mine) if mine else 0.0
    if stat.endswith("_per_s"):
        busy = spans.busy_seconds(mine, fn)
        return sum(s.work for s in mine if s.work is not None) / busy if busy else 0.0
    raise ValueError(f"unknown statistic {stat!r}")


def layer_metrics(m: Measurement) -> dict[str, float]:
    passes = len(m.traced_passes)
    values = {
        f"{fn}.{stat}": stat_value(m.tracer.spans, fn, stat, passes)
        for fn, stats in LAYER_STATS.items()
        for stat in stats
    }
    # Means, like the per-pass layer statistics, so layer shares add up.
    values["trace.wall_s"] = statistics.fmean(map(sum, m.traced_passes))
    values["trace.overhead_s"] = values["trace.wall_s"] - statistics.fmean(map(sum, m.passes))
    return values


def set_up(workload: str, seed: int, work_dir: Path):
    """Everything before the first timed command: import, inputs, warm-up."""
    cli = import_cli()
    workloads.write_inputs(workload, seed, work_dir)
    run_pass(cli, workloads.warmup(workload, work_dir))
    return cli


def setup_seconds(workload: str, seed: int) -> float:
    """Median wall time of fresh processes that only set up."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, __file__, "--setup-only", "--workload", workload, "--seed", str(seed)],
            check=True,
            stdout=subprocess.DEVNULL,
        )
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def summary(seed: int, seconds: float) -> None:
    """Run every workload in its own process and print its end-to-end metrics."""
    for workload in workloads.WHY:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            print(f"{workload}: benchmark exited {proc.returncode}: {proc.stderr.strip()}")
            continue
        result = json.loads(proc.stdout.splitlines()[-1])
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        failed, attempted = result["failed"], result["attempted"]
        print(
            f"{workload:10} setup_s {metrics['setup_s']:.3f} s   wall_s {metrics['wall_s']:.3f} s   "
            f"fail_frac {failed}/{attempted} = {failed / attempted:.3f}   "
            f"peak_rss_mb {metrics['peak_rss_mb']:.1f} MB"
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WHY, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        summary(args.seed, args.seconds)
        return 0

    WORK_ROOT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(dir=WORK_ROOT))
    try:
        cli = set_up(args.workload, args.seed, work_dir)
        if args.setup_only:
            return 0
        setup_s = None if args.trace else setup_seconds(args.workload, args.seed)
        m = measure(cli, args.workload, args.seed, work_dir, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()

    for line in dict.fromkeys(m.failed):
        print(f"FAILED {line}", file=sys.stderr)
    if args.trace:
        values = layer_metrics(m)
    else:
        values = {
            "setup_s": setup_s,
            "wall_s": list_seconds(m.passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    print(json.dumps({
        "correct": not m.failed,
        "attempted": m.attempted,
        "failed": len(m.failed),
        "metrics": {name: {"value": v, "unit": unit(name)} for name, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
