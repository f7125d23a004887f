"""The benchmark's workloads: verlinde-lab command lists and the inputs they read.

Every workload is a fixed list of CLI argv lists.  The seed changes only the
inputs (multisection entries and Monte Carlo seeds), never the amount of work.
Command lists are generators: a command that reads files an earlier command
wrote is built after that command has run.
"""

from __future__ import annotations

import json
import math
import random
import shutil
from pathlib import Path

#: Workload name -> why it is in the benchmark.  ``precision`` is not in
#: BENCHMARK.json: its Verlinde commands fail on purpose until fusion sizes
#: its working precision from the inputs.
WHY = {
    "reconcile": "three-way check at genus 3 and 2: lattice_count and brute DFS dominate, contraction runs as many tiny calls",
    "growth": "contraction up to level 50 and Verlinde sums up to 2^151; no lattice_count, graphs only at genus 2 and 3",
    "classes": "genus-4 graph generation, Monte Carlo and exact volume, multisection fibres and file and JSON I/O; no contraction",
    "precision": "Verlinde ranks above 2^180, past the fixed 200-bit evaluation; every command fails until that is fixed",
}

_VERLINDE_GRID = [(g, k) for g in (2, 3, 5, 8, 12, 16, 20) for k in (10, 50, 100, 300, 1000)]

#: Grid points whose rank exceeds 2^180: a 200-bit Verlinde sum keeps too few
#: fractional bits there and either raises PrecisionError or rounds wrong.
HARD_VERLINDE = [
    (8, 1000), (12, 100), (12, 300), (12, 1000), (16, 50), (16, 100),
    (16, 300), (16, 1000), (20, 50), (20, 100), (20, 300), (20, 1000),
]
GROWTH_VERLINDE = [p for p in _VERLINDE_GRID if p not in HARD_VERLINDE]

MC_SAMPLES = 250_000
MULTISECTION_FILE = "multisection.json"
MULTISECTION_GENUS = 4
MULTISECTION_COMPONENTS = 3
#: |det A| of every component is their product, 1008, so the fibre total is
#: always 3 * 1008; the seed only spreads the primes over the diagonal.
MULTISECTION_DET_PRIMES = (2, 2, 2, 2, 3, 3, 7)
MULTISECTION_DET = math.prod(MULTISECTION_DET_PRIMES)


def _unimodular(rng: random.Random, n: int) -> list[list[int]]:
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        U[i] = [a + c * b for a, b in zip(U[i], U[j])]
    return U


def _matmul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def multisection(seed: int) -> dict:
    """Seeded multisection JSON: A = U1 diag(d) U2 with prod(d) = MULTISECTION_DET."""
    rng = random.Random(seed)
    n = MULTISECTION_GENUS
    components = []
    for _ in range(MULTISECTION_COMPONENTS):
        diag = [1] * n
        for p in MULTISECTION_DET_PRIMES:
            diag[rng.randrange(n)] *= p
        D = [[diag[i] * (i == j) for j in range(n)] for i in range(n)]
        A = _matmul(_matmul(_unimodular(rng, n), D), _unimodular(rng, n))
        shift = []
        for _ in range(n):
            q = rng.randint(2, 12)
            shift.append(f"{rng.randrange(q)}/{q}")
        components.append({"A": A, "t": shift})
    return {"g": n, "components": components}


def write_inputs(workload: str, seed: int, work_dir: Path) -> None:
    """Write the files the workload's commands read."""
    if workload == "classes":
        text = json.dumps(multisection(seed), indent=2) + "\n"
        (work_dir / MULTISECTION_FILE).write_text(text)


def _volume_mc(graph_file: Path, samples: int, seed: int) -> list[str]:
    return ["polytope", "--graph", str(graph_file), "--mode", "volume-mc",
            "--samples", str(samples), "--seed", str(seed)]


def commands(workload: str, seed: int, work_dir: Path):
    """Yield the workload's argv lists in order."""
    if workload == "reconcile":
        yield ["check", "--genus", "3", "--max-level", "8"]
        yield ["check", "--genus", "2", "--max-level", "16"]
    elif workload == "growth":
        yield ["polytope", "--genus", "2", "--mode", "asymptotics", "--k-max", "50"]
        yield ["count", "--genus", "3", "--level", "24"]
        for g, k in GROWTH_VERLINDE:
            yield ["verlinde", "--genus", str(g), "--level", str(k)]
    elif workload == "precision":
        for g, k in HARD_VERLINDE:
            yield ["verlinde", "--genus", str(g), "--level", str(k)]
    elif workload == "classes":
        rng = random.Random(seed)
        graphs_dir = work_dir / "graphs"
        shutil.rmtree(graphs_dir, ignore_errors=True)
        yield ["graphs", "--genus", "4", "--out-dir", str(graphs_dir)]
        for path in sorted(graphs_dir.glob("*.trinion.json")):
            yield _volume_mc(path, MC_SAMPLES, rng.randrange(2**31))
        yield ["polytope", "--genus", "3", "--mode", "volume-exact"]
        yield ["abelian", "--multisection", str(work_dir / MULTISECTION_FILE)]
    else:
        raise ValueError(f"unknown workload {workload!r}")


def warmup(workload: str, work_dir: Path):
    """Yield small versions of the workload's commands, run untimed in set-up."""
    if workload == "reconcile":
        yield ["check", "--genus", "2", "--max-level", "2"]
    elif workload in ("growth", "precision"):
        yield ["polytope", "--genus", "2", "--mode", "asymptotics", "--k-max", "3"]
        yield ["count", "--genus", "2", "--level", "2"]
        yield ["verlinde", "--genus", "2", "--level", "2"]
    elif workload == "classes":
        graphs_dir = work_dir / "warmup"
        yield ["graphs", "--genus", "2", "--out-dir", str(graphs_dir)]
        for path in sorted(graphs_dir.glob("*.trinion.json")):
            yield _volume_mc(path, 1000, 0)
        yield ["polytope", "--genus", "2", "--mode", "volume-exact"]
        yield ["abelian", "--g", "2", "--level", "2"]
    else:
        raise ValueError(f"unknown workload {workload!r}")
