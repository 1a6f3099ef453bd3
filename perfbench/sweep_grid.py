"""``sweep-grid``: offline k-grid sweeps through the same ``repro.parallel``
calls ``repro-fap sweep`` makes, in this process, back to back.

* ``--engine batched``: one lockstep ``BatchedAllocator`` over the grid;
* ``--engine batched --warm-start --chains C``: ``solve_chains`` over the
  sorted grid split into C contiguous warm-start chains.

Run as a script (``python3 perfbench/sweep_grid.py SEED TRACED``) it is
the probe for ``setup_s`` and ``peak_rss_mb``: a fresh process that
imports the program, builds the seed's grids, reports when it could make
its first sweep call, makes one call per grid and reports its peak
resident memory.  A sweep keeps nothing from one call to the next, so
that peak does not depend on how many calls a window makes.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Tuple

import numpy as np

import analysis
from common import PERF, BenchError, closed_loop_metrics, peak_rss_mb, program_env
from gate import Gate
from inputs import CHAINS, SWEEP_ALPHA, SWEEP_EPSILON, SWEEP_MAX_ITERATIONS, sweep_grids

LAUNCHES = 3


def prepare(seed: int):
    """The seed's grids with their problems and skewed start (the CLI's
    default ``--start``)."""
    from repro.core.initials import paper_skewed_allocation

    grids = sweep_grids(np.random.default_rng(seed))
    return [(g, g.problems(), paper_skewed_allocation(g.nodes)) for g in grids]


def sweep(grid, problems, x0) -> List[tuple]:
    """One sweep call; per grid point ``(allocation, cost, iterations,
    converged, start)`` in grid order."""
    from repro.parallel import BatchedAllocator, BatchedProblem, ChainLink, solve_chains

    if grid.kind == "batched":
        result = BatchedAllocator(
            BatchedProblem.from_problems(problems),
            alpha=SWEEP_ALPHA,
            epsilon=SWEEP_EPSILON,
            max_iterations=SWEEP_MAX_ITERATIONS,
        ).run(np.tile(x0, (len(problems), 1)))
        return [
            (result.allocations[i], float(result.costs[i]), int(result.iterations[i]),
             bool(result.converged[i]), x0)
            for i in range(len(problems))
        ]
    order = sorted(range(len(problems)), key=lambda i: grid.ks[i])
    bounds = np.linspace(0, len(order), CHAINS + 1).astype(int)
    coords = [order[bounds[c]:bounds[c + 1]] for c in range(CHAINS)]
    chains = [
        [ChainLink(problem=problems[i], alpha=SWEEP_ALPHA, epsilon=SWEEP_EPSILON,
                   max_iterations=SWEEP_MAX_ITERATIONS, x0=x0) for i in idxs]
        for idxs in coords
    ]
    rows = solve_chains(chains, epsilon=SWEEP_EPSILON, max_iterations=SWEEP_MAX_ITERATIONS)
    out: List[tuple] = [None] * len(problems)
    for idxs, chain in zip(coords, rows):
        start = x0
        for i, row in zip(idxs, chain):
            if row.error is not None:
                raise BenchError(f"sweep point k={grid.ks[i]} failed: {row.error}")
            out[i] = (row.allocation, float(row.cost), int(row.iterations),
                      bool(row.converged), start)
            start = row.allocation
    return out


def _probe(seed: int, traced: bool) -> Tuple[float, float]:
    """``(setup seconds, peak MB)`` of one fresh sweep process."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(PERF / "sweep_grid.py"), str(seed), str(int(traced))],
        env=program_env(), capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise BenchError(f"sweep probe failed: {proc.stderr.strip()[-500:]}")
    ready, rss = proc.stdout.split()[-2:]
    return float(ready) - t0, float(rss)


def measure(seed: int, seconds: float, traced: bool = False) -> Dict[str, object]:
    probes = [_probe(seed, traced) for _ in range(LAUNCHES)]
    grids = prepare(seed)
    if traced:
        import tracer

        tracer.install_kernel_wrappers()
    # Each grid's first call goes to the gate; every later call must
    # repeat it exactly, and is dropped once compared.
    first: Dict[int, List[tuple]] = {}
    rtt: List[float] = []
    gaps: List[float] = []
    attempted = failed = 0
    start = time.monotonic()
    t1 = None
    while time.monotonic() - start < seconds:
        for index, (grid, problems, x0) in enumerate(grids):
            t0 = time.monotonic()
            if t1 is not None:
                gaps.append((t0 - t1) * 1e3)
            points = sweep(grid, problems, x0)
            t1 = time.monotonic()
            rtt.append((t1 - t0) * 1e3)
            attempted += len(points)
            seen = first.setdefault(index, points)
            if seen is not points:
                failed += sum(1 for a, b in zip(seen, points)
                              if not (np.array_equal(a[0], b[0]) and a[1:4] == b[1:4]))

    gate = Gate()
    for index, points in first.items():
        grid, problems, _ = grids[index]
        for i, (alloc, cost, its, conv, x0) in enumerate(points):
            spec = {"problem": problems[i], "alpha": SWEEP_ALPHA, "epsilon": SWEEP_EPSILON,
                    "max_iterations": SWEEP_MAX_ITERATIONS, "x0": x0}
            gate.exact(f"g{index}-{i}", spec, alloc, cost, its, conv)

    metrics = closed_loop_metrics([p[0] for p in probes], attempted / (t1 - start), [rtt],
                                  statistics.median(p[1] for p in probes))
    return {
        "metrics": metrics,
        "gate": gate,
        "attempted": attempted,
        "failed": failed,
        "lag_p99_ms": analysis.tail(gaps)[1],
        # Every call repeats its grid's first, and every grid is swept
        # equally often, so the first calls stand for the window.
        "iterations": [p[2] for points in first.values() for p in points],
        "grids": grids,
    }


if __name__ == "__main__":
    from common import require_program

    require_program()
    grids = prepare(int(sys.argv[1]))
    import repro.parallel  # noqa: F401  (the first sweep call's imports)

    print(time.monotonic(), flush=True)
    if sys.argv[2] == "1":
        import tracer

        tracer.install_kernel_wrappers()
    for grid, problems, x0 in grids:
        sweep(grid, problems, x0)
    print(peak_rss_mb([os.getpid()]), flush=True)
