"""Benchmark continuous batching against group-and-flush dispatch.

Group-and-flush's weakness is the straggler: a lockstep group runs until
its *slowest* row converges, so on a mixed-convergence stream the batch
spends its tail iterations nearly empty.  The continuous batcher retires
converged rows and refills their slots from the pending queue, keeping
occupancy — and therefore the amortization of the per-iteration dispatch
overhead — near capacity for the whole stream.

Three measurements, each parity-gated before its time is trusted:

* **mixed-convergence stream** — L same-shape requests whose stepsizes
  span a wide geometric range (per-row iteration counts vary ~50x)
  dispatched through an ``AllocationService`` (continuous batching at
  slot capacity C).  Every answer must equal the reference serial
  engine's bit for bit; req/s and the occupancy gauge
  (``continuous.row_steps / (steps * capacity)``) are the result.
* **driver occupancy** — the same stream fed straight to
  :class:`~repro.parallel.ContinuousBatcher` vs capacity-sized lockstep
  :class:`~repro.parallel.BatchedAllocator` groups, no service around
  them: total lockstep steps and mean occupancy of each driver.
* **staggered warm chains** — a warm-started k-grid sweep as one
  serial continuation chain vs the same grid split across 8 concurrent
  :func:`~repro.parallel.solve_chains` chains: same optima, wall-clock
  ratio.

Run standalone:

    PYTHONPATH=src python benchmarks/bench_continuous.py           # full grid
    PYTHONPATH=src python benchmarks/bench_continuous.py --smoke   # CI-sized

Full mode writes ``benchmarks/BENCH_continuous.json``.  The checked-in
copy is the record of the earlier service, which also ran a flush
dispatch mode; docs/PERFORMANCE.md reads it.  ``--smoke`` shrinks
the workload and does not overwrite the JSON unless ``--out`` is given
explicitly.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

from repro.core.algorithm import solve
from repro.core.model import FileAllocationProblem
from repro.obs import MetricsRegistry
from repro.parallel import BatchedAllocator, BatchedProblem, ChainLink, solve_chains
from repro.service import ServiceConfig, SolveRequest

EPSILON = 1e-5
MAX_ITERATIONS = 20_000
DEFAULT_OUT = Path(__file__).resolve().parent / "BENCH_continuous.json"

#: (n, stream length, slot capacity) per full-mode stream point.
FULL_STREAMS = [(16, 64, 8), (16, 256, 16), (64, 128, 16)]
SMOKE_STREAMS = [(8, 24, 4)]


def mixed_requests(n: int, length: int, *, seed: int = 11) -> list:
    """``length`` compatible requests with deliberately *mixed*
    convergence: stepsizes span a wide geometric range and starts vary
    from near-uniform to single-node-heavy, so per-row iteration counts
    spread by more than an order of magnitude.  (bench_service holds
    alpha fixed to sidestep the straggler effect; this bench exists to
    measure it.)"""
    rng = np.random.default_rng(seed)
    alphas = np.geomspace(0.02, 0.5, length)
    rng.shuffle(alphas)
    requests = []
    for i in range(length):
        rates = rng.uniform(0.2, 0.8, size=n)
        rates *= 0.9 / rates.sum()  # total < 1.0 < mu everywhere
        problem = FileAllocationProblem(
            1.0 - np.eye(n), rates,
            k=float(rng.uniform(0.5, 2.5)), mu=1.5,
        )
        requests.append(
            SolveRequest(
                problem=problem,
                alpha=float(alphas[i]),
                epsilon=EPSILON,
                max_iterations=MAX_ITERATIONS,
                initial_allocation=rng.dirichlet(np.full(n, 0.7)),
                request_id=f"mixed-{n}-{i}",
            )
        )
    return requests


def _time(fn, *, repeats: int):
    best, out = np.inf, None
    for _ in range(repeats):
        start = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - start)
    return best, out


def bench_stream(n: int, length: int, capacity: int, *, repeats: int) -> dict:
    requests = mixed_requests(n, length)
    registries = []

    def run():
        # One burst of L requests against C slots: ContinuousBatcher keeps
        # one C-slot batch full from the backlog.
        registries.append(MetricsRegistry())
        service = ServiceConfig(max_batch=capacity, cache_size=0).build(
            registry=registries[-1]
        )
        return service.solve_many(requests)

    cont_s, cont = _time(run, repeats=repeats)

    # Parity gate: the service must agree bit for bit with the reference
    # serial engine on every response.
    for request, c in zip(requests, cont):
        assert c.ok, request.request_id
        ref = solve(
            request.problem, alpha=request.alpha, epsilon=request.epsilon,
            max_iterations=request.max_iterations,
            initial_allocation=request.initial_allocation,
        )
        assert np.array_equal(c.allocation, ref.allocation), request.request_id
        assert c.iterations == ref.iterations

    cc = registries[-1].counters
    iters = [r.iterations for r in cont]
    return {
        "n": n,
        "stream_length": length,
        "capacity": capacity,
        "row_iterations_min": int(min(iters)),
        "row_iterations_max": int(max(iters)),
        "continuous_seconds": cont_s,
        "requests_per_s_continuous": length / cont_s,
        "continuous_steps": int(cc["continuous.steps"]),
        "occupancy_continuous": cc["continuous.row_steps"]
        / (cc["continuous.steps"] * capacity),
        "parity": True,
    }


def bench_driver(n: int, length: int, capacity: int) -> dict:
    """The two drivers head to head, no service machinery around them."""
    from repro.parallel import ContinuousBatcher

    requests = mixed_requests(n, length)

    driver = ContinuousBatcher(capacity=capacity, epsilon=EPSILON)
    for i, r in enumerate(requests):
        driver.submit(
            r.problem, alpha=r.alpha, epsilon=r.epsilon,
            max_iterations=r.max_iterations, x0=r.initial_allocation, tag=i,
        )
    cont_s, rows = _time(driver.drain, repeats=1)
    stats = driver.occupancy_stats()

    def run_flush():
        return [
            BatchedAllocator(
                BatchedProblem.from_problems([r.problem for r in group]),
                alpha=[r.alpha for r in group],
                epsilon=EPSILON,
                max_iterations=MAX_ITERATIONS,
            ).run(np.stack([r.initial_allocation for r in group]))
            for group in (
                requests[i : i + capacity] for i in range(0, length, capacity)
            )
        ]

    flush_s, groups = _time(run_flush, repeats=1)
    flush_allocations = np.concatenate([g.allocations for g in groups])
    flush_iterations = np.concatenate([g.iterations for g in groups])

    by_tag = {r.tag: r for r in rows}
    for i in range(length):
        assert np.array_equal(by_tag[i].allocation, flush_allocations[i])
        assert by_tag[i].iterations == flush_iterations[i]

    flush_steps = sum(int(g.iterations.max()) for g in groups)
    return {
        "n": n,
        "stream_length": length,
        "capacity": capacity,
        "continuous_steps": stats["steps"],
        "flush_steps": flush_steps,
        "step_reduction": flush_steps / max(1, stats["steps"]),
        "occupancy_continuous": stats["occupancy_ratio"],
        "occupancy_flush": int(flush_iterations.sum())
        / max(1, flush_steps * capacity),
        "continuous_seconds": cont_s,
        "flush_seconds": flush_s,
        "speedup_continuous": flush_s / cont_s,
        "parity": True,
    }


def bench_chains(*, points: int, chains: int, n: int = 16) -> dict:
    """Warm-started k-grid sweep: one serial chain vs ``chains``
    staggered chains sharing a continuous batch."""
    rng = np.random.default_rng(3)
    rates = rng.uniform(0.2, 0.8, size=n)
    rates *= 0.9 / rates.sum()
    ks = np.linspace(0.3, 2.5, points)
    x0 = rng.dirichlet(np.ones(n))

    def links(k_values):
        return [
            ChainLink(
                problem=FileAllocationProblem(1.0 - np.eye(n), rates, k=float(k), mu=1.5),
                alpha=0.08,
                epsilon=EPSILON,
                max_iterations=MAX_ITERATIONS,
                x0=x0,
            )
            for k in k_values
        ]

    serial_s, serial = _time(lambda: solve_chains([links(ks)]), repeats=1)
    split = [ks[i::chains] for i in range(chains)]
    multi_s, multi = _time(
        lambda: solve_chains([links(part) for part in split]), repeats=1
    )

    flat = {float(k): row for part, rows in zip(split, multi) for k, row in zip(part, rows)}
    for k, row in zip(ks, serial[0]):
        other = flat[float(k)]
        assert row.converged and other.converged
        assert abs(row.cost - other.cost) <= 1e-3 * abs(row.cost)

    return {
        "grid_points": points,
        "chains": chains,
        "serial_chain_seconds": serial_s,
        "staggered_seconds": multi_s,
        "speedup_staggered": serial_s / multi_s,
        "serial_iterations": sum(r.iterations for r in serial[0]),
        "staggered_iterations": sum(r.iterations for rows in multi for r in rows),
        "parity": True,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="one small stream point, no JSON unless --out is given",
    )
    parser.add_argument(
        "--out", default=None,
        help=f"output JSON path (default in full mode: {DEFAULT_OUT})",
    )
    args = parser.parse_args(argv)

    streams = SMOKE_STREAMS if args.smoke else FULL_STREAMS
    repeats = 1 if args.smoke else 3

    results = {"streams": [], "drivers": [], "chains": None}
    for n, length, capacity in streams:
        row = bench_stream(n, length, capacity, repeats=repeats)
        results["streams"].append(row)
        print(
            f"stream n={n} L={length} C={capacity}: "
            f"{row['requests_per_s_continuous']:.0f} req/s, occupancy "
            f"{row['occupancy_continuous']:.2f}"
        )
    for n, length, capacity in streams:
        row = bench_driver(n, length, capacity)
        results["drivers"].append(row)
        print(
            f"driver n={n} L={length} C={capacity}: "
            f"{row['continuous_steps']} vs {row['flush_steps']} lockstep steps "
            f"({row['step_reduction']:.2f}x fewer), occupancy "
            f"{row['occupancy_continuous']:.2f} vs {row['occupancy_flush']:.2f}"
        )
    chain_cfg = dict(points=12, chains=3, n=8) if args.smoke else dict(points=64, chains=8)
    results["chains"] = bench_chains(**chain_cfg)
    print(
        f"chains {chain_cfg['points']} points x{chain_cfg['chains']}: "
        f"{results['chains']['speedup_staggered']:.2f}x over one serial chain"
    )

    out = args.out
    if out is None and not args.smoke:
        out = DEFAULT_OUT
    if out is not None:
        payload = {
            "benchmark": "continuous-batching",
            "epsilon": EPSILON,
            "max_iterations": MAX_ITERATIONS,
            **results,
        }
        Path(out).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
