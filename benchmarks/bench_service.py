"""Benchmark the allocation service: micro-batching and the warm cache.

Two claims are measured, each parity-gated before its time is trusted:

* **burst dispatch** — B same-shape requests (varied k / rates / stepsize
  / start) submitted as one burst.  A ``max_batch=B`` service dispatches
  them as one lockstep solve; a ``max_batch=1`` service solves each on
  the singleton fast path.  Both must return bit-for-bit identical
  responses (the service's parity guarantee); the speedup is the
  micro-batcher's contribution.
* **repeat stream** — a request stream with day-to-day structure: exact
  repeats of earlier specs plus lognormal-perturbed variants.  A
  cache-enabled service answers repeats from the cache and warm-starts
  near-misses from their nearest donor; a cache-disabled service solves
  everything cold.  The ratio of total solver iterations is the cache's
  contribution, with hit/warm/miss counters from the registry.

Run standalone:

    PYTHONPATH=src python benchmarks/bench_service.py            # full grid
    PYTHONPATH=src python benchmarks/bench_service.py --smoke    # CI-sized

Full mode writes ``benchmarks/BENCH_service.json`` (docs/PERFORMANCE.md
reads the checked-in copy).  ``--smoke`` shrinks the workload and does
not overwrite the JSON unless ``--out`` is given explicitly.
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
from repro.service import AllocationService, ServiceConfig, SolveRequest
from repro.workloads import perturbed_rates, zipf_rates

EPSILON = 1e-4
MAX_ITERATIONS = 5_000
DEFAULT_OUT = Path(__file__).resolve().parent / "BENCH_service.json"

FULL_BURSTS = [(10, 16), (10, 64), (10, 256), (50, 16), (50, 256)]
SMOKE_BURSTS = [(10, 32)]


def burst_requests(n: int, batch: int, *, seed: int = 7) -> list:
    """``batch`` compatible requests on unit-cost complete graphs:
    same shape, varied k / rates / start.

    Alpha is held fixed across the burst: the lockstep kernel runs until
    its slowest row converges, so a wide stepsize spread would measure
    the straggler effect rather than the dispatch overhead."""
    rng = np.random.default_rng(seed)
    requests = []
    for i in range(batch):
        rates = rng.uniform(0.2, 0.8, size=n)
        rates *= 0.9 / rates.sum()  # total < 1.0 < mu everywhere
        problem = FileAllocationProblem(
            1.0 - np.eye(n), rates,
            k=float(rng.uniform(0.5, 2.5)), mu=1.5,
        )
        requests.append(
            SolveRequest(
                problem=problem,
                alpha=0.3,
                epsilon=EPSILON,
                max_iterations=MAX_ITERATIONS,
                initial_allocation=rng.dirichlet(np.ones(n)),
                request_id=f"burst-{n}-{i}",
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


def bench_burst(n: int, batch: int, *, repeats: int) -> dict:
    requests = burst_requests(n, batch)

    def run_batched():
        return ServiceConfig(max_batch=batch, cache_size=0).build().solve_many(requests)

    def run_singleton():
        return ServiceConfig(max_batch=1, cache_size=0).build().solve_many(requests)

    batched_s, batched = _time(run_batched, repeats=repeats)
    single_s, single = _time(run_singleton, repeats=repeats)

    # Parity gate: grouped and singleton dispatch must agree bit-for-bit,
    # and both must match the reference serial engine.
    for request, b, s in zip(requests, batched, single):
        assert b.batch_size == batch and s.batch_size == 1
        assert np.array_equal(b.allocation, s.allocation), request.request_id
        assert b.cost == s.cost and b.iterations == s.iterations
        ref = solve(
            request.problem, alpha=request.alpha, epsilon=request.epsilon,
            max_iterations=request.max_iterations,
            initial_allocation=request.initial_allocation,
        )
        assert np.array_equal(b.allocation, ref.allocation), request.request_id
        assert b.cost == ref.cost and b.iterations == ref.iterations

    return {
        "n": n,
        "batch": batch,
        "iterations_max": int(max(r.iterations for r in batched)),
        "singleton_seconds": single_s,
        "batched_seconds": batched_s,
        "speedup_batched": single_s / batched_s,
        "parity": True,
    }


def stream_requests(*, n: int, distinct: int, repeats_per: int, variants: int) -> list:
    """A repeat-heavy stream: ``distinct`` base specs, each replayed
    ``repeats_per`` times exactly and perturbed into ``variants``
    near-miss variants ('same workload, different day')."""
    bases = []
    for i in range(distinct):
        rates = zipf_rates(n, exponent=1.0 + 0.05 * i, total=0.8, seed=i)
        bases.append(rates)
    requests = []
    serial = 0
    for round_i in range(repeats_per):
        for i, rates in enumerate(bases):
            requests.append(_stream_request(n, rates, f"s{serial}"))
            serial += 1
    for day in range(1, variants + 1):
        for i, rates in enumerate(bases):
            jittered = perturbed_rates(rates, relative_noise=0.01, seed=100 * i + day)
            requests.append(_stream_request(n, jittered, f"s{serial}"))
            serial += 1
    return requests


def _stream_request(n: int, rates, request_id: str) -> SolveRequest:
    problem = FileAllocationProblem(1.0 - np.eye(n), rates, k=1.0, mu=1.5)
    return SolveRequest(
        problem=problem, alpha=0.3, epsilon=EPSILON,
        max_iterations=MAX_ITERATIONS, request_id=request_id,
    )


def bench_stream(*, n: int, distinct: int, repeats_per: int, variants: int) -> dict:
    requests = stream_requests(
        n=n, distinct=distinct, repeats_per=repeats_per, variants=variants
    )

    def run(service):
        responses = []
        window = service.batcher.max_batch
        for i in range(0, len(requests), window):
            responses.extend(service.solve_many(requests[i : i + window]))
        return responses

    # Window = one repeat round, so each round's repeats probe the cache
    # *after* the previous round's results landed (a repeat batched with
    # its original would miss: the cache is probed before dispatch).
    window = distinct
    warm_registry = MetricsRegistry()
    warm_service = AllocationService(max_batch=window, registry=warm_registry)
    warm_s, warm = _time(lambda: run(warm_service), repeats=1)

    cold_registry = MetricsRegistry()
    cold_service = ServiceConfig(max_batch=window, cache_size=0).build(
        registry=cold_registry
    )
    cold_s, cold = _time(lambda: run(cold_service), repeats=1)

    # Parity gate on the answers that must agree exactly: cold solves and
    # cache hits reproduce the cold stream bit-for-bit.  (Warm-started
    # variants converge to the same optimum by a shorter path; their
    # allocations agree only to epsilon, so costs are compared loosely.)
    for request, w, c in zip(requests, warm, cold):
        assert w.ok and c.ok, request.request_id
        if w.cache in ("hit", "miss"):
            assert np.array_equal(w.allocation, c.allocation), request.request_id
        else:
            assert abs(w.cost - c.cost) <= 1e-3 * abs(c.cost), request.request_id

    warm_iters = sum(r.iterations for r in warm)
    cold_iters = sum(r.iterations for r in cold)
    counters = warm_registry.counters
    return {
        "n": n,
        "stream_length": len(requests),
        "distinct_specs": distinct,
        "cold_iterations": cold_iters,
        "warm_iterations": warm_iters,
        "iteration_reduction": cold_iters / max(1, warm_iters),
        "cold_seconds": cold_s,
        "warm_seconds": warm_s,
        "cache_hit": int(counters.get("service.cache.hit", 0)),
        "cache_warm": int(counters.get("service.cache.warm", 0)),
        "cache_miss": int(counters.get("service.cache.miss", 0)),
        "latency_p95_s": warm_service.latency_percentiles()["p95"],
        "parity": True,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="one small burst + short stream, no JSON unless --out is given",
    )
    parser.add_argument(
        "--out", default=None,
        help=f"output JSON path (full mode default: {DEFAULT_OUT.name})",
    )
    args = parser.parse_args(argv)

    bursts = SMOKE_BURSTS if args.smoke else FULL_BURSTS
    repeats = 1 if args.smoke else 3

    print(f"{'N':>4} {'B':>5} {'singleton':>11} {'batched':>10} {'x batched':>10}")
    burst_rows = []
    for n, batch in bursts:
        cell = bench_burst(n, batch, repeats=repeats)
        burst_rows.append(cell)
        print(f"{n:>4} {batch:>5} {cell['singleton_seconds']:>10.4f}s "
              f"{cell['batched_seconds']:>9.4f}s {cell['speedup_batched']:>9.2f}x")

    stream_cfg = (
        dict(n=10, distinct=4, repeats_per=2, variants=1)
        if args.smoke
        else dict(n=10, distinct=8, repeats_per=3, variants=4)
    )
    stream = bench_stream(**stream_cfg)
    print(
        f"\nrepeat stream ({stream['stream_length']} requests, "
        f"{stream['distinct_specs']} distinct): "
        f"cold {stream['cold_iterations']} iters -> warm "
        f"{stream['warm_iterations']} iters "
        f"({stream['iteration_reduction']:.1f}x fewer); cache "
        f"hit/warm/miss = {stream['cache_hit']}/{stream['cache_warm']}"
        f"/{stream['cache_miss']}"
    )

    out = args.out
    if out is None and not args.smoke:
        out = str(DEFAULT_OUT)
    if out is not None:
        payload = {
            "config": {
                "epsilon": EPSILON,
                "max_iterations": MAX_ITERATIONS,
                "topology": "complete (unit cost)",
                "stream": stream_cfg,
                "smoke": args.smoke,
            },
            "burst": burst_rows,
            "repeat_stream": stream,
        }
        Path(out).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
