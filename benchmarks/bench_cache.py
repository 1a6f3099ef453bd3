"""Benchmark the cost-aware cache, drift demotion, and the lookaside tier.

Four legs are measured, each parity-gated before its numbers are
trusted:

* **cost-aware vs LRU eviction** — a drifting hotspot stream: a small
  *hot set* of expensive tight-tolerance solves recurs every round while
  a flood of one-off *scan* requests (fresh fingerprints each round —
  the drifted working set) passes through.  Both policies get the same
  entry budget, sized so the scan tier flushes an LRU's hot entries
  between recurrences; value-weighted eviction keeps them.  The ratio of
  total solver iterations is the policy's contribution.  Parity gate:
  every answer is re-derived by a cold reference solve of the *effective
  request* (the request actually dispatched, donor start included) and
  must match bit for bit.
* **working-set shift** — where cost-aware eviction fails: a cache of
  ``capacity`` entries serves ``capacity`` random networks for several
  passes, then as many new networks for as many passes.  An LRU adopts
  the new set after one pass.  Cost eviction seeds a new entry's value
  with its own solve's iterations, below every old entry that earned
  hits, so each new entry is the next victim as it is stored — until
  the value half-life wears the old values down.  Both policies and
  both phases are reported, with no gate on which one wins.  Same
  bit-for-bit parity gate.
* **drift-adaptive invalidation** — one structure whose access rates
  shift in phases, with exact repeats inside each phase.  With a
  :class:`~repro.service.DriftTracker` attached, repeats within a phase
  still hit; once the estimate drifts past the threshold the epoch
  advances and stale-epoch hits are demoted to warm re-solves (counted
  by ``service.cache.demoted``).  Same bit-for-bit parity gate.
* **cross-shard lookaside** — a fingerprint-drifting stream against a
  2-worker affinity-routed :class:`~repro.net.NetServer`: each round
  re-measures every cost matrix (a new structural key, so the request
  routes wherever the new key lands and its shard's local cache has
  never seen it).  With the tier off every drifted request solves cold;
  with it on, workers warm-start from donor records other shards
  published.  Reported: aggregate hit+warm+lookaside rate and total
  solver iterations, off vs on.  Parity gate: hit/miss answers match a
  cache-disabled server bit for bit; warm answers match to tolerance
  (same optimum, shorter path — the service's documented warm-start
  contract).

Run standalone:

    PYTHONPATH=src python benchmarks/bench_cache.py            # full grid
    PYTHONPATH=src python benchmarks/bench_cache.py --smoke    # CI-sized

Full mode writes ``benchmarks/BENCH_cache.json`` (docs/PERFORMANCE.md
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
from repro.service import ServiceConfig, SolveRequest
from repro.workloads import hotspot_rates, perturbed_rates, zipf_rates

MAX_ITERATIONS = 20_000
#: Tight tolerance for the hot set: recurring, expensive solves.
HOT_EPSILON = 1e-7
#: Loose tolerance for the scan tier: one-off, cheap solves.
SCAN_EPSILON = 1e-2
DEFAULT_OUT = Path(__file__).resolve().parent / "BENCH_cache.json"


# -- shared machinery ----------------------------------------------------------


def run_ticketed(service, requests):
    """Play ``requests`` one at a time (each probes the cache *after* its
    predecessors stored), returning the resolved tickets — which keep the
    effective request the parity gate re-solves."""
    tickets = []
    for request in requests:
        ticket = service.submit(request)
        if not ticket.done():
            service.pump()
        tickets.append(ticket)
    return tickets


def assert_effective_parity(tickets) -> None:
    """Every answer must be bit-for-bit the cold reference solve of its
    *effective* request: for hits and misses that is the caller's request;
    for warm starts (demoted or donor-fed) the request with the donor
    iterate as its start.  This is the soundness claim of the whole
    caching tier — nothing the cache did is observable in the answer."""
    for ticket in tickets:
        response = ticket.response
        assert response.ok, response
        effective = ticket.effective_request
        ref = solve(
            effective.problem,
            alpha=effective.alpha,
            epsilon=effective.epsilon,
            max_iterations=effective.max_iterations,
            initial_allocation=effective.initial_allocation,
        )
        rid = ticket.request.request_id
        assert np.array_equal(response.allocation, ref.allocation), rid
        assert response.cost == ref.cost, rid
        if response.cache != "hit":  # hits answer with 0 solver iterations
            assert response.iterations == ref.iterations, rid


# -- scenario 1: cost-aware vs LRU eviction ------------------------------------


def hotspot_stream(*, n, hot_count, scan_count, rounds):
    """The drifting hotspot stream: ``hot_count`` expensive specs recur
    twice per round; ``scan_count`` fresh cheap specs per round drift
    through in between (new fingerprints every round — an LRU adopts
    them, evicting the hot set)."""
    cost = 1.0 - np.eye(n)
    hot_specs = [
        (hotspot_rates(n, hot_node=i % n, hot_share=0.5, total=0.8), HOT_EPSILON)
        for i in range(hot_count)
    ]

    def request(rates, epsilon, rid):
        problem = FileAllocationProblem(cost, rates, k=1.0, mu=1.5)
        return SolveRequest(
            problem=problem, alpha=0.3, epsilon=epsilon,
            max_iterations=MAX_ITERATIONS, request_id=rid,
        )

    requests, serial = [], 0
    for r in range(rounds):
        for i, (rates, eps) in enumerate(hot_specs):
            requests.append(request(rates, eps, f"hot-{r}-a{i}"))
        for j in range(scan_count):
            rates = perturbed_rates(
                zipf_rates(n, exponent=1.1, total=0.8),
                relative_noise=0.05, seed=1000 * r + j,
            )
            requests.append(request(rates, SCAN_EPSILON, f"scan-{r}-{j}"))
            serial += 1
        for i, (rates, eps) in enumerate(hot_specs):
            requests.append(request(rates, eps, f"hot-{r}-b{i}"))
    return requests


def bench_eviction(*, n, hot_count, scan_count, rounds, capacity) -> dict:
    rows = {}
    for policy in ("lru", "cost"):
        registry = MetricsRegistry()
        service = ServiceConfig(
            max_batch=1, cache_size=capacity, cache_eviction=policy
        ).build(registry=registry)
        requests = hotspot_stream(
            n=n, hot_count=hot_count, scan_count=scan_count, rounds=rounds
        )
        start = time.perf_counter()
        tickets = run_ticketed(service, requests)
        elapsed = time.perf_counter() - start
        assert_effective_parity(tickets)
        counters = registry.counters
        rows[policy] = {
            "solver_iterations": int(counters.get("service.solver_iterations", 0)),
            "cache_hit": int(counters.get("service.cache.hit", 0)),
            "cache_warm": int(counters.get("service.cache.warm", 0)),
            "cache_miss": int(counters.get("service.cache.miss", 0)),
            "cache_evicted": int(counters.get("service.cache.evicted", 0)),
            "seconds": elapsed,
            "requests_per_second": len(requests) / elapsed,
        }
    lru, cost = rows["lru"], rows["cost"]
    return {
        "n": n,
        "capacity": capacity,
        "hot_specs": hot_count,
        "scans_per_round": scan_count,
        "rounds": rounds,
        "requests": (2 * hot_count + scan_count) * rounds,
        "lru": lru,
        "cost_aware": cost,
        "iteration_reduction": (
            lru["solver_iterations"] / max(1, cost["solver_iterations"])
        ),
        "parity": True,
    }


# -- scenario 2: working-set shift ---------------------------------------------


def shift_stream(*, n, networks, passes, seed=11):
    """Two phases of ``networks`` random ``n``-node networks, each phase
    ``passes`` round-robin passes over its own set; no two networks
    share a structure, so nothing warm-starts across them."""
    rng = np.random.default_rng(seed)
    phases = []
    for phase in range(2):
        specs = []
        for _ in range(networks):
            cost = rng.uniform(0.5, 2.0, size=(n, n))
            cost = (cost + cost.T) / 2.0
            np.fill_diagonal(cost, 0.0)
            rates = rng.uniform(0.3, 0.8, size=n)
            specs.append(FileAllocationProblem(cost, rates * (0.9 / rates.sum()),
                                               k=1.0, mu=1.5))
        phases.append([
            SolveRequest(problem=problem, alpha=0.3, epsilon=1e-4,
                         max_iterations=MAX_ITERATIONS,
                         request_id=f"shift-{phase}-{p}-{i}")
            for p in range(passes)
            for i, problem in enumerate(specs)
        ])
    return phases


def bench_shift(*, n, networks, passes, capacity) -> dict:
    rows = {}
    for policy in ("lru", "cost"):
        service = ServiceConfig(
            max_batch=1, cache_size=capacity, cache_eviction=policy
        ).build()
        row = {}
        for phase, requests in enumerate(shift_stream(
            n=n, networks=networks, passes=passes
        )):
            tickets = run_ticketed(service, requests)
            assert_effective_parity(tickets)
            responses = [t.response for t in tickets]
            row[f"phase_{phase + 1}"] = {
                "requests": len(responses),
                "cache_hit": sum(r.cache == "hit" for r in responses),
                "cache_warm": sum(r.cache == "warm" for r in responses),
                "cache_miss": sum(r.cache == "miss" for r in responses),
                "solver_iterations": sum(r.iterations for r in responses),
            }
        rows[policy] = row
    return {
        "n": n,
        "capacity": capacity,
        "networks_per_phase": networks,
        "passes": passes,
        "lru": rows["lru"],
        "cost_aware": rows["cost"],
        "parity": True,
    }


# -- scenario 3: drift-adaptive invalidation -----------------------------------


def bench_drift(*, n, phases, repeats_per_phase, threshold, window) -> dict:
    """Phased rate drift over one structure: exact repeats inside each
    phase must hit; once the estimate crosses ``threshold`` the epoch
    advances and stale hits are demoted to warm re-solves."""
    cost = 1.0 - np.eye(n)
    base = hotspot_rates(n, hot_node=0, hot_share=0.5, total=0.6)

    registry = MetricsRegistry()
    service = ServiceConfig(
        max_batch=1, cache_size=64, drift_threshold=threshold, drift_window=window
    ).build(registry=registry)
    def phase_request(phase: int, rid: str) -> SolveRequest:
        # +25% per phase: ~0.2 relative shift per rate component, which
        # the EMA accumulates past the 0.25 threshold a few observations
        # into each phase (and total rate stays below mu throughout).
        rates = base * (1.0 + 0.25 * phase)
        problem = FileAllocationProblem(cost, rates, k=1.0, mu=1.5)
        return SolveRequest(
            problem=problem, alpha=0.3, epsilon=1e-4,
            max_iterations=MAX_ITERATIONS, request_id=rid,
        )

    requests = []
    for phase in range(phases):
        for rep in range(repeats_per_phase):
            requests.append(phase_request(phase, f"drift-{phase}-{rep}"))
        if phase > 0:
            # Yesterday's request comes back after the estimate moved on:
            # its entry (stored under phase 0's epoch) must be demoted to
            # a warm re-solve, not served verbatim.
            requests.append(phase_request(0, f"replay-{phase}"))
    tickets = run_ticketed(service, requests)
    assert_effective_parity(tickets)
    counters = registry.counters
    return {
        "n": n,
        "phases": phases,
        "repeats_per_phase": repeats_per_phase,
        "threshold": threshold,
        "window": window,
        "requests": len(requests),
        "cache_hit": int(counters.get("service.cache.hit", 0)),
        "cache_warm": int(counters.get("service.cache.warm", 0)),
        "cache_miss": int(counters.get("service.cache.miss", 0)),
        "demoted": int(counters.get("service.cache.demoted", 0)),
        "epoch_advances": int(counters.get("service.drift.epoch_advance", 0)),
        "parity": True,
    }


# -- scenario 4: cross-shard lookaside -----------------------------------------


def drifting_payloads(*, bases, rounds, nodes, seed=7):
    """A fingerprint-drifting stream: ``bases`` distinct structures whose
    cost matrices are re-measured (perturbed) every round — each round's
    payloads carry fresh structural keys, so affinity routing scatters
    them and no shard's local cache has seen them."""
    rng = np.random.default_rng(seed)
    base_costs, base_rates = [], []
    for _ in range(bases):
        cost = rng.uniform(0.5, 2.0, size=(nodes, nodes))
        cost = (cost + cost.T) / 2.0
        np.fill_diagonal(cost, 0.0)
        rates = rng.uniform(0.3, 0.8, size=nodes)
        rates *= 0.9 / rates.sum()
        base_costs.append(cost)
        base_rates.append(rates)
    stream, serial = [], 0
    for r in range(rounds):
        for i in range(bases):
            jitter = np.random.default_rng(10_000 + 100 * i + r)
            noise = 1.0 + 0.02 * jitter.standard_normal(base_costs[i].shape)
            cost = base_costs[i] * (noise + noise.T) / 2.0
            np.fill_diagonal(cost, 0.0)
            stream.append(
                {
                    "id": f"d{serial}",
                    "problem": {
                        "cost_matrix": [[float(v) for v in row] for row in cost],
                        "access_rates": [float(v) for v in base_rates[i]],
                        "mu": 1.5,
                        "k": 1.0,
                    },
                    "alpha": 0.3,
                    "epsilon": 1e-4,
                    "max_iterations": MAX_ITERATIONS,
                }
            )
            serial += 1
    return stream


def _comparable(response: dict) -> dict:
    clean = dict(response)
    for key in ("latency_s", "batch_size", "cache"):
        clean.pop(key, None)
    return clean


def bench_lookaside(*, bases, rounds, nodes, workers) -> dict:
    """Disjoint shards vs the lookaside tier on the drifting stream.

    Sequential on purpose: a donor can only help after its solve was
    published, so requests are played one at a time — this measures the
    tier, not pipelining."""
    from repro.net import NetClient, NetServer

    stream = drifting_payloads(bases=bases, rounds=rounds, nodes=nodes)

    # Reference leg: no caching anywhere; every answer is a cold solve.
    with NetServer(port=0, workers=1, service=ServiceConfig(cache_size=0)) as server:
        host, port = server.address
        with NetClient(host, port, timeout_s=300.0) as client:
            reference = [client.solve_payload(dict(p)) for p in stream]
    assert all(r["status"] == "ok" for r in reference)

    rows = {}
    for enabled in (False, True):
        with NetServer(
            port=0, workers=workers, lookaside=enabled
        ) as server:
            host, port = server.address
            with NetClient(host, port, timeout_s=300.0) as client:
                responses = [client.solve_payload(dict(p)) for p in stream]
                stats = client.stats()
        assert all(r["status"] == "ok" for r in responses)
        # Parity gate: hit/miss answers are bit-for-bit the cold solves;
        # warm/lookaside answers reach the same optimum to tolerance.
        for want, have in zip(reference, responses):
            if have.get("cache") in ("hit", "miss"):
                assert _comparable(have) == _comparable(want), have["id"]
            else:
                assert abs(have["cost"] - want["cost"]) <= 1e-3 * abs(want["cost"])
        dispositions = {"hit": 0, "warm": 0, "lookaside": 0, "miss": 0}
        for r in responses:
            dispositions[r.get("cache", "miss")] += 1
        counters = stats["counters"]
        key = "lookaside" if enabled else "disjoint"
        served = len(responses)
        rows[key] = {
            "dispositions": dispositions,
            "warm_rate": (
                (dispositions["hit"] + dispositions["warm"] + dispositions["lookaside"])
                / served
            ),
            "solver_iterations": int(counters.get("service.solver_iterations", 0)),
            "published": int(counters.get("net.lookaside.published", 0)),
            "donors_served": int(counters.get("net.lookaside.hits", 0)),
        }
    return {
        "nodes": nodes,
        "bases": bases,
        "rounds": rounds,
        "workers": workers,
        "requests": len(stream),
        "disjoint": rows["disjoint"],
        "lookaside": rows["lookaside"],
        "warm_rate_lift": (
            rows["lookaside"]["warm_rate"] - rows["disjoint"]["warm_rate"]
        ),
        "iteration_reduction": (
            rows["disjoint"]["solver_iterations"]
            / max(1, rows["lookaside"]["solver_iterations"])
        ),
        "parity": True,
    }


# -- driver --------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="small rounds, no JSON unless --out is given",
    )
    parser.add_argument(
        "--out", default=None,
        help=f"output JSON path (full mode default: {DEFAULT_OUT.name})",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        eviction_cfg = dict(n=8, hot_count=4, scan_count=8, rounds=2, capacity=8)
        shift_cfg = dict(n=6, networks=4, passes=3, capacity=4)
        drift_cfg = dict(n=8, phases=2, repeats_per_phase=6, threshold=0.25, window=4)
        lookaside_cfg = dict(bases=4, rounds=2, nodes=6, workers=2)
    else:
        eviction_cfg = dict(n=10, hot_count=8, scan_count=16, rounds=6, capacity=16)
        shift_cfg = dict(n=6, networks=16, passes=10, capacity=16)
        drift_cfg = dict(n=10, phases=4, repeats_per_phase=10, threshold=0.25, window=4)
        lookaside_cfg = dict(bases=12, rounds=5, nodes=6, workers=2)

    eviction = bench_eviction(**eviction_cfg)
    print(
        f"eviction ({eviction['requests']} requests, capacity "
        f"{eviction['capacity']}): lru {eviction['lru']['solver_iterations']} "
        f"iters (hit {eviction['lru']['cache_hit']}) -> cost-aware "
        f"{eviction['cost_aware']['solver_iterations']} iters (hit "
        f"{eviction['cost_aware']['cache_hit']}); "
        f"{eviction['iteration_reduction']:.1f}x fewer solver iterations"
    )

    shift = bench_shift(**shift_cfg)
    for policy in ("lru", "cost_aware"):
        first, second = shift[policy]["phase_1"], shift[policy]["phase_2"]
        print(
            f"shift ({shift['networks_per_phase']} networks x {shift['passes']} "
            f"passes per phase, capacity {shift['capacity']}): {policy} hit/miss "
            f"{first['cache_hit']}/{first['cache_miss']} then "
            f"{second['cache_hit']}/{second['cache_miss']}"
        )

    drift = bench_drift(**drift_cfg)
    print(
        f"drift ({drift['requests']} requests, {drift['phases']} phases): "
        f"hit/warm/miss = {drift['cache_hit']}/{drift['cache_warm']}"
        f"/{drift['cache_miss']}, {drift['demoted']} demoted over "
        f"{drift['epoch_advances']} epoch advance(s)"
    )

    lookaside = bench_lookaside(**lookaside_cfg)
    print(
        f"lookaside ({lookaside['requests']} requests, "
        f"{lookaside['workers']} workers): disjoint warm rate "
        f"{lookaside['disjoint']['warm_rate']:.0%} -> lookaside "
        f"{lookaside['lookaside']['warm_rate']:.0%} "
        f"(+{lookaside['warm_rate_lift']:.0%}); "
        f"{lookaside['iteration_reduction']:.2f}x fewer solver iterations"
    )

    out = args.out
    if out is None and not args.smoke:
        out = str(DEFAULT_OUT)
    if out is not None:
        payload = {
            "config": {
                "hot_epsilon": HOT_EPSILON,
                "scan_epsilon": SCAN_EPSILON,
                "max_iterations": MAX_ITERATIONS,
                "smoke": args.smoke,
            },
            "eviction": eviction,
            "shift": shift,
            "drift": drift,
            "lookaside": lookaside,
        }
        Path(out).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
