"""repro.workloads generators driving the allocation service.

A seeded request stream built from the workload module (Zipf popularity,
rotating hot-spots, perturbed day-to-day traffic) exercises the full
service pipeline — batching, caching, warm starts — and the responses
must be deterministic: two fresh services fed the identical stream give
bitwise-identical answers, and the cache hit count equals exactly the
number of repeated request specs.
"""

from __future__ import annotations

import numpy as np

from repro.core.model import FileAllocationProblem
from repro.network.builders import ring_graph
from repro.obs import MetricsRegistry
from repro.service import AllocationService, SolutionCache, SolveRequest, request_fingerprint
from repro.workloads import (
    hotspot_rates,
    perturbed_rates,
    rotating_hotspot,
    zipf_rates,
)

N = 4
MU = 2.0


def request_for(rates, *, request_id=""):
    problem = FileAllocationProblem.from_topology(
        ring_graph(N), rates, k=1.0, mu=MU
    )
    return SolveRequest(problem=problem, alpha=0.3, request_id=request_id)


def zipf_stream(length, *, repeat_every=4):
    """A seeded stream of Zipf-traffic requests where every
    ``repeat_every``-th request replays an earlier spec exactly.

    ``repeat_every`` matches the dispatch window in :func:`run_stream`,
    so each replay always lands in a *later* window than its original
    (a replay batched alongside its original would probe the cache
    before the original's result lands, and miss)."""
    requests = []
    for i in range(length):
        if i >= repeat_every and i % repeat_every == 0:
            donor = requests[i - repeat_every]
            rates = donor.problem.access_rates.copy()
        else:
            # Distinct exponent per fresh draw: a 4-node shuffle alone has
            # only 24 outcomes, so seeds would collide and inflate hits.
            rates = zipf_rates(N, exponent=1.05 + 0.01 * i, total=0.8, seed=1000 + i)
        requests.append(request_for(rates, request_id=f"zipf-{i}"))
    return requests


def run_stream(requests, *, max_batch=4):
    registry = MetricsRegistry()
    # Tiny warm radius: distinct zipf draws never warm-start each other,
    # so the stream's cache story is pure miss/hit and exactly countable.
    service = AllocationService(
        max_batch=max_batch,
        cache=SolutionCache(max_warm_distance=1e-9, registry=registry),
        registry=registry,
    )
    responses = []
    # Feed in windows of max_batch, like the serve loop does.
    for i in range(0, len(requests), max_batch):
        responses.extend(service.solve_many(requests[i : i + max_batch]))
    return responses, registry


class TestZipfStream:
    def test_deterministic_across_fresh_services(self):
        stream_a = zipf_stream(12)
        stream_b = zipf_stream(12)
        responses_a, _ = run_stream(stream_a)
        responses_b, _ = run_stream(stream_b)
        for a, b in zip(responses_a, responses_b):
            assert a.ok and b.ok
            assert np.array_equal(a.allocation, b.allocation)
            assert a.cost == b.cost
            assert a.iterations == b.iterations
            assert a.cache == b.cache and a.batch_size == b.batch_size

    def test_cache_hits_equal_repeated_specs(self):
        requests = zipf_stream(12)
        responses, registry = run_stream(requests)
        fingerprints = [request_fingerprint(r) for r in requests]
        distinct = len(set(fingerprints))
        expected_hits = len(requests) - distinct
        assert expected_hits > 0
        assert registry.counters["service.cache.hit"] == expected_hits
        hits = [r for r in responses if r.cache == "hit"]
        assert len(hits) == expected_hits
        assert all(r.iterations == 0 for r in hits)

    def test_hit_rate_bounds(self):
        requests = zipf_stream(24)
        _, registry = run_stream(requests)
        c = registry.counters
        total = c["service.requests"]
        assert total == 24
        hit_rate = c["service.cache.hit"] / total
        # 1 repeat per 4 requests after warmup: rate in a known band.
        assert 0.1 <= hit_rate <= 0.3
        assert (
            c.get("service.cache.hit", 0)
            + c.get("service.cache.warm", 0)
            + c.get("service.cache.miss", 0)
            == total
        )


class TestHotspotStream:
    def test_rotating_hotspot_warms_on_revisit(self):
        """The rotating hot-spot revisits each configuration every n
        epochs — revisits are exact hits, fresh epochs solve cold."""
        rates_at = rotating_hotspot(N, total=0.8, hot_share=0.5)
        requests = [
            request_for(rates_at(epoch), request_id=f"epoch-{epoch}")
            for epoch in range(2 * N)
        ]
        registry = MetricsRegistry()
        # Distinct hot-spot positions sit within the default warm radius
        # of each other; shrink it so only exact revisits count.
        service = AllocationService(
            max_batch=1,
            cache=SolutionCache(max_warm_distance=1e-9, registry=registry),
            registry=registry,
        )
        responses = [service.solve(r) for r in requests]
        assert [r.cache for r in responses] == ["miss"] * N + ["hit"] * N
        assert registry.counters["service.cache.hit"] == N

    def test_perturbed_days_warm_start(self):
        """'Same workload, different day': lognormal-jittered traffic is a
        structural near-miss of yesterday's solve and warm-starts from it
        in fewer iterations than the cold solve took."""
        base = hotspot_rates(N, 0, hot_share=0.5, total=0.8)
        service = AllocationService()
        cold = service.solve(request_for(base, request_id="day-0"))
        assert cold.cache == "miss"
        warm_iterations = []
        for day in range(1, 4):
            rates = perturbed_rates(base, relative_noise=0.02, seed=day)
            response = service.solve(request_for(rates, request_id=f"day-{day}"))
            assert response.ok and response.cache == "warm"
            warm_iterations.append(response.iterations)
        assert max(warm_iterations) < cold.iterations
