"""Tests for repro.service — fingerprints, cache, admission, batching,
and the service's bit-for-bit dispatch-parity guarantee."""

from __future__ import annotations

import itertools
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.algorithm import solve
from repro.core.initials import paper_skewed_allocation, uniform_allocation
from repro.core.model import FileAllocationProblem
from repro.exceptions import ConfigurationError, ReproError
from repro.network.builders import line_graph, ring_graph
from repro.obs import MetricsRegistry
from repro.queueing import MD1Delay
from repro.service import (
    EVICTION_POLICIES,
    REJECT_DEADLINE,
    REJECT_LOAD_SHED,
    REJECT_QUEUE_FULL,
    REJECT_SHUTDOWN,
    REJECT_SOLVER_ERROR,
    AdmissionController,
    AllocationService,
    DriftTracker,
    MicroBatcher,
    ServiceConfig,
    SolutionCache,
    SolveRequest,
    continuous_batch_key,
    parameter_distance,
    parameter_vector,
    problem_fingerprint,
    relative_distance,
    request_fingerprint,
    request_key,
    structural_key,
)
from repro.service import codec, fingerprint
from repro.service import service as service_module
from repro.service import types as service_types
from repro.service.codec import (
    LeastCostMatrices,
    parse_request,
    payload_key,
    request_to_payload,
    safe_parse,
)
from repro.service.fingerprint import relative_distances


def ring_problem(n=4, *, mu=1.5, rate=1.0, k=1.0):
    return FileAllocationProblem.from_topology(
        ring_graph(n), np.full(n, rate / n), k=k, mu=mu
    )


def md1_problem(n=3):
    """A non-M/M/1 problem: unbatchable and uncacheable by design."""
    return FileAllocationProblem(
        1.0 - np.eye(n), np.full(n, 1.0 / n), k=1.0,
        delay_models=[MD1Delay(2.0)] * n,
    )


def seeded_requests(count, *, n=4, seed=0):
    """`count` varied-but-batchable requests on the same n-node ring."""
    rng = np.random.default_rng(seed)
    requests = []
    for i in range(count):
        rates = rng.uniform(0.05, 1.0 / n, size=n)  # total < 1.0 < every mu
        problem = FileAllocationProblem.from_topology(
            ring_graph(n), rates,
            k=float(rng.uniform(0.5, 2.0)),
            mu=float(rng.uniform(1.2, 3.0)),
        )
        x0 = rng.dirichlet(np.ones(n))
        requests.append(
            SolveRequest(
                problem=problem,
                alpha=float(rng.uniform(0.1, 0.4)),
                initial_allocation=x0,
                request_id=f"seeded-{i}",
            )
        )
    return requests


def reference_solve(request):
    """The serial-engine ground truth for one request."""
    return solve(
        request.problem,
        alpha=request.alpha,
        epsilon=request.epsilon,
        max_iterations=request.max_iterations,
        initial_allocation=request.initial_allocation,
    )


class TestFingerprints:
    def test_stable_across_equal_content(self):
        a = ring_problem()
        b = ring_problem()
        assert problem_fingerprint(a) == problem_fingerprint(b)
        assert structural_key(a) == structural_key(b)

    def test_sensitive_to_every_parameter(self):
        base = problem_fingerprint(ring_problem())
        assert problem_fingerprint(ring_problem(mu=1.6)) != base
        assert problem_fingerprint(ring_problem(rate=1.1)) != base
        assert problem_fingerprint(ring_problem(k=2.0)) != base

    def test_request_fingerprint_covers_solver_options(self):
        problem = ring_problem()
        base = request_fingerprint(SolveRequest(problem=problem))
        assert request_fingerprint(SolveRequest(problem=problem)) == base
        assert request_fingerprint(SolveRequest(problem=problem, alpha=0.2)) != base
        assert request_fingerprint(SolveRequest(problem=problem, epsilon=1e-4)) != base
        assert (
            request_fingerprint(SolveRequest(problem=problem, max_iterations=5)) != base
        )
        skewed = paper_skewed_allocation(4)
        assert (
            request_fingerprint(
                SolveRequest(problem=problem, initial_allocation=skewed)
            )
            != base
        )

    def test_structural_key_ignores_parameters(self):
        assert structural_key(ring_problem(mu=1.5, k=1.0)) == structural_key(
            ring_problem(mu=2.5, k=3.0)
        )
        assert structural_key(ring_problem(4)) != structural_key(ring_problem(5))

    def test_non_mm1_is_unfingerprintable(self):
        assert problem_fingerprint(md1_problem()) is None
        assert request_fingerprint(SolveRequest(problem=md1_problem())) is None

    def test_parameter_distance(self):
        assert parameter_distance(ring_problem(), ring_problem()) == 0.0
        near = parameter_distance(ring_problem(k=1.0), ring_problem(k=1.01))
        far = parameter_distance(ring_problem(k=1.0), ring_problem(k=2.0))
        assert 0.0 < near < far
        assert parameter_distance(ring_problem(4), ring_problem(5)) == float("inf")
        assert parameter_distance(ring_problem(3), md1_problem(3)) == float("inf")


class TestSolutionCache:
    def test_hit_requires_exact_fingerprint(self):
        cache = SolutionCache(8)
        request = SolveRequest(
            problem=ring_problem(), initial_allocation=paper_skewed_allocation(4)
        )
        assert cache.lookup(request_key(request)).status == "miss"
        cache.store(request, reference_solve(request))
        hit = cache.lookup(request_key(request))
        assert hit.status == "hit" and hit.distance == 0.0
        # Different alpha: same structure, same problem — warm, not hit.
        other = SolveRequest(
            problem=ring_problem(),
            alpha=0.2,
            initial_allocation=paper_skewed_allocation(4),
        )
        assert cache.lookup(request_key(other)).status == "warm"

    def test_warm_respects_distance_radius(self):
        cache = SolutionCache(8, max_warm_distance=0.05)
        request = SolveRequest(problem=ring_problem(k=1.0))
        cache.store(request, reference_solve(request))
        near = SolveRequest(problem=ring_problem(k=1.01))
        far = SolveRequest(problem=ring_problem(k=3.0))
        assert cache.lookup(request_key(near)).status == "warm"
        assert cache.lookup(request_key(far)).status == "miss"

    def test_only_converged_solves_are_stored(self):
        cache = SolutionCache(8)
        request = SolveRequest(
            problem=ring_problem(),
            max_iterations=2,
            initial_allocation=paper_skewed_allocation(4),
        )
        result = solve(
            request.problem,
            alpha=request.alpha,
            epsilon=request.epsilon,
            max_iterations=2,
            initial_allocation=request.initial_allocation,
            raise_on_failure=False,
        )
        assert not result.converged
        assert cache.store(request, result) is None
        assert len(cache) == 0

    def test_lru_eviction_bounds_size_and_buckets(self):
        cache = SolutionCache(2)
        requests = [SolveRequest(problem=ring_problem(k=1.0 + 0.5 * i)) for i in range(3)]
        for r in requests:
            cache.store(r, reference_solve(r))
        assert len(cache) == 2
        # The first-stored entry was evicted: no longer an exact hit.
        assert cache.lookup(request_key(requests[0])).status != "hit"
        assert cache.lookup(request_key(requests[2])).status == "hit"

    def test_zero_capacity_disables_cache(self):
        cache = SolutionCache(0)
        request = SolveRequest(problem=ring_problem())
        cache.store(request, reference_solve(request))
        assert len(cache) == 0
        assert cache.lookup(request_key(request)).status == "miss"

    def test_counters(self):
        registry = MetricsRegistry()
        cache = SolutionCache(8, registry=registry)
        request = SolveRequest(problem=ring_problem())
        cache.lookup(request_key(request))
        cache.store(request, reference_solve(request))
        cache.lookup(request_key(request))
        assert registry.counters["service.cache.miss"] == 1
        assert registry.counters["service.cache.hit"] == 1
        assert registry.gauges["service.cache.size"] == 1.0


class TestAdmissionController:
    def test_queue_full(self):
        ctl = AdmissionController(max_queue_depth=2)
        request = SolveRequest(problem=ring_problem())
        assert ctl.admit(request, 1)
        decision = ctl.admit(request, 2)
        assert not decision and decision.reason == REJECT_QUEUE_FULL

    def test_load_shedding_spares_priority(self):
        ctl = AdmissionController(max_queue_depth=10, shed_threshold=2)
        low = SolveRequest(problem=ring_problem(), priority=0)
        high = SolveRequest(problem=ring_problem(), priority=1)
        assert ctl.admit(low, 1)
        shed = ctl.admit(low, 2)
        assert not shed and shed.reason == REJECT_LOAD_SHED
        assert ctl.admit(high, 2)

    def test_deadline_uses_request_then_default(self):
        ctl = AdmissionController(default_timeout_s=1.0)
        own = SolveRequest(problem=ring_problem(), timeout_s=0.5)
        default = SolveRequest(problem=ring_problem())
        assert ctl.check_deadline(own, 0.4)
        late = ctl.check_deadline(own, 0.6)
        assert not late and late.reason == REJECT_DEADLINE
        assert ctl.check_deadline(default, 0.9)
        assert not ctl.check_deadline(default, 1.1)

    def test_validates_configuration(self):
        with pytest.raises(ConfigurationError):
            AdmissionController(max_queue_depth=0)
        with pytest.raises(ConfigurationError):
            AdmissionController(max_queue_depth=4, shed_threshold=5)
        with pytest.raises(ConfigurationError):
            AdmissionController(default_timeout_s=0.0)


class _Item:
    def __init__(self, request):
        self.request = request


class TestMicroBatcher:
    def test_groups_by_compatibility_and_splits(self):
        # Incompatible requests split off; one class stays one group even
        # past max_batch (ContinuousBatcher's slots bound concurrency).
        items = [_Item(r) for r in seeded_requests(5)]
        items.append(_Item(SolveRequest(problem=ring_problem(5))))  # different n
        items.append(_Item(SolveRequest(problem=md1_problem())))  # unbatchable
        items.append(_Item(seeded_requests(1, seed=9)[0]))  # joins the first class
        batches = MicroBatcher(max_batch=3).plan(items)
        assert [b.size for b in batches] == [6, 1, 1]
        assert batches[0].key is not None and batches[1].key is not None
        assert batches[0].key != batches[1].key
        assert batches[-1].key is None  # the MD1 singleton
        # Arrival order preserved within the compatibility class.
        assert batches[0].items == items[:5] + items[7:]

    def test_epsilon_does_not_split_classes(self):
        # Tolerance and budget ride per row in ContinuousBatcher.
        a = _Item(SolveRequest(problem=ring_problem(), epsilon=1e-3))
        b = _Item(SolveRequest(problem=ring_problem(), epsilon=1e-4, max_iterations=50))
        batches = MicroBatcher(max_batch=8).plan([a, b])
        assert [x.size for x in batches] == [2]

    def test_max_batch_one_disables_grouping(self):
        items = [_Item(r) for r in seeded_requests(3)]
        batches = MicroBatcher(max_batch=1).plan(items)
        assert [b.size for b in batches] == [1, 1, 1]
        assert all(b.key is None for b in batches)

    def test_unbatchable_key_is_none(self):
        assert continuous_batch_key(SolveRequest(problem=md1_problem())) is None
        assert continuous_batch_key(SolveRequest(problem=ring_problem())) is not None


class TestDispatchParity:
    """The tentpole guarantee: a micro-batched request returns the
    bit-for-bit identical answer to a solo reference solve."""

    @pytest.mark.parametrize("seed", range(4))
    def test_batched_burst_matches_reference(self, seed):
        requests = seeded_requests(5, seed=seed)
        service = ServiceConfig(max_batch=8, cache_size=0).build()
        responses = service.solve_many(requests)
        assert all(r.batch_size == 5 for r in responses)
        for request, response in zip(requests, responses):
            ref = reference_solve(request)
            assert np.array_equal(response.allocation, ref.allocation)
            assert response.cost == ref.cost
            assert response.iterations == ref.iterations
            assert response.converged == ref.converged

    def test_singleton_fast_path_matches_reference(self):
        request = seeded_requests(1, seed=11)[0]
        response = ServiceConfig(cache_size=0).build().solve(request)
        ref = reference_solve(request)
        assert response.batch_size == 1
        assert np.array_equal(response.allocation, ref.allocation)
        assert response.cost == ref.cost
        assert response.iterations == ref.iterations

    def test_unbatchable_request_still_served(self):
        request = SolveRequest(problem=md1_problem())
        batchable = seeded_requests(2, seed=3)
        responses = AllocationService(max_batch=8).solve_many(batchable + [request])
        assert [r.batch_size for r in responses] == [2, 2, 1]
        ref = reference_solve(request)
        assert np.array_equal(responses[-1].allocation, ref.allocation)
        assert responses[-1].cache == "miss"  # bypassed the cache entirely

    def test_twenty_seeded_problems_property(self):
        """The acceptance-criteria sweep: >= 20 varied problems, each
        batched answer identical to its solo reference."""
        requests = seeded_requests(20, seed=42)
        service = ServiceConfig(max_batch=32, cache_size=0).build()
        responses = service.solve_many(requests)
        assert {r.batch_size for r in responses} == {20}
        for request, response in zip(requests, responses):
            ref = reference_solve(request)
            assert np.array_equal(response.allocation, ref.allocation)
            assert response.cost == ref.cost
            assert response.iterations == ref.iterations


class TestServiceCacheFlow:
    def test_exact_repeat_hits_without_solving(self):
        request_spec = dict(
            problem=ring_problem(), initial_allocation=paper_skewed_allocation(4)
        )
        service = AllocationService()
        cold = service.solve(SolveRequest(**request_spec))
        assert cold.cache == "miss" and cold.iterations > 0
        hot = service.solve(SolveRequest(**request_spec))
        assert hot.cache == "hit"
        assert hot.iterations == 0 and hot.batch_size == 0
        assert np.array_equal(hot.allocation, cold.allocation)
        assert hot.cost == cold.cost

    def test_near_miss_warm_starts(self):
        service = AllocationService()
        skewed = paper_skewed_allocation(4)
        cold = service.solve(
            SolveRequest(problem=ring_problem(k=1.0), initial_allocation=skewed)
        )
        warm = service.solve(
            SolveRequest(problem=ring_problem(k=1.001), initial_allocation=skewed)
        )
        assert warm.cache == "warm"
        # Started next to the donor's optimum: far fewer iterations.
        assert warm.iterations < cold.iterations

    def test_warm_result_cached_under_effective_request(self):
        """A warm solve is stored under the donor-substituted request, so
        replaying the original spec warms again (never a bogus 'hit')."""
        service = AllocationService()
        skewed = paper_skewed_allocation(4)
        service.solve(
            SolveRequest(problem=ring_problem(k=1.0), initial_allocation=skewed)
        )
        first = service.solve(
            SolveRequest(problem=ring_problem(k=1.001), initial_allocation=skewed)
        )
        second = service.solve(
            SolveRequest(problem=ring_problem(k=1.001), initial_allocation=skewed)
        )
        assert first.cache == "warm" and second.cache == "warm"
        # Second warm re-starts from its own converged donor: ~free.
        assert second.iterations <= first.iterations
        assert np.array_equal(second.allocation, first.allocation)


class TestServiceAdmission:
    def test_queue_full_rejection_is_pre_resolved(self):
        service = AllocationService(
            admission=AdmissionController(max_queue_depth=1)
        )
        first = service.submit(SolveRequest(problem=ring_problem()))
        second = service.submit(SolveRequest(problem=ring_problem(k=2.0)))
        assert not first.done()
        assert second.done()
        assert second.response.status == "rejected"
        assert second.response.reason == REJECT_QUEUE_FULL
        service.pump()
        assert first.wait(0).ok

    def test_deadline_expiry_with_fake_clock(self):
        clock = FakeClock()
        service = AllocationService(
            admission=AdmissionController(default_timeout_s=1.0), clock=clock
        )
        ticket = service.submit(SolveRequest(problem=ring_problem()))
        clock.advance(2.0)
        service.pump()
        response = ticket.wait(0)
        assert response.status == "rejected"
        assert response.reason == REJECT_DEADLINE
        assert response.latency_s == pytest.approx(2.0)

    def test_stop_without_drain_rejects_shutdown(self):
        service = AllocationService()
        ticket = service.submit(SolveRequest(problem=ring_problem()))
        service.stop(drain=False)
        assert ticket.wait(0).reason == REJECT_SHUTDOWN

    def test_load_shed_counterd(self):
        registry = MetricsRegistry()
        service = AllocationService(
            admission=AdmissionController(max_queue_depth=8, shed_threshold=1),
            registry=registry,
        )
        service.submit(SolveRequest(problem=ring_problem()))
        shed = service.submit(SolveRequest(problem=ring_problem(k=2.0)))
        kept = service.submit(SolveRequest(problem=ring_problem(k=3.0), priority=5))
        assert shed.response.reason == REJECT_LOAD_SHED
        assert not kept.done()
        assert registry.counters["service.rejected.load_shed"] == 1


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class TestServiceObservability:
    def test_counters_and_gauges(self):
        registry = MetricsRegistry()
        service = AllocationService(max_batch=8, registry=registry)
        requests = seeded_requests(3, seed=7)
        service.solve_many(requests)
        service.solve(requests[0])  # exact repeat -> hit
        c = registry.counters
        assert c["service.requests"] == 4
        assert c["service.solved"] == 3
        assert c["service.cache.miss"] == 3
        assert c["service.cache.hit"] == 1
        assert c["service.batches"] == 1
        assert c["service.batch_rows"] == 3
        assert c["service.solver_iterations"] > 0
        assert registry.gauges["service.queue_depth"] == 0.0

    def test_latency_percentiles_ordered(self):
        service = AllocationService()
        service.solve_many(seeded_requests(5, seed=9))
        pct = service.latency_percentiles()
        assert pct["p50"] <= pct["p95"] <= pct["p99"]

    def test_stats_snapshot(self):
        registry = MetricsRegistry()
        service = AllocationService(registry=registry)
        service.solve(SolveRequest(problem=ring_problem()))
        stats = service.stats()
        assert stats["queue_depth"] == 0
        assert stats["cache_size"] == 1
        assert stats["counters"]["service.solved"] == 1

    def test_batch_events_emitted(self):
        from repro.obs import MemorySink

        registry = MetricsRegistry()
        sink = MemorySink()
        registry.add_sink(sink)
        service = AllocationService(max_batch=8, registry=registry)
        service.solve_many(seeded_requests(3, seed=5))
        batch_events = [e for e in sink.events if e["event"] == "service_batch"]
        assert len(batch_events) == 1
        assert batch_events[0]["size"] == 3 and batch_events[0]["batched"] is True


class TestThreadedMode:
    def test_start_stop_roundtrip(self):
        requests = seeded_requests(4, seed=13)
        with AllocationService(max_batch=8).start() as service:
            tickets = [service.submit(r) for r in requests]
            responses = [t.wait(10.0) for t in tickets]
        for request, response in zip(requests, responses):
            ref = reference_solve(request)
            assert np.array_equal(response.allocation, ref.allocation)
            assert response.iterations == ref.iterations

    def test_stop_is_idempotent_and_drains(self):
        service = AllocationService().start()
        ticket = service.submit(SolveRequest(problem=ring_problem()))
        service.stop()
        service.stop()
        assert ticket.wait(0).ok


class TestSolvePayloads:
    def test_payload_roundtrip(self):
        service = AllocationService()
        payload = {
            "id": "wire-1",
            "problem": {"topology": "ring", "nodes": 4, "mu": 1.5, "rate": 1.0},
            "alpha": 0.3,
            "start": "skewed",
        }
        [out] = service.solve_payloads([payload])
        assert out["id"] == "wire-1" and out["status"] == "ok"
        assert out["converged"] is True
        assert len(out["allocation"]) == 4
        [repeat] = service.solve_payloads([payload])
        assert repeat["cache"] == "hit"
        assert repeat["allocation"] == out["allocation"]


class TestRequestValidation:
    def test_rejects_bad_fields(self):
        problem = ring_problem()
        with pytest.raises(ConfigurationError):
            SolveRequest(problem="not a problem")
        with pytest.raises(ConfigurationError):
            SolveRequest(problem=problem, alpha=0.0)
        with pytest.raises(ConfigurationError):
            SolveRequest(problem=problem, max_iterations=0)
        with pytest.raises(ConfigurationError):
            SolveRequest(problem=problem, timeout_s=0.0)

    def test_defaults_and_ids(self):
        request = SolveRequest(problem=ring_problem())
        assert np.array_equal(request.initial_allocation, uniform_allocation(4))
        assert request.request_id.startswith("req-")
        other = SolveRequest(problem=ring_problem())
        assert other.request_id != request.request_id

    def test_infeasible_start_rejected(self):
        with pytest.raises(ReproError):
            SolveRequest(
                problem=ring_problem(), initial_allocation=np.array([2.0, 0, 0, 0])
            )


class TestLineProblems:
    def test_mixed_topologies_batch_separately(self):
        ring = SolveRequest(problem=ring_problem(4))
        line = SolveRequest(
            problem=FileAllocationProblem.from_topology(
                line_graph(4), np.full(4, 0.25), k=1.0, mu=1.5
            )
        )
        service = AllocationService(max_batch=8)
        responses = service.solve_many([ring, line])
        # Same n and MM1 everywhere -> same compatibility class.
        assert [r.batch_size for r in responses] == [2, 2]
        for request, response in zip([ring, line], responses):
            ref = reference_solve(request)
            assert np.array_equal(response.allocation, ref.allocation)


class TestCacheTtl:
    """Satellite of the net PR: age-based expiry for long-lived servers."""

    def make(self, *, ttl_s=10.0, capacity=8):
        clock = FakeClock()
        registry = MetricsRegistry()
        cache = SolutionCache(
            capacity, ttl_s=ttl_s, clock=clock, registry=registry
        )
        return cache, clock, registry

    def test_fresh_entry_hits_expired_entry_misses_and_evicts(self):
        cache, clock, registry = self.make(ttl_s=10.0)
        request = SolveRequest(
            problem=ring_problem(), initial_allocation=paper_skewed_allocation(4)
        )
        cache.store(request, reference_solve(request))
        clock.advance(9.9)
        assert cache.lookup(request_key(request)).status == "hit"  # within TTL
        clock.advance(0.2)
        lookup = cache.lookup(request_key(request))
        assert lookup.status == "miss"
        assert len(cache) == 0  # lazily evicted on contact
        assert registry.counters["service.cache.expired"] == 1
        assert registry.counters["service.cache.miss"] == 1

    def test_expired_entry_cannot_warm_start(self):
        cache, clock, _ = self.make(ttl_s=5.0)
        skewed = paper_skewed_allocation(4)
        donor = SolveRequest(
            problem=ring_problem(k=1.0), initial_allocation=skewed
        )
        cache.store(donor, reference_solve(donor))
        near = SolveRequest(
            problem=ring_problem(k=1.001), initial_allocation=skewed
        )
        assert cache.lookup(request_key(near)).status == "warm"  # fresh donor
        clock.advance(6.0)
        assert cache.lookup(request_key(near)).status == "miss"  # expired donor skipped
        assert len(cache) == 0

    def test_restore_after_expiry_hits_again(self):
        clock = FakeClock()
        service = AllocationService(
            cache=SolutionCache(8, ttl_s=10.0, clock=clock)
        )
        spec = dict(
            problem=ring_problem(), initial_allocation=paper_skewed_allocation(4)
        )
        cold = service.solve(SolveRequest(**spec))
        assert service.solve(SolveRequest(**spec)).cache == "hit"
        clock.advance(11.0)
        refilled = service.solve(SolveRequest(**spec))
        assert refilled.cache == "miss"  # expired: solved again, restored
        assert np.array_equal(refilled.allocation, cold.allocation)
        assert service.solve(SolveRequest(**spec)).cache == "hit"

    def test_no_ttl_means_no_expiry(self):
        cache = SolutionCache(8, clock=lambda: 1e12)  # clock never consulted
        request = SolveRequest(
            problem=ring_problem(), initial_allocation=paper_skewed_allocation(4)
        )
        cache.store(request, reference_solve(request))
        assert cache.lookup(request_key(request)).status == "hit"

    def test_bad_ttl_rejected(self):
        with pytest.raises(ConfigurationError, match="ttl_s"):
            SolutionCache(8, ttl_s=0.0)


class TestThreadedRejections:
    """Satellite of the net PR: the structured-rejection paths under the
    threaded dispatcher (not just synchronous pump())."""

    def test_deadline_exceeded_under_dispatcher_thread(self):
        clock = FakeClock()
        service = AllocationService(
            admission=AdmissionController(default_timeout_s=1.0), clock=clock
        )
        ticket = service.submit(SolveRequest(problem=ring_problem()))
        clock.advance(2.0)  # expired while queued
        service.start()
        try:
            response = ticket.wait(10.0)
        finally:
            service.stop()
        assert response.status == "rejected"
        assert response.reason == REJECT_DEADLINE
        assert response.latency_s == pytest.approx(2.0)

    def test_stop_without_drain_rejects_queued_under_dispatcher(self):
        # A lookaside hook that blocks holds the dispatcher inside its
        # first pump, so the second request is still queued when
        # stop(drain=False) lands and must get a structured rejection.
        hook = _BlockingLookaside()
        service = AllocationService(lookaside=hook).start()
        first = service.submit(SolveRequest(problem=ring_problem()))
        assert hook.entered.wait(10.0)
        second = service.submit(SolveRequest(problem=ring_problem(k=2.0)))

        def release_once_stopping():
            while not service._stopping:
                time.sleep(0.001)
            hook.release.set()

        releaser = threading.Thread(target=release_once_stopping)
        releaser.start()
        service.stop(drain=False)
        releaser.join()
        assert first.wait(0).ok
        response = second.wait(0)
        assert response.status == "rejected"
        assert response.reason == REJECT_SHUTDOWN


class _BlockingLookaside:
    """A lookaside hook whose first ``get`` blocks until ``release`` is
    set (``entered`` reports that it is waiting)."""

    def __init__(self):
        self.entered = threading.Event()
        self.release = threading.Event()

    def get(self, request):
        self.entered.set()
        self.release.wait(10.0)
        return None

    def publish(self, request, result):
        pass


class _InfeasibleDonor:
    """A lookaside hook that hands one request an infeasible donor (every
    entry 0.9) and has none for the others."""

    def __init__(self, request_id):
        self.request_id = request_id

    def get(self, request):
        if request.request_id != self.request_id:
            return None
        return np.full(request.problem.n, 0.9)

    def publish(self, request, result):
        pass


class TestSolverErrors:
    """A solver error is its own request's structured rejection: in a
    lone dispatch as in a group, synchronous or threaded, and nothing
    else queued with it is lost."""

    def test_lone_unstable_request_is_rejected(self):
        service = ServiceConfig(cache_size=0).build()
        response = service.solve(SolveRequest(problem=_overloaded_problem()))
        assert response.status == "rejected"
        assert response.reason == REJECT_SOLVER_ERROR
        assert response.detail.startswith("StabilityError")

    def test_lone_fault_does_not_stop_other_groups(self):
        healthy = [SolveRequest(problem=ring_problem(4, k=k)) for k in (1.0, 2.0)]
        registry = MetricsRegistry()
        service = ServiceConfig(cache_size=0).build(registry=registry)
        responses = service.solve_many(
            [SolveRequest(problem=_overloaded_problem(5)), *healthy]
        )
        assert responses[0].reason == REJECT_SOLVER_ERROR
        assert registry.counters["service.rejected.solver_error"] == 1
        for request, response in zip(healthy, responses[1:]):
            ref = reference_solve(request)
            assert response.ok
            assert np.array_equal(response.allocation, ref.allocation)

    @pytest.mark.parametrize("bad", ["n3", "n4a"])
    def test_infeasible_donor_fails_only_its_request(self, bad):
        # n3 is a lone dispatch; n4a shares a group with n4b.
        requests = [
            SolveRequest(problem=ring_problem(3), request_id="n3"),
            SolveRequest(problem=ring_problem(4), request_id="n4a"),
            SolveRequest(problem=ring_problem(4, k=2.0), request_id="n4b"),
            SolveRequest(problem=ring_problem(5), request_id="n5"),
        ]
        service = ServiceConfig(cache_size=0).build(lookaside=_InfeasibleDonor(bad))
        responses = service.solve_many(requests)
        for request, response in zip(requests, responses):
            if request.request_id == bad:
                assert response.reason == REJECT_SOLVER_ERROR
                assert response.detail.startswith("InfeasibleAllocationError")
                continue
            ref = reference_solve(request)
            assert response.ok
            assert np.array_equal(response.allocation, ref.allocation)

    def test_dispatcher_thread_survives_a_solver_error(self):
        with ServiceConfig(cache_size=0).build().start() as service:
            bad = service.submit(SolveRequest(problem=_overloaded_problem()))
            assert bad.wait(10.0).reason == REJECT_SOLVER_ERROR
            good = service.submit(SolveRequest(problem=ring_problem()))
            assert good.wait(10.0).ok


def _overloaded_problem(n=4):
    """Stable at construction, then the service-rate estimate collapses
    below the total query rate — every feasible allocation is M/M/1
    unstable, which only the continuous dispatcher survives per-row."""
    problem = ring_problem(n)
    for model in problem.delay_models:
        model.mu = 0.1
    problem._mm1_mu = np.full(n, 0.1)
    return problem


class TestContinuousDispatch:
    """Grouped requests run through the row-staggered ContinuousBatcher:
    bit-for-bit answers, wide compatibility, per-row fault isolation."""

    def test_continuous_is_the_default_mode(self):
        registry = MetricsRegistry()
        service = ServiceConfig(max_batch=8, cache_size=0).build(registry=registry)
        service.solve_many(seeded_requests(4, seed=2))
        assert registry.counters["continuous.admitted"] == 4
        assert "batched.iterations" not in registry.counters  # no lockstep run

    def test_mixed_epsilon_and_budget_share_one_dispatch(self):
        # ContinuousBatcher carries epsilon and max_iterations per row,
        # so these four requests — two tolerances, two budgets —
        # form ONE batch and still match their own solo reference solves
        # exactly.
        requests = [
            SolveRequest(problem=p, alpha=a, epsilon=e, max_iterations=m)
            for p, a, e, m in zip(
                [r.problem for r in seeded_requests(4, seed=3)],
                [0.15, 0.3, 0.2, 0.35],
                [1e-3, 1e-5, 1e-3, 1e-5],
                [10_000, 10_000, 25, 10_000],
            )
        ]
        registry = MetricsRegistry()
        service = ServiceConfig(max_batch=8, cache_size=0).build(registry=registry)
        responses = service.solve_many(requests)
        assert registry.counters["service.batches"] == 1
        assert registry.counters["service.batch_rows"] == 4
        assert all(r.batch_size == 4 for r in responses)
        for request, response in zip(requests, responses):
            ref = reference_solve(request)
            assert np.array_equal(response.allocation, ref.allocation)
            assert response.iterations == ref.iterations
            assert response.converged == ref.converged

    def test_group_larger_than_capacity_refills_slots(self):
        requests = seeded_requests(10, seed=5)
        registry = MetricsRegistry()
        service = ServiceConfig(max_batch=3, cache_size=0).build(registry=registry)
        responses = service.solve_many(requests)
        for request, response in zip(requests, responses):
            ref = reference_solve(request)
            assert np.array_equal(response.allocation, ref.allocation)
            assert response.iterations == ref.iterations
        # The driver really ran staggered: 10 rows through 3 slots.
        assert registry.counters["continuous.admitted"] == 10
        assert registry.counters["continuous.retired"] == 10
        assert registry.gauges["continuous.capacity"] == 3.0

    def test_solver_fault_is_isolated_to_its_row(self):
        healthy = seeded_requests(3, seed=8)
        bad = SolveRequest(problem=_overloaded_problem(), request_id="bad")
        registry = MetricsRegistry()
        service = ServiceConfig(max_batch=8, cache_size=0).build(registry=registry)
        responses = service.solve_many([healthy[0], bad, healthy[1], healthy[2]])
        assert responses[1].status == "rejected"
        assert responses[1].reason == REJECT_SOLVER_ERROR
        assert "unstable" in responses[1].detail
        assert registry.counters["service.rejected.solver_error"] == 1
        for request, response in zip(healthy, [responses[0], responses[2], responses[3]]):
            ref = reference_solve(request)
            assert response.ok
            assert np.array_equal(response.allocation, ref.allocation)
            assert response.iterations == ref.iterations

    def test_claim_compatible_takes_only_matching_pending(self):
        from repro.service import ContinuousBatchKey, continuous_batch_key

        service = ServiceConfig(max_batch=8, cache_size=0).build()
        r4a = SolveRequest(problem=ring_problem(4))
        r5 = SolveRequest(problem=ring_problem(5))
        r4b = SolveRequest(problem=ring_problem(4, k=2.0))
        tickets = [service.submit(r) for r in (r4a, r5, r4b)]
        key = continuous_batch_key(r4a)
        assert key == ContinuousBatchKey(n=4)
        claimed, resolved = service._claim_compatible(key, limit=8)
        assert [t.request.request_id for t in claimed] == [
            r4a.request_id, r4b.request_id
        ]
        assert resolved == 0
        # The n=5 request stayed queued, in order, and still solves.
        assert [t.request.request_id for t in service._pending] == [r5.request_id]
        service.pump()
        assert tickets[1].done() and tickets[1].response.ok

    def test_claim_compatible_preflights_cache_hits(self):
        service = AllocationService(max_batch=8)
        first = SolveRequest(problem=ring_problem())
        service.solve(first)  # populate the cache
        repeat = SolveRequest(problem=ring_problem())
        ticket = service.submit(repeat)
        from repro.service import continuous_batch_key

        claimed, resolved = service._claim_compatible(
            continuous_batch_key(repeat), limit=8
        )
        assert claimed == [] and resolved == 1
        assert ticket.done() and ticket.response.cache == "hit"

    def test_threaded_continuous_under_concurrent_load(self):
        requests = seeded_requests(24, seed=19)
        refs = [reference_solve(r) for r in requests]
        registry = MetricsRegistry()
        service = ServiceConfig(max_batch=4, cache_size=0).build(registry=registry).start()
        tickets = [None] * len(requests)
        try:
            def submit_range(lo, hi):
                for i in range(lo, hi):
                    tickets[i] = service.submit(requests[i])

            threads = [
                threading.Thread(target=submit_range, args=(lo, lo + 8))
                for lo in (0, 8, 16)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            responses = [t.wait(60.0) for t in tickets]
        finally:
            service.stop()
        # Whatever interleaving the threads produced — grouped dispatch,
        # mid-flight joins, singletons — every answer is bit-for-bit the
        # reference solve.
        for ref, response in zip(refs, responses):
            assert response.ok
            assert np.array_equal(response.allocation, ref.allocation)
            assert response.iterations == ref.iterations


def varied_ring_requests(count, *, n=4, seed=0, alpha=None):
    """`count` distinct same-structure requests with random parameters."""
    rng = np.random.default_rng(seed)
    requests = []
    for i in range(count):
        problem = FileAllocationProblem.from_topology(
            ring_graph(n),
            rng.uniform(0.05, 1.0 / n, size=n),
            k=float(rng.uniform(0.5, 2.0)),
            mu=float(rng.uniform(1.2, 3.0)),
        )
        requests.append(
            SolveRequest(
                problem=problem,
                alpha=alpha if alpha is not None else float(rng.uniform(0.1, 0.4)),
                request_id=f"varied-{n}-{i}",
            )
        )
    return requests


class TestCacheSweep:
    """Satellite: amortized TTL sweeping bounds the live set even when
    nobody ever looks up the expired keys again."""

    def test_explicit_sweep_evicts_all_expired(self):
        clock = FakeClock()
        registry = MetricsRegistry()
        cache = SolutionCache(32, ttl_s=10.0, clock=clock, registry=registry)
        for request in varied_ring_requests(3, seed=21):
            cache.store(request, reference_solve(request))
        clock.advance(11.0)
        fresh = varied_ring_requests(2, n=5, seed=22)
        for request in fresh:
            cache.store(request, reference_solve(request))
        assert cache.sweep() == 3
        assert len(cache) == 2  # only the fresh entries survive
        assert registry.counters["service.cache.swept"] == 3
        for request in fresh:
            assert cache.lookup(request_key(request)).status == "hit"

    def test_amortized_sweep_reclaims_untouched_keys(self):
        clock = FakeClock()
        registry = MetricsRegistry()
        cache = SolutionCache(
            64, ttl_s=10.0, sweep_interval=4, clock=clock, registry=registry
        )
        stale = varied_ring_requests(6, seed=23)
        for request in stale:
            cache.store(request, reference_solve(request))
        clock.advance(11.0)
        # Traffic that never touches the stale fingerprints (different
        # structure, all misses) still triggers the amortized sweep.
        probe = SolveRequest(problem=ring_problem(5))
        for _ in range(4):
            cache.lookup(request_key(probe))
        assert len(cache) == 0
        assert registry.counters["service.cache.swept"] == 6

    def test_sweep_noop_without_ttl(self):
        cache = SolutionCache(8)
        request = SolveRequest(problem=ring_problem())
        cache.store(request, reference_solve(request))
        assert cache.sweep() == 0
        assert len(cache) == 1

    def test_bad_sweep_interval_rejected(self):
        with pytest.raises(ConfigurationError, match="sweep_interval"):
            SolutionCache(8, ttl_s=5.0, sweep_interval=0)


def hot_request():
    """An expensive recurring solve (~230 iterations — costlier than any
    of the one-off scans the eviction tests flood the cache with)."""
    problem = FileAllocationProblem.from_topology(
        ring_graph(4), np.array([0.5, 0.1, 0.1, 0.1]), k=1.0, mu=1.5
    )
    return SolveRequest(problem=problem, alpha=0.05, epsilon=1e-9)


class TestCostAwareEviction:
    """Tentpole: value-weighted eviction keeps what saves solver work."""

    def test_policy_validation(self):
        assert set(EVICTION_POLICIES) == {"lru", "cost"}
        with pytest.raises(ConfigurationError, match="eviction"):
            SolutionCache(8, eviction="mru")
        with pytest.raises(ConfigurationError, match="max_bytes"):
            SolutionCache(8, max_bytes=0)
        with pytest.raises(ConfigurationError, match="value_halflife_s"):
            SolutionCache(8, value_halflife_s=-1.0)

    def test_hot_entry_survives_scan_flood(self):
        """Repeated hits make an entry valuable; a flood of one-off
        stores must evict the one-offs around it, not the hot entry —
        the exact pattern that flushes an LRU."""
        cache = SolutionCache(4, eviction="cost")
        # Skewed rates + small step + tight tolerance: the hot solve
        # costs more iterations than any scan, and every hit credits
        # that cost back.
        hot = hot_request()
        cache.store(hot, reference_solve(hot))
        for _ in range(5):
            assert cache.lookup(request_key(hot)).status == "hit"
        for scan in varied_ring_requests(12, seed=31):
            cache.store(scan, reference_solve(scan))
        assert len(cache) == 4
        assert cache.lookup(request_key(hot)).status == "hit"

    def test_lru_flushes_the_same_hot_entry(self):
        """The control for the test above: recency eviction loses the
        hot entry to the same scan flood."""
        cache = SolutionCache(4, eviction="lru")
        hot = hot_request()
        cache.store(hot, reference_solve(hot))
        for _ in range(5):
            assert cache.lookup(request_key(hot)).status == "hit"
        for scan in varied_ring_requests(12, seed=31):
            cache.store(scan, reference_solve(scan))
        assert cache.lookup(request_key(hot)).status != "hit"

    def test_credit_warm_raises_donor_value(self):
        cache = SolutionCache(8, eviction="cost")
        donor = SolveRequest(problem=ring_problem(k=1.0))
        entry = cache.store(donor, reference_solve(donor))
        seeded = entry.value
        cache.credit_warm(entry.fingerprint, 40.0)
        assert entry.warm_uses == 1
        assert entry.value == pytest.approx(seeded + 40.0)
        cache.credit_warm("not-a-fingerprint", 10.0)  # silently ignored

    def test_value_decays_with_halflife(self):
        clock = FakeClock()
        cache = SolutionCache(
            8, eviction="cost", value_halflife_s=10.0, clock=clock
        )
        donor = SolveRequest(problem=ring_problem(k=1.0))
        entry = cache.store(donor, reference_solve(donor))
        seeded = entry.value
        clock.advance(10.0)  # one half-life
        assert cache._decayed_value(entry, clock()) == pytest.approx(seeded / 2)

    def test_max_bytes_budget_evicts(self):
        registry = MetricsRegistry()
        requests = varied_ring_requests(4, seed=33)
        probe = SolutionCache(8)
        entry = probe.store(requests[0], reference_solve(requests[0]))
        budget = entry.nbytes * 2  # room for two entries, not four
        cache = SolutionCache(8, max_bytes=budget, registry=registry)
        for request in requests:
            cache.store(request, reference_solve(request))
        assert cache.total_bytes <= budget
        assert len(cache) == 2
        assert registry.counters["service.cache.evicted"] == 2

    def test_expired_entry_loses_every_value_comparison(self):
        """TTL x budget: under cost eviction an expired entry is the
        victim even when its accumulated value dwarfs everyone else's."""
        clock = FakeClock()
        cache = SolutionCache(2, eviction="cost", ttl_s=10.0, clock=clock)
        hot = SolveRequest(
            problem=ring_problem(), initial_allocation=paper_skewed_allocation(4)
        )
        cache.store(hot, reference_solve(hot))
        for _ in range(50):
            cache.lookup(request_key(hot))  # enormous accumulated value
        clock.advance(11.0)  # ...but now expired
        fresh = varied_ring_requests(2, seed=35)
        for request in fresh:
            cache.store(request, reference_solve(request))
        # The expired entry lost both evictions; the fresh pair survived
        # (a fresh same-structure entry may still donate warm starts).
        assert len(cache) == 2
        assert cache.lookup(request_key(hot)).status != "hit"
        for request in fresh:
            assert cache.lookup(request_key(request)).status == "hit"

    def test_expired_entry_cannot_donate_under_cost_policy(self):
        clock = FakeClock()
        cache = SolutionCache(8, eviction="cost", ttl_s=5.0, clock=clock)
        skewed = paper_skewed_allocation(4)
        donor = SolveRequest(problem=ring_problem(k=1.0), initial_allocation=skewed)
        cache.store(donor, reference_solve(donor))
        near = SolveRequest(problem=ring_problem(k=1.001), initial_allocation=skewed)
        assert cache.lookup(request_key(near)).status == "warm"
        clock.advance(6.0)
        assert cache.lookup(request_key(near)).status == "miss"
        assert len(cache) == 0


class TestNearestDonorProperty:
    """Satellite: the vectorized bucket-indexed donor search picks the
    same donor as a brute-force parameter_distance scan."""

    @staticmethod
    def brute_force(cache, request):
        """The pre-index semantics: sequential `<=` scan over the
        structural bucket, so the latest equal-distance entry wins."""
        bucket = cache._buckets.get(structural_key(request.problem))
        if not bucket:
            return None
        best, best_distance = None, np.inf
        for entry in bucket.values():
            distance = parameter_distance(request.problem, entry.problem)
            if distance <= best_distance:
                best, best_distance = entry, distance
        if best is None or best_distance > cache.max_warm_distance:
            return None
        return best

    def test_donor_choice_matches_brute_force(self):
        cache = SolutionCache(256, max_warm_distance=5.0)
        # Mixed sizes: 4- and 5-node entries land in different buckets,
        # so shape-incompatible donors never reach the distance math.
        for seed in (41, 42):
            for n in (4, 5):
                for request in varied_ring_requests(8, n=n, seed=seed):
                    cache.store(request, reference_solve(request))
        rng = np.random.default_rng(43)
        for i in range(24):
            n = 4 if i % 2 == 0 else 5
            probe = SolveRequest(
                problem=FileAllocationProblem.from_topology(
                    ring_graph(n),
                    rng.uniform(0.05, 1.0 / n, size=n),
                    k=float(rng.uniform(0.5, 2.0)),
                    mu=float(rng.uniform(1.2, 3.0)),
                ),
                request_id=f"probe-{i}",
            )
            expected = self.brute_force(cache, probe)
            got = cache._nearest(request_key(probe))
            if expected is None:
                assert got is None
            else:
                entry, distance = got
                assert entry is expected
                assert distance == pytest.approx(
                    parameter_distance(probe.problem, expected.problem)
                )

    def test_tight_radius_matches_brute_force_misses(self):
        cache = SolutionCache(64, max_warm_distance=0.05)
        for request in varied_ring_requests(8, seed=44):
            cache.store(request, reference_solve(request))
        for probe in varied_ring_requests(8, seed=45):
            expected = self.brute_force(cache, probe)
            got = cache._nearest(request_key(probe))
            assert (got is None) == (expected is None)
            if expected is not None:
                assert got[0] is expected

    def test_parameter_vector_and_relative_distance(self):
        problem = ring_problem()
        vector = parameter_vector(problem)
        assert vector.shape == (2 * problem.n + 1,)
        assert relative_distance(vector, vector) == 0.0
        assert relative_distance(vector, vector[:-1]) == np.inf
        assert parameter_distance(problem, problem) == 0.0


class TestRelativeDistanceKernel:
    """The one relative-L2 kernel the cache's donor search, the lookaside
    tier and the drift tracker share: each row of its bucket form equals
    the scalar formula on that row, bit for bit."""

    @staticmethod
    def scalar(a, b):
        scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-300)
        rel = (a - b) / scale
        return float(np.sqrt(np.sum(rel * rel)))

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(
        length=st.integers(3, 399),
        rows=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_row_form_equals_scalar_form(self, length, rows, seed):
        rng = np.random.default_rng(seed)
        query = rng.lognormal(size=length) * (rng.random(length) > 0.1)
        matrix = query * rng.lognormal(0.0, rng.uniform(0.0, 1.0), size=(rows, length))
        matrix[rng.random((rows, length)) < 0.05] = 0.0
        distances = relative_distances(matrix, query)
        for row, distance in zip(matrix, distances):
            assert distance == self.scalar(row, query) == relative_distance(row, query)


class TestDriftInvalidation:
    """Tentpole: estimate drift demotes stale exact hits to warm starts."""

    def base_rates(self, n=4):
        # Deliberately non-uniform: the optimum differs from the default
        # starting iterate, so warm re-solves never alias the cold path.
        return 0.2 * np.arange(1, n + 1, dtype=float) / (n * (n + 1) / 2)

    def request(self, rates, rid):
        problem = FileAllocationProblem.from_topology(
            ring_graph(len(rates)), rates, k=1.0, mu=1.5
        )
        return SolveRequest(problem=problem, request_id=rid)

    def test_drifted_exact_hit_demotes_to_warm(self):
        registry = MetricsRegistry()
        service = ServiceConfig(drift_threshold=0.25, drift_window=2).build(
            registry=registry
        )
        base = self.base_rates()
        cold = service.solve(self.request(base, "a-cold"))
        assert cold.cache == "miss"
        assert service.solve(self.request(base, "a-hot")).cache == "hit"
        # Same structure, rates shifted 50%: the EMA crosses the 0.25
        # threshold and the epoch advances.
        for i in range(3):
            service.solve(self.request(base * 1.5, f"shift-{i}"))
        assert registry.counters["service.drift.epoch_advance"] >= 1
        demoted_before = registry.counters.get("service.cache.demoted", 0)
        replay_request = self.request(base, "a-replay")
        replay = service.solve(replay_request)
        assert replay.cache == "warm"  # demoted: re-solved, not served verbatim
        assert registry.counters["service.cache.demoted"] == demoted_before + 1
        # Parity: the demoted answer is exactly the reference solve of
        # the effective request (old allocation as the starting iterate).
        ref = solve(
            replay_request.problem,
            alpha=replay_request.alpha,
            epsilon=replay_request.epsilon,
            max_iterations=replay_request.max_iterations,
            initial_allocation=cold.allocation,
        )
        assert np.array_equal(replay.allocation, ref.allocation)
        assert replay.iterations == ref.iterations

    def test_small_drift_never_thrashes(self):
        """Perturbations below the threshold must not advance the epoch:
        the exact entry keeps hitting (the switching-cost guard)."""
        registry = MetricsRegistry()
        service = ServiceConfig(drift_threshold=0.5, drift_window=2).build(
            registry=registry
        )
        base = self.base_rates()
        service.solve(self.request(base, "b-cold"))
        rng = np.random.default_rng(51)
        for i in range(6):
            jitter = base * (1.0 + rng.uniform(-0.02, 0.02, size=base.size))
            service.solve(self.request(jitter, f"jitter-{i}"))
            assert service.solve(self.request(base, f"b-{i}")).cache == "hit"
        assert registry.counters.get("service.cache.demoted", 0) == 0
        assert registry.counters.get("service.drift.epoch_advance", 0) == 0

    def test_tracker_epochs_per_structure(self):
        tracker = DriftTracker(threshold=0.25, window=2)
        base = self.base_rates()
        ring = self.request(base, "t0").problem
        structure = structural_key(ring)
        assert tracker.observe(structure, parameter_vector(ring)) == 0
        assert tracker.epoch_of(structure) == 0
        shifted = self.request(base * 1.6, "t1").problem
        epochs = {
            tracker.observe(structural_key(shifted), parameter_vector(shifted))
            for _ in range(4)
        }
        assert tracker.epoch_of(structure) >= 1
        assert max(epochs) == tracker.epoch_of(structure)
        # A different structure has its own independent estimate.
        other = ring_problem(5)
        assert tracker.observe(structural_key(other), parameter_vector(other)) == 0

    def test_tracker_validation(self):
        with pytest.raises(ConfigurationError):
            DriftTracker(threshold=0.0)
        with pytest.raises(ConfigurationError):
            DriftTracker(window=0)


# -- the hash path: exact repeats answered from the payload's bytes --------------


def parse_flow(service, payloads):
    """The parse-everything flow of ``solve_payloads`` before the hash
    path: parse, submit, pump, answer."""
    slots = [None] * len(payloads)
    tickets = []
    for i, payload in enumerate(payloads):
        request, error = safe_parse(payload)
        if error is not None:
            slots[i] = error
            continue
        tickets.append((i, service.submit(request)))
    if any(not ticket.done() for _, ticket in tickets):
        service.pump()
    for i, ticket in tickets:
        slots[i] = ticket.response.as_dict()
    return slots


class TickingClock:
    """Advances on every reading, so the two flows agree on TTL and
    deadline decisions only if they read the clock at the same points."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 0.25
        return self.now


def _hash_stream(seed=7):
    """Groups of payloads over a small pool: exact repeats in JSON-list and
    ndarray form, named and vector starts, scalar and vector mu, a named
    topology, drifting rates, bad unkeyed fields on cached payloads, a
    deadline no request meets, the error marker (alone, and on a cached
    problem) and empty ids."""
    rng = np.random.default_rng(seed)
    n = 4
    cost = 1.0 - np.eye(n)
    rates = np.array([0.2, 0.3, 0.15, 0.25])
    pool = [
        {"problem": {"cost_matrix": cost.tolist(), "access_rates": rates.tolist(),
                     "mu": 1.5, "k": 1.0}, "epsilon": 1e-4},
        {"problem": {"cost_matrix": cost * 2.0, "access_rates": rates[::-1].copy(),
                     "mu": np.array([1.5, 1.6, 1.7, 1.8])},
         "start": rng.dirichlet(np.ones(n)), "alpha": 0.2},
        {"problem": {"topology": "ring", "nodes": 5, "rate": 0.8}, "start": "skewed"},
        {"problem": {"cost_matrix": (cost * 1.5).tolist(), "access_rates": rates.tolist(),
                     "mu": [1.6] * n}, "start": [0.25] * n, "max_iterations": 4000},
    ]
    pool += [
        {**pool[3], "problem": {**pool[3]["problem"],
                                "access_rates": (rates * scale).tolist()}}
        for scale in (1.3, 0.7)
    ]
    pool += [
        {**pool[0], "timeout_s": -1.0},
        {**pool[1], "priority": "high"},
        {**pool[0], "timeout_s": 0.1},
        {**pool[2], "priority": 1},
        {"status": "error", "detail": "line 3: invalid JSON", "id": "m"},
        [1, 2],
        {**pool[0], "status": "error", "detail": "pre-marked", "id": "pm"},
    ]
    weights = np.array([8, 6, 5, 5, 3, 3, 1, 1, 1, 2, 1, 1, 1], dtype=float)
    groups = []
    for g in range(24):
        size = int(rng.integers(1, 9))
        picks = rng.choice(len(pool), size=size, p=weights / weights.sum())
        group = []
        for j, pick in enumerate(picks):
            payload = pool[pick]
            if isinstance(payload, dict) and "status" not in payload:
                payload = {**payload, "id": "" if rng.random() < 0.2 else f"g{g}-{j}"}
            group.append(payload)
        groups.append(group)
    # A new problem is cached, its rates drift, and it is repeated: demoted.
    fresh = {**pool[3], "problem": {**pool[3]["problem"], "cost_matrix": cost * 2.5}}
    drifted = [
        {**fresh, "problem": {**fresh["problem"], "access_rates": (rates * scale).tolist()}}
        for scale in (1.3, 0.7)
    ]
    groups += [[{**p, "id": f"d{j}"}] for j, p in enumerate([fresh, *drifted, fresh])]
    # The error marker on a problem the cache holds is still an error.
    groups += [[{**pool[0], "id": "c0"}], [pool[-1]]]
    # Priority 1 passes the shedding threshold, so the queue fills.
    groups.append([{**pool[9], "id": f"full-{j}"} for j in range(8)])
    return groups


def _build(eviction, clock):
    registry = MetricsRegistry()
    drift = DriftTracker(threshold=0.05, window=2, registry=registry)
    cache = SolutionCache(
        5, ttl_s=15.0, eviction=eviction, drift=drift, registry=registry, clock=clock
    )
    admission = AdmissionController(max_queue_depth=6, shed_threshold=5)
    return AllocationService(
        max_batch=4, cache=cache, admission=admission, registry=registry, clock=clock
    )


def _cache_state(service):
    cache = service.cache
    entries = [
        (fp, e.hits, e.value, e.epoch, e.stored_at, e.warm_uses)
        for fp, e in cache._entries.items()
    ]
    drift = {
        key: (state.epoch, state.observations, state.estimate.tobytes())
        for key, state in cache.drift._states.items()
    }
    return entries, drift, cache.total_bytes


def _strip(answers):
    return [
        {k: v for k, v in a.items() if k != "latency_s"} if isinstance(a, dict) else a
        for a in answers
    ]


class TestHashPath:
    """``solve_payloads`` answers exact repeats from the payload's bytes,
    and every answer, counter and cache decision equals the parse flow's."""

    @pytest.mark.parametrize("eviction", EVICTION_POLICIES)
    def test_differential_against_the_parse_flow(self, eviction, monkeypatch):
        groups = _hash_stream()
        # What became of tickets queued unparsed: hits answered, rejections,
        # and parses after a probe that did not hit.
        seen = {"hit": 0, "rejected": 0, "parsed": 0}
        complete, reject = AllocationService._complete, AllocationService._reject

        def spy_complete(self, item, **fields):
            seen["hit"] += item.request is None and fields["cache"] == "hit"
            complete(self, item, **fields)

        def spy_reject(self, item, *args, **kwargs):
            seen["rejected"] += item.request is None
            reject(self, item, *args, **kwargs)

        def spy_parse(*args):
            seen["parsed"] += 1
            return parse_request(*args)

        monkeypatch.setattr(AllocationService, "_complete", spy_complete)
        monkeypatch.setattr(AllocationService, "_reject", spy_reject)
        monkeypatch.setattr(service_module, "parse_request", spy_parse)

        runs = []
        for flow in ("hash", "parse"):
            monkeypatch.setattr(service_types, "_request_ids", itertools.count(1))
            service = _build(eviction, TickingClock())
            if flow == "hash":
                answers = [service.solve_payloads(group) for group in groups]
            else:
                answers = [parse_flow(service, group) for group in groups]
            runs.append((answers, service))
        (hashed, fast), (parsed, slow) = runs
        assert [_strip(a) for a in hashed] == [_strip(a) for a in parsed]
        assert list(fast._latencies) == list(slow._latencies)
        assert fast.registry.counters == slow.registry.counters
        assert fast.registry.gauges == slow.registry.gauges
        assert _cache_state(fast) == _cache_state(slow)
        # The stream reached every decision the hash path must keep.
        counters = slow.registry.counters
        assert seen["hit"] >= 10 and seen["rejected"] >= 1 and seen["parsed"] >= 1
        for name in ("hit", "expired", "demoted", "warm", "miss"):
            assert counters.get(f"service.cache.{name}", 0) >= 1, name
        for reason in (REJECT_QUEUE_FULL, REJECT_LOAD_SHED, REJECT_DEADLINE):
            assert counters.get(f"service.rejected.{reason}", 0) >= 1, reason
        answered = [a for group in hashed for a in group]
        assert any(a["id"].startswith("req-") and a.get("cache") == "hit" for a in answered)
        assert sum(a.get("status") == "error" for a in answered) >= 3

    def test_a_cold_miss_is_hashed_once(self, monkeypatch):
        """The key computed from the payload serves the probe and the
        store: a cold solve hashes its arrays once, a repeat once more."""
        hashed = []
        real = fingerprint.key_of_arrays

        def counting(*args):
            hashed.append(args[0].shape[0])
            return real(*args)

        monkeypatch.setattr(codec, "key_of_arrays", counting)
        monkeypatch.setattr(fingerprint, "key_of_arrays", counting)
        service = ServiceConfig().build()
        payload = request_to_payload(SolveRequest(problem=ring_problem(5), request_id="c"))
        answers = [service.solve_payloads([payload])[0] for _ in range(2)]
        assert [a["cache"] for a in answers] == ["miss", "hit"]
        assert hashed == [5, 5]

    def test_named_topology_repeat_runs_no_second_search(self, monkeypatch):
        def named(i, rate):
            return {"id": f"n{i}", "problem": {"topology": "complete", "nodes": 40,
                                               "rate": rate}}

        stream = [named(0, 1.0), named(1, 0.9), named(2, 1.0)]
        reference = ServiceConfig().build()
        expected = [parse_flow(reference, [p])[0] for p in stream]
        searches = []
        real = codec.all_pairs_shortest_paths

        def counting(topology):
            searches.append(topology.n)
            return real(topology)

        monkeypatch.setattr(codec, "all_pairs_shortest_paths", counting)
        service = ServiceConfig().build()
        answers = [service.solve_payloads([p])[0] for p in stream]
        assert searches == [40]
        assert [a["cache"] for a in answers] == ["miss", "warm", "hit"]
        assert _strip(answers) == _strip(expected)

    def test_kept_matrices_stay_within_their_byte_budget(self, monkeypatch):
        monkeypatch.setattr(codec, "_LEAST_COST_BYTES", 3 * 8 * 20 * 20)
        store = LeastCostMatrices()
        for nodes in (20, 21, 22, 20):
            store.build("ring", nodes)
        assert len(store) == 2 and store.get("ring", 21) is None
        matrix, name = store.get("ring", 20)
        assert name == "ring-20" and not matrix.flags.writeable


_FLOAT = st.floats(0.01, 0.3)


@st.composite
def _payloads(draw):
    n = draw(st.integers(2, 5))
    as_array = draw(st.booleans())

    def vector(values):
        return np.array(values) if as_array else list(values)

    if draw(st.booleans()):
        spec = {"topology": draw(st.sampled_from(["ring", "line", "star", "complete"])),
                "nodes": n}
        for field, values in (("rate", _FLOAT), ("mu", st.floats(1.2, 3.0)),
                              ("k", st.floats(0.5, 2.0))):
            if draw(st.booleans()):
                spec[field] = draw(values)
    else:
        cost = [[0.0 if i == j else draw(st.floats(0.0, 3.0)) for j in range(n)]
                for i in range(n)]
        spec = {"cost_matrix": np.array(cost) if as_array else cost,
                "access_rates": vector([draw(_FLOAT) for _ in range(n)])}
        mu = draw(st.one_of(
            st.floats(1.6, 3.0),
            st.lists(st.floats(1.6, 3.0), min_size=n, max_size=n).map(vector),
            st.just([[1.7]]),
        ))
        spec["mu"] = mu
        if draw(st.booleans()):
            spec["k"] = draw(st.sampled_from([0.5, 1, "2.0", True]))
    payload = {"problem": spec}
    start = draw(st.one_of(
        st.none(), st.sampled_from(["uniform", "skewed", "single"]),
        st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n),
    ))
    if isinstance(start, list):
        total = sum(start)
        payload["start"] = vector([x / total for x in start])
    elif start is not None:
        payload["start"] = start
    for field, values in (("alpha", st.floats(0.05, 0.5)), ("epsilon", st.floats(1e-5, 1e-2)),
                          ("max_iterations", st.sampled_from([50, 200.0, 7.9, True, "300"]))):
        if draw(st.booleans()):
            payload[field] = draw(values)
    return payload


class TestPayloadKeyProperty:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(payload=_payloads())
    def test_payload_key_equals_the_parsed_requests_key(self, payload):
        store = LeastCostMatrices()
        try:
            request = parse_request(payload, store)
        except (ReproError, TypeError, ValueError, OverflowError):
            return
        key = payload_key(payload, store)
        assert key is not None
        assert key.fingerprint == request_fingerprint(request)
        assert key.structure == structural_key(request.problem)
        assert key.params.tobytes() == parameter_vector(request.problem).tobytes()
