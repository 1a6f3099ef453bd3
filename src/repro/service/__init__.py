"""repro.service — allocation-as-a-service over the solver engines.

The subsystem that turns one-shot library calls into a served stream:
:class:`AllocationService` accepts :class:`SolveRequest`\\ s on a bounded
queue, micro-batches compatible requests into one continuous-batching
:class:`~repro.parallel.ContinuousBatcher` dispatch — converged rows
retire mid-flight and freed slots refill from the pending queue
(singletons take the fused fast path) — answers repeats from
a content-addressed
:class:`SolutionCache` (exact hits immediately; near-misses warm-started
from the nearest cached allocation), and sheds overload through
:class:`AdmissionController` as structured rejections instead of
unbounded latency.

The batched/serial/fast engines' bit-for-bit parity is the load-bearing
invariant: a request's answer does not depend on how the service chose to
dispatch it.

Quick start::

    from repro.core import FileAllocationProblem
    from repro.service import AllocationService, SolveRequest

    service = AllocationService(max_batch=32, registry=None)
    problem = FileAllocationProblem.paper_network()
    response = service.solve(SolveRequest(problem=problem, alpha=0.3))
    response.allocation        # ~ [0.25, 0.25, 0.25, 0.25]
    response.cache             # "miss" the first time, "hit" on a repeat

``repro-fap serve`` builds the same service from a :class:`ServiceConfig`
and feeds it line-delimited JSON through
:meth:`AllocationService.solve_payloads`; docs/COOKBOOK.md ("Serving
allocations") and docs/PERFORMANCE.md (bench numbers) cover operation.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "admission": ["AdmissionController"],
    "batcher": ["ContinuousBatchKey", "MicroBatch", "MicroBatcher", "continuous_batch_key"],
    "cache": ["CacheEntry", "EVICTION_POLICIES", "SolutionCache"],
    "codec": [
        "iter_request_payloads",
        "parse_request",
        "request_to_payload",
        "response_from_dict",
        "safe_parse",
    ],
    "drift": ["DriftState", "DriftTracker"],
    "fingerprint": [
        "parameter_distance",
        "parameter_vector",
        "problem_fingerprint",
        "relative_distance",
        "request_fingerprint",
        "structural_key",
        "structural_key_from_matrix",
    ],
    "service": ["AllocationService", "PendingSolve", "ServiceConfig"],
    "types": [
        "AdmissionDecision",
        "CacheLookup",
        "REJECT_DEADLINE",
        "REJECT_LOAD_SHED",
        "REJECT_QUEUE_FULL",
        "REJECT_SHUTDOWN",
        "REJECT_SOLVER_ERROR",
        "SolveRequest",
        "SolveResponse",
    ],
})
