"""The allocation service: queue, cache, batcher, and dispatch in one loop.

:class:`AllocationService` is the long-running, in-process composition of
everything the earlier layers provide:

* requests enter through :meth:`~AllocationService.submit`, pass
  **admission control** (bounded queue, load shedding), and wait on a
  pending queue as :class:`PendingSolve` tickets;
* each **pump** drains the queue: expired requests are rejected with a
  structured deadline error, the **solution cache** answers exact hits
  outright and attaches warm-start iterates to near-misses, and the
  **micro-batcher** groups what remains into row-staggered
  :class:`~repro.parallel.ContinuousBatcher` dispatches — converged
  rows retire mid-flight and freed slots refill from the pending queue
  (singletons run ``solve(engine="fast")``: the fast path's inlined
  loop for M/M/1 problems, the reference loop for any other);
* every response records how it was produced (cache disposition, batch
  size, queue-to-response latency) and the registry accumulates the
  service's operational story: queue depth, batch occupancy,
  hit/warm/miss counts, a latency histogram.

:meth:`~repro.service.ServiceConfig.build` composes a service from its nine settings;
JSON payloads enter through one door, :meth:`~AllocationService.solve_payloads`.

Because every dispatch path is bit-for-bit equivalent to the serial
reference engine, *none* of the throughput machinery is observable in the
answers: a request returns the identical allocation whether it was
batched with 31 strangers, solved alone, or warm-started cold.  (The one
deliberate exception: a warm near-miss starts from a donor iterate, which
changes the path to the optimum but not, within ``epsilon``, the optimum
reached.)

The service runs in two modes:

* **synchronous** — call :meth:`pump` yourself (or use :meth:`solve` /
  :meth:`solve_many` / :meth:`solve_payloads`, which pump for you).
  Deterministic; what the tests and benchmarks use.
* **threaded** — :meth:`start` spawns a dispatcher thread that pumps as
  soon as work is pending; requests that arrive while a group solves
  join it mid-flight.  Callers block on :meth:`PendingSolve.wait`.  A
  dispatch that raises answers every request it held with a
  ``solver_error`` rejection, and the thread keeps serving.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.algorithm import solve
from repro.exceptions import ReproError
from repro.obs.registry import MetricsRegistry
from repro.parallel import ContinuousBatcher
from repro.service.admission import AdmissionController
from repro.service.batcher import (
    ContinuousBatchKey,
    MicroBatch,
    MicroBatcher,
    continuous_batch_key,
)
from repro.service.cache import SolutionCache
from repro.service.codec import (
    LeastCostMatrices,
    parse_request,
    payload_key,
    safe_parse,
    unkeyed_fields,
)
from repro.service.fingerprint import RequestKey, request_key
from repro.service.types import (
    REJECT_SHUTDOWN,
    REJECT_SOLVER_ERROR,
    SolveRequest,
    SolveResponse,
)

__all__ = ["AllocationService", "PendingSolve"]


class PendingSolve:
    """Ticket for one submitted request; resolves to a :class:`SolveResponse`.

    Rejected-at-submit requests come back already resolved, so callers
    can treat every ticket uniformly.

    :attr:`key` is the request's cache key
    (:class:`~repro.service.fingerprint.RequestKey`) once known.  A
    ticket made from a wire ``payload`` whose key is in the cache's
    exact index (:meth:`AllocationService.solve_payloads` makes those)
    leaves :attr:`request` ``None``: the pump parses the payload only if
    the cache cannot answer it after all.  Its id, ``timeout_s`` and
    ``priority`` — what admission reads — are read from the payload at
    once (:func:`~repro.service.codec.unkeyed_fields`, which raises on a
    bad one).
    """

    def __init__(
        self,
        request: Optional[SolveRequest],
        *,
        key: Optional[RequestKey] = None,
        payload: Optional[Dict] = None,
    ):
        self.request = request
        self.key = key
        #: The wire payload of a ticket whose request is not parsed yet.
        self.payload = payload
        if request is not None:
            self.request_id = request.request_id
            self.timeout_s, self.priority = request.timeout_s, request.priority
        else:
            self.request_id, self.timeout_s, self.priority = unkeyed_fields(payload)
        #: Clock reading at submission.
        self.submitted_at = 0.0
        #: Cache disposition attached during the pump
        #: ("hit"/"warm"/"lookaside"/"miss").
        self.cache_status = "miss"
        #: Donor allocation for warm starts (set during the pump).
        self.warm_allocation: Optional[np.ndarray] = None
        #: Fingerprint of the local donor entry (for crediting the donor
        #: with the iterations its warm start saved, once known).
        self.warm_donor_fp: Optional[str] = None
        #: The donor's own solve cost — the baseline the warm solve is
        #: credited against.
        self.warm_donor_iterations: int = 0
        self._event = threading.Event()
        self._response: Optional[SolveResponse] = None

    @property
    def effective_request(self) -> SolveRequest:
        """The request as it will actually be solved: the caller's spec,
        with a warm donor iterate swapped in as the start when one was
        found.  Cache entries are stored under *this* configuration, so
        an exact cache hit always reproduces a solve bit-for-bit."""
        if self.warm_allocation is None:
            return self.request
        return replace(self.request, initial_allocation=self.warm_allocation)

    def done(self) -> bool:
        return self._event.is_set()

    @property
    def response(self) -> Optional[SolveResponse]:
        return self._response

    def wait(self, timeout: Optional[float] = None) -> SolveResponse:
        """Block until resolved; raises ``TimeoutError`` on expiry."""
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"request {self.request_id!r} not resolved within {timeout}s"
            )
        assert self._response is not None
        return self._response

    def _resolve(self, response: SolveResponse) -> None:
        self._response = response
        self._event.set()

    def __repr__(self) -> str:
        state = "done" if self.done() else "pending"
        return f"PendingSolve(id={self.request_id!r}, {state})"


class AllocationService:
    """Allocation-as-a-service over the library's solver engines.

    Parameters
    ----------
    max_batch:
        Concurrent rows per dispatch — the slot capacity of the
        row-staggered :class:`~repro.parallel.ContinuousBatcher` that
        grouped requests run through: converged rows retire mid-flight,
        freed slots refill from the pending queue (including requests
        submitted *while the batch is solving*, in threaded mode), and
        requests need only share ``n`` to group — per-request epsilon
        and budget ride along.  1 disables micro-batching (every request
        runs the singleton path).
    cache:
        The :class:`~repro.service.cache.SolutionCache` to answer repeats
        from, or ``None`` for a default one that reports to ``registry``.
        :meth:`~repro.service.ServiceConfig.build` builds one from settings.
    lookaside:
        Optional cross-shard donor tier — any object with
        ``get(request) -> Optional[np.ndarray]`` and
        ``publish(request, result) -> None`` (see
        :class:`~repro.net.lookaside.LookasideTier`).  Consulted only on
        local cache misses; a donor it returns warm-starts the solve and
        the response reports ``cache="lookaside"``.  Converged solves are
        published back so other shards can draw from them.
    admission:
        An :class:`~repro.service.admission.AdmissionController`, or
        ``None`` for the defaults (depth 1024, no shedding, no deadline).
    registry:
        Optional :class:`~repro.obs.registry.MetricsRegistry`; receives
        the full ``service.*`` counter/gauge/histogram family plus the
        solver engines' own metrics.
    clock:
        Monotonic time source (injectable for deterministic tests).
    """

    def __init__(
        self,
        *,
        max_batch: int = 32,
        cache: Optional[SolutionCache] = None,
        lookaside=None,
        admission: Optional[AdmissionController] = None,
        registry: Optional[MetricsRegistry] = None,
        clock=time.monotonic,
    ):
        self.registry = registry
        self.clock = clock
        self.batcher = MicroBatcher(max_batch=max_batch)
        self.admission = admission if admission is not None else AdmissionController()
        self.cache = (
            cache if cache is not None else SolutionCache(registry=registry, clock=clock)
        )
        self.lookaside = lookaside
        #: Named topologies' least-cost matrices, kept across requests.
        self.least_costs = LeastCostMatrices()
        self._pending: List[PendingSolve] = []
        #: Every ticket the running pump took off the queue, mid-flight
        #: claims included: the ones a failed dispatch leaves unanswered.
        self._held: List[PendingSolve] = []
        self._cond = threading.Condition()
        self._latencies: deque = deque(maxlen=4096)
        self._thread: Optional[threading.Thread] = None
        self._stopping = False

    # -- intake ----------------------------------------------------------------

    def submit(self, request: SolveRequest) -> PendingSolve:
        """Admit (or reject) one request; returns its ticket immediately."""
        return self._enqueue(PendingSolve(request))

    def _enqueue(self, ticket: PendingSolve) -> PendingSolve:
        ticket.submitted_at = self.clock()
        if self.registry is not None:
            self.registry.counter_inc("service.requests")
        with self._cond:
            decision = self.admission.admit(ticket, len(self._pending))
            if decision:
                self._pending.append(ticket)
                self._gauge_depth_locked()
                self._cond.notify_all()
        if not decision:
            self._reject(ticket, decision.reason, decision.detail, latency_s=0.0)
        return ticket

    def solve(self, request: SolveRequest, *, timeout: Optional[float] = None) -> SolveResponse:
        """Submit and wait for the answer (pumping inline when no
        dispatcher thread is running)."""
        ticket = self.submit(request)
        if self._thread is None and not ticket.done():
            self.pump()
        return ticket.wait(timeout)

    def solve_many(
        self, requests: Sequence[SolveRequest], *, timeout: Optional[float] = None
    ) -> List[SolveResponse]:
        """Submit a burst together — giving the micro-batcher the whole
        group at once — and wait for all answers, in request order."""
        tickets = [self.submit(r) for r in requests]
        if self._thread is None and any(not t.done() for t in tickets):
            self.pump()
        return [t.wait(timeout) for t in tickets]

    def solve_payloads(self, payloads: Sequence[object]) -> List[Dict]:
        """One answer dict per wire-format payload, in order: the one JSON
        path of ``repro-fap serve`` and the ``net-serve`` workers.

        A payload that does not parse is answered in place with an error
        dict; the rest are submitted as one group and pumped (synchronous
        mode).  A dispatch that raises becomes an error dict on each
        request it left unanswered.

        Each payload's cache key is computed from the payload
        (:func:`~repro.service.codec.payload_key`).  An exact repeat — a
        key in the cache's exact index — is queued unparsed: it meets
        every decision a parsed request meets (admission, deadline, TTL,
        drift, recency, hit credit, metrics), and the pump parses it only
        if its probe does not hit.  Every other payload is parsed on
        arrival and keeps its key, so neither its probe nor the store of
        its cold solve hashes it again."""
        slots: List[Optional[Dict]] = [None] * len(payloads)
        tickets: List[Tuple[int, PendingSolve]] = []
        hashing = self._thread is None and self.cache.capacity > 0
        for i, payload in enumerate(payloads):
            key = ticket = None
            if hashing and isinstance(payload, dict) and payload.get("status") != "error":
                key = payload_key(payload, self.least_costs)
                if key is not None and key.fingerprint in self.cache:
                    try:
                        ticket = PendingSolve(None, key=key, payload=payload)
                    except (ReproError, TypeError, ValueError, OverflowError):
                        pass  # a bad id, timeout_s or priority: the parse answers it
            if ticket is None:
                request, error = safe_parse(payload, self.least_costs)
                if error is not None:
                    slots[i] = error
                    continue
                ticket = PendingSolve(request, key=key)
            tickets.append((i, self._enqueue(ticket)))
        failure = "dispatch failed: the service left the request unresolved"
        try:
            if any(not ticket.done() for _, ticket in tickets):
                self.pump()
        except Exception as exc:  # noqa: BLE001 - the caller must survive anything
            failure = f"dispatch failed: {type(exc).__name__}: {exc}"
        for i, ticket in tickets:
            if ticket.done():
                slots[i] = ticket.response.as_dict()
            else:
                slots[i] = {"id": ticket.request_id, "status": "error", "detail": failure}
        return slots  # type: ignore[return-value]

    # -- the dispatch loop -----------------------------------------------------

    def pump(self) -> int:
        """Drain the pending queue once; returns how many tickets resolved.

        Deadline checks, cache probes, batch planning, and dispatch all
        happen here, outside the queue lock — submissions keep flowing
        while a batch solves.
        """
        with self._cond:
            items = self._pending
            self._pending = []
            self._gauge_depth_locked()
        if not items:
            return 0
        self._held = list(items)
        to_solve, resolved = self._preflight(items)
        for batch in self.batcher.plan(to_solve):
            resolved += self._dispatch(batch)
        self._held = []
        return resolved

    def _preflight(self, items: Sequence[PendingSolve]) -> tuple:
        """Deadline-check and cache-probe ``items``: expired requests are
        rejected, exact hits answered, near-misses tagged with a warm
        donor.  Returns ``(to_solve, resolved_count)``.  Shared by the
        pump's queue drain and by mid-flight continuous admission."""
        now = self.clock()
        resolved = 0
        to_solve: List[PendingSolve] = []
        for item in items:
            verdict = self.admission.check_deadline(item, now - item.submitted_at)
            if not verdict:
                self._reject(
                    item, verdict.reason, verdict.detail,
                    latency_s=now - item.submitted_at,
                )
                resolved += 1
                continue
            if item.key is None and self.cache.capacity:  # an unused cache needs no hash
                item.key = request_key(item.request)
            lookup = self.cache.lookup(item.key)
            if lookup.status == "hit":
                entry = lookup.entry
                self._complete(
                    item,
                    allocation=entry.allocation.copy(),
                    cost=entry.cost,
                    iterations=0,
                    converged=True,
                    cache="hit",
                    batch_size=0,
                )
                resolved += 1
                continue
            if item.request is None:  # a repeat the cache cannot answer after all
                item.request = parse_request(
                    {**item.payload, "id": item.request_id}, self.least_costs
                )
            item.cache_status = lookup.status
            if lookup.status == "warm":
                item.warm_allocation = lookup.entry.allocation.copy()
                item.warm_donor_fp = lookup.entry.fingerprint
                item.warm_donor_iterations = lookup.entry.iterations
            elif self.lookaside is not None:
                donor = self.lookaside.get(item.request)
                if donor is not None:
                    # A cross-shard donor: same warm-start mechanics as a
                    # local near-miss (and therefore the same parity —
                    # the effective request is identical either way),
                    # just sourced from another shard's converged solve.
                    item.cache_status = "lookaside"
                    item.warm_allocation = np.array(donor, dtype=float, copy=True)
                    if self.registry is not None:
                        self.registry.counter_inc("service.cache.lookaside")
            to_solve.append(item)
        return to_solve, resolved

    def _dispatch(self, batch: MicroBatch) -> int:
        """Solve one planned batch; returns how many tickets it resolved
        (continuous dispatch may resolve more than ``batch.size`` by
        claiming compatible requests that arrive mid-flight)."""
        reg = self.registry
        if reg is not None:
            reg.counter_inc("service.batches")
            reg.counter_inc("service.batch_rows", batch.size)
            reg.observe("service.batch_occupancy", batch.size)
            reg.event("service_batch", size=batch.size, batched=batch.key is not None)
        if batch.size == 1:
            item = batch.items[0]
            try:
                req = item.effective_request
                result = solve(
                    req.problem,
                    alpha=req.alpha,
                    epsilon=req.epsilon,
                    max_iterations=req.max_iterations,
                    initial_allocation=req.initial_allocation,
                    engine="fast",
                    keep_allocations="last",
                )
            except ReproError as exc:
                # An unstable problem or an infeasible warm donor fails
                # this request alone, as a faulted row does in a group.
                self._reject(
                    item,
                    REJECT_SOLVER_ERROR,
                    f"{type(exc).__name__}: {exc}",
                    latency_s=self.clock() - item.submitted_at,
                )
                return 1
            self._finish_solved(item, result, batch_size=1)
            return 1
        return self._dispatch_continuous(batch)

    def _dispatch_continuous(self, batch: MicroBatch) -> int:
        """Row-staggered dispatch: the whole group feeds one
        :class:`~repro.parallel.ContinuousBatcher` whose slot capacity is
        ``max_batch``; converged rows retire each step and freed slots
        refill — first from the group's own overflow, then from
        compatible requests claimed off the pending queue mid-flight.
        """
        key = batch.key
        driver = ContinuousBatcher(
            capacity=min(self.batcher.max_batch, batch.size),
            registry=self.registry,
        )
        # batch_size reported per row = how many requests were in the
        # group when this row joined it ("how many shared my dispatch"
        # for whole-group joins).
        sizes: Dict[int, int] = {}

        def submit(item: PendingSolve, size: int) -> None:
            # The start is the warm donor when there is one; the batcher
            # checks it at admission and fails an infeasible one alone.
            sizes[id(item)] = size
            req = item.request
            driver.submit(
                req.problem,
                alpha=req.alpha,
                epsilon=req.epsilon,
                max_iterations=req.max_iterations,
                x0=(
                    req.initial_allocation
                    if item.warm_allocation is None
                    else item.warm_allocation
                ),
                tag=item,
            )

        for item in batch.items:
            submit(item, batch.size)
        resolved = 0
        while not driver.idle():
            for row in driver.step():
                self._finish_row(row.tag, row, batch_size=sizes[id(row.tag)])
                resolved += 1
            free = driver.capacity - driver.occupancy - driver.backlog
            if free <= 0:
                continue
            claimed, preflight_resolved = self._claim_compatible(key, free)
            resolved += preflight_resolved
            for item in claimed:
                submit(item, driver.occupancy + driver.backlog + 1)
                if self.registry is not None:
                    self.registry.counter_inc("service.batch_rows")
                    self.registry.counter_inc("service.joined_inflight")
        return resolved

    def _claim_compatible(self, key: ContinuousBatchKey, limit: int) -> tuple:
        """Pull up to ``limit`` pending requests compatible with ``key``
        off the queue (preserving the order of what stays), then
        preflight them.  Returns ``(to_solve, resolved_count)``.  The
        unlocked emptiness probe keeps the per-step overhead of the sync
        path at one attribute read."""
        if not self._pending:
            return [], 0
        with self._cond:
            keep: List[PendingSolve] = []
            take: List[PendingSolve] = []
            for item in self._pending:
                if len(take) < limit and continuous_batch_key(item.request) == key:
                    take.append(item)
                else:
                    keep.append(item)
            self._pending = keep
            self._gauge_depth_locked()
        if not take:
            return [], 0
        self._held.extend(take)
        return self._preflight(take)

    def _finish_row(self, item: PendingSolve, row, *, batch_size: int) -> None:
        """Resolve one retired continuous row — a normal completion, or a
        per-row fault (the row's batch-mates were unaffected)."""
        if row.ok:
            self._finish_solved(item, row, batch_size=batch_size)
            return
        self._reject(
            item,
            REJECT_SOLVER_ERROR,
            row.error,
            latency_s=self.clock() - item.submitted_at,
        )

    def _finish_solved(self, item: PendingSolve, result, *, batch_size: int) -> None:
        # A warm start changed the start, so the stored request's key too.
        key = item.key if item.warm_allocation is None else None
        self.cache.store(item.effective_request, result, key)
        if item.warm_donor_fp is not None:
            # Credit the donor with the iterations its warm start saved
            # (its own solve cost stands in for the cold solve avoided).
            self.cache.credit_warm(
                item.warm_donor_fp, item.warm_donor_iterations - result.iterations
            )
        if self.lookaside is not None and result.converged:
            self.lookaside.publish(item.effective_request, result)
        if self.registry is not None:
            self.registry.counter_inc("service.solved")
            self.registry.counter_inc("service.solver_iterations", result.iterations)
        self._complete(
            item,
            allocation=result.allocation,
            cost=result.cost,
            iterations=result.iterations,
            converged=result.converged,
            cache=item.cache_status,
            batch_size=batch_size,
        )

    # -- resolution ------------------------------------------------------------

    def _complete(self, item: PendingSolve, **fields) -> None:
        latency = self.clock() - item.submitted_at
        response = SolveResponse(
            request_id=item.request_id,
            status="ok",
            latency_s=latency,
            **fields,
        )
        self._latencies.append(latency)
        if self.registry is not None:
            self.registry.observe("service.latency_seconds", latency)
        item._resolve(response)

    def _reject(
        self, item: PendingSolve, reason: str, detail: str, *, latency_s: float
    ) -> None:
        if self.registry is not None:
            self.registry.counter_inc("service.rejected")
            self.registry.counter_inc(f"service.rejected.{reason}")
            self.registry.event("service_reject", reason=reason)
        item._resolve(SolveResponse.rejection(item, reason, detail, latency_s=latency_s))

    # -- observability ---------------------------------------------------------

    def _gauge_depth_locked(self) -> None:
        if self.registry is not None:
            self.registry.gauge_set("service.queue_depth", float(len(self._pending)))

    def latency_percentiles(self) -> Dict[str, float]:
        """p50/p95/p99 over the most recent (<= 4096) response latencies."""
        if not self._latencies:
            return {"p50": float("nan"), "p95": float("nan"), "p99": float("nan")}
        arr = np.array(self._latencies)
        p50, p95, p99 = np.percentile(arr, [50, 95, 99])
        return {"p50": float(p50), "p95": float(p95), "p99": float(p99)}

    def stats(self) -> Dict[str, object]:
        """One-call operational snapshot (queue, cache, latency)."""
        with self._cond:
            depth = len(self._pending)
        return {
            "queue_depth": depth,
            "cache_size": len(self.cache),
            "latency": self.latency_percentiles(),
            "counters": dict(self.registry.counters) if self.registry else {},
        }

    # -- threaded mode ---------------------------------------------------------

    def start(self) -> "AllocationService":
        """Spawn the dispatcher thread (idempotent); returns ``self``."""
        if self._thread is not None:
            return self
        self._stopping = False
        self._thread = threading.Thread(
            target=self._serve_loop, name="allocation-service", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, *, drain: bool = True) -> None:
        """Stop the dispatcher thread.

        ``drain=True`` pumps whatever is still queued before returning;
        ``drain=False`` rejects it with structured shutdown errors.
        """
        thread = self._thread
        if thread is not None:
            with self._cond:
                self._stopping = True
                self._cond.notify_all()
            thread.join()
            self._thread = None
            self._stopping = False
        if drain:
            while self.pump():
                pass
            return
        with self._cond:
            leftovers = self._pending
            self._pending = []
            self._gauge_depth_locked()
        now = self.clock()
        for item in leftovers:
            self._reject(
                item,
                REJECT_SHUTDOWN,
                "service stopped before dispatch",
                latency_s=now - item.submitted_at,
            )

    def _serve_loop(self) -> None:
        while True:
            with self._cond:
                while not self._pending and not self._stopping:
                    self._cond.wait()
                if self._stopping:
                    return
            try:
                self.pump()
            except Exception as exc:  # noqa: BLE001 - the dispatcher outlives any request
                detail = f"dispatch failed: {type(exc).__name__}: {exc}"
                for item in self._held:
                    if not item.done():
                        self._reject(
                            item, REJECT_SOLVER_ERROR, detail,
                            latency_s=self.clock() - item.submitted_at,
                        )
                self._held = []

    def __enter__(self) -> "AllocationService":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def __repr__(self) -> str:
        mode = "threaded" if self._thread is not None else "sync"
        with self._cond:
            depth = len(self._pending)
        return (
            f"AllocationService({mode}, max_batch={self.batcher.max_batch}, "
            f"pending={depth}, cache={len(self.cache)})"
        )
