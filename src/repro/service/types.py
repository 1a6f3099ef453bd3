"""Request and response shapes of the allocation service.

A :class:`SolveRequest` is one FAP instance plus the solver options the
service supports: a *fixed* stepsize, the gradient-spread tolerance, an
iteration budget, and a starting allocation.  That subset is deliberate —
it is exactly the configuration for which the batched lockstep kernel,
the fused fast path, and the reference loop produce **bit-for-bit
identical** iterates, so the service can route a request through any
dispatch path without changing its answer.

A :class:`SolveResponse` is either a completed solve (with the cache
disposition that produced it) or a structured rejection carrying one of
the ``REJECT_*`` reason codes — admission control answers *something*
for every request; it never just drops one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.core.initials import uniform_allocation
from repro.core.model import FileAllocationProblem
from repro.exceptions import ConfigurationError
from repro.utils.validation import check_positive

#: Admission rejected the request because the bounded queue was full.
REJECT_QUEUE_FULL = "queue_full"
#: Admission shed the request: the queue was over the shedding threshold
#: and the request's priority did not clear the bar.
REJECT_LOAD_SHED = "load_shed"
#: The request's deadline passed while it waited in the queue.
REJECT_DEADLINE = "deadline_exceeded"
#: The service was shut down with the request still queued.
REJECT_SHUTDOWN = "shutdown"
#: The solver failed on this request alone (e.g. M/M/1 instability at the
#: starting allocation) — its batch-mates were unaffected.
REJECT_SOLVER_ERROR = "solver_error"

_request_ids = itertools.count(1)


def _next_request_id() -> str:
    return f"req-{next(_request_ids)}"


@dataclass
class SolveRequest:
    """One unit of service work: a problem plus solver options.

    Parameters
    ----------
    problem:
        The :class:`~repro.core.model.FileAllocationProblem` to solve.
    alpha:
        Fixed stepsize (the service supports only fixed stepsizes; they
        are what keep batched and singleton dispatch bit-identical).
    epsilon:
        Gradient-spread convergence tolerance.
    max_iterations:
        Per-request iteration budget.
    initial_allocation:
        Starting iterate; default uniform.  Validated against the problem.
    request_id:
        Caller-chosen id echoed on the response; auto-assigned if empty.
    timeout_s:
        Maximum time the request may wait in the queue before dispatch;
        expired requests are rejected with :data:`REJECT_DEADLINE`.
        ``None`` uses the admission controller's default.
    priority:
        Load-shedding class.  Under shedding (queue depth at or above the
        controller's threshold) only requests with ``priority > 0`` are
        still admitted.
    """

    problem: FileAllocationProblem
    alpha: float = 0.3
    epsilon: float = 1e-3
    max_iterations: int = 10_000
    initial_allocation: Optional[np.ndarray] = None
    request_id: str = ""
    timeout_s: Optional[float] = None
    priority: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.problem, FileAllocationProblem):
            raise ConfigurationError(
                f"problem must be a FileAllocationProblem, got {type(self.problem).__name__}"
            )
        self.alpha = check_positive(float(self.alpha), "alpha")
        self.epsilon = check_positive(float(self.epsilon), "epsilon")
        if int(self.max_iterations) < 1:
            raise ConfigurationError("max_iterations must be >= 1")
        self.max_iterations = int(self.max_iterations)
        if self.initial_allocation is None:
            self.initial_allocation = uniform_allocation(self.problem.n)
        else:
            self.initial_allocation = self.problem.check_feasible(
                self.initial_allocation
            ).copy()
        if not self.request_id:
            self.request_id = _next_request_id()
        if self.timeout_s is not None:
            self.timeout_s = check_positive(float(self.timeout_s), "timeout_s")
        self.priority = int(self.priority)

    def __repr__(self) -> str:
        return (
            f"SolveRequest(id={self.request_id!r}, n={self.problem.n}, "
            f"alpha={self.alpha:g}, epsilon={self.epsilon:g})"
        )


@dataclass
class SolveResponse:
    """The service's answer to one request — a solve or a rejection.

    ``status`` is ``"ok"`` or ``"rejected"``.  For solves, ``cache``
    records the cache disposition (``"hit"`` — returned straight from the
    cache, no solver run; ``"warm"`` — solved, but started from a nearby
    cached allocation; ``"lookaside"`` — solved, warm-started from a
    donor another shard published to the cross-shard lookaside tier;
    ``"miss"`` — solved cold) and ``batch_size`` how
    many requests shared the dispatch (1 = singleton fast path).  For
    rejections, ``reason`` is one of the ``REJECT_*`` codes and
    ``detail`` a one-line human explanation.
    """

    request_id: str
    status: str
    allocation: Optional[np.ndarray] = None
    cost: Optional[float] = None
    iterations: int = 0
    converged: bool = False
    cache: str = "miss"
    batch_size: int = 0
    latency_s: float = 0.0
    reason: Optional[str] = None
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @classmethod
    def rejection(
        cls, request: SolveRequest, reason: str, detail: str, *, latency_s: float = 0.0
    ) -> "SolveResponse":
        """A rejection of ``request`` (of which only ``request_id`` is
        read, so a :class:`~repro.service.service.PendingSolve` will do)."""
        return cls(
            request_id=request.request_id,
            status="rejected",
            reason=reason,
            detail=detail,
            latency_s=latency_s,
        )

    def as_dict(self) -> Dict[str, object]:
        """Plain-JSON view (the shape ``repro-fap serve`` writes)."""
        out: Dict[str, object] = {
            "id": self.request_id,
            "status": self.status,
        }
        if self.ok:
            out.update(
                allocation=[float(v) for v in self.allocation],
                cost=float(self.cost),
                iterations=int(self.iterations),
                converged=bool(self.converged),
                cache=self.cache,
                batch_size=int(self.batch_size),
                latency_s=float(self.latency_s),
            )
        else:
            out.update(reason=self.reason, detail=self.detail)
        return out

    def __repr__(self) -> str:
        if self.ok:
            return (
                f"SolveResponse(id={self.request_id!r}, ok, cache={self.cache}, "
                f"iterations={self.iterations}, cost={self.cost:.6g})"
            )
        return f"SolveResponse(id={self.request_id!r}, rejected: {self.reason})"


@dataclass
class AdmissionDecision:
    """Outcome of one admission check: admit, or reject with a reason."""

    admit: bool
    reason: Optional[str] = None
    detail: str = ""

    #: Shared "yes" — admission produces no per-request state on success.
    ACCEPT = None  # replaced below; here for the docstring's sake

    def __bool__(self) -> bool:
        return self.admit


AdmissionDecision.ACCEPT = AdmissionDecision(admit=True)


@dataclass
class CacheLookup:
    """Outcome of one cache probe.

    ``status`` is ``"hit"`` (exact fingerprint match — ``entry`` holds the
    finished solve), ``"warm"`` (``entry`` is the nearest structural
    neighbor, usable as a starting iterate), or ``"miss"``.  ``demoted``
    marks a warm result that *would* have been an exact hit, but whose
    entry was solved under a traffic-estimate epoch that has since
    drifted (see :class:`~repro.service.drift.DriftTracker`) — the entry
    is served as a donor and re-solved instead of answered verbatim.
    """

    status: str
    entry: Optional["CacheEntry"] = None  # noqa: F821 - defined in cache.py
    distance: float = field(default=float("inf"))
    demoted: bool = False
