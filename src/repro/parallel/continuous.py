"""Continuous batching: retire converged rows, refill the batch mid-flight.

The lockstep :class:`~repro.parallel.batched.BatchedAllocator` runs a
*fixed* batch until its slowest row converges.  Converged rows freeze —
they cost no arithmetic — but their slots stay occupied, so a batch of
mixed-convergence problems spends its tail iterations nearly empty: one
straggler row advancing while 31 finished slots ride along.  Group-and-
flush dispatch inherits that shape — the next group cannot start until
the last straggler of the current one finishes.

:class:`ContinuousBatcher` removes the barrier.  It owns a ``(C, N)``
slot array (C = capacity) plus a FIFO queue of pending problems; every
:meth:`step` advances all occupied slots by exactly one Kurose–Simha
iteration, **retires** rows that converged (or exhausted their budget),
and **admits** queued problems into the freed slots without disturbing
the rows still in flight.  Occupancy stays near C for as long as the
queue has work, so the per-step Python/NumPy dispatch overhead — the
cost the batched kernel exists to amortize — is spread over a full batch
at every iteration, not just the first few.

Rows are mutually independent in every per-iteration expression (the
iteration couples the nodes of one problem, never two problems), so a
row's trajectory is **bit-for-bit identical** to solving it alone — no
matter when it was admitted, which rows it shared slots with, or how
often its neighbors were swapped out.  ``tests/test_parallel.py``
asserts this per-row parity against the serial reference engine,
including warm starts, active-set shrinkage, and budget-capped rows.

Because each row carries its *own* stepsize, tolerance, budget, and
starting iterate, the continuous driver also widens what "batchable"
means: any two equal-size pure-M/M/1 problems can share slots.  The
allocation service exploits both properties — every grouped dispatch
of :class:`repro.service.AllocationService` runs through this class.

:func:`solve_chains` layers warm-started *continuation* on top: each
chain is a sequence of problems where every link starts from its
predecessor's final allocation.  Chains advance in parallel, one per
slot, staggered — this is what makes ``repro-fap sweep --engine batched
--warm-start`` possible (lockstep dispatch could not express it).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence

import numpy as np

from repro.core.model import FileAllocationProblem
from repro.exceptions import ConfigurationError
from repro.obs.registry import MetricsRegistry
from repro.parallel.batched import (
    BatchedProblem,
    _checked_update,
    _masked_spread,
    _scaled_step,
    _stable,
    _stable_rows,
)
from repro.utils.validation import check_positive

__all__ = ["ChainLink", "ContinuousBatcher", "RowResult", "solve_chains"]


@dataclass
class RowResult:
    """Outcome of one row's flight through the continuous batcher.

    ``tag`` is whatever the caller attached at :meth:`ContinuousBatcher.submit`
    time (the service attaches its pending ticket; :func:`solve_chains`
    its ``(chain, link)`` coordinates).  ``error`` is ``None`` for a
    normal retirement — converged or budget-capped — and a one-line
    description when the row was *failed* (infeasible start, M/M/1
    instability) without disturbing its slot-mates.
    """

    tag: Any
    allocation: Optional[np.ndarray]
    cost: Optional[float]
    iterations: int
    converged: bool
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def __repr__(self) -> str:
        if self.error is not None:
            return f"RowResult(tag={self.tag!r}, error={self.error!r})"
        state = "converged" if self.converged else "budget-capped"
        return (
            f"RowResult(tag={self.tag!r}, {state}, "
            f"iterations={self.iterations}, cost={self.cost:.6g})"
        )


def _selector(ids: np.ndarray):
    """Index for the slots ``ids`` (ascending): a slice when they are
    contiguous — every slot occupied, say — so the slot arrays are read
    and written as views, with no gather or scatter."""
    first, last = int(ids[0]), int(ids[-1])
    return slice(first, last + 1) if last - first + 1 == len(ids) else ids


@dataclass
class _Submission:
    """One queued problem waiting for a free slot."""

    problem: FileAllocationProblem
    alpha: float
    epsilon: float
    max_iterations: int
    x0: Optional[np.ndarray]
    tag: Any


class ContinuousBatcher:
    """Row-staggered lockstep driver: a fixed-capacity slot array over a
    pending queue.

    Parameters
    ----------
    capacity:
        Number of concurrent rows (the ``C`` of the ``(C, N)`` state).
        Submissions beyond the free slots queue FIFO and are admitted as
        rows retire.
    epsilon / max_iterations:
        Defaults for submissions that do not carry their own.  Unlike the
        lockstep allocator these are *per-row*: rows with different
        tolerances and budgets share slots freely.
    validate:
        Assert per-row feasibility after every step (the serial
        allocator's Theorem-1 checks, including clamp redistribution).
    registry:
        Optional :class:`~repro.obs.registry.MetricsRegistry`; tallies
        ``continuous.steps`` / ``continuous.row_steps`` /
        ``continuous.admitted`` / ``continuous.retired`` /
        ``continuous.faults`` counters and the ``continuous.occupancy``
        gauge — the occupancy story the benchmarks report.

    Usage::

        cb = ContinuousBatcher(capacity=32)
        for problem, alpha, x0 in work:
            cb.submit(problem, alpha=alpha, x0=x0, tag=...)
        while not cb.idle():
            for row in cb.step():      # retired this iteration
                handle(row.tag, row)
            cb.submit(...)             # admission mid-flight is free

    Every submitted row eventually comes back exactly once, in
    deterministic order for a given submission sequence.
    """

    def __init__(
        self,
        *,
        capacity: int = 32,
        epsilon: float = 1e-3,
        max_iterations: int = 100_000,
        validate: bool = True,
        registry: Optional[MetricsRegistry] = None,
    ):
        if capacity < 1:
            raise ConfigurationError("capacity must be >= 1")
        self.capacity = int(capacity)
        self.default_epsilon = check_positive(epsilon, "epsilon")
        if max_iterations < 1:
            raise ConfigurationError("max_iterations must be >= 1")
        self.default_max_iterations = int(max_iterations)
        self.validate = validate
        self.registry = registry
        self.n: Optional[int] = None
        self._problem: Optional[BatchedProblem] = None
        self._queue: deque = deque()
        self._completed: List[RowResult] = []
        # Per-slot state, allocated lazily on the first admission (n is
        # unknown until then).  ``_occupied`` is the master mask; the
        # other arrays are only meaningful where it is True.
        self._occupied: Optional[np.ndarray] = None
        self._x: Optional[np.ndarray] = None
        #: ``x + dx``: each row's pending next iterate.
        self._x_next: Optional[np.ndarray] = None
        self._alpha: Optional[np.ndarray] = None
        self._eps: Optional[np.ndarray] = None
        self._budget: Optional[np.ndarray] = None
        self._its: Optional[np.ndarray] = None
        self._tags: List[Any] = []
        # Lifetime accounting (occupancy_stats / the benchmarks).
        self._steps = 0
        self._row_steps = 0
        self._admitted = 0
        self._retired = 0
        self._faults = 0

    # -- intake ----------------------------------------------------------------

    def submit(
        self,
        problem: FileAllocationProblem,
        *,
        alpha: float = 0.3,
        epsilon: Optional[float] = None,
        max_iterations: Optional[int] = None,
        x0: Optional[np.ndarray] = None,
        tag: Any = None,
    ) -> None:
        """Queue one problem.  Admission into a slot happens inside
        :meth:`step` (grouped with other admissions, which keeps the
        initial fill vectorized); results come back from :meth:`step`
        carrying ``tag``.

        ``alpha`` must be a fixed positive stepsize — the continuous
        driver has no shared iteration clock for a batched
        :class:`~repro.core.stepsize.DynamicStep` bound, and fixed
        per-row stepsizes are what keep every dispatch path bit-identical.
        """
        alpha = float(alpha)
        if not np.isfinite(alpha) or alpha <= 0:
            raise ConfigurationError("alpha must be positive and finite")
        eps = (
            self.default_epsilon
            if epsilon is None
            else check_positive(float(epsilon), "epsilon")
        )
        budget = (
            self.default_max_iterations if max_iterations is None else int(max_iterations)
        )
        if budget < 1:
            raise ConfigurationError("max_iterations must be >= 1")
        if self.n is not None and problem.n != self.n:
            raise ConfigurationError(
                f"all problems in a continuous batch must have n={self.n}, "
                f"got n={problem.n}"
            )
        self._queue.append(
            _Submission(
                problem=problem,
                alpha=alpha,
                epsilon=eps,
                max_iterations=budget,
                x0=None if x0 is None else np.asarray(x0, dtype=float),
                tag=tag,
            )
        )

    # -- introspection ---------------------------------------------------------

    @property
    def occupancy(self) -> int:
        """Rows currently in flight."""
        return 0 if self._occupied is None else int(self._occupied.sum())

    @property
    def backlog(self) -> int:
        """Submissions queued but not yet admitted."""
        return len(self._queue)

    def idle(self) -> bool:
        """Nothing in flight, nothing queued, nothing left to collect."""
        return not self._queue and not self._completed and self.occupancy == 0

    def occupancy_stats(self) -> dict:
        """Lifetime occupancy accounting: how full the batch has been.

        ``occupancy_mean`` is live rows averaged over steps;
        ``occupancy_ratio`` divides by capacity — the quantity that
        separates continuous from group-and-flush dispatch on
        mixed-convergence streams.
        """
        steps = max(1, self._steps)
        mean = self._row_steps / steps
        return {
            "capacity": self.capacity,
            "steps": self._steps,
            "row_steps": self._row_steps,
            "admitted": self._admitted,
            "retired": self._retired,
            "faults": self._faults,
            "occupancy_mean": mean,
            "occupancy_ratio": mean / self.capacity,
        }

    # -- slot plumbing ---------------------------------------------------------

    def _ensure_state(self, n: int) -> None:
        if self._occupied is not None:
            return
        self.n = n
        c = self.capacity
        self._occupied = np.zeros(c, dtype=bool)
        self._x = np.zeros((c, n))
        self._x_next = np.zeros((c, n))
        self._alpha = np.zeros(c)
        self._eps = np.zeros(c)
        self._budget = np.zeros(c, dtype=int)
        self._its = np.zeros(c, dtype=int)
        self._tags = [None] * c

    def _retire(
        self,
        slot: int,
        *,
        converged: bool,
        cost: Optional[float] = None,
        error: Optional[str] = None,
    ) -> None:
        if error is None:
            result = RowResult(
                tag=self._tags[slot],
                allocation=self._x[slot].copy(),
                cost=cost,
                iterations=int(self._its[slot]),
                converged=converged,
            )
        else:
            self._faults += 1
            if self.registry is not None:
                self.registry.counter_inc("continuous.faults")
            result = RowResult(
                tag=self._tags[slot],
                allocation=None,
                cost=None,
                iterations=int(self._its[slot]),
                converged=False,
                error=error,
            )
        self._occupied[slot] = False
        self._tags[slot] = None
        self._retired += 1
        self._completed.append(result)
        if self.registry is not None:
            self.registry.counter_inc("continuous.retired")

    def _fail_submission(self, sub: _Submission, error: str) -> None:
        self._faults += 1
        self._retired += 1
        if self.registry is not None:
            self.registry.counter_inc("continuous.faults")
            self.registry.counter_inc("continuous.retired")
        self._completed.append(
            RowResult(
                tag=sub.tag,
                allocation=None,
                cost=None,
                iterations=0,
                converged=False,
                error=error,
            )
        )

    def _admit(self) -> None:
        """Move queued submissions into free slots, evaluating the new
        rows as one group.  Rows already converged at their start (or
        unstable there) retire immediately, freeing the slot for the next
        queued submission — hence the outer loop."""
        while self._queue:
            if self._occupied is None:
                self._ensure_state(self._queue[0].problem.n)
                self._problem = BatchedProblem.replicate(
                    self._queue[0].problem, self.capacity
                )
            free = np.flatnonzero(~self._occupied)
            if free.size == 0:
                return
            admitted: List[int] = []
            for slot in free:
                if not self._queue:
                    break
                sub = self._queue.popleft()
                try:
                    x0 = (
                        np.full(self.n, 1.0 / self.n)
                        if sub.x0 is None
                        else sub.problem.check_feasible(sub.x0)
                    )
                    self._problem.set_row(int(slot), sub.problem)
                except Exception as exc:
                    self._fail_submission(sub, f"{type(exc).__name__}: {exc}")
                    continue
                self._x[slot] = x0
                self._alpha[slot] = sub.alpha
                self._eps[slot] = sub.epsilon
                self._budget[slot] = sub.max_iterations
                self._its[slot] = 0
                self._tags[slot] = sub.tag
                self._occupied[slot] = True
                admitted.append(int(slot))
                self._admitted += 1
                if self.registry is not None:
                    self.registry.counter_inc("continuous.admitted")
            if not admitted:
                continue
            # A row already inside tolerance at its start retires with
            # zero iterations — exactly the lockstep kernel's behavior.
            slots = np.array(admitted, dtype=int)
            self._advance(
                slots,
                _selector(slots),
                "M/M/1 unstable at the starting allocation: "
                "arrival rate >= service rate",
            )

    def _advance(self, ids: np.ndarray, sel, unstable: str) -> None:
        """One row-step's evaluation of the occupied slots ``ids`` at their
        current iterates: fail unstable rows alone, form every other
        row's next iterate, and retire the rows that converged or spent
        their budget.  ``sel`` indexes the slot arrays (see
        :func:`_selector`).

        One ``mu - lambda x`` per row gives the fault mask, the gradient,
        and — only for retiring rows — the cost; everything is
        bit-identical per row to the lockstep kernel.
        """
        rows = self._problem._rows(sel)
        x = self._x[sel]
        arrivals, gap = rows.gaps(x)
        if not _stable(gap):
            ok = _stable_rows(gap)
            for slot in ids[~ok]:
                self._retire(int(slot), converged=False, error=unstable)
            if not ok.any():
                return
            ids = sel = ids[ok]
            x, arrivals, gap, rows = x[ok], arrivals[ok], gap[ok], rows.take(ok)
        g, t = rows.gradient(arrivals, gap)
        _, x_next, mask = _scaled_step(x, g, self._alpha[sel][:, None])
        self._x_next[sel] = x_next
        converged = _masked_spread(g, mask) < self._eps[sel]
        exhausted = ~converged & (self._its[sel] >= self._budget[sel])
        done = converged | exhausted
        if not done.any():
            return
        cost = np.zeros(len(ids))
        cost[done] = rows.take(done).cost(x[done], t[done])
        for i in np.flatnonzero(converged):
            self._retire(int(ids[i]), converged=True, cost=float(cost[i]))
        for i in np.flatnonzero(exhausted):
            self._retire(int(ids[i]), converged=False, cost=float(cost[i]))

    # -- the drive loop --------------------------------------------------------

    def step(self) -> List[RowResult]:
        """Advance the batch by one lockstep iteration.

        Order of operations: admit queued work into free slots (the new
        rows' iteration-0 evaluation happens here), then apply the
        pending step of every occupied row, re-evaluate, and retire rows
        that converged or exhausted their budget.  Returns the rows
        retired by this call (admission-time instant retirements
        included), in deterministic slot order.
        """
        self._admit()
        ids = None if self._occupied is None else self._occupied.nonzero()[0]
        if ids is not None and ids.size:
            sel = _selector(ids)
            self._x[sel] = _checked_update(
                self._x[sel],
                self._x_next[sel],
                validate=self.validate,
                registry=self.registry,
            )
            self._its[sel] += 1
            self._steps += 1
            self._row_steps += int(ids.size)
            if self.registry is not None:
                self.registry.counter_inc("continuous.steps")
                self.registry.counter_inc("continuous.row_steps", int(ids.size))
                self.registry.gauge_set("continuous.occupancy", float(ids.size))
                self.registry.gauge_set("continuous.capacity", float(self.capacity))
            self._advance(
                ids, sel, "M/M/1 unstable in flight: arrival rate >= service rate"
            )
        completed, self._completed = self._completed, []
        return completed

    def drain(self) -> List[RowResult]:
        """Step until nothing is queued or in flight; returns every
        result produced along the way (completion order)."""
        out: List[RowResult] = []
        while not self.idle():
            out.extend(self.step())
        return out

    def __repr__(self) -> str:
        return (
            f"ContinuousBatcher(capacity={self.capacity}, "
            f"occupancy={self.occupancy}, backlog={self.backlog})"
        )


@dataclass
class ChainLink:
    """One problem in a warm-start chain.

    ``x0`` is the starting iterate used when this link *opens* a chain
    (or when its predecessor failed); interior links start from their
    predecessor's final allocation, converged or not — exactly the
    contract of the sweep executor's ``warm_start`` continuation.
    """

    problem: FileAllocationProblem
    alpha: float = 0.3
    epsilon: Optional[float] = None
    max_iterations: Optional[int] = None
    x0: Optional[np.ndarray] = field(default=None)


def solve_chains(
    chains: Sequence[Sequence[ChainLink]],
    *,
    capacity: Optional[int] = None,
    epsilon: float = 1e-3,
    max_iterations: int = 100_000,
    validate: bool = True,
    registry: Optional[MetricsRegistry] = None,
) -> List[List[RowResult]]:
    """Solve warm-start chains concurrently, one slot per chain.

    Each chain is a sequence of :class:`ChainLink`; link ``j+1`` starts
    from link ``j``'s final allocation (its own ``x0`` when the
    predecessor failed or sizes mismatch).  Chains advance *staggered*:
    the moment one chain's link retires, its successor is admitted into
    the freed slot while the other chains keep iterating — the
    row-staggered form of the sweep executor's warm-started continuation,
    and what ``repro-fap sweep --engine batched --warm-start`` runs.

    With a single chain the result sequence is bit-for-bit the serial
    warm-started sweep (same solutions, same iteration counts); multiple
    chains trade that exact equivalence for parallelism — each chain is
    still internally exact, but chain heads start cold.

    Returns one list of :class:`RowResult` per chain, in link order.
    """
    chains = [list(chain) for chain in chains]
    live = [c for c in chains if c]
    if capacity is None:
        capacity = max(1, len(live))
    batcher = ContinuousBatcher(
        capacity=capacity,
        epsilon=epsilon,
        max_iterations=max_iterations,
        validate=validate,
        registry=registry,
    )
    results: List[List[Optional[RowResult]]] = [[None] * len(c) for c in chains]

    def _submit(ci: int, li: int, x0: Optional[np.ndarray]) -> None:
        link = chains[ci][li]
        batcher.submit(
            link.problem,
            alpha=link.alpha,
            epsilon=link.epsilon,
            max_iterations=link.max_iterations,
            x0=link.x0 if x0 is None else x0,
            tag=(ci, li),
        )

    for ci, chain in enumerate(chains):
        if chain:
            _submit(ci, 0, None)
    while not batcher.idle():
        for row in batcher.step():
            ci, li = row.tag
            results[ci][li] = row
            if li + 1 < len(chains[ci]):
                nxt = chains[ci][li + 1].problem
                warm = row.allocation
                if warm is None or len(warm) != nxt.n:
                    warm = None  # failed or resized predecessor: start cold
                _submit(ci, li + 1, warm)
    return [list(r) for r in results]
