"""Continuous batching: retire converged rows, refill the batch mid-flight.

:class:`ContinuousBatcher` is the library's one batched driver.  It
holds up to C (= capacity) rows in flight plus a FIFO queue of pending
problems; every :meth:`~ContinuousBatcher.step` advances all rows in
flight by exactly one Kurose–Simha iteration, **retires** rows that
converged (or exhausted their budget), and **admits** queued problems
into the freed slots without disturbing the rows still in flight.
Occupancy stays near C for as long as the queue has work, so the
per-step Python/NumPy dispatch overhead — the cost the batched kernel
exists to amortize — is spread over a full batch at every iteration, not
just the first few.  A lockstep sweep is the special case with every row
admitted at step 0 and nothing queued; that is what
:class:`~repro.parallel.batched.BatchedAllocator` runs.

The rows in flight stay packed in slot order as ``(R, N)`` arrays, so a
step reads and rebinds whole arrays and never gathers or scatters; only
a retirement or an admission repacks them.

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
--warm-start`` possible.
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
    _Rows,
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


@dataclass
class _Submission:
    """One queued problem waiting for a free slot."""

    problem: FileAllocationProblem
    alpha: float
    epsilon: float
    max_iterations: int
    x0: Optional[np.ndarray]
    tag: Any


class _Flight:
    """Rows holding slots, packed in ascending slot order: their iterates
    and everything else a row-step reads."""

    __slots__ = ("slots", "tags", "rows", "x", "x_next", "alpha", "eps", "start", "deadline",
                 "soonest")

    def __init__(self, slots, tags, rows, x, alpha, eps, start, deadline, soonest=None):
        self.slots = slots  #: ``(R,)`` slot ids, ascending.
        self.tags = tags  #: The R callers' tags.
        self.rows = rows  #: Per-row constants.
        self.x = x  #: ``(R, N)`` current iterates.
        self.x_next = None  #: ``(R, N)`` next iterates, once evaluated.
        self.alpha = alpha  #: ``(R, 1)`` stepsizes.
        self.eps = eps  #: ``(R,)`` tolerances.
        self.start = start  #: ``(R,)`` the batcher's step count at admission.
        self.deadline = deadline  #: ``(R,)`` the step count that spends the budget.
        #: No row is budget-capped before this step count (a lower bound).
        self.soonest = int(deadline.min()) if soonest is None else soonest

    def take(self, idx: np.ndarray) -> "_Flight":
        """The rows at positions ``idx`` (an index array)."""
        out = _Flight(
            self.slots[idx], [self.tags[i] for i in idx.tolist()],
            self.rows.take(idx), self.x[idx], self.alpha[idx], self.eps[idx],
            self.start[idx], self.deadline[idx], self.soonest,
        )
        if self.x_next is not None:
            out.x_next = self.x_next[idx]
        return out

    def join(self, other: "_Flight") -> "_Flight":
        """Both flights' evaluated rows, in slot order."""
        def cat(a, b):
            return np.concatenate((a, b))

        out = _Flight(
            cat(self.slots, other.slots), self.tags + other.tags,
            self.rows.join(other.rows), cat(self.x, other.x),
            cat(self.alpha, other.alpha), cat(self.eps, other.eps),
            cat(self.start, other.start), cat(self.deadline, other.deadline),
            min(self.soonest, other.soonest),
        )
        out.x_next = cat(self.x_next, other.x_next)
        if other.slots[0] < self.slots[-1]:
            out = out.take(np.argsort(out.slots, kind="stable"))
        return out


class ContinuousBatcher:
    """Row-staggered lockstep driver: a fixed-capacity batch of rows in
    flight over a pending queue.

    Parameters
    ----------
    capacity:
        Number of concurrent rows (slots).  Submissions beyond the free
        slots queue FIFO and are admitted as rows retire.
    epsilon / max_iterations:
        Defaults for submissions that do not carry their own.  These are
        *per-row*: rows with different tolerances and budgets share
        slots freely.
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
        self._queue: deque = deque()
        #: A whole batch queued ready-stacked by :meth:`_submit_batch`.
        self._staged: Optional[_Flight] = None
        self._completed: List[RowResult] = []
        #: The rows in flight (``None`` while there are none).
        self._flight: Optional[_Flight] = None
        self._occupied = np.zeros(self.capacity, dtype=bool)
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

    def _submit_batch(
        self, batch: BatchedProblem, x: np.ndarray, alpha: np.ndarray
    ) -> None:
        """Queue a whole batch, stacked and checked already, as rows tagged
        ``0..B-1`` for slots ``0..B-1`` of this fresh batcher of capacity
        B (how :class:`~repro.parallel.batched.BatchedAllocator` submits);
        the next :meth:`step` admits it like any submission."""
        b = batch.batch_size
        self.n = batch.n
        start = np.full(b, self._steps)
        self._staged = _Flight(
            np.arange(b), list(range(b)), batch._rows(), x, alpha[:, None],
            np.full(b, self.default_epsilon), start,
            start + self.default_max_iterations,
        )

    # -- introspection ---------------------------------------------------------

    @property
    def occupancy(self) -> int:
        """Rows currently in flight."""
        return 0 if self._flight is None else len(self._flight.tags)

    @property
    def backlog(self) -> int:
        """Submissions queued but not yet admitted."""
        return len(self._queue) + (0 if self._staged is None else len(self._staged.tags))

    def idle(self) -> bool:
        """Nothing in flight, nothing queued, nothing left to collect."""
        return (
            self._flight is None and not self._queue and self._staged is None
            and not self._completed
        )

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

    def _tally(self, results: List[RowResult], *, faults: bool = False) -> None:
        """Hand retired (or failed) rows back through :meth:`step`."""
        self._completed.extend(results)
        self._retired += len(results)
        if faults:
            self._faults += len(results)
        if self.registry is not None:
            if faults:
                self.registry.counter_inc("continuous.faults", len(results))
            self.registry.counter_inc("continuous.retired", len(results))

    def _retire(
        self,
        f: _Flight,
        idx: np.ndarray,
        cost: Optional[np.ndarray] = None,
        *,
        converged: bool = False,
        error: Optional[str] = None,
    ) -> None:
        """Retire rows ``idx`` of ``f``, in that order, at their current
        iterates (``cost`` holds their costs), freeing their slots."""
        self._occupied[f.slots[idx]] = False
        its = (self._steps - f.start[idx]).tolist()
        if error is None:
            allocations, costs = list(f.x[idx]), cost.tolist()
        else:
            allocations = costs = [None] * len(its)
        self._tally(
            [
                RowResult(
                    tag=f.tags[i], allocation=allocation, cost=c,
                    iterations=n, converged=converged, error=error,
                )
                for i, allocation, c, n in zip(idx.tolist(), allocations, costs, its)
            ],
            faults=error is not None,
        )

    def _take_queued(self, free: np.ndarray) -> Optional[_Flight]:
        """Pop one queued submission per free slot (ascending) and stack
        those that can start.  A submission that cannot (infeasible
        start, wrong size, not plain M/M/1) fails alone, and its slot
        waits for the next round.  ``None`` when none could start."""
        if self.n is None:
            self.n = self._queue[0].problem.n
        n = self.n
        taken = []  # (slot, submission, start, service rates)
        for slot in free.tolist():
            if not self._queue:
                break
            sub = self._queue.popleft()
            try:
                x0 = np.full(n, 1.0 / n) if sub.x0 is None else sub.problem.check_feasible(sub.x0)
                if sub.problem.n != n:
                    raise ConfigurationError(
                        f"slot problems must have n={n}, got n={sub.problem.n}"
                    )
                taken.append((slot, sub, x0, sub.problem.mm1_service_rates()))
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
                self._tally([RowResult(sub.tag, None, None, 0, False, error)], faults=True)
        if not taken:
            return None
        slots, subs, starts, mus = zip(*taken)
        start = np.full(len(subs), self._steps)
        return _Flight(
            np.array(slots),
            [sub.tag for sub in subs],
            _Rows.stack([sub.problem for sub in subs], np.stack(mus)),
            np.stack(starts),
            np.array([[sub.alpha] for sub in subs]),
            np.array([sub.epsilon for sub in subs]),
            start,
            start + np.array([sub.max_iterations for sub in subs]),
        )

    def _admit(self) -> None:
        """Move queued work into free slots.  Rows already converged at
        their start (or unstable there) retire at once, freeing their
        slots for the next queued submissions — hence the loop."""
        if self._staged is not None:
            group, self._staged = self._staged, None
            self._enter(group)
        while self._queue:
            free = np.flatnonzero(~self._occupied)
            if not free.size:
                return
            group = self._take_queued(free)
            if group is not None:
                self._enter(group)

    def _enter(self, group: _Flight) -> None:
        """Seat an admitted group: evaluate its rows at their starts (a
        row already inside tolerance retires with zero iterations) and
        add the rest to the flight."""
        self._occupied[group.slots] = True
        self._admitted += len(group.tags)
        if self.registry is not None:
            self.registry.counter_inc("continuous.admitted", len(group.tags))
        group = self._advance(
            group,
            "M/M/1 unstable at the starting allocation: "
            "arrival rate >= service rate",
        )
        if group is not None:
            self._flight = group if self._flight is None else self._flight.join(group)

    def _advance(self, f: _Flight, unstable: str) -> Optional[_Flight]:
        """One row-step's evaluation of ``f`` at its current iterates: fail
        unstable rows alone, form every other row's next iterate, and
        retire the rows that converged or spent their budget, in slot
        order (converged rows first).  Returns the rows still in flight.

        One ``mu - lambda x`` per row gives the fault mask, the gradient,
        and — only for retiring rows — the cost; every row is
        bit-identical to its serial solve.
        """
        arrivals, gap = f.rows.gaps(f.x)
        if not _stable(gap):
            ok = _stable_rows(gap)
            self._retire(f, (~ok).nonzero()[0], error=unstable)
            if not ok.any():
                return None
            keep = ok.nonzero()[0]
            f, arrivals, gap = f.take(keep), arrivals[keep], gap[keep]
        g, t = f.rows.gradient(arrivals, gap)
        _, f.x_next, mask = _scaled_step(f.x, g, f.alpha)
        done = converged = _masked_spread(g, mask) < f.eps
        if self._steps >= f.soonest:
            done = converged | (self._steps >= f.deadline)
        if not done.any():
            return f
        idx = done.nonzero()[0]
        cost = f.rows.take(idx).cost(f.x[idx], t[idx])
        ok = converged[idx]
        if ok.all():
            self._retire(f, idx, cost, converged=True)
        else:
            self._retire(f, idx[ok], cost[ok], converged=True)
            self._retire(f, idx[~ok], cost[~ok])
        return None if len(idx) == len(f.tags) else f.take((~done).nonzero()[0])

    # -- the drive loop --------------------------------------------------------

    def step(self) -> List[RowResult]:
        """Advance the batch by one lockstep iteration.

        Order of operations: admit queued work into free slots (the new
        rows' iteration-0 evaluation happens here), then apply the
        pending step of every row in flight, re-evaluate, and retire rows
        that converged or exhausted their budget.  Returns the rows
        retired by this call (admission-time instant retirements
        included), in deterministic slot order.
        """
        if self._queue or self._staged is not None:
            self._admit()
        f = self._flight
        if f is not None:
            f.x = _checked_update(
                f.x, f.x_next, validate=self.validate, registry=self.registry
            )
            live = len(f.tags)
            self._steps += 1
            self._row_steps += live
            if self.registry is not None:
                self.registry.counter_inc("continuous.steps")
                self.registry.counter_inc("continuous.row_steps", live)
                self.registry.gauge_set("continuous.occupancy", float(live))
                self.registry.gauge_set("continuous.capacity", float(self.capacity))
            self._flight = self._advance(
                f, "M/M/1 unstable in flight: arrival rate >= service rate"
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
