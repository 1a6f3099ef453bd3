"""The decentralized file allocation algorithm (§5).

Each iteration of :class:`DecentralizedAllocator` performs what, deployed
on a real network, would be one local-compute-plus-broadcast round:

1. every node evaluates its marginal utility ``dU/dx_i`` at the current
   allocation (local: it needs only its own ``x_i``, ``C_i``, ``k`` and
   the network access rate);
2. the marginals are averaged (by broadcast or a designated central agent —
   :mod:`repro.distributed` simulates both protocols and message counts);
3. the allocation moves toward above-average marginal utility,
   ``dx_i = alpha (dU/dx_i - avg_A)``, with an active-set policy keeping
   every share non-negative.

Stopping: marginal utilities agree within ``epsilon`` on the active set
(exactly the paper's §5.2 criterion), or a custom criterion.

The run maintains the paper's headline invariants, which are asserted (not
hoped for) at every step when ``validate=True``:

* **feasibility** — ``sum x == 1`` after every iteration (Theorem 1);
* **monotonicity** — the cost strictly decreases until convergence
  (Theorem 2) whenever the stepsize respects its bound.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence, Union

import numpy as np

from repro.core.active_set import ActiveSetPolicy, make_policy
from repro.core.initials import uniform_allocation
from repro.core.model import FileAllocationProblem
from repro.core.stepsize import StepSizePolicy, make_stepsize
from repro.core.termination import GradientSpreadCriterion, TerminationCriterion
from repro.core.trace import KEEP_ALLOCATION_MODES, IterationRecord, Trace
from repro.exceptions import ConfigurationError, ConvergenceError, StabilityError
from repro.obs.registry import MetricsRegistry, maybe_timer
from repro.utils.numeric import spread
from repro.utils.validation import check_positive


def _drift_error(old_sum: float, new_sum: float) -> Exception:
    """The error for a step that moved ``sum x`` by more than 1e-9.

    A finite drift breaks Theorem 1, which is a defect of the solver: an
    ``AssertionError``.  A non-finite sum means the step itself
    overflowed (a gradient beyond the float range): a
    :class:`~repro.exceptions.StabilityError`, the request's own fault,
    like the one evaluation raises for non-finite arrival rates."""
    message = f"sum moved from {old_sum!r} to {new_sum!r}"
    if np.isfinite(new_sum):
        return AssertionError(f"feasibility broken: {message}")
    return StabilityError(f"step left the finite range: {message}")


@dataclass
class AllocationResult:
    """Outcome of a :class:`DecentralizedAllocator` run."""

    allocation: np.ndarray
    cost: float
    utility: float
    iterations: int
    converged: bool
    trace: Trace

    def __repr__(self) -> str:
        status = "converged" if self.converged else "NOT converged"
        return (
            f"AllocationResult({status} after {self.iterations} iterations, "
            f"cost={self.cost:.6g})"
        )


class DecentralizedAllocator:
    """The §5.2 iterative algorithm over a single-copy FAP instance.

    Parameters
    ----------
    problem:
        The :class:`~repro.core.model.FileAllocationProblem` to optimize.
    alpha:
        A number (fixed stepsize, as in the paper's experiments) or any
        :class:`~repro.core.stepsize.StepSizePolicy`.
    epsilon:
        Convergence tolerance on the marginal-utility spread (the paper
        uses 1e-3 in §6).
    active_set:
        Non-negativity policy name or instance; see
        :mod:`repro.core.active_set`.  Default ``"scaled-step"``.
    termination:
        Optional custom criterion; defaults to the paper's
        gradient-spread rule at ``epsilon``.
    max_iterations:
        Iteration budget for :meth:`run`.
    validate:
        Assert feasibility after every step (cheap; on by default).
    callback:
        Optional observer invoked with each
        :class:`~repro.core.trace.IterationRecord` as it is appended —
        progress bars, live dashboards, adaptive schedulers.  Exceptions
        from the callback propagate (fail fast rather than mask bugs).
    registry:
        Optional :class:`~repro.obs.registry.MetricsRegistry`.  When
        attached, the run tallies iterations, gradient evaluations,
        active-set shrink events, clamp redistributions, and
        monotonicity violations, publishes final-cost / convergence /
        trace-memory gauges, and streams one structured ``iteration``
        event per step to any attached sinks.  Strictly observational:
        the iterate sequence is bit-for-bit identical with or without it.
    keep_allocations, sample_every:
        Trace memory policy — see :class:`~repro.core.trace.Trace`.
    """

    def __init__(
        self,
        problem: FileAllocationProblem,
        *,
        alpha: Union[float, StepSizePolicy] = 0.1,
        epsilon: float = 1e-3,
        active_set: Union[str, ActiveSetPolicy] = "scaled-step",
        termination: Optional[TerminationCriterion] = None,
        max_iterations: int = 100_000,
        validate: bool = True,
        callback=None,
        registry: Optional[MetricsRegistry] = None,
        keep_allocations: str = "all",
        sample_every: int = 100,
    ):
        self.problem = problem
        self.stepsize = make_stepsize(alpha)
        self.epsilon = check_positive(epsilon, "epsilon")
        self.active_set = make_policy(active_set)
        self.termination = termination or GradientSpreadCriterion(epsilon)
        if max_iterations < 1:
            raise ConfigurationError("max_iterations must be >= 1")
        self.max_iterations = int(max_iterations)
        self.validate = validate
        self.callback = callback
        self.registry = registry
        if keep_allocations not in KEEP_ALLOCATION_MODES:
            raise ConfigurationError(
                f"keep_allocations must be one of {KEEP_ALLOCATION_MODES}, "
                f"got {keep_allocations!r}"
            )
        if sample_every < 1:
            raise ConfigurationError("sample_every must be >= 1")
        self.keep_allocations = keep_allocations
        self.sample_every = int(sample_every)

    # -- single step (used directly by the distributed runtime) -------------

    def step(self, x: np.ndarray, iteration: int = 0) -> tuple[np.ndarray, dict]:
        """One reallocation step; returns ``(new_x, info)``.

        ``info`` carries ``alpha``, the ``active_mask``, and the gradient
        used — everything the trace records and the distributed runtime
        forwards as messages.
        """
        g = self.problem.utility_gradient(x)
        if self.registry is not None:
            self.registry.counter_inc("allocator.gradient_evals")
        alpha = self.stepsize.alpha(iteration, x, g, self.problem)
        dx, mask = self.active_set.apply(x, g, alpha)
        new_x = self._apply(x, dx)
        return new_x, {"alpha": alpha, "active_mask": mask, "gradient": g}

    def _apply(self, x: np.ndarray, dx: np.ndarray) -> np.ndarray:
        """Apply a computed step, asserting the Theorem-1 invariants.

        Non-negativity is only an invariant of the constraint-handling
        policies; the deliberate :class:`~repro.core.active_set.Unconstrained`
        policy is allowed to dip below zero.

        Round-off residue below zero (magnitude <= 1e-9) is clamped, and
        the clamped mass is *redistributed* pro-rata over the positive
        shares.  A bare ``maximum(new_x, 0)`` would inject the clamped
        mass into the total: each step passes the per-step 1e-9 check,
        but over 10^4+ iterations ``sum(x)`` drifts systematically upward
        — the feasibility (Theorem 1) invariant erodes exactly where it
        is asserted.  Redistribution keeps the step's sum exact.
        """
        new_x = x + dx
        if self.validate:
            if not abs(new_x.sum() - x.sum()) <= 1e-9:
                raise _drift_error(x.sum(), new_x.sum())
            if not getattr(self.active_set, "allows_negative", False):
                if np.any(new_x < -1e-9):
                    raise AssertionError(f"negative allocation: min={new_x.min()!r}")
                negative = new_x < 0.0
                if np.any(negative):
                    target_sum = float(new_x.sum())
                    clamped = float(-new_x[negative].sum())
                    new_x[negative] = 0.0
                    positive = new_x > 0.0
                    total = float(new_x[positive].sum())
                    if total > 0.0:
                        new_x[positive] -= clamped * (new_x[positive] / total)
                        # Pin the residual rounding error of the pro-rata
                        # subtraction onto the largest share (one ulp).
                        new_x[int(np.argmax(new_x))] -= new_x.sum() - target_sum
                    if self.registry is not None:
                        self.registry.counter_inc("allocator.clamp_events")
                        self.registry.counter_inc("allocator.clamped_mass", clamped)
        return new_x

    # -- full run ---------------------------------------------------------------

    def run(
        self,
        initial_allocation: Optional[Sequence[float]] = None,
        *,
        raise_on_failure: bool = False,
        engine: str = "reference",
    ) -> AllocationResult:
        """Iterate from ``initial_allocation`` (default: uniform) until the
        termination criterion fires or the budget is exhausted.

        ``engine`` selects the loop implementation:

        * ``"reference"`` (default) — this method's loop: one trace record,
          one registry event, and one callback invocation per iteration.
        * ``"fast"`` — on a fixed stepsize with the default active-set and
          stopping policies over pure M/M/1 nodes, the inlined loop of
          :mod:`repro.core.fastpath`: closed-form evaluation and sampled
          trace/event emission.  The iterate sequence, iteration count,
          final allocation, cost, and registry counter totals are
          bit-for-bit identical to the reference engine; trace records,
          per-iteration events, and callback invocations arrive at
          ``sample_every`` cadence instead of every step.  Every other
          configuration runs this method's loop, dense trace included.
        """
        if engine == "fast":
            from repro.core import fastpath

            if fastpath.inlines(self):
                return fastpath.run_inlined(
                    self, initial_allocation, raise_on_failure=raise_on_failure
                )
        elif engine != "reference":
            raise ConfigurationError(
                f'engine must be "reference" or "fast", got {engine!r}'
            )
        if initial_allocation is None:
            x = uniform_allocation(self.problem.n)
        else:
            x = self.problem.check_feasible(initial_allocation).copy()

        self.stepsize.reset()
        self.termination.reset()
        reg = self.registry

        # Convergence is always judged on the *prospective* step's active
        # set at the current point — exactly what each node computes from
        # one round of reports in the distributed runtime, so the two
        # implementations stop at the same iterate.
        trace = Trace(
            keep_allocations=self.keep_allocations, sample_every=self.sample_every
        )
        # Under "sampled"/"last" the trace discards most allocation
        # snapshots on the very next append — copying every iterate would
        # be pure churn.  The loop below rebinds ``x`` each step (``_apply``
        # returns a fresh array), so handing the trace the live array is
        # safe: a record either drops it or becomes its sole owner.  The
        # final record is detached with a real copy after the loop so it
        # never aliases ``result.allocation``.
        copy_records = self.keep_allocations == "all"

        def emit(record: IterationRecord) -> None:
            trace.append(record)
            if self.callback is not None:
                self.callback(record)

        with maybe_timer(reg, "allocator.run_seconds"):
            g = self.problem.utility_gradient(x)
            alpha = self.stepsize.alpha(0, x, g, self.problem)
            dx, mask = self.active_set.apply(x, g, alpha)
            cost = self.problem.cost(x)
            initial_spread = spread(g[mask])
            active_count = int(mask.sum())
            if reg is not None:
                reg.counter_inc("allocator.gradient_evals")
                reg.event(
                    "iteration",
                    i=0,
                    cost=cost,
                    spread=initial_spread,
                    active=active_count,
                )
            emit(
                IterationRecord(
                    iteration=0,
                    allocation=x.copy() if copy_records else x,
                    cost=cost,
                    utility=-cost,
                    gradient_spread=initial_spread,
                    alpha=float("nan"),
                    active_count=active_count,
                )
            )

            converged = self.termination.should_stop(0, x, g, mask, cost)
            iteration = 0
            prev_cost = cost
            prev_active = active_count
            while not converged and iteration < self.max_iterations:
                iteration += 1
                applied_alpha = alpha
                x = self._apply(x, dx)
                cost = self.problem.cost(x)
                self.stepsize.notify_cost(iteration, cost)
                g = self.problem.utility_gradient(x)
                alpha = self.stepsize.alpha(iteration, x, g, self.problem)
                dx, mask = self.active_set.apply(x, g, alpha)
                step_spread = spread(g[mask])
                active_count = int(mask.sum())
                if reg is not None:
                    reg.counter_inc("allocator.iterations")
                    reg.counter_inc("allocator.gradient_evals")
                    if active_count < prev_active:
                        reg.counter_inc("allocator.active_set_shrink")
                    if cost > prev_cost + 1e-12:
                        reg.counter_inc("allocator.monotonicity_violations")
                    reg.observe("allocator.alpha", applied_alpha)
                    reg.event(
                        "iteration",
                        i=iteration,
                        cost=cost,
                        alpha=applied_alpha,
                        spread=step_spread,
                        active=active_count,
                    )
                emit(
                    IterationRecord(
                        iteration=iteration,
                        allocation=x.copy() if copy_records else x,
                        cost=cost,
                        utility=-cost,
                        gradient_spread=step_spread,
                        alpha=applied_alpha,
                        active_count=active_count,
                    )
                )
                converged = self.termination.should_stop(iteration, x, g, mask, cost)
                prev_cost = cost
                prev_active = active_count

        last = trace.records[-1]
        if not copy_records and last.allocation is x:
            trace.records[-1] = replace(last, allocation=x.copy())
        if reg is not None:
            reg.gauge_set("allocator.final_cost", cost)
            reg.gauge_set("allocator.converged", float(converged))
            reg.gauge_set("allocator.active_count", active_count)
            reg.gauge_max("allocator.trace_peak_bytes", trace.peak_allocation_bytes)
            reg.event(
                "run_complete",
                iterations=iteration,
                cost=cost,
                converged=converged,
            )
        if not converged and raise_on_failure:
            raise ConvergenceError(
                f"no convergence in {self.max_iterations} iterations "
                f"(spread={spread(g[mask]):g}, epsilon={self.epsilon:g})",
                iterations=iteration,
            )
        return AllocationResult(
            allocation=x,
            cost=cost,
            utility=-cost,
            iterations=iteration,
            converged=converged,
            trace=trace,
        )

    def __repr__(self) -> str:
        return (
            f"DecentralizedAllocator(problem={self.problem.name!r}, "
            f"stepsize={self.stepsize!r}, active_set={self.active_set!r})"
        )


def solve(
    problem: FileAllocationProblem,
    *,
    alpha: Union[float, StepSizePolicy] = 0.1,
    epsilon: float = 1e-3,
    initial_allocation: Optional[Sequence[float]] = None,
    max_iterations: int = 100_000,
    active_set: Union[str, ActiveSetPolicy] = "scaled-step",
    termination: Optional[TerminationCriterion] = None,
    validate: bool = True,
    callback=None,
    raise_on_failure: bool = False,
    registry: Optional[MetricsRegistry] = None,
    keep_allocations: str = "all",
    sample_every: int = 100,
    engine: str = "reference",
) -> AllocationResult:
    """One-call convenience wrapper around :class:`DecentralizedAllocator`.

    Exposes the full allocator surface — earlier versions silently
    dropped ``active_set``, ``validate``, ``callback`` and
    ``raise_on_failure``, so callers of the convenience wrapper could not
    reach documented allocator features.  ``engine="fast"`` selects the
    inlined :mod:`repro.core.fastpath` loop where it applies (see
    :meth:`DecentralizedAllocator.run`).
    """
    allocator = DecentralizedAllocator(
        problem,
        alpha=alpha,
        epsilon=epsilon,
        max_iterations=max_iterations,
        active_set=active_set,
        termination=termination,
        validate=validate,
        callback=callback,
        registry=registry,
        keep_allocations=keep_allocations,
        sample_every=sample_every,
    )
    return allocator.run(
        initial_allocation, raise_on_failure=raise_on_failure, engine=engine
    )
