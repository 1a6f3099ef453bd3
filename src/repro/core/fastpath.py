"""The inlined serial fast path: the §5.2 loop without the Python tax.

The reference :meth:`~repro.core.algorithm.DecentralizedAllocator.run`
loop is written for observability: it evaluates the cost and the gradient
separately (each a per-node Python loop over the delay models), builds
an :class:`~repro.core.trace.IterationRecord` with a fresh ``x.copy()``
every step, and streams one registry event per iteration.  For the
paper's §6 workloads — thousands of gradient iterations to ε=1e-3 — that
bookkeeping dominates the arithmetic.

This module runs the *same* iteration for exactly one configuration,
the one every solver caller in the library uses: :class:`FixedStep`,
:class:`ScaledStep`, :class:`GradientSpreadCriterion`, and a pure-M/M/1
problem (:func:`inlines` is the test).  ``run(engine="fast")`` on any
other configuration runs the reference loop itself.  The inlined loop:

* computes the M/M/1 derivatives as closed-form array expressions, with
  no policy object called per step;
* reproduces the reference step pipeline — and falls back to the
  allocator's own :class:`~repro.core.active_set.ScaledStep` ``apply``
  and ``_apply`` clamp redistribution the moment a boundary is in play —
  so the iterate sequence is **bit-for-bit identical** to the reference
  loop (property-tested in ``tests/test_fastpath.py``);
* emits sampled trace records: iteration 0, every ``sample_every``-th
  iteration, and the final iterate, instead of every step.  A registry,
  when attached, receives events at the same sampled cadence while its
  counters (iterations, gradient evals, shrink/monotonicity tallies) and
  final gauges stay exactly the reference totals.  The callback, when
  set, fires on the sampled records only.

``AllocationResult.iterations / allocation / cost / converged`` are
bit-identical to the reference engine; only the trace density differs.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.active_set import ScaledStep
from repro.core.initials import uniform_allocation
from repro.core.stepsize import FixedStep
from repro.core.termination import GradientSpreadCriterion
from repro.core.trace import IterationRecord, Trace
from repro.exceptions import ConvergenceError
from repro.obs.registry import maybe_timer

__all__ = ["inlines", "run_inlined"]


def inlines(allocator) -> bool:
    """Whether :func:`run_inlined` runs ``allocator``'s configuration:
    exactly :class:`FixedStep`, :class:`ScaledStep` and
    :class:`GradientSpreadCriterion` (subclasses may override anything)
    on a problem whose every node is a plain M/M/1 queue."""
    return (
        type(allocator.stepsize) is FixedStep
        and type(allocator.active_set) is ScaledStep
        and type(allocator.termination) is GradientSpreadCriterion
        and getattr(allocator.problem, "_mm1_mu", None) is not None
    )


def run_inlined(
    allocator,
    initial_allocation: Optional[Sequence[float]] = None,
    *,
    raise_on_failure: bool = False,
):
    """Run ``allocator`` (a :class:`DecentralizedAllocator` for which
    :func:`inlines` holds) on the inlined loop; returns the
    :class:`AllocationResult` the reference engine would, with a sampled
    trace.

    Under those types one iteration is ~19 vectorized numpy calls and
    zero Python-level policy dispatch, yet every float is produced by the
    *same expression shapes* as the reference path, so the iterate
    sequence stays bit-for-bit identical:

    * the step works on the cost gradient ``cg`` directly instead of
      materializing ``g = -cg``: IEEE-754 rounding is sign-symmetric, so
      ``mean(-cg) == -mean(cg)`` and ``fl((-cg_i) - (-m)) == fl(m - cg_i)``
      — the negation never needs to happen;
    * the cost is evaluated lazily — only for sampled trace records, the
      final iterate, or every iteration when a registry is attached
      (``FixedStep`` does not override the no-op ``notify_cost`` hook,
      and neither default policy has state to reset);
    * the boundary machinery is *checked*, not run: while ``x.min()``
      stays off the boundary and ``x + dx`` stays non-negative (the
      overwhelmingly common case), :class:`ScaledStep`'s pin loop,
      uniform scaling, and overshoot guard are all provably no-ops and
      the feasibility clamp in ``_apply`` cannot fire.  The moment either
      check trips, the iteration falls back to the real policy objects
      for that step.
    """
    from repro.core.algorithm import AllocationResult, _drift_error

    problem = allocator.problem
    if initial_allocation is None:
        x = uniform_allocation(problem.n)
    else:
        x = problem.check_feasible(initial_allocation).copy()
    active_set = allocator.active_set
    reg = allocator.registry
    callback = allocator.callback
    sample_every = allocator.sample_every
    validate = allocator.validate
    max_iterations = allocator.max_iterations
    epsilon = allocator.termination.epsilon
    zero_tol = active_set.zero_tol
    alpha = allocator.stepsize.value

    mu = problem._mm1_mu
    lam = problem.total_rate
    k = problem.k
    access = problem.access_cost
    n = problem.n
    all_mask = np.ones(n, dtype=bool)
    need_cost = reg is not None

    trace = Trace(
        keep_allocations=allocator.keep_allocations, sample_every=sample_every
    )

    def emit(record: IterationRecord) -> None:
        trace.append(record)
        if callback is not None:
            callback(record)

    def derivatives(xv):
        """``_evaluate_mm1`` term by term, cost deferred.

        ``gap.min() > 0`` (False for NaN) plus finite service rates imply
        exactly the states ``_evaluate_mm1`` accepts; ``gap.max() == inf``
        catches a ``-inf`` arrival, which it rejects as non-finite.  On
        any failed check the delegate call raises the exact error."""
        arrivals = lam * xv
        gap = mu - arrivals
        if not gap.min() > 0 or gap.max() == np.inf:
            problem.evaluate(xv)
            raise AssertionError("evaluate accepted an unstable state")
        t = 1.0 / gap
        dt = 1.0 / (gap * gap)
        cg = access + k * (t + arrivals * dt)
        return t, cg

    def compute_step(xv, x_min, cg, cg_mean):
        """One ``ScaledStep.apply`` — inlined when no boundary is in play.

        Returns ``(dx, mask, all_active, cand, cand_min)``; ``cand`` is
        ``xv + dx`` (reusable as the next iterate) or ``None`` when the
        real policy ran and ``_apply`` must handle the step."""
        dx = alpha * (cg_mean - cg)  # == alpha * (g - g.mean()) bitwise
        clean = x_min > zero_tol or not bool(
            np.any((xv <= zero_tol) & (dx < 0))
        )
        if clean:
            cand = xv + dx
            cand_min = cand.min()
            if not cand_min < 0:  # NaN keeps the clean path, like apply()
                return dx, all_mask, True, cand, cand_min
        dx, mask = active_set.apply(xv, -cg, alpha)
        return dx, mask, bool(mask.all()), None, None

    def spread_of(cg, mask, all_active):
        """``(active_count, spread, empty)`` of the prospective step."""
        if all_active:
            return n, float(cg.max() - cg.min()), False
        gm = cg[mask]
        if gm.size == 0:
            return 0, 0.0, True
        return gm.size, float(gm.max() - gm.min()), False

    with maybe_timer(reg, "allocator.run_seconds"):
        t, cg = derivatives(x)
        cost = float(np.sum((access + k * t) * x))
        dx, mask, all_active, cand, cand_min = compute_step(x, x.min(), cg, cg.mean())
        active_count, step_spread, empty = spread_of(cg, mask, all_active)
        if reg is not None:
            reg.event(
                "iteration", i=0, cost=cost, spread=step_spread,
                active=active_count,
            )
        emit(
            IterationRecord(
                iteration=0,
                allocation=x.copy(),
                cost=cost,
                utility=-cost,
                gradient_spread=step_spread,
                alpha=float("nan"),
                active_count=active_count,
            )
        )

        converged = True if empty else step_spread < epsilon
        iteration = 0
        x_sum = x.sum() if validate else None
        prev_cost = cost
        prev_active = active_count
        shrink_events = 0
        monotonicity_violations = 0
        while not converged and iteration < max_iterations:
            iteration += 1
            # -- advance the iterate (reference ``_apply`` semantics).
            # cand_min >= 0 makes the negativity checks/clamps no-ops;
            # only the sum-drift check can observe anything.
            if cand is not None:
                if validate:
                    new_sum = cand.sum()
                    if not abs(new_sum - x_sum) <= 1e-9:
                        raise _drift_error(x_sum, new_sum)
                    x_sum = new_sum
                x = cand
                x_min = cand_min
            else:
                x = allocator._apply(x, dx)
                if validate:
                    x_sum = x.sum()
                x_min = x.min()

            t, cg = derivatives(x)
            cost = (
                float(np.sum((access + k * t) * x)) if need_cost else None
            )
            dx, mask, all_active, cand, cand_min = compute_step(
                x, x_min, cg, cg.mean()
            )
            active_count, step_spread, empty = spread_of(cg, mask, all_active)
            if reg is not None:
                if active_count < prev_active:
                    shrink_events += 1
                prev_active = active_count
                if cost > prev_cost + 1e-12:
                    monotonicity_violations += 1
                prev_cost = cost
            if iteration % sample_every == 0:
                if cost is None:
                    cost = float(np.sum((access + k * t) * x))
                if reg is not None:
                    reg.observe("allocator.alpha", alpha)
                    reg.event(
                        "iteration",
                        i=iteration,
                        cost=cost,
                        alpha=alpha,
                        spread=step_spread,
                        active=active_count,
                    )
                emit(
                    IterationRecord(
                        iteration=iteration,
                        allocation=x.copy(),
                        cost=cost,
                        utility=-cost,
                        gradient_spread=step_spread,
                        alpha=alpha,
                        active_count=active_count,
                    )
                )
            converged = True if empty else step_spread < epsilon

        if cost is None:
            cost = float(np.sum((access + k * t) * x))
        if trace.records[-1].iteration != iteration:
            # The loop exited between sample points: always record the
            # final iterate (the trace's "most recent" contract).
            emit(
                IterationRecord(
                    iteration=iteration,
                    allocation=x.copy(),
                    cost=cost,
                    utility=-cost,
                    gradient_spread=step_spread,
                    alpha=alpha,
                    active_count=active_count,
                )
            )

    if reg is not None:
        # Counter totals match the reference loop exactly; only the
        # per-iteration event stream is sampled.
        if iteration:
            reg.counter_inc("allocator.iterations", iteration)
        reg.counter_inc("allocator.gradient_evals", iteration + 1)
        if shrink_events:
            reg.counter_inc("allocator.active_set_shrink", shrink_events)
        if monotonicity_violations:
            reg.counter_inc(
                "allocator.monotonicity_violations", monotonicity_violations
            )
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
            f"no convergence in {max_iterations} iterations "
            f"(spread={step_spread:g}, epsilon={allocator.epsilon:g})",
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
