"""Tests for the main decentralized allocator (§5.2) against the paper's
reported behaviour and the closed-form optimum."""

import numpy as np
import pytest

from repro.core.active_set import ScaledStep
from repro.core.algorithm import DecentralizedAllocator, solve
from repro.core.initials import (
    paper_skewed_allocation,
    random_allocation,
    single_node_allocation,
    uniform_allocation,
)
from repro.core.kkt import check_kkt, optimal_allocation
from repro.core.model import FileAllocationProblem
from repro.core.stepsize import StepSizePolicy
from repro.core.termination import CostDeltaCriterion, GradientSpreadCriterion
from repro.exceptions import ConfigurationError, ConvergenceError, StabilityError
from repro.network.builders import complete_graph, star_graph


class TinyUndershootStep(ScaledStep):
    """ScaledStep, then nudge the smallest lander 1e-13 below zero.

    The perturbation is balanced (sum(dx) stays 0), so every iteration
    exercises the allocator's round-off clamp — the path that used to
    leak the clamped mass into ``sum(x)``.
    """

    def apply(self, x, utility_gradient, alpha):
        dx, mask = super().apply(x, utility_gradient, alpha)
        target = x + dx
        j = int(np.argmin(target))
        k = int(np.argmax(target))
        if j != k:
            nudge = target[j] + 1e-13  # land j at exactly -1e-13
            dx[j] -= nudge
            dx[k] += nudge
        return dx, mask


class TestPaperAnchors:
    """The quantitative anchors quoted in §6."""

    def test_symmetric_optimum_is_uniform(self, paper_problem, paper_start):
        result = DecentralizedAllocator(paper_problem, alpha=0.3).run(paper_start)
        assert result.converged
        np.testing.assert_allclose(result.allocation, 0.25, atol=1e-3)

    @pytest.mark.parametrize(
        "alpha,paper_iterations",
        [(0.67, 4), (0.3, 10), (0.19, 20), (0.08, 51)],
    )
    def test_iteration_counts_match_paper(self, paper_problem, paper_start, alpha, paper_iterations):
        """Figure 3's counts: we allow +-2 iterations of slack (the paper
        reports 4/10/20/51; we measure 4/9/19/51)."""
        result = DecentralizedAllocator(
            paper_problem, alpha=alpha, epsilon=1e-3
        ).run(paper_start)
        assert result.converged
        assert abs(result.iterations - paper_iterations) <= 2

    def test_epsilon_pins_marginal_agreement(self, paper_problem, paper_start):
        result = DecentralizedAllocator(
            paper_problem, alpha=0.3, epsilon=1e-3
        ).run(paper_start)
        g = paper_problem.utility_gradient(result.allocation)
        assert g.max() - g.min() < 1e-3


class TestInvariants:
    def test_feasible_at_every_iteration(self, asymmetric_problem, rng):
        allocator = DecentralizedAllocator(asymmetric_problem, alpha=0.2)
        result = allocator.run(random_allocation(5, seed=rng))
        for record in result.trace.records:
            assert record.allocation.sum() == pytest.approx(1.0, abs=1e-9)
            assert record.allocation.min() >= -1e-12

    def test_monotone_cost(self, asymmetric_problem, rng):
        for seed in range(5):
            result = DecentralizedAllocator(asymmetric_problem, alpha=0.1).run(
                random_allocation(5, seed=seed)
            )
            assert result.trace.is_monotone()

    def test_converges_to_kkt_point(self, asymmetric_problem):
        result = DecentralizedAllocator(
            asymmetric_problem, alpha=0.1, epsilon=1e-8
        ).run(uniform_allocation(5))
        report = check_kkt(asymmetric_problem, result.allocation, tolerance=1e-5)
        assert report.satisfied

    def test_matches_closed_form_optimum(self, asymmetric_problem):
        result = DecentralizedAllocator(
            asymmetric_problem, alpha=0.1, epsilon=1e-9
        ).run(uniform_allocation(5))
        x_star = optimal_allocation(asymmetric_problem)
        assert asymmetric_problem.cost(result.allocation) == pytest.approx(
            asymmetric_problem.cost(x_star), rel=1e-6
        )

    def test_independent_of_initial_allocation(self, asymmetric_problem):
        """§5.1: the start affects iterations, never the optimum."""
        finals = []
        for x0 in (
            uniform_allocation(5),
            single_node_allocation(5, 3),
            paper_skewed_allocation(5),
        ):
            result = DecentralizedAllocator(
                asymmetric_problem, alpha=0.1, epsilon=1e-9
            ).run(x0)
            finals.append(result.allocation)
        np.testing.assert_allclose(finals[0], finals[1], atol=1e-4)
        np.testing.assert_allclose(finals[0], finals[2], atol=1e-4)

    def test_early_termination_is_feasible_and_better(self, paper_problem, paper_start):
        """§5.3: stopping early still yields a feasible, strictly improved
        allocation — the run-in-the-background property."""
        allocator = DecentralizedAllocator(
            paper_problem, alpha=0.08, epsilon=1e-12, max_iterations=3
        )
        result = allocator.run(paper_start)
        assert not result.converged
        paper_problem.check_feasible(result.allocation)
        assert result.cost < paper_problem.cost(paper_start)


class TestBoundaryBehaviour:
    def test_zero_share_stays_zero_when_kkt_allows(self):
        """A node so expensive it gets nothing must sit at exactly 0."""
        # Node 2 has a huge access cost: it should receive no mass.
        costs = np.array(
            [[0, 1, 50], [1, 0, 50], [50, 50, 0]], dtype=float
        )
        problem = FileAllocationProblem(costs, [0.4, 0.4, 0.2], mu=2.0)
        result = DecentralizedAllocator(problem, alpha=0.2, epsilon=1e-9).run(
            uniform_allocation(3)
        )
        x_star = optimal_allocation(problem)
        assert x_star[2] == pytest.approx(0.0, abs=1e-9)
        assert result.allocation[2] == pytest.approx(0.0, abs=1e-3)
        report = check_kkt(problem, result.allocation, tolerance=1e-4)
        assert report.satisfied

    def test_start_at_vertex(self, paper_problem):
        result = DecentralizedAllocator(paper_problem, alpha=0.3, epsilon=1e-6).run(
            single_node_allocation(4, 0)
        )
        assert result.converged
        np.testing.assert_allclose(result.allocation, 0.25, atol=1e-3)


class TestDriverMechanics:
    def test_default_start_is_uniform(self, paper_problem):
        result = DecentralizedAllocator(paper_problem, alpha=0.3).run()
        # Uniform is already optimal for the symmetric ring: 0 iterations.
        assert result.iterations == 0
        assert result.converged

    def test_max_iterations_respected(self, paper_problem, paper_start):
        result = DecentralizedAllocator(
            paper_problem, alpha=0.001, epsilon=1e-9, max_iterations=7
        ).run(paper_start)
        assert result.iterations == 7
        assert not result.converged

    def test_raise_on_failure(self, paper_problem, paper_start):
        allocator = DecentralizedAllocator(
            paper_problem, alpha=0.001, epsilon=1e-9, max_iterations=5
        )
        with pytest.raises(ConvergenceError):
            allocator.run(paper_start, raise_on_failure=True)

    def test_custom_termination(self, paper_problem, paper_start):
        allocator = DecentralizedAllocator(
            paper_problem,
            alpha=0.3,
            termination=CostDeltaCriterion(tolerance=1e-4),
        )
        result = allocator.run(paper_start)
        assert result.converged
        costs = result.trace.costs()
        assert abs(costs[-1] - costs[-2]) < 1e-4

    def test_infeasible_start_rejected(self, paper_problem):
        with pytest.raises(Exception):
            DecentralizedAllocator(paper_problem).run([0.5, 0.5, 0.5, 0.5])

    def test_solve_convenience(self, paper_problem, paper_start):
        result = solve(paper_problem, alpha=0.3, initial_allocation=paper_start)
        assert result.converged

    def test_trace_records_alphas(self, paper_problem, paper_start):
        result = DecentralizedAllocator(paper_problem, alpha=0.42).run(paper_start)
        alphas = result.trace.alphas()
        assert np.isnan(alphas[0])
        assert np.all(alphas[1:] == 0.42)

    def test_bad_configuration(self, paper_problem):
        with pytest.raises(ConfigurationError):
            DecentralizedAllocator(paper_problem, max_iterations=0)
        with pytest.raises(ConfigurationError):
            DecentralizedAllocator(paper_problem, epsilon=0.0)
        # Memory-policy typos fail at construction, not mid-run.
        with pytest.raises(ConfigurationError):
            DecentralizedAllocator(paper_problem, keep_allocations="everything")
        with pytest.raises(ConfigurationError):
            DecentralizedAllocator(
                paper_problem, keep_allocations="sampled", sample_every=0
            )


class TestOtherTopologies:
    def test_star_concentrates_on_hub(self):
        problem = FileAllocationProblem.from_topology(
            star_graph(5, center=0), np.full(5, 0.2), mu=1.5
        )
        result = DecentralizedAllocator(problem, alpha=0.2, epsilon=1e-8).run(
            uniform_allocation(5)
        )
        # The hub is cheapest to reach: it must hold the largest share.
        assert result.allocation[0] == result.allocation.max()
        assert result.allocation[0] > 0.3

    def test_complete_graph_uniform(self):
        problem = FileAllocationProblem.from_topology(
            complete_graph(8), np.full(8, 1 / 8), mu=1.5
        )
        result = DecentralizedAllocator(problem, alpha=0.5, epsilon=1e-8).run(
            paper_skewed_allocation(8)
        )
        np.testing.assert_allclose(result.allocation, 1 / 8, atol=1e-4)

    def test_heterogeneous_mu_favors_fast_nodes(self):
        costs = 1.0 - np.eye(4)
        problem = FileAllocationProblem(
            costs, np.full(4, 0.25), mu=[1.2, 1.2, 1.2, 5.0]
        )
        result = DecentralizedAllocator(problem, alpha=0.2, epsilon=1e-8).run(
            uniform_allocation(4)
        )
        assert result.allocation[3] == result.allocation.max()


class TestFeasibilityDrift:
    """Regression for the clamp-induced sum drift (Theorem 1 erosion).

    The old ``_apply`` silently *added* the clamped round-off mass to the
    total: each step passed the per-step 1e-9 feasibility check, but over
    10^4 iterations ``sum(x)`` drifted ~1e-9 upward.  The fix
    redistributes the clamped mass pro-rata, so the long-run error stays
    at the ulp level.
    """

    def test_sum_stays_exact_over_10k_clamped_iterations(
        self, paper_problem, paper_start
    ):
        allocator = DecentralizedAllocator(
            paper_problem,
            alpha=0.3,
            active_set=TinyUndershootStep(),
            # Never converge: every one of the >=10k iterations clamps.
            termination=GradientSpreadCriterion(1e-30),
            max_iterations=10_500,
        )
        result = allocator.run(paper_start)
        assert result.iterations == 10_500
        assert abs(result.allocation.sum() - 1.0) < 1e-12

    def test_clamped_step_preserves_sum_and_nonnegativity(self, paper_problem):
        allocator = DecentralizedAllocator(paper_problem, alpha=0.3)
        x = np.array([0.5, 0.3, 0.2, 1e-13])
        dx = np.array([1e-13, 1e-13, 0.0, -2e-13])  # lands node 3 below 0
        new_x = allocator._apply(x, dx)
        assert new_x.min() == 0.0
        assert new_x.sum() == pytest.approx((x + dx).sum(), abs=1e-16)

    def test_clamp_events_are_counted(self, paper_problem, paper_start):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        allocator = DecentralizedAllocator(
            paper_problem,
            alpha=0.3,
            active_set=TinyUndershootStep(),
            termination=GradientSpreadCriterion(1e-30),
            max_iterations=50,
            registry=registry,
        )
        allocator.run(paper_start)
        assert registry.counters["allocator.clamp_events"] == 50
        assert registry.counters["allocator.clamped_mass"] > 0.0


def overflow_problem() -> FileAllocationProblem:
    """Finite costs whose marginal utilities sum past the float range: the
    first step's mean overflows and the iterate leaves the finite range."""
    big = 1e308
    return FileAllocationProblem(
        [[0, big, big], [big, 0, big], [big, big, 0]], [0.3, 0.3, 0.4], k=1.0, mu=2.0
    )


class TestOverflowingStep:
    """A step that overflows is the request's own StabilityError; a finite
    Theorem-1 violation stays an AssertionError (a solver defect)."""

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_non_finite_iterate_is_a_stability_error(self, engine):
        allocator = DecentralizedAllocator(overflow_problem(), alpha=0.3)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(StabilityError, match="finite range"):
                allocator.run([1.0, 0.0, 0.0], engine=engine)

    def test_finite_drift_is_still_an_assertion(self, paper_problem):
        allocator = DecentralizedAllocator(paper_problem, alpha=0.3)
        x = np.full(4, 0.25)
        with pytest.raises(AssertionError, match="feasibility broken"):
            allocator._apply(x, np.array([1e-6, 0.0, 0.0, 0.0]))


class _LinearStep(StepSizePolicy):
    """alpha grows with the iteration index — makes 'last applied' and
    'prospective' alphas distinguishable in the trace."""

    def __init__(self, base=1e-4):
        self.base = base

    def alpha(self, iteration, x, utility_gradient, problem):
        return self.base * (iteration + 1)


class TestRunEdgePaths:
    def test_convergence_at_iteration_zero(self, paper_problem):
        result = DecentralizedAllocator(paper_problem, alpha=0.3).run(
            uniform_allocation(4)
        )
        assert result.converged
        assert result.iterations == 0
        assert len(result.trace) == 1
        record = result.trace[0]
        assert np.isnan(record.alpha)
        np.testing.assert_array_equal(record.allocation, uniform_allocation(4))
        assert record.cost == pytest.approx(paper_problem.cost(uniform_allocation(4)))

    def test_budget_exhaustion_records_last_applied_alpha(
        self, paper_problem, paper_start
    ):
        budget = 7
        result = DecentralizedAllocator(
            paper_problem,
            alpha=_LinearStep(1e-4),
            epsilon=1e-12,
            max_iterations=budget,
        ).run(paper_start)
        assert not result.converged
        assert result.iterations == budget
        alphas = result.trace.alphas()
        # Record i applied the alpha computed at iterate i-1.
        np.testing.assert_allclose(alphas[1:], 1e-4 * np.arange(1, budget + 1))
        # The final record holds the last *applied* alpha, not the
        # prospective one the exhausted budget never used.
        assert result.trace[-1].alpha == pytest.approx(1e-4 * budget)
        assert result.trace[-1].alpha != pytest.approx(1e-4 * (budget + 1))


class TestSolveThreading:
    """solve() must expose the full allocator surface — it used to drop
    active_set / validate / callback / raise_on_failure on the floor."""

    def test_raise_on_failure_threads_through(self, paper_problem, paper_start):
        with pytest.raises(ConvergenceError):
            solve(
                paper_problem,
                alpha=0.001,
                epsilon=1e-9,
                initial_allocation=paper_start,
                max_iterations=5,
                raise_on_failure=True,
            )

    def test_callback_threads_through(self, paper_problem, paper_start):
        seen = []
        result = solve(
            paper_problem,
            alpha=0.3,
            initial_allocation=paper_start,
            callback=seen.append,
        )
        assert len(seen) == len(result.trace)

    def test_active_set_threads_through(self, paper_problem, paper_start):
        with pytest.raises(ValueError):
            solve(paper_problem, active_set="no-such-policy")
        result = solve(
            paper_problem,
            alpha=0.3,
            initial_allocation=paper_start,
            active_set="unconstrained",
            validate=False,
        )
        assert result.converged

    def test_termination_and_memory_policy_thread_through(
        self, paper_problem, paper_start
    ):
        result = solve(
            paper_problem,
            alpha=0.08,
            initial_allocation=paper_start,
            termination=CostDeltaCriterion(tolerance=1e-6),
            keep_allocations="last",
        )
        assert result.converged
        np.testing.assert_array_equal(
            result.trace.retained_iterations(), [result.iterations]
        )

    def test_registry_threads_through(self, paper_problem, paper_start):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        result = solve(
            paper_problem, alpha=0.3, initial_allocation=paper_start, registry=registry
        )
        assert registry.counters["allocator.iterations"] == result.iterations


class TestCallback:
    def test_callback_sees_every_record(self, paper_problem, paper_start):
        seen = []
        result = DecentralizedAllocator(
            paper_problem, alpha=0.3, callback=seen.append
        ).run(paper_start)
        assert len(seen) == len(result.trace)
        assert seen[0].iteration == 0
        assert seen[-1].iteration == result.iterations
        # Records arrive in order with monotone cost.
        costs = [r.cost for r in seen]
        assert costs == sorted(costs, reverse=True)

    def test_callback_exception_propagates(self, paper_problem, paper_start):
        def boom(record):
            raise RuntimeError("observer failed")

        with pytest.raises(RuntimeError, match="observer failed"):
            DecentralizedAllocator(
                paper_problem, alpha=0.3, callback=boom
            ).run(paper_start)
