"""Tests for the access-traffic simulation and failure injection."""

import numpy as np
import pytest

from repro.core.initials import single_node_allocation, uniform_allocation
from repro.core.kkt import optimal_allocation, optimal_cost
from repro.core.model import FileAllocationProblem
from repro.distributed import degraded_subproblem, failure_impact, simulate_access_traffic
from repro.exceptions import ConfigurationError
from repro.network.builders import line_graph


class TestAccessTraffic:
    def test_measured_cost_matches_model(self, paper_problem):
        """The empirical mean(comm + k*sojourn) converges to C(x)."""
        x = uniform_allocation(4)
        stats = simulate_access_traffic(paper_problem, x, accesses=60_000, seed=2)
        model = paper_problem.cost(x)
        assert stats.mean_total_cost == pytest.approx(model, rel=0.05)

    def test_skewed_allocation_measures_higher_cost(self, paper_problem, paper_start):
        skew = simulate_access_traffic(paper_problem, paper_start, accesses=60_000, seed=3)
        even = simulate_access_traffic(
            paper_problem, uniform_allocation(4), accesses=60_000, seed=3
        )
        assert skew.mean_total_cost > even.mean_total_cost
        # And the model agrees on the ordering.
        assert paper_problem.cost(paper_start) > paper_problem.cost(uniform_allocation(4))

    def test_optimal_allocation_minimizes_measured_cost(self, asymmetric_problem, rng):
        x_star = optimal_allocation(asymmetric_problem)
        best = simulate_access_traffic(asymmetric_problem, x_star, accesses=50_000, seed=4)
        for seed in range(3):
            x = rng.dirichlet(np.ones(5))
            other = simulate_access_traffic(
                asymmetric_problem, x, accesses=50_000, seed=4
            )
            assert best.mean_total_cost <= other.mean_total_cost + 4 * (
                best.total_cost_stderr + other.total_cost_stderr
            )

    def test_utilization_matches_load(self, paper_problem):
        stats = simulate_access_traffic(
            paper_problem, [0.7, 0.3, 0.0, 0.0], accesses=60_000, seed=5
        )
        # rho_i = lambda x_i / mu.
        assert stats.utilization[0] == pytest.approx(0.7 / 1.5, abs=0.03)
        assert stats.utilization[2] == 0.0

    def test_reproducible(self, paper_problem):
        a = simulate_access_traffic(paper_problem, uniform_allocation(4), accesses=5_000, seed=9)
        b = simulate_access_traffic(paper_problem, uniform_allocation(4), accesses=5_000, seed=9)
        assert a.mean_total_cost == b.mean_total_cost

    def test_rejects_bad_args(self, paper_problem):
        with pytest.raises(ConfigurationError):
            simulate_access_traffic(paper_problem, uniform_allocation(4), accesses=0)


class TestFailureImpact:
    def test_fragmented_allocation_degrades_gracefully(self, paper_problem):
        impact = failure_impact(paper_problem, uniform_allocation(4), failed_node=1)
        assert impact.surviving_fraction == pytest.approx(0.75)
        assert not impact.total_outage
        assert impact.surviving_allocation[1] == 0.0

    def test_integral_allocation_total_outage(self, paper_problem):
        impact = failure_impact(
            paper_problem, single_node_allocation(4, 2), failed_node=2
        )
        assert impact.total_outage
        assert impact.surviving_fraction == 0.0
        assert impact.reoptimized_cost is None

    def test_integral_allocation_unaffected_by_other_failures(self, paper_problem):
        impact = failure_impact(
            paper_problem, single_node_allocation(4, 2), failed_node=0
        )
        assert impact.surviving_fraction == 1.0

    def test_reoptimization_over_survivors(self, paper_problem):
        impact = failure_impact(
            paper_problem, uniform_allocation(4), failed_node=3, reoptimize=True
        )
        assert impact.reoptimized_cost is not None
        assert np.isfinite(impact.reoptimized_cost)

    def test_fragmentation_dominates_integral_on_expected_availability(
        self, paper_problem
    ):
        """Under a uniformly random single failure, fragmentation keeps
        expected availability 0.75 vs integral's 0.75... the difference is
        the variance: integral is all-or-nothing."""
        frag = [
            failure_impact(paper_problem, uniform_allocation(4), f).surviving_fraction
            for f in range(4)
        ]
        integral = [
            failure_impact(
                paper_problem, single_node_allocation(4, 0), f
            ).surviving_fraction
            for f in range(4)
        ]
        assert np.mean(frag) == pytest.approx(np.mean(integral))
        assert min(frag) > min(integral)  # graceful vs total outage

    def test_reoptimization_uses_the_degraded_subproblem(self, paper_problem):
        impact = failure_impact(
            paper_problem, uniform_allocation(4), failed_node=3, epsilon=1e-6
        )
        sub, _ = degraded_subproblem(paper_problem, 3)
        assert impact.reoptimized_cost == pytest.approx(optimal_cost(sub), abs=1e-5)

    def test_split_survivors_are_not_reoptimized(self):
        """Losing a line's interior node splits the network: no well-posed
        sub-problem is left to re-optimize."""
        problem = FileAllocationProblem.from_topology(
            line_graph(4), np.full(4, 0.25), mu=1.5
        )
        impact = failure_impact(problem, uniform_allocation(4), failed_node=1)
        assert impact.surviving_fraction == pytest.approx(0.75)
        assert impact.reoptimized_cost is None

    def test_bad_node_rejected(self, paper_problem):
        with pytest.raises(ConfigurationError):
            failure_impact(paper_problem, uniform_allocation(4), failed_node=9)

    def test_no_reoptimize_without_topology(self):
        problem = FileAllocationProblem(1 - np.eye(3), [0.2, 0.2, 0.2], mu=1.5)
        impact = failure_impact(problem, uniform_allocation(3), 0)
        assert impact.reoptimized_cost is None

    def test_rejects_multiserver_nodes(self):
        from repro.queueing import MMcDelay

        problem = FileAllocationProblem(
            1 - np.eye(3), [0.2] * 3,
            delay_models=[MMcDelay(0.8, servers=2) for _ in range(3)],
        )
        with pytest.raises(ConfigurationError, match="multi-server"):
            simulate_access_traffic(problem, uniform_allocation(3), accesses=100)
