"""Tests for FileAllocationProblem: construction, C_i, cost, gradients."""

import numpy as np
import pytest

from repro.core.model import FileAllocationProblem
from repro.estimation.finite_difference import (
    finite_difference_gradient,
    finite_difference_hessian_diag,
)
from repro.exceptions import ConfigurationError, InfeasibleAllocationError
from repro.network.builders import ring_graph
from repro.queueing import MG1Delay, QuadraticOverloadDelay, MM1Delay


class TestConstruction:
    def test_paper_network_parameters(self, paper_problem):
        assert paper_problem.n == 4
        assert paper_problem.total_rate == pytest.approx(1.0)
        assert paper_problem.k == 1.0
        # Unit 4-ring distances (0,1,2,1) weighted by equal rates: C_i = 1.
        np.testing.assert_allclose(paper_problem.access_cost, np.ones(4))

    def test_access_cost_formula(self):
        """C_i = sum_j (lambda_j/lambda) c_ji with asymmetric rates."""
        costs = np.array([[0.0, 2.0], [4.0, 0.0]])
        rates = np.array([3.0, 1.0])
        problem = FileAllocationProblem(costs, rates, k=1.0, mu=10.0)
        # C_0 = (3/4)*0 + (1/4)*4 = 1 ; C_1 = (3/4)*2 + (1/4)*0 = 1.5
        np.testing.assert_allclose(problem.access_cost, [1.0, 1.5])

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ConfigurationError, match="diagonal"):
            FileAllocationProblem([[1.0, 1.0], [1.0, 0.0]], [1, 1], mu=5.0)

    def test_rejects_negative_costs(self):
        with pytest.raises(ConfigurationError):
            FileAllocationProblem([[0, -1.0], [1.0, 0]], [1, 1], mu=5.0)

    def test_rejects_negative_rates(self):
        with pytest.raises(ConfigurationError):
            FileAllocationProblem(np.zeros((2, 2)), [1, -1], mu=5.0)

    def test_rejects_zero_total_rate(self):
        with pytest.raises(ConfigurationError, match="total access rate"):
            FileAllocationProblem(np.zeros((2, 2)), [0, 0], mu=5.0)

    def test_rejects_mu_not_exceeding_lambda(self):
        with pytest.raises(ConfigurationError, match="mu > lambda"):
            FileAllocationProblem(np.zeros((2, 2)), [1, 1], mu=2.0)

    def test_overload_model_lifts_mu_restriction(self):
        models = [QuadraticOverloadDelay(MM1Delay(1.0)) for _ in range(2)]
        problem = FileAllocationProblem(
            np.zeros((2, 2)), [1, 1], delay_models=models
        )
        assert np.isfinite(problem.cost([0.5, 0.5]))

    def test_per_node_mu(self):
        problem = FileAllocationProblem(
            np.zeros((3, 3)) + 1 - np.eye(3), [0.2, 0.2, 0.2], mu=[1.0, 2.0, 3.0]
        )
        mus = [m.mu for m in problem.delay_models]
        assert mus == [1.0, 2.0, 3.0]

    def test_needs_mu_or_models(self):
        with pytest.raises(ConfigurationError, match="mu or delay_models"):
            FileAllocationProblem(np.zeros((2, 2)), [1, 1])

    def test_model_count_must_match(self):
        with pytest.raises(ConfigurationError):
            FileAllocationProblem(
                np.zeros((2, 2)), [0.1, 0.1], delay_models=[MM1Delay(1.0)]
            )

    def test_from_topology_stashes_topology(self):
        topo = ring_graph(4)
        problem = FileAllocationProblem.from_topology(topo, [0.25] * 4, mu=1.5)
        assert problem.topology is topo


class TestFeasibility:
    def test_accepts_feasible(self, paper_problem):
        x = paper_problem.check_feasible([0.25, 0.25, 0.25, 0.25])
        assert isinstance(x, np.ndarray)

    def test_rejects_wrong_sum(self, paper_problem):
        with pytest.raises(InfeasibleAllocationError, match="sums"):
            paper_problem.check_feasible([0.5, 0.5, 0.5, 0.5])

    def test_rejects_negative(self, paper_problem):
        with pytest.raises(InfeasibleAllocationError, match="negative"):
            paper_problem.check_feasible([1.2, -0.2, 0.0, 0.0])

    def test_rejects_wrong_shape(self, paper_problem):
        with pytest.raises(InfeasibleAllocationError, match="shape"):
            paper_problem.check_feasible([1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, paper_problem, bad):
        # NaN slips past both the sign and the sum comparison (each is
        # False for NaN), so it needs its own check.
        with pytest.raises(InfeasibleAllocationError, match="non-finite"):
            paper_problem.check_feasible([bad, 1.0, 0.0, 0.0])


class TestCostAndGradients:
    def test_cost_formula_by_hand(self, paper_problem):
        # C(x) = sum (C_i + k/(mu - lambda x_i)) x_i with C_i=1, mu=1.5.
        x = np.array([0.25, 0.25, 0.25, 0.25])
        expected = 4 * 0.25 * (1 + 1 / 1.25)
        assert paper_problem.cost(x) == pytest.approx(expected)

    def test_cost_of_concentrated_allocation(self, paper_problem):
        assert paper_problem.cost([1.0, 0, 0, 0]) == pytest.approx(1 + 1 / 0.5)

    def test_utility_is_negative_cost(self, paper_problem, paper_start):
        assert paper_problem.utility(paper_start) == -paper_problem.cost(paper_start)

    def test_gradient_formula_mm1(self, paper_problem):
        # dC/dx_i = C_i + k*mu/(mu - lambda x_i)^2.
        x = np.array([0.8, 0.1, 0.1, 0.0])
        expected = 1 + 1.5 / (1.5 - x) ** 2
        np.testing.assert_allclose(paper_problem.cost_gradient(x), expected)

    def test_gradient_matches_finite_difference(self, asymmetric_problem, rng):
        for _ in range(5):
            x = rng.dirichlet(np.ones(asymmetric_problem.n))
            analytic = asymmetric_problem.cost_gradient(x)
            numeric = finite_difference_gradient(asymmetric_problem.cost, x)
            np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-6)

    def test_hessian_matches_finite_difference(self, asymmetric_problem, rng):
        for _ in range(5):
            x = rng.dirichlet(np.ones(asymmetric_problem.n))
            analytic = asymmetric_problem.cost_hessian_diag(x)
            numeric = finite_difference_hessian_diag(asymmetric_problem.cost, x)
            np.testing.assert_allclose(analytic, numeric, rtol=1e-3, atol=1e-5)

    def test_hessian_positive(self, asymmetric_problem, rng):
        for _ in range(5):
            x = rng.dirichlet(np.ones(asymmetric_problem.n))
            assert np.all(asymmetric_problem.cost_hessian_diag(x) > 0)

    def test_node_marginal_matches_vector_gradient(self, asymmetric_problem, rng):
        """A node computes from local state exactly its slice of dU/dx."""
        x = rng.dirichlet(np.ones(asymmetric_problem.n))
        g = asymmetric_problem.utility_gradient(x)
        for i in range(asymmetric_problem.n):
            local = asymmetric_problem.node_marginal_utility(i, float(x[i]))
            assert local == pytest.approx(g[i], rel=1e-12)

    def test_mg1_delay_model_works_end_to_end(self):
        models = [MG1Delay(2.0, scv=0.5) for _ in range(3)]
        costs = 1 - np.eye(3)
        problem = FileAllocationProblem(costs, [0.3, 0.3, 0.3], delay_models=models)
        x = np.array([0.5, 0.3, 0.2])
        numeric = finite_difference_gradient(problem.cost, x)
        np.testing.assert_allclose(problem.cost_gradient(x), numeric, rtol=1e-4)

    def test_delays_vector(self, paper_problem):
        t = paper_problem.delays([0.25] * 4)
        np.testing.assert_allclose(t, 1 / 1.25)
