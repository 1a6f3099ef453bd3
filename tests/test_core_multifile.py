"""Tests for the §5.4 multi-file extension."""

import numpy as np
import pytest

from repro.core.algorithm import DecentralizedAllocator
from repro.core.model import FileAllocationProblem
from repro.core.multifile import MultiFileAllocator, MultiFileProblem
from repro.estimation.finite_difference import finite_difference_gradient
from repro.exceptions import ConfigurationError, InfeasibleAllocationError


def _two_file_problem(mu=4.0):
    costs = 1.0 - np.eye(3)
    rates = np.array([[0.5, 0.2, 0.1], [0.1, 0.2, 0.5]])
    return MultiFileProblem(costs, rates, k=1.0, mu=mu)


class TestConstruction:
    def test_file_rates_and_access_costs(self):
        problem = _two_file_problem()
        np.testing.assert_allclose(problem.file_rates, [0.8, 0.8])
        # C^0_i = sum_j (rates[0,j]/0.8) c_ji; for node 0: (0.2+0.1)/0.8.
        assert problem.access_cost[0, 0] == pytest.approx(0.3 / 0.8)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ConfigurationError):
            MultiFileProblem(np.zeros((2, 2)), [[0.1, 0.2, 0.3]], mu=2.0)
        with pytest.raises(ConfigurationError):
            MultiFileProblem(1 - np.eye(3), np.zeros((1, 3)), mu=2.0)

    def test_feasibility_check(self):
        problem = _two_file_problem()
        good = np.full((2, 3), 1 / 3)
        problem.check_feasible(good)
        with pytest.raises(InfeasibleAllocationError):
            problem.check_feasible(np.full((2, 3), 0.5))
        with pytest.raises(InfeasibleAllocationError):
            problem.check_feasible(np.full((3, 2), 1 / 2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_feasibility_refuses_non_finite_shares(self, bad):
        with pytest.raises(InfeasibleAllocationError, match="non-finite"):
            _two_file_problem().check_feasible([[bad, 0.5, 0.5], [1 / 3] * 3])


class TestCostModel:
    def test_gradient_matches_finite_difference(self, rng):
        problem = _two_file_problem()
        for _ in range(5):
            x = np.stack([rng.dirichlet(np.ones(3)) for _ in range(2)])
            analytic = problem.cost_gradient(x)
            numeric = finite_difference_gradient(
                lambda flat: problem.cost(flat.reshape(2, 3)), x.ravel()
            ).reshape(2, 3)
            np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-6)

    def test_contention_raises_cost(self):
        """Stacking both files on one node must cost more than the sum of
        isolated single-file costs (the queueing coupling)."""
        problem = _two_file_problem()
        x = np.zeros((2, 3))
        x[:, 0] = 1.0  # both files wholly at node 0
        stacked = problem.cost(x)
        single = FileAllocationProblem(
            problem.cost_matrix, problem.access_rates[0], k=1.0, mu=4.0
        )
        x_single = np.array([1.0, 0, 0])
        lone = single.cost(x_single)
        other = FileAllocationProblem(
            problem.cost_matrix, problem.access_rates[1], k=1.0, mu=4.0
        ).cost(x_single)
        assert stacked > lone + other

    def test_node_arrivals(self):
        problem = _two_file_problem()
        x = np.zeros((2, 3))
        x[0, 0] = 1.0
        x[1, 2] = 1.0
        arrivals = problem.node_arrivals(x)
        np.testing.assert_allclose(arrivals, [0.8, 0.0, 0.8])

    def test_single_file_reduces_to_scalar_model(self):
        """With M=1 the multi-file cost equals the single-file cost up to
        the lambda scaling convention (eq. 1 is per access; the multifile
        form keeps the same weighting, so they match exactly)."""
        costs = 1.0 - np.eye(4)
        rates = np.array([0.1, 0.2, 0.3, 0.4])
        single = FileAllocationProblem(costs, rates, k=1.0, mu=2.0)
        multi = MultiFileProblem(costs, rates[None, :], k=1.0, mu=2.0)
        x = np.array([0.4, 0.3, 0.2, 0.1])
        assert multi.cost(x[None, :]) == pytest.approx(single.cost(x))
        np.testing.assert_allclose(
            multi.cost_gradient(x[None, :])[0], single.cost_gradient(x)
        )


class TestMultiFileAllocator:
    def test_per_file_feasibility_every_iteration(self):
        problem = _two_file_problem()
        allocator = MultiFileAllocator(problem, alpha=0.2, epsilon=1e-6)
        x0 = np.array([[1.0, 0, 0], [1.0, 0, 0]])
        result = allocator.run(x0)
        np.testing.assert_allclose(result.allocation.sum(axis=1), 1.0, atol=1e-8)
        assert result.allocation.min() >= -1e-12

    def test_converges_and_is_monotone_with_safeguard(self):
        problem = _two_file_problem()
        result = MultiFileAllocator(problem, alpha=0.3, epsilon=1e-6).run(
            np.array([[1.0, 0, 0], [1.0, 0, 0]])
        )
        assert result.converged
        costs = np.asarray(result.cost_history)
        assert np.all(np.diff(costs) <= 1e-10)

    def test_files_repel_each_other(self):
        """Two symmetric-but-mirrored files should split apart to avoid
        queueing contention rather than co-locate."""
        problem = _two_file_problem(mu=2.0)  # tighter service: contention matters
        result = MultiFileAllocator(problem, alpha=0.2, epsilon=1e-7).run(
            np.full((2, 3), 1 / 3)
        )
        assert result.converged
        x = result.allocation
        # File 0 is pulled toward node 0, file 1 toward node 2 (their
        # heaviest readers), and contention keeps them from overlapping.
        assert x[0, 0] > x[1, 0]
        assert x[1, 2] > x[0, 2]

    def test_matches_single_file_algorithm_when_m_is_1(self, paper_problem, paper_start):
        multi = MultiFileProblem(
            paper_problem.cost_matrix,
            paper_problem.access_rates[None, :],
            k=1.0,
            mu=1.5,
        )
        m_result = MultiFileAllocator(multi, alpha=0.3, epsilon=1e-6).run(
            paper_start[None, :]
        )
        s_result = DecentralizedAllocator(
            paper_problem, alpha=0.3, epsilon=1e-6
        ).run(paper_start)
        np.testing.assert_allclose(
            m_result.allocation[0], s_result.allocation, atol=1e-4
        )

    def test_single_file_view(self):
        problem = _two_file_problem()
        view = problem.single_file_view(1)
        assert view.m == 1
        np.testing.assert_allclose(view.access_rates[0], problem.access_rates[1])
        with pytest.raises(ConfigurationError):
            problem.single_file_view(5)
