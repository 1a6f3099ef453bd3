"""Tests for the §7 multi-copy virtual-ring model, anchored on the paper's
worked example (comm cost 8.3, arrival 2.7 at node 4 of the figure-7 ring)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError, InfeasibleAllocationError
from repro.multicopy import MultiCopyAllocator, MultiCopyRingProblem, access_fractions, cap_at_whole_copy, node_intervals, paper_figure8_rings, paper_worked_example
from repro.multicopy.fixtures import (
    WORKED_EXAMPLE_ARRIVAL,
    WORKED_EXAMPLE_COMM_COST,
    WORKED_EXAMPLE_TARGET_NODE,
)
from repro.network.virtual_ring import VirtualRing


class TestWorkedExample:
    """The only fully quantified multi-copy instance in the paper (§7.2)."""

    def test_communication_cost_is_8_3(self):
        problem, x = paper_worked_example()
        comm = problem.communication_cost_per_node(x)
        assert comm[WORKED_EXAMPLE_TARGET_NODE] == pytest.approx(
            WORKED_EXAMPLE_COMM_COST
        )

    def test_arrival_rate_is_2_7(self):
        problem, x = paper_worked_example()
        arrivals = problem.node_arrivals(x)
        assert arrivals[WORKED_EXAMPLE_TARGET_NODE] == pytest.approx(
            WORKED_EXAMPLE_ARRIVAL
        )

    def test_individual_read_amounts(self):
        """Nodes 7,1,2,3,4 read 0.1, 0.3, 0.7, 0.8, 0.8 from node 4."""
        problem, x = paper_worked_example()
        a = problem.access_matrix(x)
        reads = a[:, WORKED_EXAMPLE_TARGET_NODE]
        expected = {0: 0.3, 1: 0.7, 2: 0.8, 3: 0.8, 6: 0.1}  # 0-based ids
        for node, amount in expected.items():
            assert reads[node] == pytest.approx(amount)
        assert reads[4] == 0.0 and reads[5] == 0.0


class TestAccessFractions:
    def test_every_reader_assembles_exactly_one_copy(self):
        problem, x = paper_worked_example()
        a = problem.access_matrix(x)
        np.testing.assert_allclose(a.sum(axis=1), 1.0)

    def test_own_fragment_first(self):
        ring = VirtualRing([1, 1, 1, 1])
        x = np.array([0.5, 0.5, 0.5, 0.5])
        a = access_fractions(ring, x)
        for j in range(4):
            assert a[j, j] == pytest.approx(0.5)

    def test_node_holding_full_copy_reads_only_itself(self):
        ring = VirtualRing([1, 1, 1, 1])
        a = access_fractions(ring, np.array([1.5, 0.2, 0.2, 0.1]))
        assert a[0, 0] == pytest.approx(1.0)
        assert a[0, 1:].sum() == pytest.approx(0.0)

    def test_requires_a_complete_copy(self):
        ring = VirtualRing([1, 1, 1])
        with pytest.raises(InfeasibleAllocationError, match="complete copy"):
            access_fractions(ring, np.array([0.3, 0.3, 0.3]))

    def test_rejects_negative(self):
        ring = VirtualRing([1, 1, 1])
        with pytest.raises(InfeasibleAllocationError):
            access_fractions(ring, np.array([1.5, -0.2, 0.7]))

    @given(st.integers(0, 10**5), st.integers(1, 3))
    @settings(max_examples=50, deadline=None)
    def test_assembly_property_random(self, seed, copies):
        """For any feasible allocation with sum = m >= 1, every reader's
        clockwise walk collects exactly one unit."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 9))
        ring = VirtualRing(rng.uniform(0.5, 3.0, size=n))
        x = rng.dirichlet(np.ones(n)) * copies
        a = access_fractions(ring, x)
        np.testing.assert_allclose(a.sum(axis=1), 1.0, atol=1e-9)
        # A reader never takes more than a node holds (capped at 1).
        assert np.all(a <= np.minimum(x, 1.0)[None, :] + 1e-12)


class TestNodeIntervals:
    def test_intervals_cover_each_record_m_times(self):
        ring = VirtualRing([1, 1, 1, 1])
        x = np.array([0.6, 0.4, 0.7, 0.3])  # m = 2
        intervals = node_intervals(ring, x)
        # Total measure = 2.
        total = sum(e - s for spans in intervals for s, e in spans)
        assert total == pytest.approx(2.0)
        # Probe points: each covered by exactly m=2 nodes.
        for probe in (0.05, 0.35, 0.65, 0.95):
            holders = sum(
                1
                for spans in intervals
                for s, e in spans
                if s <= probe < e
            )
            assert holders == 2

    def test_whole_copy_holder(self):
        ring = VirtualRing([1, 1, 1])
        intervals = node_intervals(ring, np.array([1.0, 0.6, 0.4]))
        assert intervals[0] == [(0.0, 1.0)]

    def test_wraparound_fragment_splits(self):
        ring = VirtualRing([1, 1, 1])
        # Node 2's fragment crosses the 1.0 boundary: 0.4+0.4 = 0.8 start.
        intervals = node_intervals(ring, np.array([0.4, 0.4, 0.7]))
        assert len(intervals[2]) == 2
        (s1, e1), (s2, e2) = intervals[2]
        assert e1 == 1.0 and s2 == 0.0


class TestMultiCopyCost:
    def test_gradient_finite_difference_consistency(self):
        """In a smooth region the FD gradient matches a finer-step FD."""
        problem, x = paper_worked_example()
        g1 = problem.cost_gradient(x, h=1e-5)
        g2 = problem.cost_gradient(x, h=1e-7)
        np.testing.assert_allclose(g1, g2, rtol=1e-2, atol=1e-4)

    def test_feasibility_check(self):
        problem, _ = paper_worked_example()
        with pytest.raises(InfeasibleAllocationError):
            problem.check_feasible(np.full(7, 1.0))  # sums to 7 != 2

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_feasibility_refuses_non_finite_fractions(self, bad):
        _, problem = paper_figure8_rings()
        with pytest.raises(InfeasibleAllocationError, match="non-finite"):
            problem.check_feasible([bad, 1.0, 1.0, 0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_refuses_non_finite_access_rates(self, bad):
        with pytest.raises(ConfigurationError, match="finite"):
            MultiCopyRingProblem(
                VirtualRing([1.0] * 4), [bad, 0.1, 0.1, 0.1], copies=2, mu=6.0
            )

    def test_cost_positive_and_finite(self):
        problem, x = paper_worked_example()
        assert 0 < problem.cost(x) < np.inf


class TestMultiCopyAllocator:
    def test_delay_dominated_ring_spreads_copies(self):
        _, delay = paper_figure8_rings(mu=6.0)
        x0 = np.array([1.4, 0.2, 0.2, 0.2])
        result = MultiCopyAllocator(delay, alpha=0.05, max_iterations=600).run(x0)
        # m=2 over 4 symmetric nodes: optimum is 0.5 each.
        np.testing.assert_allclose(result.allocation, 0.5, atol=0.1)
        assert result.cost < delay.cost(x0)

    def test_feasibility_maintained(self):
        comm, _ = paper_figure8_rings(mu=6.0)
        x0 = np.array([0.5, 0.5, 0.5, 0.5])
        result = MultiCopyAllocator(comm, alpha=0.1, max_iterations=100).run(x0)
        assert result.last_allocation.sum() == pytest.approx(2.0, abs=1e-8)
        assert result.allocation.sum() == pytest.approx(2.0, abs=1e-8)

    def test_comm_dominated_oscillates_more_than_delay_dominated(self):
        """The paper's figure-8 observation."""
        from repro.analysis.oscillation import oscillation_metrics

        comm, delay = paper_figure8_rings(mu=6.0)
        x0 = np.array([1.2, 0.3, 0.3, 0.2])
        runs = {}
        for name, prob in (("comm", comm), ("delay", delay)):
            result = MultiCopyAllocator(
                prob, alpha=0.1, decay=0.999, patience=10_000,
                cost_tolerance=1e-12, stall_window=10_000, max_iterations=120,
            ).run(x0)
            runs[name] = oscillation_metrics(result.cost_history)
        # "Greater oscillation" = larger swings, not more of them: compare
        # the trailing amplitude of the cost curve.
        assert runs["comm"].trailing_amplitude >= runs["delay"].trailing_amplitude

    def test_best_allocation_never_worse_than_last(self):
        comm, _ = paper_figure8_rings(mu=6.0)
        x0 = np.array([1.2, 0.3, 0.3, 0.2])
        result = MultiCopyAllocator(comm, alpha=0.1, max_iterations=200).run(x0)
        assert result.cost <= result.last_cost + 1e-12

    def test_alpha_decay_engages_on_oscillation(self):
        comm, _ = paper_figure8_rings(mu=6.0)
        x0 = np.array([1.2, 0.3, 0.3, 0.2])
        result = MultiCopyAllocator(
            comm, alpha=0.2, decay=0.5, patience=4, max_iterations=400
        ).run(x0)
        assert result.oscillated()
        assert min(result.alpha_history) < 0.2


class TestCapAtWholeCopy:
    def test_caps_and_preserves_mass(self):
        x = np.array([1.7, 0.2, 0.1, 0.0])
        capped = cap_at_whole_copy(x)
        assert capped.max() <= 1.0 + 1e-12
        assert capped.sum() == pytest.approx(x.sum())
        assert capped[0] == pytest.approx(1.0)

    def test_noop_when_already_capped(self):
        x = np.array([0.9, 0.6, 0.5])
        np.testing.assert_allclose(cap_at_whole_copy(x), x)

    def test_cascading_caps(self):
        x = np.array([2.5, 0.97, 0.03, 0.0])
        capped = cap_at_whole_copy(x)
        assert capped.max() <= 1.0 + 1e-9
        assert capped.sum() == pytest.approx(3.5)

    def test_impossible_capping_rejected(self):
        with pytest.raises(InfeasibleAllocationError):
            cap_at_whole_copy(np.array([2.0, 1.5]))  # 3.5 copies, 2 nodes

    @given(st.integers(0, 10**5))
    @settings(max_examples=50, deadline=None)
    def test_random_mass_preservation(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 8))
        m = int(rng.integers(1, n + 1))
        x = rng.dirichlet(np.ones(n)) * m
        capped = cap_at_whole_copy(x)
        assert capped.sum() == pytest.approx(m, abs=1e-8)
        assert capped.max() <= 1.0 + 1e-9
        assert capped.min() >= -1e-12
