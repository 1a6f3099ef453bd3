"""Tests for ``repro.parallel``: the batched kernel, its one driver
(the continuous batcher, which the lockstep ``BatchedAllocator`` runs),
and the process-pool sweep executor.

The load-bearing property is **bit-for-bit parity**: a batch row must
reproduce the serial :class:`DecentralizedAllocator` exactly — same
iterates, same active sets, same iteration counts — not merely to
tolerance.  Everything else (figures, benches, the CLI ``sweep`` command)
leans on that property.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.parallel.batched as batched_module
from repro.core.algorithm import DecentralizedAllocator
from repro.core.initials import paper_skewed_allocation, single_node_allocation
from repro.core.model import FileAllocationProblem
from repro.core.stepsize import DynamicStep
from repro.exceptions import ConfigurationError, StabilityError
from repro.experiments.sweeps import SweepResult, parameter_sweep
from repro.network.builders import complete_graph, line_graph, ring_graph, star_graph
from repro.obs import MetricsRegistry
from repro.parallel import (
    BatchedAllocator,
    BatchedProblem,
    ChainLink,
    ContinuousBatcher,
    SweepExecutionError,
    SweepExecutor,
    SweepTask,
    make_tasks,
    solve_chains,
    solve_grid_point,
    sweep_parallel,
)


def _random_problem(rng: np.random.Generator) -> FileAllocationProblem:
    """A randomized M/M/1 instance: random family, size, rates, mu, k."""
    n = int(rng.integers(3, 9))
    topo = ring_graph(n) if rng.random() < 0.5 else complete_graph(n)
    rates = rng.uniform(0.05, 1.0, size=n)
    rates /= rates.sum() / rng.uniform(0.5, 1.2)
    mu = float(rng.uniform(1.4, 4.0))
    k = float(rng.uniform(0.3, 2.0))
    return FileAllocationProblem.from_topology(topo, rates, k=k, mu=mu)


def _start_for(problem: FileAllocationProblem, kind: int) -> np.ndarray:
    n = problem.n
    if kind == 0:
        return np.full(n, 1.0 / n)
    if kind == 1:
        return paper_skewed_allocation(n)
    # Single-node starts force active-set shrinkage: every other node sits
    # on the boundary and the pin loop must fire.
    return single_node_allocation(n, 0)


def _assert_capped(allocation, cost, iterations, converged, serial, budget) -> None:
    """A run given ``budget`` steps stopped where the serial run was after
    ``min(budget, T)`` steps (``T`` = the serial count), bit for bit: a
    row that has not converged retires at its budget's iterate."""
    t = min(budget, serial.iterations)
    want = serial.trace.records[t]
    assert iterations == t
    assert converged == (serial.converged and serial.iterations <= budget)
    assert np.array_equal(allocation, want.allocation)
    assert cost == want.cost


def _budgets(longest: int, count: int = 8) -> list:
    """Up to ``count`` iteration budgets spread over ``1..longest``."""
    return sorted({int(t) for t in np.linspace(1, max(1, longest), count)})


class TestBatchedParity:
    def test_b1_reproduces_serial_on_25_seeded_problems(self):
        """The headline property: a B=1 batch is the serial allocator,
        bit for bit, across 25 randomized instances and starts (uniform,
        skewed, and single-node — the last shrinks the active set).  Rows
        capped at budgets spread over the run check the intermediate
        iterates too."""
        rng = np.random.default_rng(1986)
        for case in range(25):
            problem = _random_problem(rng)
            x0 = _start_for(problem, case % 3)
            alpha = float(rng.uniform(0.05, 0.6))
            serial = DecentralizedAllocator(
                problem, alpha=alpha, epsilon=1e-4, max_iterations=2_000
            ).run(x0)
            batch = BatchedAllocator(
                BatchedProblem.replicate(problem, 1),
                alpha=alpha,
                epsilon=1e-4,
                max_iterations=2_000,
            ).run(x0)
            _assert_capped(
                batch.allocations[0], batch.costs[0], batch.iterations[0],
                batch.converged[0], serial, 2_000,
            )
            budgets = _budgets(serial.iterations)
            cb = ContinuousBatcher(capacity=len(budgets), epsilon=1e-4)
            for t in budgets:
                cb.submit(problem, alpha=alpha, max_iterations=t, x0=x0, tag=t)
            rows = cb.drain()
            assert sorted(row.tag for row in rows) == budgets
            for row in rows:
                _assert_capped(
                    row.allocation, row.cost, row.iterations, row.converged,
                    serial, row.tag,
                )

    def test_heterogeneous_batch_matches_per_problem_serial(self):
        rng = np.random.default_rng(7)
        n = 5
        problems = []
        for _ in range(8):
            rates = rng.uniform(0.05, 0.5, size=n)
            problems.append(
                FileAllocationProblem.from_topology(
                    complete_graph(n),
                    rates / rates.sum(),
                    k=float(rng.uniform(0.5, 2.0)),
                    mu=float(rng.uniform(1.5, 3.0)),
                )
            )
        x0 = paper_skewed_allocation(n)
        batch = BatchedAllocator(
            BatchedProblem.from_problems(problems), alpha=0.25, epsilon=1e-4
        ).run(x0)
        for r, problem in enumerate(problems):
            serial = DecentralizedAllocator(
                problem, alpha=0.25, epsilon=1e-4
            ).run(x0)
            assert int(batch.iterations[r]) == serial.iterations
            assert np.array_equal(batch.allocations[r], serial.allocation)
            assert float(batch.costs[r]) == serial.cost

    def test_per_row_alphas_reproduce_figure3_counts(self, paper_problem, paper_start):
        alphas = [0.67, 0.3, 0.19, 0.08]
        batch = BatchedAllocator(
            BatchedProblem.replicate(paper_problem, len(alphas)),
            alpha=alphas,
            epsilon=1e-3,
        ).run(paper_start)
        for r, alpha in enumerate(alphas):
            serial = DecentralizedAllocator(
                paper_problem, alpha=alpha, epsilon=1e-3
            ).run(paper_start)
            assert int(batch.iterations[r]) == serial.iterations
            assert np.array_equal(batch.allocations[r], serial.allocation)

    def test_instability_raises(self):
        problems = [_random_problem_n(np.random.default_rng(2), 5), _unstable_problem(5)]
        with pytest.raises(StabilityError, match="batch row 1: M/M/1 unstable"):
            BatchedAllocator(problems, alpha=0.2).run()


class TestBatchedValidation:
    def test_unequal_sizes_rejected(self):
        p3 = FileAllocationProblem.from_topology(
            ring_graph(3), np.full(3, 1 / 3), k=1.0, mu=1.5
        )
        p4 = FileAllocationProblem.paper_network()
        with pytest.raises(ConfigurationError, match="equal size"):
            BatchedProblem([p3, p4])

    def test_empty_batch_rejected(self):
        with pytest.raises(ConfigurationError):
            BatchedProblem([])

    def test_non_mm1_delay_rejected(self):
        from repro.queueing import MD1Delay

        problem = FileAllocationProblem(
            1 - np.eye(3), np.full(3, 1 / 3), k=1.0,
            delay_models=[MD1Delay(2.0)] * 3,
        )
        with pytest.raises(ConfigurationError, match="MM1Delay"):
            BatchedProblem.replicate(problem, 2)

    def test_bad_alpha_and_shapes(self, paper_problem):
        batch = BatchedProblem.replicate(paper_problem, 2)
        with pytest.raises(ConfigurationError):
            BatchedAllocator(batch, alpha=-0.1)
        with pytest.raises(ConfigurationError, match="one per row"):
            BatchedAllocator(batch, alpha=[0.1, 0.2, 0.3])
        with pytest.raises(ConfigurationError, match="one per row"):
            BatchedAllocator(batch, alpha=DynamicStep())
        with pytest.raises(ConfigurationError):
            BatchedAllocator(batch).run(np.full((3, 4), 0.25))

    def test_plain_sequence_of_problems_accepted(self, paper_problem):
        result = BatchedAllocator(
            [paper_problem, paper_problem], alpha=0.3, epsilon=1e-3
        ).run()
        assert result.batch_size == 2
        assert result.converged.all()


class TestEngineParity:
    def test_sweep_alpha_iterations_batched(self, paper_problem, paper_start):
        from repro.analysis.convergence import sweep_alpha_iterations

        alphas = [0.08, 0.19, 0.3, 0.67]
        serial = sweep_alpha_iterations(
            paper_problem, paper_start, alphas, max_iterations=500
        )
        batched = sweep_alpha_iterations(
            paper_problem, paper_start, alphas, max_iterations=500, engine="batched"
        )
        assert serial == batched

    def test_unknown_engine_rejected(self, paper_problem, paper_start):
        from repro.analysis.convergence import sweep_alpha_iterations

        with pytest.raises(ValueError, match="engine"):
            sweep_alpha_iterations(
                paper_problem, paper_start, [0.3], engine="quantum"
            )

    def test_figure5_engines_agree(self):
        from repro.experiments.figures import figure5

        alphas = [0.1, 0.3, 0.6]
        serial = figure5(alphas=alphas, max_iterations=300)
        batched = figure5(alphas=alphas, max_iterations=300, engine="batched")
        assert serial.counts == batched.counts
        assert serial.best_alpha == batched.best_alpha

    def test_figure6_engines_agree(self):
        from repro.experiments.figures import figure6

        serial = figure6(sizes=(4, 6), alpha_grid=[0.2, 0.5], max_iterations=300)
        batched = figure6(
            sizes=(4, 6), alpha_grid=[0.2, 0.5], max_iterations=300, engine="batched"
        )
        assert serial.iterations_by_n == batched.iterations_by_n
        assert serial.best_alpha_by_n == batched.best_alpha_by_n


# -- executor ----------------------------------------------------------------
# Pool workers re-import this module, so factories/measures live at module
# level (the same requirement any sweep_parallel caller has).


def _grid_factory(k):
    return FileAllocationProblem(
        1 - np.eye(4), [0.25] * 4, k=k, mu=1.5
    )


def _seeded_factory(value, rng=None):
    """A factory that perturbs rates with its task rng (seeding contract)."""
    rates = 0.25 + 0.01 * rng.random(4)
    rates /= rates.sum()
    return FileAllocationProblem(1 - np.eye(4), rates, k=value, mu=1.5)


def _measure(problem, result):
    return {
        "cost": result.cost,
        "iterations": result.iterations,
        "converged": bool(result.converged),
    }


class _FlakyFactory:
    """Fails the first time each grid value is built, then succeeds —
    exercises the retry path across process boundaries via marker files."""

    def __init__(self, marker_dir: str):
        self.marker_dir = marker_dir

    def __call__(self, value):
        marker = Path(self.marker_dir) / f"seen-{value!r}"
        if not marker.exists():
            marker.touch()
            raise RuntimeError(f"transient failure for {value!r}")
        return _grid_factory(value)


class _AlwaysBroken:
    def __call__(self, value):
        raise RuntimeError("permanently broken")


class TestSweepTasks:
    def test_seeding_depends_only_on_root_and_index(self):
        tasks = make_tasks([10.0, 20.0, 30.0], seed=42)
        other = make_tasks([99.0, 98.0, 97.0], seed=42)
        for a, b in zip(tasks, other):
            # Same root + index → same stream, regardless of the value or
            # of any chunking/worker assignment downstream.
            assert a.rng().random() == b.rng().random()
        reseeded = make_tasks([10.0, 20.0, 30.0], seed=43)
        assert tasks[0].rng().random() != reseeded[0].rng().random()

    def test_rng_aware_factory_receives_task_stream(self):
        task = SweepTask(index=3, value=1.0, root_seed=7)
        measurements, snapshot = solve_grid_point(
            task, _seeded_factory, _measure, alpha=0.3, epsilon=1e-3
        )
        again, _ = solve_grid_point(
            task, _seeded_factory, _measure, alpha=0.3, epsilon=1e-3
        )
        assert measurements == again
        assert snapshot is None

    def test_alpha_none_uses_task_value_as_stepsize(self, paper_problem, paper_start):
        task = SweepTask(index=0, value=0.67, root_seed=0)
        measurements, _ = solve_grid_point(
            task,
            lambda value: FileAllocationProblem.paper_network(),
            _measure,
            initial_allocation=paper_start,
            alpha=None,
            epsilon=1e-3,
        )
        serial = DecentralizedAllocator(
            paper_problem, alpha=0.67, epsilon=1e-3
        ).run(paper_start)
        assert measurements["iterations"] == serial.iterations


class TestSweepExecutor:
    GRID = [0.5, 1.0, 2.0, 4.0]

    def test_pooled_matches_serial_sweep(self):
        serial = parameter_sweep("k", self.GRID, _grid_factory, measure=_measure)
        pooled = sweep_parallel(
            "k", self.GRID, _grid_factory, measure=_measure,
            max_workers=2, chunksize=1,
        )
        assert pooled.parameter == "k"
        assert pooled.values == self.GRID
        assert pooled.measurements == serial.measurements

    def test_registry_aggregates_across_workers(self):
        x0 = [0.7, 0.1, 0.1, 0.1]  # skewed: forces real iterations
        serial_reg = MetricsRegistry()
        parameter_sweep(
            "k", self.GRID, _grid_factory, measure=_measure,
            initial_allocation=x0, registry=serial_reg,
        )
        pooled_reg = MetricsRegistry()
        sweep_parallel(
            "k", self.GRID, _grid_factory, measure=_measure,
            initial_allocation=x0, max_workers=2, registry=pooled_reg,
        )
        assert pooled_reg.counters["sweep.tasks"] == len(self.GRID)
        # Worker-side solver counters fold home identically to serial.
        assert (
            pooled_reg.counters["allocator.iterations"]
            == serial_reg.counters["allocator.iterations"]
        )
        assert "sweep.run_seconds" in pooled_reg.histograms

    def test_retry_recovers_from_transient_failures(self, tmp_path):
        registry = MetricsRegistry()
        result = sweep_parallel(
            "k", self.GRID, _FlakyFactory(str(tmp_path)), measure=_measure,
            max_workers=1, retries=2, registry=registry,
        )
        baseline = parameter_sweep("k", self.GRID, _grid_factory, measure=_measure)
        assert result.measurements == baseline.measurements
        assert registry.counters["sweep.retries"] == len(self.GRID)

    def test_retry_budget_exhaustion_raises(self):
        with pytest.raises(SweepExecutionError) as err:
            sweep_parallel(
                "k", [1.0], _AlwaysBroken(), measure=_measure,
                max_workers=1, retries=1,
            )
        assert err.value.index == 0
        assert "permanently broken" in str(err.value)

    def test_inline_zero_retries_is_transparent(self):
        executor = SweepExecutor(max_workers=0, retries=0)
        with pytest.raises(RuntimeError, match="permanently broken"):
            executor.run(make_tasks([1.0]), _AlwaysBroken(), _measure)

    def test_inline_retry_wraps_after_budget(self, tmp_path):
        executor = SweepExecutor(max_workers=0, retries=1)
        out = executor.run(
            make_tasks(self.GRID), _FlakyFactory(str(tmp_path)), _measure
        )
        assert len(out) == len(self.GRID)
        with pytest.raises(SweepExecutionError):
            SweepExecutor(max_workers=0, retries=1).run(
                make_tasks([1.0]), _AlwaysBroken(), _measure
            )

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            SweepExecutor(max_workers=-1)
        with pytest.raises(ConfigurationError):
            SweepExecutor(chunksize=0)
        with pytest.raises(ConfigurationError):
            SweepExecutor(retries=-1)


class TestSweepResultJson:
    def test_round_trip(self):
        sweep = parameter_sweep(
            "k", [0.5, 1.0], _grid_factory, measure=_measure
        )
        restored = SweepResult.from_json(sweep.to_json())
        assert restored.parameter == sweep.parameter
        assert restored.values == sweep.values
        assert restored.measurements == sweep.measurements

    def test_numpy_values_serialize(self):
        sweep = SweepResult(
            parameter="mu",
            values=[np.float64(1.5), np.int64(2)],
            measurements=[
                {"cost": np.float64(1.8), "flag": np.bool_(True),
                 "vec": np.array([1.0, 2.0])},
                {"cost": 2.0, "flag": False, "vec": [3.0]},
            ],
        )
        payload = json.loads(sweep.to_json())
        assert payload["values"] == [1.5, 2]
        assert payload["measurements"][0] == {
            "cost": 1.8, "flag": True, "vec": [1.0, 2.0]
        }

    def test_from_json_rejects_garbage(self):
        with pytest.raises(ValueError):
            SweepResult.from_json("[1, 2, 3]")


def _random_problem_n(rng: np.random.Generator, n: int) -> FileAllocationProblem:
    """Like :func:`_random_problem` but with a caller-fixed size — the
    continuous batcher shares slots only across equal-``n`` problems."""
    topo = ring_graph(n) if rng.random() < 0.5 else complete_graph(n)
    rates = rng.uniform(0.05, 1.0, size=n)
    rates /= rates.sum() / rng.uniform(0.5, 1.2)
    mu = float(rng.uniform(1.4, 4.0))
    k = float(rng.uniform(0.3, 2.0))
    return FileAllocationProblem.from_topology(topo, rates, k=k, mu=mu)


def _unstable_problem(n: int = 5) -> FileAllocationProblem:
    """Stable at construction, then its service-rate estimate collapses —
    the drifted-overload scenario the per-row precheck guards against.
    (The constructor requires mu > total rate, so instability can only
    arise from post-hoc estimate updates like this.)"""
    problem = FileAllocationProblem.from_topology(
        ring_graph(n), np.full(n, 1.0 / n), k=1.0, mu=1.5
    )
    for model in problem.delay_models:
        model.mu = 0.1  # overload: any feasible x puts some arrival > mu
    problem._mm1_mu = np.full(n, 0.1)
    return problem


def _solo(problem, *, alpha, epsilon, max_iterations, x0):
    return DecentralizedAllocator(
        problem, alpha=alpha, epsilon=epsilon, max_iterations=max_iterations
    ).run(x0, raise_on_failure=False)


def _assert_row_matches_solo(row, solo) -> None:
    """A continuous RowResult == the serial result, bit for bit."""
    assert row.error is None
    assert row.iterations == solo.iterations
    assert row.converged == solo.converged
    assert np.array_equal(row.allocation, solo.allocation)
    assert row.cost == solo.cost


class TestContinuousParity:
    """The tentpole property: a row's trajectory through the continuous
    batcher is bit-for-bit the serial engine's, no matter when it was
    admitted, which rows it cohabited with, or how often its neighbors
    were retired and replaced."""

    def test_refill_rows_match_solo_over_25_seeds(self):
        for seed in range(25):
            rng = np.random.default_rng(6000 + seed)
            n = int(rng.integers(3, 8))
            count = int(rng.integers(5, 11))
            specs = []
            for i in range(count):
                # Mixed budgets force some rows to retire unconverged at
                # max_iterations mid-stream; shrinkage starts exercise the
                # active-set pin loop inside a shared batch.
                specs.append(
                    dict(
                        problem=_random_problem_n(rng, n),
                        alpha=float(rng.uniform(0.05, 0.45)),
                        epsilon=float(rng.choice([1e-3, 1e-5])),
                        max_iterations=int(rng.choice([40, 400, 5000])),
                        x0=_start_for(_random_problem_n(rng, n), int(rng.integers(0, 3))),
                    )
                )
            cb = ContinuousBatcher(capacity=3)
            for i, s in enumerate(specs):
                cb.submit(
                    s["problem"], alpha=s["alpha"], epsilon=s["epsilon"],
                    max_iterations=s["max_iterations"], x0=s["x0"], tag=i,
                )
            rows = {r.tag: r for r in cb.drain()}
            assert len(rows) == count
            saw_budget_capped = False
            for i, s in enumerate(specs):
                solo = _solo(
                    s["problem"], alpha=s["alpha"], epsilon=s["epsilon"],
                    max_iterations=s["max_iterations"], x0=s["x0"],
                )
                _assert_row_matches_solo(rows[i], solo)
                saw_budget_capped |= not solo.converged
            stats = cb.occupancy_stats()
            assert stats["retired"] == count
            assert stats["row_steps"] == sum(r.iterations for r in rows.values())

    def test_mid_flight_admission_leaves_inflight_rows_untouched(self):
        rng = np.random.default_rng(42)
        n = 5
        slow = _random_problem_n(rng, n)
        fast = _random_problem_n(rng, n)
        late = _random_problem_n(rng, n)
        cb = ContinuousBatcher(capacity=2, epsilon=1e-6)
        cb.submit(slow, alpha=0.05, tag="slow")  # small alpha: many steps
        cb.submit(fast, alpha=0.4, tag="fast")
        done = []
        for _ in range(3):
            done.extend(cb.step())
        # Admit a third problem while the first two are mid-flight; it
        # queues (capacity 2) and joins when a slot frees.
        cb.submit(late, alpha=0.3, tag="late")
        assert cb.backlog == 1
        done.extend(cb.drain())
        rows = {r.tag: r for r in done}
        for tag, problem, alpha in [
            ("slow", slow, 0.05), ("fast", fast, 0.4), ("late", late, 0.3)
        ]:
            solo = _solo(
                problem, alpha=alpha, epsilon=1e-6, max_iterations=100_000,
                x0=np.full(n, 1.0 / n),
            )
            _assert_row_matches_solo(rows[tag], solo)

    def test_same_step_retirements_come_back_in_slot_order(self):
        """Rows retiring on one step come back in slot order, whatever
        order they joined in: C takes slot 0 (freed by A) after B took
        slot 1, and B and C then spend their budgets on the same step."""
        problem = _random_problem_n(np.random.default_rng(4), 5)
        cb = ContinuousBatcher(capacity=2, epsilon=1e-12)
        cb.submit(problem, alpha=0.05, max_iterations=2, tag="A")
        cb.submit(problem, alpha=0.05, max_iterations=6, tag="B")
        retired = [[row.tag for row in cb.step()] for _ in range(2)]
        cb.submit(problem, alpha=0.05, max_iterations=4, tag="C")
        while not cb.idle():
            retired.append([row.tag for row in cb.step()])
        assert retired[1] == ["A"]
        assert retired[-1] == ["C", "B"]

    def test_immediately_converged_row_retires_with_zero_iterations(self):
        rng = np.random.default_rng(3)
        problem = _random_problem_n(rng, 4)
        optimum = _solo(
            problem, alpha=0.3, epsilon=1e-8, max_iterations=100_000,
            x0=np.full(4, 0.25),
        ).allocation
        cb = ContinuousBatcher(capacity=2, epsilon=1e-3)
        cb.submit(problem, alpha=0.3, x0=optimum, tag="warm")
        (row,) = cb.drain()
        solo = _solo(
            problem, alpha=0.3, epsilon=1e-3, max_iterations=100_000, x0=optimum
        )
        assert row.iterations == solo.iterations == 0
        _assert_row_matches_solo(row, solo)

    def test_unstable_row_fails_alone_without_poisoning_slotmates(self):
        rng = np.random.default_rng(9)
        n = 5
        healthy = [_random_problem_n(rng, n) for _ in range(3)]
        cb = ContinuousBatcher(capacity=4, epsilon=1e-5)
        cb.submit(healthy[0], alpha=0.2, tag=0)
        cb.submit(_unstable_problem(n), alpha=0.2, tag="bad")
        cb.submit(healthy[1], alpha=0.2, tag=1)
        cb.submit(healthy[2], alpha=0.2, tag=2)
        rows = {r.tag: r for r in cb.drain()}
        assert rows["bad"].error is not None
        assert "unstable" in rows["bad"].error
        assert not rows["bad"].ok and rows["bad"].allocation is None
        for i, problem in enumerate(healthy):
            solo = _solo(
                problem, alpha=0.2, epsilon=1e-5, max_iterations=100_000,
                x0=np.full(n, 1.0 / n),
            )
            _assert_row_matches_solo(rows[i], solo)

    def test_overflowing_row_fails_alone_without_poisoning_slotmates(self):
        # Row 0's first step overflows (gradients near the float maximum);
        # its iterate leaves the finite range and the next stability
        # check fails that row alone.
        big = 1e308
        bad = FileAllocationProblem(
            [[0, big, big], [big, 0, big], [big, big, 0]], [0.3, 0.3, 0.4], mu=2.0
        )
        rng = np.random.default_rng(12)
        healthy = [_random_problem_n(rng, 3) for _ in range(2)]
        cb = ContinuousBatcher(capacity=3, epsilon=1e-5)
        cb.submit(bad, alpha=0.3, x0=single_node_allocation(3, 0), tag="bad")
        for i, problem in enumerate(healthy):
            cb.submit(problem, alpha=0.2, x0=paper_skewed_allocation(3), tag=i)
        with np.errstate(over="ignore", invalid="ignore"):
            rows = {r.tag: r for r in cb.drain()}
        assert "unstable" in rows["bad"].error
        for i, problem in enumerate(healthy):
            solo = _solo(
                problem, alpha=0.2, epsilon=1e-5, max_iterations=100_000,
                x0=paper_skewed_allocation(3),
            )
            _assert_row_matches_solo(rows[i], solo)

    def test_finite_drift_still_raises(self):
        x = np.full((2, 3), 1.0 / 3)
        new_x = x.copy()
        new_x[0, 0] = np.inf  # an overflowed row passes unchecked
        new_x[1, 0] += 1e-6  # a finite drift is a defect
        with pytest.raises(AssertionError, match="batch row 1"):
            batched_module._checked_update(x, new_x, validate=True, registry=None)
        new_x[1] = x[1]
        out = batched_module._checked_update(x, new_x, validate=True, registry=None)
        assert out[0, 0] == np.inf

    def test_infeasible_x0_fails_at_admission(self):
        rng = np.random.default_rng(11)
        problem = _random_problem_n(rng, 4)
        cb = ContinuousBatcher(capacity=2)
        cb.submit(problem, x0=np.array([0.9, 0.9, 0.9, 0.9]), tag="bad")
        cb.submit(problem, tag="good")
        rows = {r.tag: r for r in cb.drain()}
        assert rows["bad"].error is not None and not rows["bad"].ok
        assert rows["good"].ok and rows["good"].converged

    def test_occupancy_beats_lockstep_on_mixed_convergence(self):
        # The motivating property: a stream of mixed-convergence problems
        # keeps continuous slots nearly full, while lockstep occupancy
        # decays toward the slowest straggler.
        rng = np.random.default_rng(21)
        n, count, cap = 4, 12, 3
        problems = [_random_problem_n(rng, n) for _ in range(count)]
        alphas = [float(a) for a in np.geomspace(0.04, 0.5, count)]
        cb = ContinuousBatcher(capacity=cap, epsilon=1e-6)
        for i, (p, a) in enumerate(zip(problems, alphas)):
            cb.submit(p, alpha=a, tag=i)
        cb.drain()
        stats = cb.occupancy_stats()
        assert stats["occupancy_ratio"] > 0.9
        # Lockstep cost for the same stream, dispatched in ceil(count/cap)
        # flush groups: each group runs to its slowest row.
        x0 = np.full(n, 1.0 / n)
        solo_iters = [
            _solo(p, alpha=a, epsilon=1e-6, max_iterations=100_000, x0=x0).iterations
            for p, a in zip(problems, alphas)
        ]
        flush_steps = sum(
            max(solo_iters[i : i + cap]) for i in range(0, count, cap)
        )
        assert stats["steps"] < flush_steps

    def test_validation(self):
        rng = np.random.default_rng(1)
        with pytest.raises(ConfigurationError):
            ContinuousBatcher(capacity=0)
        with pytest.raises(ConfigurationError):
            ContinuousBatcher(epsilon=-1.0)
        with pytest.raises(ConfigurationError):
            ContinuousBatcher(max_iterations=0)
        cb = ContinuousBatcher(capacity=2)
        with pytest.raises(ConfigurationError):
            cb.submit(_random_problem_n(rng, 4), alpha=-0.1)
        with pytest.raises(ConfigurationError):
            cb.submit(_random_problem_n(rng, 4), epsilon=0.0)
        with pytest.raises(ConfigurationError):
            cb.submit(_random_problem_n(rng, 4), max_iterations=0)
        cb.submit(_random_problem_n(rng, 4), tag="first")
        cb.step()  # n pinned by the first admission
        with pytest.raises(ConfigurationError, match="n=4"):
            cb.submit(_random_problem_n(rng, 5))

    def test_metrics_registry_counters(self):
        rng = np.random.default_rng(17)
        registry = MetricsRegistry()
        cb = ContinuousBatcher(capacity=2, epsilon=1e-4, registry=registry)
        for i in range(4):
            cb.submit(_random_problem_n(rng, 4), alpha=0.3, tag=i)
        rows = cb.drain()
        assert registry.counters["continuous.admitted"] == 4
        assert registry.counters["continuous.retired"] == 4
        assert registry.counters["continuous.row_steps"] == sum(
            r.iterations for r in rows
        )
        assert registry.gauges["continuous.capacity"] == 2.0


class TestSolveChains:
    def test_single_chain_is_the_serial_warm_sweep(self):
        # One chain == the serial warm-started sweep: every link starts
        # from its predecessor's final allocation, so measurements match
        # bit for bit, including the iteration collapse on interior links.
        ks = [0.5, 0.8, 1.1, 1.4, 1.7, 2.0]
        n = 4
        problems = [
            FileAllocationProblem.from_topology(
                ring_graph(n), np.full(n, 0.25), k=k, mu=1.5
            )
            for k in ks
        ]
        x0 = paper_skewed_allocation(n)  # off-optimum: the head must work
        links = [
            ChainLink(problem=p, alpha=0.3, epsilon=1e-4, x0=x0) for p in problems
        ]
        (chain_rows,) = solve_chains([links])
        warm = x0
        for p, row in zip(problems, chain_rows):
            solo = _solo(p, alpha=0.3, epsilon=1e-4, max_iterations=100_000, x0=warm)
            _assert_row_matches_solo(row, solo)
            warm = solo.allocation
        assert sum(r.iterations for r in chain_rows[1:]) < chain_rows[0].iterations

    def test_staggered_chains_reach_the_same_optima(self):
        ks = list(np.linspace(0.5, 2.0, 9))
        n = 4
        make = lambda k: FileAllocationProblem.from_topology(  # noqa: E731
            ring_graph(n), np.full(n, 0.25), k=k, mu=1.5
        )
        x0 = np.full(n, 0.25)
        single = solve_chains(
            [[ChainLink(problem=make(k), alpha=0.3, epsilon=1e-5, x0=x0) for k in ks]]
        )[0]
        three = solve_chains(
            [
                [ChainLink(problem=make(k), alpha=0.3, epsilon=1e-5, x0=x0)
                 for k in ks[i::3]]
                for i in range(3)
            ]
        )
        staggered = {k: row for i in range(3) for k, row in zip(ks[i::3], three[i])}
        for k, row in zip(ks, single):
            other = staggered[k]
            assert other.converged and row.converged
            assert abs(other.cost - row.cost) < 1e-4

    def test_failed_link_restarts_successor_cold(self):
        n = 5
        rng = np.random.default_rng(33)
        good = _random_problem_n(rng, n)
        links = [
            ChainLink(problem=_unstable_problem(n), alpha=0.3, epsilon=1e-4),
            ChainLink(problem=good, alpha=0.3, epsilon=1e-4),
        ]
        ((bad_row, good_row),) = [solve_chains([links])[0]]
        assert bad_row.error is not None
        solo = _solo(
            good, alpha=0.3, epsilon=1e-4, max_iterations=100_000,
            x0=np.full(n, 1.0 / n),
        )
        _assert_row_matches_solo(good_row, solo)

    def test_empty_and_ragged_chains(self):
        rng = np.random.default_rng(5)
        p = _random_problem_n(rng, 4)
        results = solve_chains(
            [[], [ChainLink(problem=p, alpha=0.3, epsilon=1e-4)]]
        )
        assert results[0] == []
        assert len(results[1]) == 1 and results[1][0].converged


def _mixed_batch(n: int, seed: int, rows: int = 8):
    """``rows`` heterogeneous size-``n`` problems (all four topology
    families, random rates, mu and k) with alternating skewed and
    single-node starts and per-row stepsizes.  Such a batch pins boundary
    nodes at different rates, so one pin round holds rows with several
    different active counts."""
    rng = np.random.default_rng(seed)
    families = (ring_graph, complete_graph, star_graph, line_graph)
    problems, starts, alphas = [], [], []
    for i in range(rows):
        rates = rng.uniform(0.05, 1.0, size=n)
        rates /= rates.sum() / rng.uniform(0.5, 1.0)
        problems.append(
            FileAllocationProblem.from_topology(
                families[i % 4](n), rates,
                k=float(rng.uniform(0.3, 2.0)), mu=float(rng.uniform(1.4, 3.0)),
            )
        )
        starts.append(
            paper_skewed_allocation(n) if i % 2 == 0
            else single_node_allocation(n, (3 * i) % n)
        )
        alphas.append(float(rng.uniform(0.1, 0.45)))
    return problems, np.stack(starts), alphas


@pytest.fixture
def pin_rounds(monkeypatch):
    """The active counts of every partial-mask round the kernel reduces."""
    seen = []
    inner = batched_module._masked_means

    def recording(g, mask):
        seen.append(mask.sum(axis=1).tolist())
        return inner(g, mask)

    monkeypatch.setattr(batched_module, "_masked_means", recording)
    return seen


def _assert_mixed_counts(rounds, n: int) -> None:
    """The batch reached what it was built for: a pin round holding rows
    of different active counts, with counts summed by NumPy's
    8-accumulator pairwise tree (8-128 active nodes) and, for n > 128, by
    its recursive split."""
    assert any(len(set(counts)) > 1 for counts in rounds)
    widest = max(max(counts) for counts in rounds)
    assert widest >= 8
    if n > 128:
        assert widest > 128


MIXED_SIZES = [12, 24, 150]


class TestMaskedMeans:
    @given(
        rows=st.integers(1, 12),
        n=st.integers(1, 200),
        density=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_compacted_serial_mean(self, rows, n, density, seed):
        """Bit for bit ``g[r, mask[r]].mean()`` for every row, over random
        masks; the magnitudes span six decades, so any other summation
        order would show in the last bits."""
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((rows, n)) * 10.0 ** rng.uniform(-3, 3, (rows, n))
        mask = rng.random((rows, n)) < density
        want = np.array(
            [g[r, mask[r]].mean() if mask[r].any() else 0.0 for r in range(rows)]
        )
        got = batched_module._masked_means(g, mask)
        assert got.tobytes() == want.tobytes()


class TestMixedActiveCounts:
    """Batches whose pin rounds mix active counts, at sizes where NumPy's
    pairwise summation is not a plain sequential loop."""

    @pytest.mark.parametrize("n", MIXED_SIZES)
    def test_lockstep_rows_match_serial(self, n, pin_rounds):
        """Final states, and every row's iterate at budgets spread over
        the run: a lockstep batch capped at ``t`` steps stops each row
        that has not converged at its serial iterate ``t``."""
        problems, starts, alphas = _mixed_batch(n, seed=n)
        serial = [
            DecentralizedAllocator(
                problem, alpha=alphas[r], epsilon=1e-3, max_iterations=400
            ).run(starts[r])
            for r, problem in enumerate(problems)
        ]
        for budget in [400] + _budgets(max(s.iterations for s in serial), 6):
            batch = BatchedAllocator(
                problems, alpha=alphas, epsilon=1e-3, max_iterations=budget
            ).run(starts)
            for r, s in enumerate(serial):
                _assert_capped(
                    batch.allocations[r], batch.costs[r], batch.iterations[r],
                    batch.converged[r], s, budget,
                )
        _assert_mixed_counts(pin_rounds, n)

    @pytest.mark.parametrize("n", MIXED_SIZES)
    def test_continuous_rows_match_serial(self, n, pin_rounds):
        problems, starts, alphas = _mixed_batch(n, seed=n, rows=10)
        cb = ContinuousBatcher(capacity=4, epsilon=1e-3, max_iterations=400)
        for i, problem in enumerate(problems):
            cb.submit(problem, alpha=alphas[i], x0=starts[i], tag=i)
        rows = {r.tag: r for r in cb.drain()}
        _assert_mixed_counts(pin_rounds, n)
        for i, problem in enumerate(problems):
            solo = _solo(
                problem, alpha=alphas[i], epsilon=1e-3, max_iterations=400,
                x0=starts[i],
            )
            _assert_row_matches_solo(rows[i], solo)

    @pytest.mark.parametrize("n", MIXED_SIZES)
    def test_chains_match_serial_warm_sweeps(self, n, pin_rounds):
        problems, starts, alphas = _mixed_batch(n, seed=n)
        chains = [
            [ChainLink(problem=p, alpha=alphas[c], epsilon=1e-3,
                       max_iterations=400, x0=starts[c])
             for p in problems[c::4]]
            for c in range(4)
        ]
        results = solve_chains(chains)
        _assert_mixed_counts(pin_rounds, n)
        for c, chain in enumerate(chains):
            warm = starts[c]
            for link, row in zip(chain, results[c]):
                solo = _solo(
                    link.problem, alpha=alphas[c], epsilon=1e-3,
                    max_iterations=400, x0=warm,
                )
                _assert_row_matches_solo(row, solo)
                warm = solo.allocation
