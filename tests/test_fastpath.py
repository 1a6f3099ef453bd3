"""Tests for the fused fast path and warm-started sweeps.

The load-bearing property is **bit-for-bit iterate parity**: the fast
engine (:mod:`repro.core.fastpath`) must reproduce the reference
:meth:`DecentralizedAllocator.run` loop exactly — same iterates, same
costs, same iteration counts, same registry counter totals — not merely
to tolerance.  Only the trace *density* may differ (the inlined loop
samples).  The property is exercised over a seeded population of random
problems spanning active-set shrinkage, every stepsize-policy family,
non-convergence, and registry attachment.  Outside the inlined
configuration ``engine="fast"`` is the reference run itself, observable
stream included.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    DecentralizedAllocator,
    FileAllocationProblem,
    SecondOrderAllocator,
    solve,
)
from repro.core import fastpath
from repro.core.initials import paper_skewed_allocation, single_node_allocation
from repro.core.stepsize import (
    BacktrackingLineSearch,
    DecayOnOscillation,
    DynamicStep,
    TheoremTwoStep,
)
from repro.core.termination import CostDeltaCriterion
from repro.exceptions import ConfigurationError, ConvergenceError
from repro.experiments.sweeps import parameter_sweep
from repro.network.builders import complete_graph, ring_graph
from repro.obs import MemorySink, MetricsRegistry
from repro.parallel import make_tasks, solve_grid_point, sweep_parallel
from repro.queueing.md1 import MD1Delay

N_PROPERTY_PROBLEMS = 30


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


def _stepsize_for(kind: int, rng: np.random.Generator):
    """One representative of each stepsize-policy family."""
    if kind == 0:
        return float(rng.uniform(0.1, 0.4))  # FixedStep via make_stepsize
    if kind == 1:
        return DynamicStep()
    if kind == 2:
        return DecayOnOscillation(float(rng.uniform(0.2, 0.5)), patience=3)
    if kind == 3:
        return TheoremTwoStep(1e-4)
    return BacktrackingLineSearch(initial=0.5)


def _assert_same_result(fast, ref) -> None:
    """Fast result == reference result, bit for bit."""
    assert fast.iterations == ref.iterations
    assert fast.converged == ref.converged
    assert fast.cost == ref.cost
    assert np.array_equal(fast.allocation, ref.allocation)


def _assert_trace_is_sample(fast_trace, ref_trace) -> None:
    """Every fast record matches the reference record it samples."""
    ref_by_iter = {r.iteration: r for r in ref_trace.records}
    assert fast_trace.records, "fast trace must never be empty"
    assert fast_trace.records[0].iteration == 0
    assert (
        fast_trace.records[-1].iteration == ref_trace.records[-1].iteration
    ), "fast trace must end on the final iterate"
    for rec in fast_trace.records:
        want = ref_by_iter[rec.iteration]
        assert rec.cost == want.cost
        assert rec.gradient_spread == want.gradient_spread
        assert rec.active_count == want.active_count
        assert np.array_equal(rec.alpha, want.alpha, equal_nan=True)
        assert np.array_equal(rec.allocation, want.allocation)


# -- the headline property: fast == reference over a seeded population --------


@pytest.mark.parametrize("seed", range(N_PROPERTY_PROBLEMS))
def test_fast_engine_matches_reference_bitwise(seed):
    rng = np.random.default_rng(1000 + seed)
    problem = _random_problem(rng)
    x0 = _start_for(problem, seed % 3)
    stepsize = _stepsize_for(seed % 5, rng)

    def allocator():
        return DecentralizedAllocator(
            problem, alpha=stepsize, epsilon=1e-4, max_iterations=5000
        )

    ref = allocator().run(x0)
    fast = allocator().run(x0, engine="fast")
    _assert_same_result(fast, ref)
    _assert_trace_is_sample(fast.trace, ref.trace)
    assert fast.trace.iterations == ref.iterations


@pytest.mark.parametrize("seed", range(8))
def test_fast_engine_matches_reference_under_registry(seed):
    """Registry attachment must not perturb iterates, and counter totals
    (as opposed to the sampled event stream) must match exactly."""
    rng = np.random.default_rng(2000 + seed)
    problem = _random_problem(rng)
    x0 = _start_for(problem, seed % 3)
    stepsize = _stepsize_for(seed % 5, rng)

    def run(engine):
        reg = MetricsRegistry()
        result = DecentralizedAllocator(
            problem,
            alpha=stepsize,
            epsilon=1e-4,
            max_iterations=3000,
            registry=reg,
        ).run(x0, engine=engine)
        return result, reg.snapshot()

    ref, ref_snap = run("reference")
    fast, fast_snap = run("fast")
    _assert_same_result(fast, ref)
    for counter in (
        "allocator.iterations",
        "allocator.gradient_evals",
        "allocator.active_set_shrink",
        "allocator.monotonicity_violations",
    ):
        assert fast_snap["counters"].get(counter) == ref_snap["counters"].get(
            counter
        ), counter
    for gauge in (
        "allocator.final_cost",
        "allocator.converged",
        "allocator.active_count",
    ):
        assert fast_snap["gauges"][gauge] == ref_snap["gauges"][gauge], gauge


def test_fast_engine_active_set_shrinkage_parity():
    """Single-node starts pin boundary nodes; the shrink path must agree."""
    rng = np.random.default_rng(42)
    shrunk_anywhere = 0
    for _ in range(5):
        problem = _random_problem(rng)
        x0 = single_node_allocation(problem.n, 0)
        ref = DecentralizedAllocator(problem, alpha=0.2, epsilon=1e-4).run(x0)
        fast = DecentralizedAllocator(problem, alpha=0.2, epsilon=1e-4).run(
            x0, engine="fast"
        )
        _assert_same_result(fast, ref)
        if min(r.active_count for r in ref.trace.records) < problem.n:
            shrunk_anywhere += 1
    # The population actually exercised shrinkage somewhere.
    assert shrunk_anywhere > 0


# -- non-convergence ----------------------------------------------------------


def test_fast_engine_non_convergence_returns_unconverged():
    problem = FileAllocationProblem.paper_network()
    x0 = [0.8, 0.1, 0.1, 0.0]
    ref = DecentralizedAllocator(problem, alpha=0.05, max_iterations=3).run(x0)
    fast = DecentralizedAllocator(problem, alpha=0.05, max_iterations=3).run(
        x0, engine="fast"
    )
    assert not ref.converged and not fast.converged
    assert ref.iterations == fast.iterations == 3
    _assert_same_result(fast, ref)


def test_fast_engine_non_convergence_raises_when_asked():
    problem = FileAllocationProblem.paper_network()
    x0 = [0.8, 0.1, 0.1, 0.0]
    with pytest.raises(ConvergenceError) as ref_err:
        DecentralizedAllocator(problem, alpha=0.05, max_iterations=3).run(
            x0, raise_on_failure=True
        )
    with pytest.raises(ConvergenceError) as fast_err:
        DecentralizedAllocator(problem, alpha=0.05, max_iterations=3).run(
            x0, raise_on_failure=True, engine="fast"
        )
    assert fast_err.value.iterations == ref_err.value.iterations == 3


def test_unknown_engine_rejected():
    problem = FileAllocationProblem.paper_network()
    with pytest.raises(ConfigurationError):
        DecentralizedAllocator(problem).run(engine="warp")
    with pytest.raises(ConfigurationError):
        solve(problem, engine="warp")


# -- entry points and trace policies ------------------------------------------


def test_fast_engine_respects_trace_memory_policies():
    rng = np.random.default_rng(7)
    problem = _random_problem(rng)
    x0 = single_node_allocation(problem.n, 0)
    for mode in ("all", "sampled", "last"):
        result = DecentralizedAllocator(
            problem,
            alpha=0.2,
            epsilon=1e-5,
            keep_allocations=mode,
            sample_every=10,
        ).run(x0, engine="fast")
        final = result.trace.records[-1]
        assert final.allocation is not None
        assert np.array_equal(final.allocation, result.allocation)
        if mode == "last":
            assert all(
                r.allocation is None for r in result.trace.records[:-1]
            )


def test_fast_engine_callback_fires_on_sampled_records():
    problem = FileAllocationProblem.paper_network()
    x0 = [0.8, 0.1, 0.1, 0.0]
    seen = []
    result = DecentralizedAllocator(
        problem,
        alpha=0.05,
        epsilon=1e-6,
        sample_every=5,
        callback=lambda rec: seen.append(rec.iteration),
    ).run(x0, engine="fast")
    assert seen[0] == 0
    assert seen[-1] == result.iterations
    assert seen == sorted(seen)
    # strictly fewer callbacks than iterations: the cadence is sampled
    assert len(seen) < result.iterations + 1


# -- satellite: reference loop skips copies under bounded trace modes ---------


def test_reference_loop_final_record_owns_its_allocation():
    problem = FileAllocationProblem.paper_network()
    x0 = [0.8, 0.1, 0.1, 0.0]
    for mode in ("sampled", "last"):
        result = DecentralizedAllocator(
            problem, alpha=0.3, keep_allocations=mode
        ).run(x0)
        final = result.trace.records[-1]
        assert np.array_equal(final.allocation, result.allocation)
        # mutating the returned allocation must not corrupt the trace
        result.allocation[0] += 1.0
        assert not np.array_equal(final.allocation, result.allocation)


# -- fused evaluate ------------------------------------------------------------


@pytest.mark.parametrize("seed", range(10))
def test_evaluate_matches_piecewise_queries_bitwise(seed):
    rng = np.random.default_rng(3000 + seed)
    problem = _random_problem(rng)
    x = rng.dirichlet(np.ones(problem.n))
    cost, grad = problem.evaluate(x)
    cost_h, grad_h, hess = problem.evaluate(x, need_hessian=True)
    assert cost == problem.cost(x) == cost_h
    assert np.array_equal(grad, problem.cost_gradient(x))
    assert np.array_equal(grad, grad_h)
    assert np.array_equal(-grad, problem.utility_gradient(x))
    assert np.array_equal(hess, problem.cost_hessian_diag(x))


def test_evaluate_object_loop_fallback_for_non_mm1_models():
    n = 4
    models = [MD1Delay(2.0) for _ in range(n)]
    problem = FileAllocationProblem.from_topology(
        ring_graph(n), np.full(n, 0.25), k=1.0, delay_models=models
    )
    assert not problem.has_vectorized_evaluate
    x = np.full(n, 0.25)
    cost, grad, hess = problem.evaluate(x, need_hessian=True)
    assert cost == problem.cost(x)
    assert np.array_equal(grad, problem.cost_gradient(x))
    assert np.array_equal(hess, problem.cost_hessian_diag(x))
    # and the fast engine still works on the fallback route
    ref = DecentralizedAllocator(problem, alpha=0.2).run()
    fast = DecentralizedAllocator(problem, alpha=0.2).run(engine="fast")
    _assert_same_result(fast, ref)


# -- outside the inlined configuration, engine="fast" is the reference run ----


def _md1_problem() -> FileAllocationProblem:
    n = 5
    return FileAllocationProblem.from_topology(
        ring_graph(n),
        [0.3, 0.25, 0.2, 0.15, 0.1],
        k=1.0,
        delay_models=[MD1Delay(2.0) for _ in range(n)],
    )


#: Each configuration the inlined loop does not run, as a factory of
#: ``(problem, allocator keywords)``; fresh policy objects per run.
FALLBACK_CONFIGS = {
    "dynamic-step": lambda: (_random_problem(np.random.default_rng(5)), dict(alpha=DynamicStep())),
    "decay-on-oscillation": lambda: (
        _random_problem(np.random.default_rng(6)),
        dict(alpha=DecayOnOscillation(0.4, patience=3)),
    ),
    "theorem-two-step": lambda: (
        _random_problem(np.random.default_rng(7)), dict(alpha=TheoremTwoStep(1e-4))
    ),
    "backtracking": lambda: (
        _random_problem(np.random.default_rng(8)),
        dict(alpha=BacktrackingLineSearch(initial=0.5)),
    ),
    "paper-active-set": lambda: (
        _random_problem(np.random.default_rng(9)), dict(alpha=0.2, active_set="paper")
    ),
    "cost-delta-termination": lambda: (
        _random_problem(np.random.default_rng(10)),
        dict(alpha=0.2, termination=CostDeltaCriterion(1e-9)),
    ),
    "md1-nodes": lambda: (_md1_problem(), dict(alpha=0.2)),
}


def _observed_run(engine: str, config: str):
    """One run under full observation: result, registry snapshot, sink
    events, and every record the callback saw."""
    problem, kwargs = FALLBACK_CONFIGS[config]()
    registry = MetricsRegistry()
    sink = MemorySink()
    registry.add_sink(sink)
    seen = []
    result = DecentralizedAllocator(
        problem,
        epsilon=1e-4,
        max_iterations=3000,
        registry=registry,
        callback=seen.append,
        sample_every=7,
        **kwargs,
    ).run(single_node_allocation(problem.n, 0), engine=engine)
    return result, registry.snapshot(), sink.events, seen


def _assert_same_records(a, b) -> None:
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x.iteration == y.iteration
        assert x.cost == y.cost and x.utility == y.utility
        assert x.gradient_spread == y.gradient_spread
        assert x.active_count == y.active_count
        assert np.array_equal(x.alpha, y.alpha, equal_nan=True)
        assert np.array_equal(x.allocation, y.allocation)


@pytest.mark.parametrize("config", sorted(FALLBACK_CONFIGS))
def test_fast_engine_outside_the_inlined_loop_is_the_reference_run(config):
    problem, kwargs = FALLBACK_CONFIGS[config]()
    assert not fastpath.inlines(DecentralizedAllocator(problem, **kwargs))
    fast, fast_snap, fast_events, fast_seen = _observed_run("fast", config)
    ref, ref_snap, ref_events, ref_seen = _observed_run("reference", config)

    _assert_same_result(fast, ref)
    assert fast.trace.iterations == ref.trace.iterations
    # the dense trace, not a sample of it
    _assert_same_records(fast.trace.records, ref.trace.records)
    assert len(ref.trace.records) == ref.iterations + 1
    assert fast_snap["counters"] == ref_snap["counters"]
    assert fast_snap["gauges"] == ref_snap["gauges"]
    timer = "allocator.run_seconds"
    assert {k: v for k, v in fast_snap["histograms"].items() if k != timer} == {
        k: v for k, v in ref_snap["histograms"].items() if k != timer
    }
    # the events carry no clock reading; the whole stream must match
    # (a NaN field matches a NaN field)
    assert len(fast_events) == len(ref_events) > ref.iterations
    for a, b in zip(fast_events, ref_events):
        assert a.keys() == b.keys()
        assert all(a[k] == b[k] or (a[k] != a[k] and b[k] != b[k]) for k in a), (a, b)
    _assert_same_records(fast_seen, ref_seen)


def test_fast_engine_inlines_the_default_configuration():
    problem = FileAllocationProblem.paper_network()
    assert fastpath.inlines(DecentralizedAllocator(problem, alpha=0.3))
    # per-node service rates are still plain M/M/1
    per_node = FileAllocationProblem(
        problem.cost_matrix, problem.access_rates, mu=[1.5, 1.6, 1.7, 1.8]
    )
    assert fastpath.inlines(DecentralizedAllocator(per_node, alpha=0.3))


# -- second-order allocator rides the fused evaluate --------------------------


def test_second_order_step_accepts_precomputed_derivatives():
    rng = np.random.default_rng(11)
    problem = _random_problem(rng)
    allocator = SecondOrderAllocator(problem)
    x = np.full(problem.n, 1.0 / problem.n)
    plain_x, plain_mask = allocator.step(x)
    _, cg, h = problem.evaluate(x, need_hessian=True)
    fused_x, fused_mask = allocator.step(x, gradient=cg, hessian_diag=h)
    assert np.array_equal(plain_x, fused_x)
    assert np.array_equal(plain_mask, fused_mask)


# -- warm-started sweeps ------------------------------------------------------

RATES_4 = [0.45, 0.25, 0.2, 0.1]


def _k_factory(k):
    return FileAllocationProblem.from_topology(
        ring_graph(4), RATES_4, k=k, mu=2.0
    )


def _sweep_measure(problem, result):
    return {
        "iterations": result.iterations,
        "cost": result.cost,
        "converged": result.converged,
        "allocation": result.allocation.tolist(),
    }


SWEEP_KW = dict(
    measure=_sweep_measure,
    epsilon=1e-6,
    initial_allocation=[0.7, 0.1, 0.1, 0.1],
    alpha=0.2,
)


def test_warm_start_reduces_iterations_and_preserves_solutions():
    ks = list(np.linspace(0.5, 3.0, 30))
    cold = parameter_sweep("k", ks, _k_factory, **SWEEP_KW)
    warm = parameter_sweep("k", ks, _k_factory, warm_start=True, **SWEEP_KW)
    assert warm.values == cold.values  # measurement order is grid order
    assert all(warm.column("converged"))
    assert sum(warm.column("iterations")) < sum(cold.column("iterations"))
    for c, w in zip(cold.measurements, warm.measurements):
        assert w["cost"] == pytest.approx(c["cost"], abs=1e-4)


def test_warm_start_with_fast_engine_matches_reference_engine():
    """Same starting iterates + engine parity => identical measurements."""
    ks = list(np.linspace(0.5, 3.0, 20))
    warm_ref = parameter_sweep(
        "k", ks, _k_factory, warm_start=True, **SWEEP_KW
    )
    warm_fast = parameter_sweep(
        "k", ks, _k_factory, warm_start=True, engine="fast", **SWEEP_KW
    )
    for a, b in zip(warm_ref.measurements, warm_fast.measurements):
        assert a["iterations"] == b["iterations"]
        assert a["cost"] == b["cost"]
        assert a["allocation"] == b["allocation"]


def test_warm_start_unsorted_grid_still_returns_grid_order():
    ks = [2.0, 0.5, 3.0, 1.0]
    cold = parameter_sweep("k", ks, _k_factory, **SWEEP_KW)
    warm = parameter_sweep("k", ks, _k_factory, warm_start=True, **SWEEP_KW)
    assert warm.values == ks
    for c, w in zip(cold.measurements, warm.measurements):
        assert w["cost"] == pytest.approx(c["cost"], abs=1e-4)


def test_warm_start_inline_executor_via_sweep_parallel():
    ks = list(np.linspace(0.5, 3.0, 12))
    warm = sweep_parallel(
        "k", ks, _k_factory, warm_start=True, max_workers=0, **SWEEP_KW
    )
    serial = parameter_sweep("k", ks, _k_factory, warm_start=True, **SWEEP_KW)
    assert [m["cost"] for m in warm.measurements] == [
        m["cost"] for m in serial.measurements
    ]


def test_solve_grid_point_warm_allocation_size_mismatch_falls_back():
    task = make_tasks([1.0])[0]
    measurements, _ = solve_grid_point(
        task,
        _k_factory,
        _sweep_measure,
        warm_allocation=np.full(7, 1.0 / 7),  # wrong size: cold start
        initial_allocation=[0.7, 0.1, 0.1, 0.1],
        alpha=0.2,
        epsilon=1e-6,
    )
    cold, _ = solve_grid_point(
        task,
        _k_factory,
        _sweep_measure,
        initial_allocation=[0.7, 0.1, 0.1, 0.1],
        alpha=0.2,
        epsilon=1e-6,
    )
    assert measurements == cold


def test_solve_grid_point_return_allocation_round_trip():
    task = make_tasks([1.0])[0]
    measurements, _, allocation = solve_grid_point(
        task,
        _k_factory,
        _sweep_measure,
        return_allocation=True,
        alpha=0.2,
        epsilon=1e-6,
    )
    assert allocation.tolist() == measurements["allocation"]
    # chaining it into a neighboring point converges immediately
    again, _ = solve_grid_point(
        make_tasks([1.01])[0],
        _k_factory,
        _sweep_measure,
        warm_allocation=allocation,
        alpha=0.2,
        epsilon=1e-6,
    )
    assert again["iterations"] <= measurements["iterations"]
