"""repro.parallel — batched and pooled execution of many FAP instances.

Three layers, two axes of parallelism:

* :class:`ContinuousBatcher` — SIMD-style, and the one batched driver:
  equal-size M/M/1 problems advance together as ``(R, N)`` NumPy arrays
  inside one process, in a fixed number of slots over a pending queue.
  Converged rows are retired mid-flight and queued problems (each with
  its own warm start, stepsize, tolerance, and budget) are admitted into
  the freed slots, so occupancy stays near capacity on mixed-convergence
  streams instead of decaying to the slowest straggler.  Per-row results
  are bit-for-bit identical to the serial
  :class:`~repro.core.algorithm.DecentralizedAllocator` (property tests
  enforce it).  :func:`solve_chains` builds warm-started continuation
  chains on top — the engine behind ``repro-fap sweep --engine batched
  --warm-start`` — and every grouped dispatch of the service runs here.
* :class:`BatchedAllocator` — a lockstep sweep of B problems: the
  batcher with all B rows admitted at step 0 and nothing queued.  This
  is the fast path for sweeps of *small* problems, where the serial
  engine's per-iteration Python overhead dominates.
* :class:`SweepExecutor` / :func:`sweep_parallel` — process-pool: one
  worker per grid point (chunked), with deterministic per-task seeding,
  bounded retry on worker failure, and cross-worker
  :class:`~repro.obs.registry.MetricsRegistry` aggregation.  This is the
  path for *heterogeneous* or *large* grid points (different sizes,
  non-M/M/1 delay models, expensive measures) and multi-core machines.

docs/PERFORMANCE.md quantifies when each layer wins; the serial
:func:`~repro.experiments.sweeps.parameter_sweep` now runs on the same
per-task runner, so the three engines return identical measurements.

Quick start::

    from repro.parallel import BatchedAllocator, BatchedProblem

    batch = BatchedProblem.replicate(problem, 256)     # one problem, 256 rows
    result = BatchedAllocator(batch, alpha=0.3).run()  # lockstep solve
    result.iterations                                  # (256,) per-row counts
    result.allocations[0]                              # row 0's final allocation
"""

from repro.parallel.batched import (
    BatchedAllocator,
    BatchedProblem,
    BatchedResult,
)
from repro.parallel.continuous import (
    ChainLink,
    ContinuousBatcher,
    RowResult,
    solve_chains,
)
from repro.parallel.executor import (
    SweepExecutionError,
    SweepExecutor,
    SweepTask,
    make_tasks,
    solve_grid_point,
    sweep_parallel,
)

__all__ = [
    "BatchedAllocator",
    "BatchedProblem",
    "BatchedResult",
    "ChainLink",
    "ContinuousBatcher",
    "RowResult",
    "SweepExecutionError",
    "SweepExecutor",
    "SweepTask",
    "make_tasks",
    "solve_chains",
    "solve_grid_point",
    "sweep_parallel",
]
