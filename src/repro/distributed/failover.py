"""Failure handling for the distributed protocol: epoch restart.

§3's case for decentralization is reliability — "the single central agent
represents a single point-of-failure".  The resource-directed protocol has
no such agent: when a node dies mid-run, the survivors form a new
configuration epoch and keep optimizing.  This module implements that:

1. **epoch 1** runs the normal broadcast protocol until the failure
   instant (failure *detection* — heartbeats, timeouts — is abstracted as
   a fixed ``detection_delay`` of virtual time, the standard idealization);
2. at detection, each survivor discards the dead node's fragment from its
   view, rescales the surviving shares to a feasible allocation of the
   (smaller) remaining file — the §4 graceful-degradation semantics: the
   lost records must be re-replicated, which the rescale represents as
   proportional re-expansion — and rebuilds its cost model for the
   degraded network (recomputed routes and access weights);
3. **epoch 2** runs the protocol among survivors to convergence.

The final allocation provably matches optimizing the degraded sub-problem
directly (asserted in the tests), and the traffic statistics account both
epochs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.model import FileAllocationProblem
from repro.distributed.metrics import MessageStats
from repro.distributed.runtime import DistributedFapRuntime
from repro.exceptions import ConfigurationError
from repro.network.shortest_paths import all_pairs_shortest_paths
from repro.utils.validation import check_nonnegative


@dataclass
class FailoverRunResult:
    """Outcome of a run that survived one node failure."""

    #: Final allocation in the ORIGINAL indexing (0 at the failed node).
    allocation: np.ndarray
    #: Cost under the degraded problem (survivors only).
    cost: float
    failed_node: int
    #: Protocol rounds before the failure was detected.
    rounds_before_failure: int
    #: Rounds the survivor epoch needed.
    rounds_after_failure: int
    converged: bool
    #: Virtual time including the detection delay.
    virtual_time: float
    stats: MessageStats
    #: The degraded sub-problem (surviving indices, original order).
    degraded_problem: FileAllocationProblem


def degraded_subproblem(
    problem: FileAllocationProblem, failed_node: int
) -> tuple[FileAllocationProblem, np.ndarray]:
    """The FAP instance the survivors face after ``failed_node`` dies.

    Returns ``(sub_problem, survivor_indices)``.  Requires the problem to
    carry its topology (routes change when a store-and-forward relay
    disappears) and the surviving network to remain connected.
    """
    if problem.topology is None:
        raise ConfigurationError(
            "failover needs the problem's topology (build with from_topology)"
        )
    if not 0 <= failed_node < problem.n:
        raise ConfigurationError(f"failed node {failed_node} out of range")
    survivors = np.flatnonzero(np.arange(problem.n) != failed_node)
    alive = problem.topology.without_node(failed_node)
    costs = all_pairs_shortest_paths(alive, require_connected=False)[
        np.ix_(survivors, survivors)
    ]
    if not np.isfinite(costs).all():
        raise ConfigurationError(f"losing node {failed_node} disconnects the network")
    sub = FileAllocationProblem(
        costs,
        problem.access_rates[survivors],
        k=problem.k,
        delay_models=[problem.delay_models[int(i)] for i in survivors],
        name=f"{problem.name}-minus-{failed_node}",
    )
    return sub, survivors


def run_with_failure(
    problem: FileAllocationProblem,
    initial_allocation: Sequence[float],
    *,
    failed_node: int,
    fail_after_rounds: int,
    detection_delay: float = 5.0,
    protocol: str = "broadcast",
    alpha: float = 0.2,
    epsilon: float = 1e-4,
) -> FailoverRunResult:
    """Optimize, lose ``failed_node`` after ``fail_after_rounds``, recover.

    Parameters
    ----------
    problem:
        Must carry its topology.
    fail_after_rounds:
        Protocol rounds of epoch 1 before the node dies (0 = immediately).
    detection_delay:
        Virtual time charged for the survivors to detect the failure.
    """
    check_nonnegative(detection_delay, "detection_delay")
    if fail_after_rounds < 0:
        raise ConfigurationError("fail_after_rounds must be >= 0")

    # -- epoch 1: run until the failure instant -------------------------------
    x = problem.check_feasible(initial_allocation).copy()
    epoch1_rounds = 0
    epoch1_time = 0.0
    stats = MessageStats()
    if fail_after_rounds > 0:
        runtime1 = DistributedFapRuntime(
            problem,
            protocol=protocol,
            alpha=alpha,
            epsilon=epsilon,
            max_rounds=fail_after_rounds,
        )
        run1 = runtime1.run(x)
        x = run1.allocation
        epoch1_rounds = run1.iterations
        epoch1_time = run1.virtual_time
        stats = run1.stats

    # -- failure: survivors rescale and rebuild their view ---------------------
    sub, survivors = degraded_subproblem(problem, failed_node)
    surviving_mass = float(x[survivors].sum())
    if surviving_mass <= 1e-12:
        raise ConfigurationError(
            f"node {failed_node} held the entire file; survivors have nothing "
            "to rescale (the integral-allocation total outage)"
        )
    x_sub = x[survivors] / surviving_mass

    # -- epoch 2: survivors optimize the degraded instance ----------------------
    runtime2 = DistributedFapRuntime(
        sub, protocol=protocol, alpha=alpha, epsilon=epsilon
    )
    run2 = runtime2.run(x_sub)

    final = np.zeros(problem.n)
    final[survivors] = run2.allocation
    return FailoverRunResult(
        allocation=final,
        cost=run2.cost,
        failed_node=failed_node,
        rounds_before_failure=epoch1_rounds,
        rounds_after_failure=run2.iterations,
        converged=run2.converged,
        virtual_time=epoch1_time + detection_delay + run2.virtual_time,
        stats=stats.merged_with(run2.stats),
        degraded_problem=sub,
    )
