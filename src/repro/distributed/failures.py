"""Node-failure injection: the §4(a) graceful-degradation argument.

"If the file is distributed over a number of nodes then failure of one or
more nodes only means that the portions of the file stored at those nodes
cannot be accessed" — under fragmentation a failure loses ``x_dead`` of the
file; under integral allocation it loses everything or nothing.  This
module measures that, and additionally re-optimizes the surviving fragments
over the surviving network (what an adaptive deployment of the algorithm
would do after detecting the failure).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.algorithm import DecentralizedAllocator
from repro.core.model import FileAllocationProblem
from repro.exceptions import ConfigurationError
from repro.network.shortest_paths import all_pairs_shortest_paths
from repro.utils.numeric import normalize_simplex


@dataclass(frozen=True)
class FailureImpact:
    """Consequences of one node's failure under a given allocation."""

    failed_node: int
    #: Fraction of the file still reachable (1 - x_dead).
    surviving_fraction: float
    #: True when *no* record is reachable (the integral-allocation disaster).
    total_outage: bool
    #: The surviving fragments, renormalized over live nodes (the mass the
    #: re-replication step must redistribute is 1 - surviving_fraction).
    surviving_allocation: Optional[np.ndarray]
    #: Cost of the re-optimized allocation over the surviving network
    #: (None when re-optimization was not requested or not possible).
    reoptimized_cost: Optional[float]


def failure_impact(
    problem: FileAllocationProblem,
    allocation: Sequence[float],
    failed_node: int,
    *,
    reoptimize: bool = True,
    alpha: float = 0.1,
    epsilon: float = 1e-4,
) -> FailureImpact:
    """Assess (and optionally repair) the loss of ``failed_node``.

    Re-optimization requires the problem to have been built from a
    topology (so the surviving network's access costs can be recomputed)
    and the surviving network to be connected.
    """
    x = problem.check_feasible(allocation)
    if not 0 <= failed_node < problem.n:
        raise ConfigurationError(f"failed_node {failed_node} out of range")
    lost = float(x[failed_node])
    surviving = 1.0 - lost
    if surviving <= 1e-12:
        return FailureImpact(
            failed_node=failed_node,
            surviving_fraction=0.0,
            total_outage=True,
            surviving_allocation=None,
            reoptimized_cost=None,
        )

    survivors = np.ones(problem.n, dtype=bool)
    survivors[failed_node] = False
    surviving_allocation = x.copy()
    surviving_allocation[failed_node] = 0.0

    reoptimized_cost: Optional[float] = None
    if reoptimize and problem.topology is not None:
        alive = problem.topology.without_node(failed_node)
        # Collapse to the surviving index set for a well-posed sub-problem.
        idx = np.flatnonzero(survivors)
        sub_cost = all_pairs_shortest_paths(alive, require_connected=False)[
            np.ix_(idx, idx)
        ]
        if np.isfinite(sub_cost).all():
            sub_rates = problem.access_rates[idx]
            if sub_rates.sum() > 0:
                sub_problem = FileAllocationProblem(
                    sub_cost,
                    sub_rates,
                    k=problem.k,
                    delay_models=[problem.delay_models[i] for i in idx],
                    name=f"{problem.name}-minus-{failed_node}",
                )
                start = normalize_simplex(surviving_allocation[idx])
                result = DecentralizedAllocator(
                    sub_problem, alpha=alpha, epsilon=epsilon
                ).run(start)
                reoptimized_cost = result.cost

    return FailureImpact(
        failed_node=failed_node,
        surviving_fraction=surviving,
        total_outage=False,
        surviving_allocation=surviving_allocation,
        reoptimized_cost=reoptimized_cost,
    )
