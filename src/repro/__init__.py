"""repro — a full reproduction of Kurose & Simha's *A Microeconomic
Approach to Optimal File Allocation* (ICDCS 1986).

The library implements the paper's decentralized, resource-directed file
allocation algorithm together with every substrate it stands on: network
topologies and routing, queueing delay models, the generic microeconomic
planners, a discrete-event message-passing runtime, a record-store layer,
centralized baselines, and the complete experiment harness reproducing the
paper's figures.

Quick start::

    import repro

    problem = repro.FileAllocationProblem.paper_network()
    result = repro.DecentralizedAllocator(problem, alpha=0.3).run(
        [0.8, 0.1, 0.1, 0.0]
    )
    print(result.allocation)          # ~ [0.25, 0.25, 0.25, 0.25]
    print(result.trace.costs())       # the figure-3 convergence profile

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record.
"""

from repro.core import (
    AllocationResult,
    DecentralizedAllocator,
    FileAllocationProblem,
    MultiFileAllocator,
    MultiFileProblem,
    SecondOrderAllocator,
    check_kkt,
    optimal_allocation,
    optimal_cost,
    solve,
    theorem2_alpha_bound,
)
from repro.net import NetClient, NetServer
from repro.network import Topology, VirtualRing, complete_graph, ring_graph
from repro.obs import JsonLinesSink, MemorySink, MetricsRegistry, RunReport
from repro.parallel import (
    BatchedAllocator,
    BatchedProblem,
    ContinuousBatcher,
    sweep_parallel,
)
from repro.service import AllocationService, ServiceConfig, SolveRequest, SolveResponse

__version__ = "1.0.0"

__all__ = [
    "AllocationResult",
    "AllocationService",
    "BatchedAllocator",
    "BatchedProblem",
    "ContinuousBatcher",
    "DecentralizedAllocator",
    "FileAllocationProblem",
    "JsonLinesSink",
    "MemorySink",
    "MetricsRegistry",
    "MultiFileAllocator",
    "MultiFileProblem",
    "NetClient",
    "NetServer",
    "RunReport",
    "SecondOrderAllocator",
    "ServiceConfig",
    "SolveRequest",
    "SolveResponse",
    "Topology",
    "VirtualRing",
    "__version__",
    "check_kkt",
    "complete_graph",
    "optimal_allocation",
    "optimal_cost",
    "ring_graph",
    "solve",
    "sweep_parallel",
    "theorem2_alpha_bound",
]
