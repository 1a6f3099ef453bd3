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

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "core": [
        "AllocationResult",
        "DecentralizedAllocator",
        "FileAllocationProblem",
        "MultiFileAllocator",
        "MultiFileProblem",
        "SecondOrderAllocator",
        "check_kkt",
        "optimal_allocation",
        "optimal_cost",
        "solve",
        "theorem2_alpha_bound",
    ],
    "net": ["NetClient", "NetServer"],
    "network": ["Topology", "VirtualRing", "complete_graph", "ring_graph"],
    "obs": ["JsonLinesSink", "MemorySink", "MetricsRegistry", "RunReport"],
    "parallel": ["BatchedAllocator", "BatchedProblem", "ContinuousBatcher", "sweep_parallel"],
    "service": ["AllocationService", "ServiceConfig", "SolveRequest", "SolveResponse"],
})
__all__.append("__version__")
