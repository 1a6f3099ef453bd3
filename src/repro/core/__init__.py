"""Core FAP library: the paper's primary contribution.

Typical use::

    from repro.core import FileAllocationProblem, DecentralizedAllocator

    problem = FileAllocationProblem.paper_network()      # 4-node ring, §6
    result = DecentralizedAllocator(problem, alpha=0.3).run([0.8, 0.1, 0.1, 0.0])
    result.allocation                                    # -> ~[0.25]*4
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "active_set": [
        "ActiveSetPolicy",
        "ClampRedistribute",
        "PaperActiveSet",
        "ScaledStep",
        "Unconstrained",
        "make_policy",
    ],
    "algorithm": ["AllocationResult", "DecentralizedAllocator", "solve"],
    "initials": [
        "paper_skewed_allocation",
        "proportional_allocation",
        "random_allocation",
        "single_node_allocation",
        "uniform_allocation",
    ],
    "kkt": ["KKTReport", "check_kkt", "optimal_allocation", "optimal_cost"],
    "model": ["FileAllocationProblem"],
    "multifile": ["MultiFileAllocator", "MultiFileProblem"],
    "neighbor": [
        "GossipAverageAllocator",
        "NeighborOnlyAllocator",
        "graph_laplacian",
        "metropolis_weights",
    ],
    "query_update": ["QueryUpdateSpec", "build_query_update_problem"],
    "second_order": ["SecondOrderAllocator"],
    "stepsize": [
        "BacktrackingLineSearch",
        "DecayOnOscillation",
        "DynamicStep",
        "FixedStep",
        "StepSizePolicy",
        "TheoremTwoStep",
        "make_stepsize",
        "theorem2_alpha_bound",
    ],
    "termination": [
        "AnyOf",
        "CostDeltaCriterion",
        "GradientSpreadCriterion",
        "LowestObservedCostCriterion",
        "TerminationCriterion",
    ],
    "trace": ["IterationRecord", "Trace"],
    "volume": ["VolumeCostProblem"],
})
