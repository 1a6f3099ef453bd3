"""Core FAP library: the paper's primary contribution.

Typical use::

    from repro.core import FileAllocationProblem, DecentralizedAllocator

    problem = FileAllocationProblem.paper_network()      # 4-node ring, §6
    result = DecentralizedAllocator(problem, alpha=0.3).run([0.8, 0.1, 0.1, 0.0])
    result.allocation                                    # -> ~[0.25]*4
"""

from repro.core.active_set import (
    ActiveSetPolicy,
    ClampRedistribute,
    PaperActiveSet,
    ScaledStep,
    Unconstrained,
    make_policy,
)
from repro.core.algorithm import AllocationResult, DecentralizedAllocator, solve
from repro.core.initials import (
    paper_skewed_allocation,
    proportional_allocation,
    random_allocation,
    single_node_allocation,
    uniform_allocation,
)
from repro.core.kkt import KKTReport, check_kkt, optimal_allocation, optimal_cost
from repro.core.model import FileAllocationProblem
from repro.core.multifile import MultiFileAllocator, MultiFileProblem
from repro.core.neighbor import (
    GossipAverageAllocator,
    NeighborOnlyAllocator,
    graph_laplacian,
    metropolis_weights,
)
from repro.core.query_update import QueryUpdateSpec, build_query_update_problem
from repro.core.second_order import SecondOrderAllocator
from repro.core.stepsize import (
    BacktrackingLineSearch,
    DecayOnOscillation,
    DynamicStep,
    FixedStep,
    StepSizePolicy,
    TheoremTwoStep,
    make_stepsize,
    theorem2_alpha_bound,
)
from repro.core.termination import (
    AnyOf,
    CostDeltaCriterion,
    GradientSpreadCriterion,
    LowestObservedCostCriterion,
    TerminationCriterion,
)
from repro.core.trace import IterationRecord, Trace
from repro.core.volume import VolumeCostProblem

__all__ = [
    "ActiveSetPolicy",
    "AllocationResult",
    "AnyOf",
    "BacktrackingLineSearch",
    "ClampRedistribute",
    "CostDeltaCriterion",
    "DecayOnOscillation",
    "DecentralizedAllocator",
    "DynamicStep",
    "FileAllocationProblem",
    "FixedStep",
    "GossipAverageAllocator",
    "GradientSpreadCriterion",
    "IterationRecord",
    "KKTReport",
    "LowestObservedCostCriterion",
    "MultiFileAllocator",
    "MultiFileProblem",
    "NeighborOnlyAllocator",
    "PaperActiveSet",
    "QueryUpdateSpec",
    "ScaledStep",
    "SecondOrderAllocator",
    "StepSizePolicy",
    "TerminationCriterion",
    "TheoremTwoStep",
    "Trace",
    "Unconstrained",
    "VolumeCostProblem",
    "build_query_update_problem",
    "check_kkt",
    "graph_laplacian",
    "make_policy",
    "metropolis_weights",
    "make_stepsize",
    "optimal_allocation",
    "optimal_cost",
    "paper_skewed_allocation",
    "proportional_allocation",
    "random_allocation",
    "single_node_allocation",
    "solve",
    "theorem2_alpha_bound",
    "uniform_allocation",
]
