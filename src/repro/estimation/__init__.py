"""Derivative and parameter estimation from observed traffic (§8).

The conclusions note that an adaptive deployment "would crucially depend on
the ability of all nodes to accurately estimate the values for changing
system parameters i.e. compute the partial derivatives required by the
algorithm", pointing at perturbation analysis [34].  This package makes
that loop concrete:

* :mod:`finite_difference` — generic numeric marginals (validates every
  analytic gradient in the test suite);
* :mod:`perturbation` — estimating a node's service rate, arrival rate and
  delay derivative from its own observed traffic, including a
  common-random-numbers sample-path estimator;
* :mod:`adaptive` — the full §8 scenario: re-estimate, re-optimize,
  re-allocate as the workload drifts.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "adaptive": ["AdaptiveAllocationLoop", "AdaptiveEpoch"],
    "finite_difference": ["finite_difference_gradient", "finite_difference_hessian_diag"],
    "perturbation": [
        "NodeObservation",
        "crn_delay_derivative",
        "estimate_marginal_cost",
        "estimate_node_parameters",
    ],
})
