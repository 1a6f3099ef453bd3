"""Centralized and naive baselines.

The paper motivates the decentralized algorithm against (a) integral
(whole-file) allocation — §6's figure 4 — and (b) centralized optimization
generally (§3).  This package provides:

* :func:`~repro.baselines.integral.best_integral_allocation` — the optimal
  single-node placement (the N-choice Chu-style integer program for one
  file and one copy);
* :func:`~repro.baselines.integral.greedy_integral_multifile` — a greedy
  heuristic for placing several whole files;
* :class:`~repro.baselines.centralized.ProjectedGradientSolver` — a
  centralized projected-gradient reference;
* :func:`~repro.baselines.centralized.scipy_reference_optimum` — an SLSQP
  reference when scipy is available;
* :func:`~repro.baselines.exhaustive.exhaustive_grid_optimum` — brute-force
  grid search for tiny instances (test oracle).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "centralized": ["ProjectedGradientSolver", "scipy_reference_optimum"],
    "exhaustive": ["exhaustive_grid_optimum"],
    "integral": ["best_integral_allocation", "greedy_integral_multifile", "integral_costs"],
    "local_search": ["local_search_integral_multifile"],
})
