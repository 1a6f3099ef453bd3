"""Theory-verification and convergence-diagnostics toolkit.

Makes the appendix executable: the (a)-(d) derivative bounds behind
Theorem 2, convexity verification, convergence-rate estimation, rapid-phase
measurement (§6), and oscillation metrics (§7.3).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "bounds": ["DerivativeBounds", "derivative_bounds"],
    "convergence": ["estimate_linear_rate", "iterations_to_tolerance", "sweep_alpha_iterations"],
    "convexity": ["verify_convexity_on_grid"],
    "optimality": ["optimality_gap"],
    "oscillation": ["detect_oscillation", "oscillation_metrics"],
    "sensitivity": ["KOperatingPoint", "choose_k_for_delay_budget", "evaluate_k", "sweep_k"],
})
