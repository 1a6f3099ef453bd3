"""Experiment harness: one entry point per figure in the paper's evaluation.

Figures 3-6 (§6, single copy) and figures 8-9 (§7.3, multi-copy ring) are
the paper's complete quantitative evaluation (figures 1, 2, 7 and 10 are
diagrams).  Each ``figureN`` function reproduces the corresponding
experiment and returns a structured result carrying both our measurements
and the paper's reported anchors, which the benchmark suite prints side by
side and EXPERIMENTS.md records.
"""

from repro._lazy import lazy_exports

# Imported now, not on first use: the function shares its submodule's name,
# and importing that submodule anywhere would rebind the package attribute
# to the module before a lazy lookup ran.
from repro.experiments.ascii_plot import ascii_plot as ascii_plot

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "figures": [
        "Figure3Result",
        "Figure4Result",
        "Figure5Result",
        "Figure6Result",
        "Figure8Result",
        "Figure9Result",
        "figure3",
        "figure4",
        "figure5",
        "figure6",
        "figure8",
        "figure9",
    ],
    "sweeps": ["SweepResult", "parameter_sweep", "sweep_parallel"],
})
__all__.append("ascii_plot")
