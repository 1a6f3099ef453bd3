"""Multiple copies of a file on a virtual ring (§7).

``m`` copies of the file are laid out contiguously ("end to end") around a
unidirectional virtual ring, so the file is contiguous as seen from any
node: walking clockwise from itself, a node assembles one complete copy by
taking each successive node's fragment until a full file has accumulated.
The resulting cost function is *discontinuous* in the allocation — link
costs pop in and out as fragments move — which is what makes this the
paper's hard case: gradient steps oscillate, and §7.3's alpha-decay
schedule plus cost-delta stopping is the remedy.

Modules: :mod:`layout` (who accesses whom, record intervals),
:mod:`cost` (the §7.2 cost model, including the paper's worked example),
:mod:`algorithm` (the oscillation-aware allocator),
:mod:`rounding` (§7.2's post-run cap at one whole copy per node).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "algorithm": ["MultiCopyAllocator", "MultiCopyResult"],
    "copy_count": ["CopyCountEntry", "CopyCountResult", "optimal_copy_count"],
    "cost": ["MultiCopyRingProblem"],
    "embedding": [
        "best_virtual_ring",
        "nearest_neighbor_order",
        "ring_circumference",
        "two_opt_improve",
    ],
    "fixtures": ["paper_figure8_rings", "paper_worked_example"],
    "layout": ["access_fractions", "node_intervals"],
    "readwrite": ["ReadWriteRingProblem", "optimal_copy_count_with_writes"],
    "rounding": ["cap_at_whole_copy"],
})
