"""Serialization: persist problems, allocations, and run results as JSON.

A deployment that runs the algorithm "occasionally at night" (§8) needs to
persist instances and results between sessions; these helpers give every
core object a stable, versioned JSON form.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "serialization": [
        "allocation_result_to_dict",
        "load_problem",
        "multifile_problem_from_dict",
        "multifile_problem_to_dict",
        "problem_from_dict",
        "problem_to_dict",
        "save_problem",
        "trace_to_dict",
    ],
})
