"""Shared utilities: validation, numerics, seeding, and table rendering."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "numeric": [
        "clip_nonnegative",
        "is_close_vector",
        "kahan_sum",
        "normalize_simplex",
        "project_to_simplex",
    ],
    "seeding": ["SeedSequenceFactory", "rng_from_seed"],
    "tables": ["format_table"],
    "validation": [
        "check_in_range",
        "check_nonnegative",
        "check_positive",
        "check_probability_vector",
        "check_square_matrix",
    ],
})
