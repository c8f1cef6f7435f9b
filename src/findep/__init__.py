"""findep: exact computation and simulation of finitely dependent proper
colorings of cycles and lines.

The package computes the insertion-count recurrences behind a family of
stationary finitely dependent proper q-colorings, materializes their exact
laws as rational distributions, samples them by necklace insertion and by
Eden growth on the 3-regular tree, and verifies the defining identities by
exact arithmetic plus statistically tested Monte Carlo.

``import findep`` is lazy: it loads no submodule (and so not numpy). Each
name in ``__all__``, and each submodule that defines one, is imported on
first access as ``findep.<name>``.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name -> the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "analysis": (
            "GofReport", "are_independent", "chi_square_gof", "k_dependence_counterexample",
            "marginalize", "pushforward", "symmetry_check", "tv_distance", "verify_k_dependence",
        ),
        "chains": (
            "BinaryState", "ChainVariant", "IotaStatReport", "bit_descent_law",
            "bit_descent_window_law", "chain_law", "color_indicator", "descent_law",
            "descent_window_law", "initial_law", "iota_text", "iota_two_site_statistic",
            "j_kernel", "kernel_equal", "peak_law", "peak_window_law", "q_kernel",
        ),
        "dist": ("ExactDist", "Kernel", "state_text"),
        "errors": ("BudgetExceeded",),
        "growth": (
            "EdenState", "RngStream", "coupling_kernel", "eden_init", "eden_read", "eden_sample",
            "eden_state_json", "eden_step", "eden_vs_necklace_kernel_check",
            "insert_with_rotation", "necklace_sample", "replicate_draws", "validate_eden_state",
        ),
        "recurrence": (
            "DEFAULT_BUDGET", "THEOREM_GRADE", "b_circ", "b_circ_mobius", "b_vec", "cycle_law",
            "is_theorem_grade", "line_window_law", "restriction_sum", "z_circ", "z_circ_closed",
            "z_vec",
        ),
        "words": (
            "Word", "apply_color_perm", "delete_at", "is_cyclically_proper", "is_proper",
            "reflect", "rotate",
        ),
    }.items()
    for name in names
}
_SUBMODULES = frozenset(_EXPORTS.values())

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)  # the import binds it here
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _SUBMODULES | set(__all__))
