"""Smooth words over two-letter alphabets.

Words, run-length derivation operators, smoothness checks, self-reading
generators, bispecial trees with factor-complexity accounting, and the
growth matrices and exponents attached to them.

Each public name, and each module, is imported on first use: a process
compiles only the modules it reads (PEP 562).
"""

from importlib import import_module

# every module of the package, with the public names it owns
_EXPORTS = {
    "errors": ("BoundViolationError", "ConstructionError", "DerivationError",
               "FAMILIES", "InvalidFamilyError", "NoConvergenceError",
               "NotDerivableError", "NotPrimitiveError", "NotRDerivableError",
               "ResourceCapError", "SmoothWordsError", "UsageError"),
    "words": ("Alphabet", "Parity", "ParityCountVector", "Run",
              "RunFactorization", "Word"),
    "derivation": ("DerivabilityReport", "FSmoothCertificate", "derivability",
                   "derivative_chain", "derive_f", "derive_huang", "derive_r",
                   "is_f_smooth", "is_r_smooth", "left_extensions",
                   "right_extensions"),
    "bispecial": ("BispecialNode", "ComplexityTable", "GenerationStats",
                  "generation_stats", "generation_swap", "is_bispecial",
                  "multiplicity", "primitive", "root_of", "tree_complexity",
                  "tree_derived_complexity", "tree_generation"),
    "smoothness": ("bispecial_multiplicity_sum", "enumerate_f_smooth",
                   "exact_complexity", "f_smooth_count"),
    "generators": ("EmbeddingWitness", "build_smooth_from_r",
                   "check_smooth_depth", "coupled_pair_prefix", "embed_left",
                   "kappa_prefix"),
    "spectral": ("ExponentReport", "GrowthMatrices", "build_matrices",
                 "exponent_report", "lambda_of", "lower_bound_constants",
                 "max_length_growth_radius", "minimal_length_sequence",
                 "spectral_radius"),
    "checks": (),
    "cli": (),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*sorted(_HOME), "__version__"]

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:  # the import binds the module here
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f"{__name__}.{_HOME[name]}")
    value = globals()[name] = getattr(module, name)
    return value


def __dir__() -> list[str]:
    return __all__
