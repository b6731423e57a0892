"""The public surface: what the package exports, and what the benchmark uses."""

import ast
import importlib
from pathlib import Path

import smoothwords

ROUNDS = Path(__file__).resolve().parents[1] / "perfbench" / "rounds.py"

PUBLIC = [
    "Alphabet",
    "BispecialNode",
    "BoundViolationError",
    "ComplexityTable",
    "ConstructionError",
    "DerivabilityReport",
    "DerivationError",
    "EmbeddingWitness",
    "ExponentReport",
    "FAMILIES",
    "FSmoothCertificate",
    "GenerationStats",
    "GrowthMatrices",
    "InvalidFamilyError",
    "NoConvergenceError",
    "NotDerivableError",
    "NotPrimitiveError",
    "NotRDerivableError",
    "Parity",
    "ParityCountVector",
    "ResourceCapError",
    "Run",
    "RunFactorization",
    "SmoothWordsError",
    "Word",
    "bispecial_multiplicity_sum",
    "build_matrices",
    "build_smooth_from_r",
    "check_smooth_depth",
    "coupled_pair_prefix",
    "derivability",
    "derivative_chain",
    "derive_f",
    "derive_huang",
    "derive_r",
    "embed_left",
    "enumerate_f_smooth",
    "exact_complexity",
    "exponent_report",
    "f_smooth_count",
    "generation_stats",
    "generation_swap",
    "is_bispecial",
    "is_f_smooth",
    "is_r_smooth",
    "kappa_prefix",
    "lambda_of",
    "left_extensions",
    "lower_bound_constants",
    "max_length_growth_radius",
    "minimal_length_sequence",
    "multiplicity",
    "primitive",
    "right_extensions",
    "root_of",
    "spectral_radius",
    "tree_complexity",
    "tree_derived_complexity",
    "tree_generation",
    "__version__",
]


def test_all_is_pinned():
    assert smoothwords.__all__ == PUBLIC
    for name in PUBLIC:
        assert hasattr(smoothwords, name), name


def test_benchmark_imports_resolve():
    # perfbench/rounds.py runs outside the unit tests; a name it imports
    # that the package no longer has would only fail there.
    imported = [
        (node.module, alias.name)
        for node in ast.walk(ast.parse(ROUNDS.read_text()))
        if isinstance(node, ast.ImportFrom)
        and node.module in ("smoothwords", "smoothwords.checks")
        for alias in node.names
    ]
    assert {module for module, _ in imported} == {"smoothwords",
                                                  "smoothwords.checks"}
    missing = [f"{module}.{name}" for module, name in imported
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []
