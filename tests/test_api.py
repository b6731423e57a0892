"""The public surface: what the package exports, and what the benchmark uses."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import smoothwords

ROOT = Path(__file__).resolve().parents[1]
ROUNDS = ROOT / "perfbench" / "rounds.py"

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
    "UsageError",
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


def fresh(code: str) -> str:
    """The stdout of `code` run in a fresh interpreter on this checkout."""
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_loads_no_module():
    assert fresh("import sys, smoothwords\n"
                 "print(sorted(m for m in sys.modules if 'smoothwords' in m))"
                 ) == "['smoothwords']\n"


def test_every_name_resolves_on_first_use():
    # each name is read first by `import *`, which binds it here
    assert fresh("from smoothwords import *\n"
                 "import smoothwords\n"
                 "print([n for n in smoothwords.__all__ if n not in globals()\n"
                 "       or globals()[n] is not getattr(smoothwords, n)])"
                 ) == "[]\n"


def test_modules_resolve_as_attributes():
    assert fresh("import smoothwords\n"
                 "print(smoothwords.checks.__name__, smoothwords.cli.__name__)"
                 ) == "smoothwords.checks smoothwords.cli\n"


def test_dir_lists_all():
    assert set(PUBLIC) <= set(dir(smoothwords))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        smoothwords.no_such_name


def test_moved_names_keep_their_old_homes():
    from smoothwords import bispecial, checks, errors, spectral

    assert smoothwords.FAMILIES is bispecial.FAMILIES is errors.FAMILIES
    assert checks.SUITES is errors.SUITES
    assert checks.REFERENCE_EXPONENT_TABLE is spectral.REFERENCE_EXPONENT_TABLE


def test_benchmark_imports_resolve():
    # perfbench/rounds.py runs outside the unit tests; a name it imports
    # that the package no longer has, or a keyword it passes (method=,
    # start=) that the name no longer takes, would only fail there.
    tree = ast.parse(ROUNDS.read_text())
    imported = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and node.module in ("smoothwords", "smoothwords.checks")
        for alias in node.names
    ]
    assert {module for module, _ in imported} == {"smoothwords",
                                                  "smoothwords.checks"}
    missing = [f"{module}.{name}" for module, name in imported
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []
    # keywords of every call to an imported name, direct or via rec.call
    names = {name for module, name in imported if module == "smoothwords"}
    bound = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        fn = node.func
        if (getattr(fn, "attr", getattr(fn, "id", None)) == "call"
                and len(node.args) > 1):
            fn = node.args[1]
        if isinstance(fn, ast.Name) and fn.id in names:
            keywords = {k.arg: None for k in node.keywords if k.arg}
            inspect.signature(getattr(smoothwords, fn.id)).bind_partial(**keywords)
            bound.extend(keywords)
    assert {"method", "start"} <= set(bound)


AB12 = smoothwords.Alphabet(1, 2)
# Input validation across the modules, each with an argument outside its domain.
BAD_ARGUMENTS = [
    lambda: smoothwords.Alphabet(2, 1),
    lambda: AB12.word("123"),
    lambda: AB12.other(3),
    lambda: AB12.word("12") + smoothwords.Alphabet(1, 3).word("13"),
    lambda: smoothwords.kappa_prefix(AB12, -1),
    lambda: smoothwords.kappa_prefix(smoothwords.Alphabet(1, 3), 5, start=2),
    lambda: smoothwords.coupled_pair_prefix(smoothwords.Alphabet(1, 4), 5),
    lambda: smoothwords.embed_left(AB12.word("12121")),
    lambda: smoothwords.build_smooth_from_r(AB12.word("2221"), 10),
    lambda: smoothwords.derivability(AB12.word("12"), "x"),
    lambda: smoothwords.enumerate_f_smooth(AB12, -1),
    lambda: smoothwords.root_of(AB12.word("1")),
    lambda: smoothwords.generation_stats(AB12, "T", 2, method="x"),
    lambda: smoothwords.lambda_of(AB12),
    lambda: smoothwords.spectral_radius(((1, -1), (1, 1))),
    lambda: importlib.import_module("smoothwords.checks").run_suite("x"),
    lambda: smoothwords.Alphabet(True, 2),
    lambda: smoothwords.derivability(AB12.empty(), "bogus"),
    lambda: AB12.word([300]),
    lambda: AB12.word([-1]),
    lambda: AB12.word([1.0]),
    lambda: AB12.word(iter([1, 2, 256])),
    lambda: smoothwords.minimal_length_sequence(smoothwords.Alphabet(1, 3), -1),
    lambda: smoothwords.spectral_radius(()),
    lambda: smoothwords.spectral_radius(((1, 1, 1), (1, 1, 1))),
    lambda: smoothwords.spectral_radius(((1, 1), (1,))),
    lambda: smoothwords.spectral_radius(((1, 1), (1, 1), (1, 1))),
    lambda: smoothwords.kappa_prefix(AB12, 2.5),
    lambda: smoothwords.f_smooth_count(AB12, 2.5),
    lambda: smoothwords.tree_generation(AB12, "T", 2.0),
    lambda: smoothwords.f_smooth_count(AB12, True),
    lambda: AB12.word([True, 2]),
    lambda: AB12.word((1, False)),
    lambda: AB12.word(iter([2, True])),
]


@pytest.mark.parametrize("call", BAD_ARGUMENTS)
def test_input_validation_raises_usage_error(call):
    """A bad argument raises `UsageError`, so the CLI can tell it from a
    fault of the program."""
    with pytest.raises(smoothwords.UsageError):
        call()
