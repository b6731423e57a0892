"""The package's modules import one another in one direction, at the top."""

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "smoothwords"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
IMPORTS = (ast.Import, ast.ImportFrom)


def parse_package() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def relative_imports(tree: ast.Module) -> set[str]:
    """The package modules a module imports, wherever the import sits."""
    return {node.module or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level
            for alias in node.names}


def test_relative_imports_have_a_topological_order():
    graph = {name: relative_imports(tree) for name, tree in parse_package().items()}
    assert set().union(*graph.values()) <= set(graph)
    try:
        TopologicalSorter(graph).prepare()
    except CycleError as error:
        raise AssertionError(f"import cycle: {' -> '.join(error.args[1])}") from None
    assert "smoothness" not in graph["bispecial"]  # the trie reads the trees


def test_no_import_inside_a_function():
    nested = [f"{name}:{inner.lineno}"
              for name, tree in parse_package().items()
              for node in ast.walk(tree) if isinstance(node, FUNCTIONS)
              for inner in ast.walk(node) if isinstance(inner, IMPORTS)]
    assert nested == []
