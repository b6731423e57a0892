"""The package's modules import one another in one direction, at the top;
the loads on first use, through the package, keep to the same order."""

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


def exports(tree: ast.Module) -> dict[str, tuple[str, ...]]:
    """`__init__`'s `_EXPORTS` table: every module and the names it owns."""
    (table,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                and ast.unparse(node.targets[0]) == "_EXPORTS"]
    return ast.literal_eval(table)


def defined_names(tree: ast.Module) -> set[str]:
    """The names a module defines at its top by `def`, `class` or assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names |= {leaf.id for target in node.targets for leaf in ast.walk(target)
                      if isinstance(leaf, ast.Name)}
    return names


def package_reads(name: str, tree: ast.Module) -> set[str]:
    """The package modules a module loads on first use: those `__init__`'s
    `_EXPORTS` table names, and every `smoothwords.<module>` another reads."""
    if name == "__init__":
        return set(exports(tree))
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "smoothwords"}


def test_relative_imports_have_a_topological_order():
    graph = {name: relative_imports(tree) | package_reads(name, tree)
             for name, tree in parse_package().items()}
    assert set().union(*graph.values()) <= set(graph)
    # the loader names every module, and the CLI reaches every one
    assert graph["__init__"] == set(graph) - {"__init__"}
    assert graph["cli"] == set(graph) - {"__init__", "cli"}
    try:
        TopologicalSorter(graph).prepare()
    except CycleError as error:
        raise AssertionError(f"import cycle: {' -> '.join(error.args[1])}") from None
    # the enumeration's budget reads the trees
    assert "smoothness" not in graph["bispecial"]
    # membership is derivation's and the embedding generators': the
    # automaton reads neither, and the generators read no tree or automaton
    assert not graph["smoothness"] & {"derivation", "generators"}
    assert not graph["generators"] & {"bispecial", "smoothness"}


def test_every_public_name_is_defined_by_its_owner():
    package = parse_package()
    homeless = [f"{module}.{name}"
                for module, names in exports(package["__init__"]).items()
                for name in names if name not in defined_names(package[module])]
    assert homeless == []


def test_no_module_imports_dataclasses():
    """`dataclasses` imports `inspect`, which costs every CLI process."""
    importers = [f"{name}:{node.lineno}"
                 for name, tree in parse_package().items()
                 for node in ast.walk(tree)
                 if (isinstance(node, ast.Import)
                     and any(alias.name == "dataclasses" for alias in node.names))
                 or (isinstance(node, ast.ImportFrom) and node.module == "dataclasses")]
    assert importers == []


def test_no_import_inside_a_function():
    nested = [f"{name}:{inner.lineno}"
              for name, tree in parse_package().items()
              for node in ast.walk(tree) if isinstance(node, FUNCTIONS)
              for inner in ast.walk(node) if isinstance(inner, IMPORTS)]
    assert nested == []


def test_only_words_sets_record_fields():
    """`words._Record` alone knows how a record's fields are written."""
    writers = [f"{name}:{node.lineno}"
               for name, tree in parse_package().items() if name != "words"
               for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and node.attr == "__setattr__"
               and isinstance(node.value, ast.Name) and node.value.id == "object"]
    assert writers == []
