import ast
from pathlib import Path

import pertgraph

ROOT = Path(__file__).resolve().parents[1]


def test_every_exported_name_resolves():
    namespace = {}
    exec("from pertgraph import *", namespace)  # raises on a name in __all__ that does not exist
    assert sorted(set(pertgraph.__all__) - set(namespace)) == []
    assert len(pertgraph.__all__) == len(set(pertgraph.__all__))


def referenced_names(tree: ast.AST) -> set[str]:
    """Every Name and Attribute name in `tree`, except a def's references to itself."""
    found: set[str] = set()

    def visit(node: ast.AST, enclosing: frozenset[str]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
        if name is not None and name not in enclosing:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return found


def test_every_exported_name_has_a_caller_outside_the_tests():
    # an export used only by tests is test code kept in the package
    files = [p for p in sorted((ROOT / "src" / "pertgraph").glob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "perfbench").glob("*.py"))
    used: set[str] = set()
    for path in files:
        used |= referenced_names(ast.parse(path.read_text(encoding="utf-8")))
    assert sorted(set(pertgraph.__all__) - used) == []
