import ast
import re
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


def defined_names(stmt: ast.stmt) -> set[str]:
    """The names a module-level def, class or assignment binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
    return {node.id for target in targets for node in ast.walk(target) if isinstance(node, ast.Name)}


def uses(tree: ast.Module) -> set[str]:
    """Names a module refers to outside the module-level statement that binds
    them: Name loads, attribute names, names imported with `from`, and the
    attribute of a "module:attribute" string (the tracer's keys)."""
    found: set[str] = set()
    for stmt in tree.body:
        names = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names |= {alias.name for alias in node.names}
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and re.fullmatch(r"\w+:\w+", node.value):
                names.add(node.value.split(":")[1])
        found |= names - defined_names(stmt)
    return found


def test_every_module_level_name_in_the_package_is_used():
    # a def, class or constant that nothing refers to is dead code
    modules = [p for p in sorted((ROOT / "src" / "pertgraph").glob("*.py")) if p.name != "__init__.py"]
    files = sorted((ROOT / "src" / "pertgraph").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    files += sorted((ROOT / "tests").glob("*.py"))
    used: set[str] = set()
    for path in files:
        used |= uses(ast.parse(path.read_text(encoding="utf-8")))
    unused = {
        f"{path.stem}.{name}"
        for path in modules
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body
        for name in defined_names(stmt)
        if name not in used
    }
    assert sorted(unused) == []
