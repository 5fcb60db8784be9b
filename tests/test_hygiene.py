"""Source hygiene: every private module-level helper of the package is used,
and every method of a package class has a caller."""

import ast
from pathlib import Path

import finslab

PACKAGE = Path(finslab.__file__).parent
ROOT = Path(__file__).resolve().parent.parent


def test_private_helpers_are_referenced():
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    defined = {}
    for module, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.endswith("__")):
                defined[node.name] = module
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    dead = sorted(f"{module}: {name}" for name, module in defined.items()
                  if name not in referenced)
    assert not dead, f"unreferenced private helpers: {dead}"


def test_every_method_is_referenced():
    """A method of a finslab class must be named somewhere in src/, tests/
    or perfbench/: as an attribute, a name, or a string constant (the
    benchmark's tracer looks methods up by string).  Dunder methods are
    exempt.  A method that shares its name with a used one escapes this."""
    methods = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                methods.update(
                    (path.name, node.name, item.name) for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (item.name.startswith("__") and item.name.endswith("__")))
    referenced = set()
    for folder in ("src", "tests", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Attribute):
                    referenced.add(node.attr)
                elif isinstance(node, ast.Name):
                    referenced.add(node.id)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    referenced.add(node.value)
    dead = sorted(f"{module}: {cls}.{name}" for module, cls, name in methods
                  if name not in referenced)
    assert not dead, f"methods that nothing calls: {dead}"
