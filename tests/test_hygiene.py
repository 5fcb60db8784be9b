"""Source hygiene: every private module-level helper of the package is used."""

import ast
from pathlib import Path

import finslab

PACKAGE = Path(finslab.__file__).parent


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
