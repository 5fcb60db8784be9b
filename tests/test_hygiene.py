"""Source hygiene: every private module-level helper of the package is used,
every method of a package class has a caller, and nothing loads scipy."""

import ast
import os
import subprocess
import sys
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


NO_SCIPY_RUN = """
import sys
from pathlib import Path

import numpy as np

import finslab.cli as cli
from finslab import dsl, geodesics, variational

configs, circle = Path(sys.argv[1]), sys.argv[2]
for experiment in ("variation", "focal-correspondence"):
    assert cli.main([experiment, "--config", str(configs / f"{experiment}.ini")]) == 0
assert cli.main(["focal", "--config", circle]) == 0
einstein, unit = dsl.builtin_metric("einstein-static"), dsl.builtin_metric("unit-factor")
curve = geodesics.integrate_geodesic(einstein, [0, np.pi / 2, 0], [1, 0, 1], (0, 0.5), 1e-2)
sol = variational.integrate_jacobi(curve, einstein, np.zeros(3), [0, 1, 0])
rep, _ = geodesics.reparametrize_conformal(curve, unit, einstein)
variational.transfer_jacobi(variational.CurveGeometry(curve, einstein, unit), sol, rep)
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_runs_load_no_scipy(tmp_path):
    """A fresh interpreter imports finslab.cli and runs, between them, every
    kernel of finslab.numerics; no scipy module gets loaded, at import or
    deferred to a call.
    - `variation`: `simpson` (energy and the variation integrals), the
      Hermite spline (dense output) and `not_a_knot_slopes`;
    - `focal-correspondence`: the spline's scalar path (the
      reparametrization) and its (N, n, n) data (the focal search);
    - `focal` on a circle patch: `null_space` (the focal initial data);
    - `transfer_jacobi`: `cumulative_simpson`.
    """
    circle = tmp_path / "focal.ini"
    circle.write_text("[metric]\nmetric = einstein-static\n"
                      "x0 = 0, 1.5707963267948966, 0\nv0 = 1, 0, 1\n"
                      "patch = circle:0.7853981633974483\n"
                      "[run]\nt1 = 1.2\nstep = 5e-3\n"
                      "expected = 0.7853981633974483:1\n")
    done = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_RUN, str(ROOT / "configs"), str(circle)],
        capture_output=True, text=True, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def test_sources_do_not_name_scipy():
    named = [path.name for path in sorted(PACKAGE.glob("*.py"))
             if "scipy" in path.read_text()]
    assert not named, f"modules naming scipy: {named}"
