"""Source hygiene: every private module-level helper of the package is used,
every method of a package class and every public name has a caller, and
nothing loads scipy."""

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


# The one-sample method layers of a definition, and the only functions of
# src/ that may call them: the definition's own one-sample methods,
# `spray_coefficients` and `legendre`.  Along a curve, every node is read by
# the one walk, `dsl._along`, on programs bound once per call.
POINT_METHODS = ("_point_value", "_point_jet", "_point_admissible")
ONE_SAMPLE_CALLERS = {
    ("dsl.py", "MetricDefinition.value"), ("dsl.py", "MetricDefinition.jet"),
    ("dsl.py", "MetricDefinition.admissible"),
    ("connection.py", "spray_coefficients"), ("tensors.py", "legendre"),
}


def test_only_one_sample_paths_call_the_point_methods():
    """Each function or method of src/ that names `_point_value`,
    `_point_jet` or `_point_admissible`, by its dotted scope (a nested
    function counts as itself), is one of `ONE_SAMPLE_CALLERS`: a loop over
    a curve's nodes through the method layers fails here."""
    callers = set()

    def visit(module: str, node: ast.AST, scope: tuple) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(module, child, scope + (child.name,))
                continue
            if isinstance(child, ast.Attribute) and child.attr in POINT_METHODS:
                callers.add((module, ".".join(scope)))
            visit(module, child, scope)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(path.name, ast.parse(path.read_text()), ())
    assert callers == ONE_SAMPLE_CALLERS


# Public names that no code in src/ or perfbench/ calls: quantities of the
# paper that the library exports for its users, each checked against an
# independent oracle by the test named after it.
PAPER_API = (
    # R_v(X, Y)Z: test_curvature_routes_agree_on_radial_slots (the Jacobi operator)
    "chern_curvature",
    # the index form I(V, W): test_index_form_flat_closed_form (pi^2 / 2)
    "index_form",
    # the conformal Jacobi transfer: test_transfer_agrees_with_the_scaled_connection
    "transfer_jacobi",
    # the scaled Jacobi equation: test_transferred_field_satisfies_the_scaled_characterization
    "conformal_jacobi_residual",
    # the focal endpoint conditions: test_transferred_field_satisfies_the_endpoint_conditions
    "boundary_residual",
    # the directional conformal factor: test_shared_lightcone_factor (closed form),
    # and at projected cone samples
    # test_anisotropy_factor_is_the_closed_form_at_projected_cone_samples
    "anisotropy_factor",
    # the normal SFF by extension: test_normal_sff_extension_route_matches_frame_route
    "normal_second_fundamental_form",
)


def _referenced(tree: ast.AST) -> set[str]:
    """The names a tree loads, as a name or an attribute."""
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def test_every_public_name_has_a_caller():
    """Each name that finslab/__init__.py imports is loaded somewhere in
    src/ outside its own definition (a module's `__all__` and the package
    imports do not count), or named in perfbench/ (as a name, an attribute,
    an import or a string), or listed in `PAPER_API`.  A name that shares
    its spelling with a used one (the function `pretty` beside the method
    `MetricDefinition.pretty`) escapes this."""
    public = {alias.asname or alias.name
              for node in ast.parse((PACKAGE / "__init__.py").read_text()).body
              if isinstance(node, ast.ImportFrom) for alias in node.names}
    used = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            names = _referenced(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.discard(stmt.name)
            used |= names
    for path in sorted((ROOT / "perfbench").rglob("*.py")):
        tree = ast.parse(path.read_text())
        used |= _referenced(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.alias):
                used.add(node.asname or node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
    assert set(PAPER_API) <= public
    uncalled = sorted(public - used - set(PAPER_API))
    assert not uncalled, f"public names that nothing in src/ or perfbench/ calls: {uncalled}"


NO_SCIPY_RUN = """
import sys
from pathlib import Path

import numpy as np

import finslab.cli as cli
from finslab import dsl, geodesics, variational

configs = Path(sys.argv[1])
for experiment in ("variation", "focal-correspondence", "focal"):
    assert cli.main([experiment, "--config", str(configs / f"{experiment}.ini")]) == 0
einstein, unit = dsl.builtin_metric("einstein-static"), dsl.builtin_metric("unit-factor")
curve = geodesics.integrate_geodesic(einstein, [0, np.pi / 2, 0], [1, 0, 1], (0, 0.5), 1e-2)
sol = variational.integrate_jacobi_basis(curve, einstein, np.zeros((3, 1)), np.eye(3)[:, 1:2])[0]
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
    - `focal-correspondence`: `cumulative_simpson` (the reparametrization),
      the spline at one float (the focal Newton steps, and a focal parameter
      mapped through the reparametrization) and its (N, n, n) data (the
      focal search);
    - `focal` on the circle patch of `configs/focal.ini`: `null_space`
      (the focal initial data);
    - `transfer_jacobi`: `cumulative_simpson`.
    """
    done = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_RUN, str(ROOT / "configs")],
        capture_output=True, text=True, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def test_sources_do_not_name_scipy():
    named = [path.name for path in sorted(PACKAGE.glob("*.py"))
             if "scipy" in path.read_text()]
    assert not named, f"modules naming scipy: {named}"
