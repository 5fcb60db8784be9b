"""Seeded experiment inputs for the benchmark workloads.

Each workload is a list of items, one experiment run of `finslab.cli` each,
plus the metric files those items name.  Everything is generated from the
workload seed and written as INI and metric-file text, so the library sees
exactly what a command-line user would hand it.  The amount of work in an
item (steps, samples, patch kind) is fixed; the seed moves start points,
headings, speeds, radii, exponents and the item seeds, so runs with
different seeds cost about the same.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = ["WORKLOADS", "Item", "Inputs", "generate", "write"]

# Why each workload exists and what it exercises; see BENCHMARK.json.
WORKLOADS = ("null-geodesic", "curve-jacobi", "cone-sampling")

THETA_WEIGHTED_EINSTEIN = """\
name=theta-weighted-einstein
dim=3
degree=2
domain=sin(x1)
(1 + 0.1*y1^2 / (y0^2 + y1^2 + y2^2)) * (-y0^2 + y1^2 + pow(sin(x1), 2) * y2^2)
"""


@dataclass(frozen=True)
class Item:
    name: str           # config file stem, unique within a workload
    experiment: str
    ini: str


@dataclass(frozen=True)
class Inputs:
    workload: str
    seed: int
    items: tuple[Item, ...]
    metric_files: dict[str, str]
    # (number of jet variables, highest order) of the jet spaces the items use
    jet_spaces: tuple[tuple[int, int], ...]


def _vec(values) -> str:
    return ", ".join(repr(float(v)) for v in values)


def _null_start(rng: np.random.Generator, theta_span: float, max_heading: float):
    """Lightlike data on einstein-static: colatitude near the equator, a
    heading close to chart-east, and a spatial speed near 1."""
    theta = rng.uniform(math.pi / 2 - theta_span, math.pi / 2 + theta_span)
    heading = rng.uniform(-max_heading, max_heading)
    speed = rng.uniform(0.9, 1.1)
    x0 = (rng.uniform(-1.0, 1.0), theta, rng.uniform(-3.0, 3.0))
    v0 = (speed, speed * math.sin(heading),
          speed * math.cos(heading) / math.sin(theta))
    return x0, v0, speed


def _ini(metric: dict[str, str], run: dict[str, object]) -> str:
    lines = ["[metric]"] + [f"{k} = {v}" for k, v in metric.items()]
    lines += ["", "[run]"] + [f"{k} = {v}" for k, v in run.items()]
    return "\n".join(lines) + "\n"


def _item_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2 ** 31))


def _null_geodesic(rng):
    items = []
    x0, v0, speed = _null_start(rng, 0.25, 0.3)
    run = {"t1": repr(0.8 / speed), "step": repr(0.02 / speed)}
    for metric in ("einstein-static", "theta-weighted-einstein.metric"):
        items.append(Item(f"geodesic-{metric.split('.')[0]}", "geodesic", _ini(
            {"metric": metric, "x0": _vec(x0), "v0": _vec(v0)},
            {"seed": _item_seed(rng), **run})))
    for lam in ("theta-weight", "unit-factor"):
        items.append(Item(f"pregeodesic-{lam}", "conformal-pregeodesic", _ini(
            {"metric": "einstein-static", "lambda": lam,
             "x0": _vec(x0), "v0": _vec(v0)},
            {"seed": _item_seed(rng), **run})))
    return items, {"theta-weighted-einstein.metric": THETA_WEIGHTED_EINSTEIN}, ((6, 3),)


def _curve_jacobi(rng):
    items = []
    # Point patch: the first conjugate point sits at spatial arc pi.
    x0, v0, speed = _null_start(rng, 0.12, 0.15)
    items.append(Item("focal-correspondence", "focal-correspondence", _ini(
        {"metric": "einstein-static", "lambda": "theta-weight",
         "x0": _vec(x0), "v0": _vec(v0), "patch": "point"},
        {"seed": _item_seed(rng), "t1": repr(3.3 / speed),
         "step": repr(0.045 / speed)})))
    # Circle patch of radius rho: its normal geodesics focus at the centre,
    # after spatial arc rho, with multiplicity 1.
    x0, v0, speed = _null_start(rng, 0.25, 0.3)
    rho = rng.uniform(0.45, 0.75)
    items.append(Item("focal-circle", "focal", _ini(
        {"metric": "einstein-static", "x0": _vec(x0), "v0": _vec(v0),
         "patch": f"circle:{rho!r}"},
        {"seed": _item_seed(rng), "t1": repr((rho + 0.25) / speed),
         "step": repr(0.075 / speed), "expected": f"{rho / speed!r}:1"})))
    x0, v0, speed = _null_start(rng, 0.25, 0.3)
    items.append(Item("variation", "variation", _ini(
        {"metric": "einstein-static", "lambda": "theta-weight",
         "x0": _vec(x0), "v0": _vec(v0)},
        {"seed": _item_seed(rng), "t1": repr(0.6 / speed),
         "step": repr(0.02 / speed), "samples": 2})))
    return items, {}, ((6, 4),)


def _cone_sampling(rng):
    # Two known limits of the experiments keep these items off inputs where
    # they report false failures:
    # - `tensors` checks the Cartan identities with absolute tolerances,
    #   which fail near the cone of a fractional-power metric (|C| ~ 1e7
    #   there, relative error ~ 1e-16), so tensors items use smooth metrics
    #   and fractional powers are driven through the lightcone items;
    # - `lightcone` projects to |L| <= 1e-13, which leaves the quadratic
    #   cone violated by more than 1e-8 once the exponent 1 + b exceeds
    #   about 1.35, so b stays at most the built-in 0.3.
    b = rng.uniform(0.05, 0.3)
    bogo = (f"name=bogoslovsky-b\ndim=2\ndegree=2\ndomain=y0 - y1; y0 + y1\n"
            f"pow(y0 - y1, {1.0 + b!r}) * pow(y0 + y1, {1.0 - b!r})\n")
    items = []
    for metric in ("minkowski2-cone", "warped-quadratic"):
        items.append(Item(f"tensors-{metric}", "tensors", _ini(
            {"metric": metric}, {"seed": _item_seed(rng), "samples": 100})))
    for metric2 in ("bogoslovsky2", "bogoslovsky2-warped", "bogoslovsky-b.metric"):
        items.append(Item(f"lightcone-{metric2.split('.')[0]}", "lightcone", _ini(
            {"metric": "minkowski2-cone", "metric2": metric2},
            {"seed": _item_seed(rng), "samples": 32})))
    return items, {"bogoslovsky-b.metric": bogo}, ((4, 3), (6, 3))


_GENERATORS = {"null-geodesic": _null_geodesic, "curve-jacobi": _curve_jacobi,
               "cone-sampling": _cone_sampling}


def generate(workload: str, seed: int) -> Inputs:
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    items, files, spaces = _GENERATORS[workload](rng)
    return Inputs(workload, seed, tuple(items), files, spaces)


def write(inputs: Inputs, directory: Path) -> Path:
    """Write configs, metric files and a manifest; returns the manifest path."""
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in inputs.metric_files.items():
        (directory / name).write_text(text)
    for item in inputs.items:
        (directory / f"{item.name}.ini").write_text(item.ini)
    manifest = directory / "manifest.json"
    manifest.write_text(json.dumps({
        "workload": inputs.workload, "seed": inputs.seed,
        "items": [[item.name, item.experiment] for item in inputs.items],
        "jet_spaces": inputs.jet_spaces}, indent=1))
    return manifest
