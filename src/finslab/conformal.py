"""Shared-lightcone testing and directional conformal factors.

Two metrics on one conic domain share their lightcones exactly when one is a
positive multiple of the other by a 0-homogeneous factor.  The factor is the
plain quotient L2/L1 away from the cone; on the cone, where the quotient is
0/0, it is the ratio of the Legendre pairings g2_v(v, w) / g1_v(v, w), which
is well defined for any probe w transversal to the cone.

`lightcones_coincide` takes one sample at a time: its projection onto the
source cone, along the probe read off the projection's first jet, then the
other metric's value there.  `scale_metric` forms the product factor *
metric and checks the factor's sign at sampled points.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dsl import Div, MetricDefinition, Mul, Num, TangentSample, pretty, sample_admissible
from .errors import (IncompatiblePair, NoConvergence, PositivityFailure,
                     TransversalityFailure)
from .geodesics import LIGHTLIKE_TOL, covector_probe, project_to_lightcone
from .tensors import _require_admissible, legendre

__all__ = [
    "ConformalPair", "CoincidenceReport",
    "lightcones_coincide", "anisotropy_factor", "scale_metric",
    "inverse_factor",
]

COINCIDENCE_TOL = 1e-8


@dataclass(frozen=True)
class ConformalPair:
    L1: MetricDefinition
    L2: MetricDefinition
    sample_budget: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.L1.dim != self.L2.dim:
            raise IncompatiblePair("metrics of a pair must share the dimension")
        d1 = frozenset(pretty(p) for p in self.L1.domain)
        d2 = frozenset(pretty(p) for p in self.L2.domain)
        if d1 != d2:
            raise IncompatiblePair(
                f"metrics of a pair must share the domain predicates: {d1} vs {d2}")


@dataclass
class CoincidenceReport:
    verdict: bool
    max_violation: float
    samples: int
    projection_failures: int
    empty_cones: list[str] = field(default_factory=list)


def lightcones_coincide(pair: ConformalPair, tol: float = COINCIDENCE_TOL
                        ) -> CoincidenceReport:
    """Sample each metric's lightcone and measure the other metric there.

    Violations are |L_other| at projected cone points, normalized by the
    squared fiber norm.  A metric whose cone cannot be reached from any
    sample is reported as having an empty cone on the sampled component.
    """
    rng = np.random.default_rng(pair.seed)
    worst = 0.0
    used = 0
    failures = 0
    empty = []
    for source, other in ((pair.L1, pair.L2), (pair.L2, pair.L1)):
        hits = 0
        for v in sample_admissible(source, rng, count=pair.sample_budget):
            try:
                vstar = project_to_lightcone(source, v, tol=1e-13)
            except (NoConvergence, TransversalityFailure):
                failures += 1
                continue
            hits += 1
            used += 1
            # the other metric's value on the cone of source
            violation = abs(other.value_at(vstar)) / max(1.0, float(vstar.y @ vstar.y))
            worst = max(worst, violation)
        if hits == 0:
            empty.append(source.name)
    verdict = not empty and worst <= tol
    return CoincidenceReport(verdict=verdict, max_violation=worst, samples=used,
                             projection_failures=failures, empty_cones=empty)


def anisotropy_factor(pair: ConformalPair, v: TangentSample, w="auto") -> float:
    """The conformal factor relating the pair at the sample, which must lie
    in the pair's domain (InadmissibleSample otherwise).

    Off the cone this is the quotient L2/L1.  On the cone (normalized |L1|
    below the lightlike tolerance) the quotient degenerates and the factor is
    computed as g2_v(v, w) / g1_v(v, w) with w a transversal probe, which is
    probe-independent there.
    """
    _require_admissible(pair.L1, v)     # the pair's domains are equal
    l1 = pair.L1.value_at(v)
    scale = max(1.0, float(v.y @ v.y))
    if abs(l1) > LIGHTLIKE_TOL * scale:
        return pair.L2.value_at(v) / l1
    ell1 = legendre(pair.L1, v)
    if isinstance(w, str) and w == "auto":
        w = covector_probe(ell1.tolist(), v.y.tolist())
    w = np.asarray(w, dtype=float)
    p1 = float(ell1 @ w)
    if abs(p1) <= 1e-12 * scale:
        raise TransversalityFailure(
            "probe vector pairs to zero with the sample; the factor is 0/0 along it")
    return float(legendre(pair.L2, v) @ w) / p1


def inverse_factor(lam: MetricDefinition) -> MetricDefinition:
    """The reciprocal factor 1/lam, on the same domain."""
    if lam.degree != 0:
        raise ValueError("only degree-0 factors can be inverted")
    return MetricDefinition(
        name=f"1/({lam.name})", dim=lam.dim, degree=0,
        body=Div(Num(1.0), lam.body), domain=lam.domain,
        sample_box=lam.sample_box)


def scale_metric(m: MetricDefinition, lam: MetricDefinition,
                 sample_budget: int = 64, seed: int = 0) -> MetricDefinition:
    """Product definition factor * metric.

    Raises IncompatiblePair unless m has degree 2 and lam degree 0 in the
    same dimension, and PositivityFailure if the factor is not strictly
    positive at sample_budget admissible samples of the product, drawn from
    seed.
    """
    if m.degree != 2:
        raise IncompatiblePair(f"{m.name!r} is declared with degree {m.degree}, expected 2")
    if lam.degree != 0:
        raise IncompatiblePair(
            f"{lam.name!r} is declared with degree {lam.degree}, expected 0")
    if lam.dim != m.dim:
        raise IncompatiblePair("factor and metric dimensions differ")
    seen = {pretty(p) for p in m.domain}
    extra = tuple(p for p in lam.domain if pretty(p) not in seen)
    scaled = MetricDefinition(
        name=f"{lam.name}*{m.name}",
        dim=m.dim, degree=2,
        body=Mul(lam.body, m.body),
        domain=m.domain + extra,
        sample_box=m.sample_box,
    )
    for v in sample_admissible(scaled, np.random.default_rng(seed), count=sample_budget):
        fac = lam.value_at(v)
        if fac <= 0.0:
            raise PositivityFailure(
                f"factor {lam.name!r} is {fac!r} at {v!r}")
    return scaled
