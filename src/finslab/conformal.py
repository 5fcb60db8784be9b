"""Shared-lightcone testing and directional conformal factors.

Two metrics on one conic domain share their lightcones exactly when one is a
positive multiple of the other by a 0-homogeneous factor.  The factor is the
plain quotient L2/L1 away from the cone; on the cone, where the quotient is
0/0, it is the ratio of the Legendre pairings g2_v(v, w) / g1_v(v, w), which
is well defined for any probe w transversal to the cone.

`lightcones_coincide` takes one sample at a time: its probe vector, its
projection onto the source cone, then the values and the factor at the
projected sample.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dsl import Div, MetricDefinition, Mul, Num, TangentSample, pretty, sample_admissible
from .errors import (IncompatiblePair, NoConvergence, PositivityFailure,
                     TransversalityFailure)
from .geodesics import LIGHTLIKE_TOL, probe_vector, project_to_lightcone
from .tensors import _require_admissible, fundamental_tensor, legendre

__all__ = [
    "ConformalPair", "CoincidenceReport", "ScaleReport",
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
class ConeSampleRecord:
    sample: np.ndarray          # projected fiber vector on the source cone
    L1: float
    L2: float
    mu: float | None            # pairing-ratio factor, when the probe pairs
    w_used: np.ndarray
    violation: float


@dataclass
class CoincidenceReport:
    verdict: bool
    max_violation: float
    samples: int
    projection_failures: int
    empty_cones: list[str] = field(default_factory=list)
    records: list[ConeSampleRecord] = field(default_factory=list)


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
    records = []
    for source in (pair.L1, pair.L2):
        hits = 0
        for v in sample_admissible(source, rng, count=pair.sample_budget):
            try:
                w = probe_vector(source, v)
                vstar = project_to_lightcone(source, v, w, tol=1e-13)
            except (NoConvergence, TransversalityFailure):
                failures += 1
                continue
            hits += 1
            used += 1
            l1, l2 = pair.L1.value_at(vstar), pair.L2.value_at(vstar)
            # the other metric's value on the cone of source
            violation = (abs(l2 if source is pair.L1 else l1)
                         / max(1.0, float(vstar.y @ vstar.y)))
            worst = max(worst, violation)
            try:
                mu = anisotropy_factor(pair, vstar, w=w)
            except TransversalityFailure:
                mu = None
            records.append(ConeSampleRecord(sample=vstar.y, L1=l1, L2=l2, mu=mu, w_used=w,
                                            violation=violation))
        if hits == 0:
            empty.append(source.name)
    verdict = not empty and worst <= tol
    return CoincidenceReport(verdict=verdict, max_violation=worst, samples=used,
                             projection_failures=failures, empty_cones=empty,
                             records=records)


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
    if isinstance(w, str) and w == "auto":
        w = probe_vector(pair.L1, v)
    w = np.asarray(w, dtype=float)
    p1 = float(legendre(pair.L1, v) @ w)
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


@dataclass
class ScaleReport:
    min_abs_det: float
    samples: int
    nondegenerate: bool
    min_factor: float


def scale_metric(m: MetricDefinition, lam: MetricDefinition,
                 sample_budget: int = 64, seed: int = 0
                 ) -> tuple[MetricDefinition, ScaleReport]:
    """Product definition factor * metric, with a nondegeneracy survey.

    Raises IncompatiblePair unless m has degree 2 and lam degree 0 in the
    same dimension, and PositivityFailure if the factor is not strictly
    positive on the sampled domain.  The report flags (without raising)
    samples where the scaled fundamental tensor gets close to degenerate.
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
    rng = np.random.default_rng(seed)
    min_det = np.inf
    min_factor = np.inf
    for v in sample_admissible(scaled, rng, count=sample_budget):
        fac = lam.value_at(v)
        min_factor = min(min_factor, fac)
        if fac <= 0.0:
            raise PositivityFailure(
                f"factor {lam.name!r} is {fac!r} at {v!r}")
        min_det = min(min_det, abs(fundamental_tensor(scaled, v).det))
    report = ScaleReport(min_abs_det=float(min_det), samples=sample_budget,
                         nondegenerate=bool(min_det >= 1e-10),
                         min_factor=float(min_factor))
    return scaled, report
