"""Shared-lightcone testing and directional conformal factors.

Two metrics on one conic domain share their lightcones exactly when one is a
positive multiple of the other by a 0-homogeneous factor.  The factor is the
plain quotient L2/L1 away from the cone; on the cone, where the quotient is
0/0, it is the ratio of the Legendre pairings g2_v(v, w) / g1_v(v, w), which
is well defined for any probe w transversal to the cone.

`lightcones_coincide` handles each metric's samples as one `SampleBatch`:
one Legendre jet gives the probes, one `project_to_lightcone` call projects
them all, and batched values and jets give the records.  A step that fails
on the batch runs again sample by sample, and the outcomes are walked in
sample order, so the report and the first error raised are those of a loop
over the samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dsl import (Div, MetricDefinition, Mul, Num, SampleBatch, TangentSample,
                  _outcomes, pretty, sample_admissible)
from .errors import (IncompatiblePair, NoConvergence, PositivityFailure,
                     TransversalityFailure)
from .geodesics import LIGHTLIKE_TOL, _probe, probe_vector, project_to_lightcone
from .tensors import fundamental_tensor, legendre

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
    for source, target in ((pair.L1, pair.L2), (pair.L2, pair.L1)):
        hits = 0
        samples = sample_admissible(source, rng, count=pair.sample_budget)
        for outcome in _cone_samples(pair, source, target, samples):
            if isinstance(outcome, (NoConvergence, TransversalityFailure)):
                failures += 1
                continue
            if isinstance(outcome, Exception):
                raise outcome
            hits += 1
            used += 1
            worst = max(worst, outcome.violation)
            records.append(outcome)
        if hits == 0:
            empty.append(source.name)
    verdict = not empty and worst <= tol
    return CoincidenceReport(verdict=verdict, max_violation=worst, samples=used,
                             projection_failures=failures, empty_cones=empty,
                             records=records)


def _cone_samples(pair: ConformalPair, source: MetricDefinition,
                  target: MetricDefinition, samples: list[TangentSample]) -> list:
    """For each sample in order, its record on the cone of source, or the
    first exception that probing, projecting or recording it alone raises."""
    if not samples:
        return []
    batch = SampleBatch([v.x for v in samples], [v.y for v in samples])
    out = _outcomes(lambda rows: list(legendre(source, batch[rows])), len(batch))
    for k, ell in enumerate(out):
        if not isinstance(ell, Exception):
            try:
                out[k] = _probe(ell, batch.y[k])
            except TransversalityFailure as exc:
                out[k] = exc
    probes = {k: w for k, w in enumerate(out) if not isinstance(w, Exception)}
    rows = list(probes)
    if rows:
        stars = project_to_lightcone(source, batch[rows], np.array(list(probes.values())),
                                     tol=1e-13)
        for k, star in zip(rows, stars):
            out[k] = star
    rows = [k for k in rows if isinstance(out[k], TangentSample)]
    if rows:
        stars = SampleBatch(batch.x[rows], [out[k].y for k in rows])
        w = np.array([probes[k] for k in rows])
        records = _outcomes(lambda sel: _cone_records(pair, target, stars[sel], w[sel]),
                            len(rows))
        for k, record in zip(rows, records):
            out[k] = record
    return out


def _cone_records(pair: ConformalPair, target: MetricDefinition, stars: SampleBatch,
                  probes: np.ndarray) -> list:
    """The record at each projected sample, from batched values and jets.
    A sample alone meets the steps of the loop that records it one at a
    time, in its order: L of target, then `anisotropy_factor`, then L2."""
    violations = np.abs(target.value_at(stars))
    l1 = pair.L1.value_at(stars).tolist()
    scales = [max(1.0, float(y @ y)) for y in stars.y]
    on = [k for k, (a, s) in enumerate(zip(l1, scales))
          if not abs(a) > LIGHTLIKE_TOL * s]
    ratios = dict(zip(on, _pairing_ratios(pair, stars[on], probes[on]))) if on else {}
    l2 = pair.L2.value_at(stars).tolist()
    records = []
    for k, star in enumerate(stars):
        mu = ratios[k] if k in ratios else l2[k] / l1[k]
        records.append(ConeSampleRecord(
            sample=star.y, L1=l1[k], L2=l2[k],
            mu=None if isinstance(mu, TransversalityFailure) else mu,
            w_used=probes[k], violation=float(violations[k]) / scales[k]))
    return records


def _pairing_ratios(pair: ConformalPair, batch: SampleBatch, probes: np.ndarray
                    ) -> list:
    """g2_v(v, w) / g1_v(v, w) at each sample of a batch with its probe row
    w, or the TransversalityFailure of a probe that pairs to zero with its
    sample."""
    p1 = [float(e @ w) for e, w in zip(legendre(pair.L1, batch), probes)]
    out: list = [TransversalityFailure(
        "probe vector pairs to zero with the sample; the factor is 0/0 along it")
        if abs(p) <= 1e-12 * max(1.0, float(y @ y)) else p for p, y in zip(p1, batch.y)]
    paired = [k for k, p in enumerate(out) if not isinstance(p, TransversalityFailure)]
    if paired:
        for k, e in zip(paired, legendre(pair.L2, batch[paired])):
            out[k] = float(e @ probes[k]) / p1[k]
    return out


def anisotropy_factor(pair: ConformalPair, v: TangentSample, w="auto") -> float:
    """The conformal factor relating the pair at the sample.

    Off the cone this is the quotient L2/L1.  On the cone (normalized |L1|
    below the lightlike tolerance) the quotient degenerates and the factor is
    computed as g2_v(v, w) / g1_v(v, w) with w a transversal probe, which is
    probe-independent there.
    """
    l1 = pair.L1.value_at(v)
    scale = max(1.0, float(v.y @ v.y))
    if abs(l1) > LIGHTLIKE_TOL * scale:
        return pair.L2.value_at(v) / l1
    if isinstance(w, str) and w == "auto":
        w = probe_vector(pair.L1, v)
    (mu,) = _pairing_ratios(pair, SampleBatch(v.x[None], v.y[None]),
                            np.asarray(w, dtype=float)[None])
    if isinstance(mu, TransversalityFailure):
        raise mu
    return mu


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
