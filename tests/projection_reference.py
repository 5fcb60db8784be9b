"""Serial loops over `TangentSample` arrays for the rejection sampler,
lightcone projection and cone sampling: one candidate and one sample at a
time, drawn with `rng.uniform` and normalized with `np.linalg.norm`, one
`MetricDefinition.jet` per Newton iteration and one
`MetricDefinition.admissible` per backtracking candidate.  Tests compare
`dsl.sample_admissible` (which draws on Python floats), the float loop of
`geodesics.project_to_lightcone` (which stops a stalled sample early) and
`conformal.lightcones_coincide` (which checks the domain in
`anisotropy_factor` first) against these loops, outcome by outcome."""

import math

import numpy as np

from finslab import dsl
from finslab.conformal import ConeSampleRecord, CoincidenceReport
from finslab.dsl import TangentSample
from finslab.errors import (InadmissibleSample, NoAdmissibleSample, NoConvergence,
                            TransversalityFailure)
from finslab.geodesics import LIGHTLIKE_TOL
from finslab.tensors import legendre


def sample_admissible(m, rng, count=1):
    """Random admissible samples: x uniform in the metric's box, y uniform on
    the unit sphere then rescaled by a random factor in [0.5, 2]."""
    domain = m._domain
    if domain.failure is not None or any(
            isinstance(p, float) and not (math.isfinite(p) and p > 0.0)
            for p in domain.outputs):
        raise NoAdmissibleSample(
            f"the domain of {m.name!r} is empty: a predicate is constant and not positive")
    box = m.box()
    out: list[TangentSample] = []
    rejects = 0
    while len(out) < count:
        if rejects >= dsl.MAX_REJECTIONS:
            raise NoAdmissibleSample(
                f"no admissible sample for {m.name!r} after {dsl.MAX_REJECTIONS} rejections")
        x = rng.uniform(box[:, 0], box[:, 1])
        y = rng.standard_normal(m.dim)
        norm = np.linalg.norm(y)
        if norm == 0.0:
            rejects += 1
            continue
        y = y / norm * math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
        s = TangentSample(x, y)
        if m.admissible(s):
            out.append(s)
        else:
            rejects += 1
    return out


def probe_vector(m, v):
    ell = legendre(m, v)
    i = int(np.argmax(np.abs(ell)))
    if abs(ell[i]) <= 1e-12 * max(1.0, float(v.y @ v.y)):
        raise TransversalityFailure("no basis vector pairs with the sample")
    w = np.zeros(v.dim)
    w[i] = 1.0
    return w


def _scalar_partials(jet):
    """(d/dx, d/dy) of a scalar jet over the 2n chart and fiber variables,
    after the leading sample axis of a batched jet."""
    grad = jet.partials(1)
    n = grad.shape[-1] // 2
    return grad[..., :n], grad[..., n:]


def _value_and_slope(m, x, y, w):
    jet = m.jet(dsl.TangentSample(x, y), 2)
    return jet.value, float(_scalar_partials(jet)[1] @ w)


def project_to_lightcone(m, v, w, tol=1e-12):
    """Newton solve of L(v + delta*w) = 0 along w, one sample."""
    if not m.admissible(v):
        raise InadmissibleSample(f"sample {v!r} is outside the domain of {m.name!r}")
    w = np.asarray(w, dtype=float)
    value, slope = _value_and_slope(m, v.x, v.y, w)
    if abs(slope) <= 1e-12 * max(1.0, float(v.y @ v.y)):
        raise TransversalityFailure(
            f"probe vector pairs to {slope / 2:.3e} with the base vector")
    delta = 0.0
    y = v.y.copy()
    for _ in range(50):
        scale = max(1.0, float(y @ y))
        if abs(value) <= tol * scale:
            return dsl.TangentSample(v.x, y)
        if slope == 0.0:
            raise NoConvergence("lightcone projection hit a critical point")
        step = -value / slope
        for _ in range(60):
            candidate = v.y + (delta + step) * w
            if np.any(candidate) and m.admissible(dsl.TangentSample(v.x, candidate)):
                break
            step *= 0.5
        else:
            raise NoConvergence("lightcone projection could not stay inside the domain")
        delta += step
        y = v.y + delta * w
        value, slope = _value_and_slope(m, v.x, y, w)
    raise NoConvergence("lightcone projection did not converge in 50 iterations")


def anisotropy_factor(pair, v, w):
    l1 = pair.L1.value_at(v)
    scale = max(1.0, float(v.y @ v.y))
    if abs(l1) > LIGHTLIKE_TOL * scale:
        return pair.L2.value_at(v) / l1
    w = np.asarray(w, dtype=float)
    p1 = float(legendre(pair.L1, v) @ w)
    if abs(p1) <= 1e-12 * scale:
        raise TransversalityFailure(
            "probe vector pairs to zero with the sample; the factor is 0/0 along it")
    p2 = float(legendre(pair.L2, v) @ w)
    return p2 / p1


def lightcones_coincide(pair, tol=1e-8):
    """Cone sampling one sample at a time."""
    rng = np.random.default_rng(pair.seed)
    worst = 0.0
    used = 0
    failures = 0
    empty = []
    records = []
    for source, target in ((pair.L1, pair.L2), (pair.L2, pair.L1)):
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
            violation = abs(target.value_at(vstar)) / max(1.0, float(vstar.y @ vstar.y))
            worst = max(worst, violation)
            try:
                mu = anisotropy_factor(pair, vstar, w=w)
            except TransversalityFailure:
                mu = None
            records.append(ConeSampleRecord(
                sample=vstar.y, L1=pair.L1.value_at(vstar),
                L2=pair.L2.value_at(vstar), mu=mu, w_used=w,
                violation=violation))
        if hits == 0:
            empty.append(source.name)
    verdict = not empty and worst <= tol
    return CoincidenceReport(verdict=verdict, max_violation=worst, samples=used,
                             projection_failures=failures, empty_cones=empty,
                             records=records)
