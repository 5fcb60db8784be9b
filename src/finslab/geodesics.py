"""Geodesic integration, lightcone projection, energy, and conformal
reparametrization of lightlike geodesics.

The integrator is classical fixed-step RK4 on the first-order system
(x, y) -> (y, -2G(x, y)); every stage state is checked to be finite and
inside the conic domain, so fractional-power metrics fail loudly instead of
producing NaNs mid-step.

Lightcone projection runs Newton's method over a whole `SampleBatch` at
once: each iteration takes one batched order-2 jet of the still-active
samples and checks each backtracking round's candidates in one row-wise
domain check.  The scalar arithmetic of each sample (steps, halvings,
tolerances, dot products) is that of a sample projected alone, so every
sample ends where, and fails with the error with which, it would alone; a
sample whose step no longer moves it leaves the batch with the failure the
remaining iterations would give it.
Values along a curve (`lightlike_defect`, `factor_values`, `energy`) come
from the row-wise float program, equal to the values node by node; row-wise
dot products are stacked matmuls, which round as the 1-D `@` does.
"""

from __future__ import annotations

import math

import numpy as np

from .connection import _in_order, _scalar_partials_along, _spray, _sprays_along
from .curves import DiscreteCurve, Reparametrization
from .dsl import MetricDefinition, SampleBatch, TangentSample, _outcomes
from .errors import (DomainExit, EvaluationDomainError, InadmissibleSample,
                     NoConvergence, TransversalityFailure)
from .numerics import simpson
from .tensors import _inadmissible, _require_admissible, legendre

__all__ = [
    "LIGHTLIKE_TOL", "rk4_step", "integrate_geodesic", "probe_vector",
    "project_to_lightcone", "energy", "reparametrize_conformal",
    "pregeodesic_residual", "lightlike_defect", "check_lightlike",
    "factor_values", "factor_rate",
]

LIGHTLIKE_TOL = 1e-8
CONE_PROJECTION_TOL = 1e-12


# --------------------------------------------------------------------------
# conformal factor helpers (a factor is a degree-0 definition or None)
# --------------------------------------------------------------------------

def factor_values(lam, curve: DiscreteCurve) -> np.ndarray:
    """The factor evaluated on the curve's velocity samples."""
    if lam is None:
        return np.ones(curve.grid.size)
    return lam.value(curve.positions, curve.velocities)


def _chain_rates(lam, positions, velocities, accelerations) -> np.ndarray:
    """d/dt of the factor at curve samples (x, xdot, xddot), by the chain rule."""
    if lam is None:
        return np.zeros(len(positions))
    dx, dy = _scalar_partials_along(lam, positions, velocities)
    return _row_dots(dx, velocities) + _row_dots(dy, accelerations)


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The dot products a[k] @ b[k] of the rows of two (S, n) arrays, as a
    stacked matmul, which rounds as the 1-D `@` of each pair does."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def factor_rate(lam, curve: DiscreteCurve) -> np.ndarray:
    """d/dt of the factor along the curve, by the chain rule through the
    stored accelerations (exact given the node data)."""
    return _chain_rates(lam, curve.positions, curve.velocities, curve.accelerations)


# --------------------------------------------------------------------------
# integration
# --------------------------------------------------------------------------

def rk4_step(f, t: float, s, h: float, k1):
    """One classical RK4 step of s' = f(t, s) from k1 = f(t, s)."""
    k2 = f(t + 0.5 * h, s + 0.5 * h * k1)
    k3 = f(t + 0.5 * h, s + 0.5 * h * k2)
    k4 = f(t + h, s + h * k3)
    return s + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def _rhs(m: MetricDefinition, x: np.ndarray, y: np.ndarray, t: float) -> np.ndarray:
    """The acceleration -2G(x, y) of the RK stage at curve time t, from one
    domain check and one order-2 jet at the point x + y."""
    point = x.tolist() + y.tolist()
    if not all(map(math.isfinite, point)):
        raise EvaluationDomainError(f"the integration state is not finite at t={t!r}")
    if not any(point[len(x):]):
        raise ValueError("fiber vector must be nonzero")
    if not m._point_admissible(point):
        raise DomainExit(t)
    return -2.0 * _spray(m._point_jet(point, 2), y)


def integrate_geodesic(m: MetricDefinition, x0, v0, t_span: tuple[float, float],
                       h: float) -> DiscreteCurve:
    """Fixed-step RK4 integration of xdd = -2G(x, xd).

    The step is shrunk minimally so that it divides the span exactly.  Raises
    EvaluationDomainError if an RK stage state is not finite, DomainExit if
    a stage leaves the conic domain, SingularMetric if the fundamental tensor
    degenerates along the way.
    """
    if h <= 0:
        raise ValueError("step must be positive")
    t0, t1 = float(t_span[0]), float(t_span[1])
    if t1 <= t0:
        raise ValueError("need t1 > t0")
    steps = max(1, math.ceil((t1 - t0) / h - 1e-12))
    h = (t1 - t0) / steps
    n = np.asarray(x0, dtype=float).size
    xs = np.empty((steps + 1, n))
    ys = np.empty((steps + 1, n))
    accs = np.empty((steps + 1, n))
    xs[0] = np.asarray(x0, dtype=float)
    ys[0] = np.asarray(v0, dtype=float)
    if not m.admissible(TangentSample(xs[0], ys[0])):
        raise InadmissibleSample("initial data is outside the metric domain")
    accs[0] = _rhs(m, xs[0], ys[0], t0)

    def f(t, s):   # s = (x, y)
        return np.array([s[1], _rhs(m, s[0], s[1], t)])

    for k in range(steps):
        t = t0 + k * h
        xs[k + 1], ys[k + 1] = rk4_step(f, t, np.array([xs[k], ys[k]]), h,
                                        k1=np.array([ys[k], accs[k]]))
        accs[k + 1] = _rhs(m, xs[k + 1], ys[k + 1], t + h)
    grid = t0 + h * np.arange(steps + 1)
    grid[-1] = t1
    return DiscreteCurve(grid, xs, ys, accs)


# --------------------------------------------------------------------------
# lightcone projection
# --------------------------------------------------------------------------

def probe_vector(m: MetricDefinition, v: TangentSample) -> np.ndarray:
    """Basis vector with the largest Legendre pairing |g_v(v, e_i)|: the
    transversal direction along which the cone is reached."""
    return _probe(legendre(m, v), v.y)


def _probe(ell: np.ndarray, y: np.ndarray) -> np.ndarray:
    """`probe_vector` from the Legendre covector ell of the fiber vector y."""
    i = int(np.argmax(np.abs(ell)))
    if abs(ell[i]) <= 1e-12 * max(1.0, float(y @ y)):
        raise TransversalityFailure("no basis vector pairs with the sample")
    w = np.zeros(y.size)
    w[i] = 1.0
    return w


def project_to_lightcone(m: MetricDefinition, v: TangentSample | SampleBatch, w,
                         tol: float = CONE_PROJECTION_TOL):
    """Newton solve of L(v + delta*w) = 0 along a transversal direction w, in
    at most 50 iterations.

    Steps that would leave the conic domain are halved, at most 60 times,
    which lets the iteration approach cones sitting on the domain boundary
    (fractional-power metrics).  Idempotent on vectors that are already
    lightlike.  A sample whose step no longer moves delta would stay where it
    is to the 50th iteration, and fails at once.

    At a `SampleBatch` with an (S, n) array w of probe rows, every sample is
    projected along its own row in one iteration over the batch, and the
    result is a list of S outcomes in order: the projected `TangentSample`,
    or the exception projecting that sample alone raises (InadmissibleSample,
    TransversalityFailure, NoConvergence or the error of its jet).  One
    `TangentSample` is the batch of one, and its exception is raised.
    """
    if isinstance(v, SampleBatch):
        return _project(m, v, np.asarray(w, dtype=float), tol)
    (out,) = _project(m, SampleBatch(v.x[None], v.y[None]),
                      np.asarray(w, dtype=float)[None], tol)
    if isinstance(out, Exception):
        raise out
    return out


_NOT_CONVERGED = "lightcone projection did not converge in 50 iterations"


def _project(m: MetricDefinition, batch: SampleBatch, w: np.ndarray, tol: float
             ) -> list:
    x, y0 = batch.x, batch.y
    out: list = [None] * len(batch)
    admissible = m.admissible(batch)
    for k in np.flatnonzero(~admissible).tolist():
        out[k] = _inadmissible(m, batch[k])
    y = y0.copy()
    delta = np.zeros(len(batch))
    value, slope = np.zeros(len(batch)), np.zeros(len(batch))
    active = _newton_values(m, x, y, w, np.flatnonzero(admissible), value, slope, out)
    # transversality: g_v(v, w) = (1/2) dL_v(w)
    for k in active:
        if abs(slope[k]) <= 1e-12 * max(1.0, float(y0[k] @ y0[k])):
            out[k] = TransversalityFailure(
                f"probe vector pairs to {slope[k] / 2:.3e} with the base vector")
    active = [k for k in active if out[k] is None]
    for _ in range(50):
        moving = []
        for k in active:
            if abs(value[k]) <= tol * max(1.0, float(y[k] @ y[k])):
                out[k] = TangentSample(x[k], y[k])
            elif slope[k] == 0.0:
                out[k] = NoConvergence("lightcone projection hit a critical point")
            else:
                moving.append(k)
        if not moving:
            return out
        rows = np.array(moving)
        rows, step = _backtrack(m, x, y0, w, delta, rows, -value[rows] / slope[rows], out)
        # a row whose step no longer moves delta keeps its y, value and slope,
        # so it would repeat this iteration unchanged until the 50th ends it
        # in NoConvergence: it gets that outcome now and leaves the batch
        stalled = delta[rows] + step == delta[rows]
        for k in rows[stalled].tolist():
            out[k] = NoConvergence(_NOT_CONVERGED)
        rows, step = rows[~stalled], step[~stalled]
        delta[rows] += step
        y[rows] = y0[rows] + delta[rows][:, None] * w[rows]
        active = _newton_values(m, x, y, w, rows, value, slope, out)
    for k in active:
        out[k] = NoConvergence(_NOT_CONVERGED)
    return out


def _backtrack(m: MetricDefinition, x, y0, w, delta, rows: np.ndarray,
               step: np.ndarray, out: list) -> tuple[np.ndarray, np.ndarray]:
    """Halve each row's Newton step until y0 + (delta + step) * w is a
    nonzero admissible vector, trying at most 60 steps, with one batched
    domain check per round.  Returns the rows that found one with their
    steps; the others get NoConvergence in out."""
    pending = np.arange(len(rows))
    found = np.zeros(len(rows), dtype=bool)
    for _ in range(60):
        if not len(pending):
            break
        r = rows[pending]
        candidate = y0[r] + (delta[r] + step[pending])[:, None] * w[r]
        good = candidate.any(axis=1)      # a batch holds nonzero vectors only
        if good.any():
            good[good] = m.admissible(SampleBatch(x[r[good]], candidate[good]))
        found[pending[good]] = True
        pending = pending[~good]
        step[pending] *= 0.5
    for k in rows[pending].tolist():
        out[k] = NoConvergence("lightcone projection could not stay inside the domain")
    return rows[found], step[found]


def _newton_values(m: MetricDefinition, x, y, w, rows: np.ndarray, value, slope,
                   out: list) -> list[int]:
    """L and its derivative along w at the given rows, from one batched
    order-2 jet, written into value and slope.  A row whose jet fails alone
    gets its error in out; the rows that succeed are returned."""
    if not len(rows):
        return []
    n = x.shape[1]

    def newton(sel):
        r = rows[sel]
        jet = m.jet(SampleBatch(x[r], y[r]), 2)
        grad = jet.partials(1)
        return [(c0, float(g[n:] @ wk))
                for c0, g, wk in zip(jet.c[:, 0].tolist(), grad, w[r])]

    kept = []
    for k, result in zip(rows.tolist(), _outcomes(newton, len(rows))):
        if isinstance(result, Exception):
            out[k] = result
        else:
            value[k], slope[k] = result
            kept.append(k)
    return kept


def lightlike_defect(curve: DiscreteCurve, m: MetricDefinition) -> float:
    """max over nodes of |L(velocity)| normalized by the squared fiber norm."""
    ys = curve.velocities
    values = m.value(curve.positions, ys)
    return float(np.max(np.abs(values) / np.maximum(1.0, _row_dots(ys, ys)),
                        initial=0.0))


def check_lightlike(curve: DiscreteCurve, m: MetricDefinition) -> None:
    """ValueError unless the lightlike defect stays within LIGHTLIKE_TOL."""
    defect = lightlike_defect(curve, m)
    if defect > LIGHTLIKE_TOL:
        raise ValueError(f"curve is not lightlike: normalized |L| reaches {defect:.3e}")


# --------------------------------------------------------------------------
# energy and the pregeodesic characterization
# --------------------------------------------------------------------------

def energy(curve: DiscreteCurve, m: MetricDefinition, lam=None) -> float:
    """(1/2) integral of factor(velocity) * L(velocity) over the curve."""
    def integrand(m, batch):
        _require_admissible(m, batch)
        factor = 1.0 if lam is None else lam.value(batch.x, batch.y)
        return 0.5 * factor * m.value(batch.x, batch.y)

    vals = _in_order(integrand, m, curve.positions, curve.velocities, curve.grid)
    return float(simpson(vals, curve.grid))


def _pregeodesic_defects(curve: DiscreteCurve, m: MetricDefinition, lam, nodes):
    """D(factor * velocity) at the given nodes (an index array) under the
    connection of m, one row per node.

    Along the curve's own velocity Gamma(v)(v, v) = 2G(x, v), so the defect
    is factor_rate * v + factor * (a + 2G(x, v)) and needs no frame.  The
    first failing node in curve order raises, an inadmissible one with its
    curve time."""
    ys = curve.velocities[nodes]
    G = _sprays_along(m, curve.grid[nodes], curve.positions[nodes], ys)
    lam_vals = factor_values(lam, curve)[nodes, None]
    lam_rate = factor_rate(lam, curve)[nodes, None]
    return lam_rate * ys + lam_vals * (curve.accelerations[nodes] + 2.0 * G)


def pregeodesic_residual(curve: DiscreteCurve, m: MetricDefinition, lam=None) -> float:
    """max interior norm of D(factor * velocity) along the curve, under the
    connection of the base metric m."""
    defects = _pregeodesic_defects(curve, m, lam, np.arange(1, curve.grid.size - 1))
    return float(np.max(np.sqrt(_row_dots(defects, defects)), initial=0.0))


# --------------------------------------------------------------------------
# conformal reparametrization
# --------------------------------------------------------------------------

def reparametrize_conformal(curve: DiscreteCurve, lam, m: MetricDefinition
                            ) -> tuple[Reparametrization, DiscreteCurve]:
    """Solve phidot(mu) = factor(velocity(phi(mu))) with phi(mu0) = t0 and
    emit the reparametrized curve, by RK4 steps of the base curve's step.

    The curve must be lightlike under m.  The map is integrated until it
    exhausts the base curve's parameter range (the final partial step is
    bisected so the last node lands on t1).
    """
    check_lightlike(curve, m)
    lo, hi = curve.t0, curve.t1

    def rate(mu: float, phi: float) -> float:
        if lam is None:
            return 1.0
        return lam.value(*curve.state(min(max(phi, lo), hi)))

    h = curve.step
    mus = [curve.t0]
    phis = [lo]
    rates = [rate(mus[0], lo)]      # each node's factor, the k1 of its step
    while True:
        mu, phi, k1 = mus[-1], phis[-1], rates[-1]
        nxt = rk4_step(rate, mu, phi, h, k1)
        if nxt < hi - 1e-13:
            mus.append(mu + h)
            phis.append(nxt)
            rates.append(rate(mu + h, nxt))
            continue
        # bisect the final step length so the map lands exactly on t1, until
        # the midpoint rounds onto an end (a step near 1e-13 takes over 80)
        lo_h, hi_h = 0.0, h
        for _ in range(80):
            mid = 0.5 * (lo_h + hi_h)
            if mid == lo_h or mid == hi_h:
                break
            if rk4_step(rate, mu, phi, mid, k1) < hi:
                lo_h = mid
            else:
                hi_h = mid
        final = 0.5 * (lo_h + hi_h)
        if final > 1e-13 * max(1.0, h):
            mus.append(mu + final)
            phis.append(hi)
        else:
            phis[-1] = hi
        break
    mus = np.asarray(mus)
    phis = np.asarray(phis)
    # the last node's rate is taken where it landed, on t1
    phidots = np.array(rates[:len(phis) - 1] + [rate(mus[-1], hi)])
    rep = Reparametrization(mus, phis, phidots)

    positions, base_vel = curve.state(phis)
    base_acc = curve.acceleration(phis)
    velocities = phidots[:, None] * base_vel
    # second derivative of the factor map via the chain rule; exact node data
    phiddots = _chain_rates(lam, positions, base_vel, base_acc) * phidots
    accelerations = (phiddots[:, None] * base_vel
                     + (phidots ** 2)[:, None] * base_acc)
    out = DiscreteCurve(mus, positions, velocities, accelerations)
    return rep, out

