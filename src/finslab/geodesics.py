"""Geodesic integration, lightcone projection, energy, and conformal
reparametrization of lightlike geodesics.

The integrator is classical fixed-step RK4 on the first-order system
(x, y) -> (y, -2G(x, y)); every stage state is checked to be finite and
inside the conic domain, so fractional-power metrics fail loudly instead of
producing NaNs mid-step.

Lightcone projection runs Newton's method on one sample, on Python floats:
one compiled order-2 jet per Newton evaluation and one one-point domain
check per backtracking candidate; a sample whose step no longer moves it
fails at once with the failure the remaining iterations would give it.
Along a curve, values (`lightlike_defect`, `factor_values`, `energy`),
sprays and factor partials run node by node on the one-point programs that
an RK stage runs; row-wise dot products are stacked matmuls, which round as
the 1-D `@` does.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .connection import _curve_points, _scalar_partials_along, _spray, _sprays_along
from .curves import DiscreteCurve, Reparametrization
from .dsl import MetricDefinition, TangentSample
from .errors import (DomainExit, EvaluationDomainError, InadmissibleSample,
                     NoConvergence, TransversalityFailure)
from .numerics import simpson
from .tensors import _inadmissible, legendre

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


class _Floats(tuple):
    """An RK state or rate as a tuple of Python floats, with the elementwise
    sum and the scalar multiple that `rk4_step` applies; each rounds as on
    a numpy array, so `rk4_step` performs the same float operations on
    either."""

    __slots__ = ()

    def __add__(self, other):
        return _Floats(map(operator.add, self, other))

    def __rmul__(self, a):
        return _Floats([a * v for v in self])


def _rhs(m: MetricDefinition, point, t: float) -> list[float]:
    """The acceleration -2G(x, y) of the RK stage at curve time t, from one
    domain check and one order-2 jet at the point x + y (2n floats)."""
    if not all(map(math.isfinite, point)):
        raise EvaluationDomainError(f"the integration state is not finite at t={t!r}")
    y = point[m.dim:]
    if not any(y):
        raise ValueError("fiber vector must be nonzero")
    if not m._point_admissible(point):
        raise DomainExit(t)
    return [-2.0 * a for a in _spray(m._point_jet(point, 2), y)]


def integrate_geodesic(m: MetricDefinition, x0, v0, t_span: tuple[float, float],
                       h: float) -> DiscreteCurve:
    """Fixed-step RK4 integration of xdd = -2G(x, xd).

    The state (x, y) is held as one tuple of 2n Python floats, the point
    that the stage's domain check, jet kernel and float spray kernel read;
    `rk4_step` combines it as it would a numpy array, to the bit.  The step
    is shrunk minimally so that it divides the span exactly.  Raises
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
    start = TangentSample(x0, v0)
    if not m.admissible(start):
        raise InadmissibleSample("initial data is outside the metric domain")
    n = start.dim

    def f(t, s):   # s = x + y, and f = y + (-2G)
        return _Floats((*s[n:], *_rhs(m, s, t)))

    states = [_Floats(start.x.tolist() + start.y.tolist())]
    rates = [f(t0, states[0])]
    for k in range(steps):
        t = t0 + k * h
        states.append(rk4_step(f, t, states[k], h, rates[k]))
        rates.append(f(t + h, states[k + 1]))
    grid = t0 + h * np.arange(steps + 1)
    grid[-1] = t1
    states, rates = np.array(states), np.array(rates)
    # C-contiguous copies: for strided rows numpy may pick another matmul
    # kernel, which can round differently
    return DiscreteCurve(grid, states[:, :n].copy(), states[:, n:].copy(),
                         rates[:, n:].copy())


# --------------------------------------------------------------------------
# lightcone projection
# --------------------------------------------------------------------------

def probe_vector(m: MetricDefinition, v: TangentSample) -> np.ndarray:
    """Basis vector with the largest Legendre pairing |g_v(v, e_i)|: the
    transversal direction along which the cone is reached."""
    ell = legendre(m, v)
    i = int(np.argmax(np.abs(ell)))
    if abs(ell[i]) <= 1e-12 * max(1.0, float(v.y @ v.y)):
        raise TransversalityFailure("no basis vector pairs with the sample")
    w = np.zeros(v.dim)
    w[i] = 1.0
    return w


_NOT_CONVERGED = "lightcone projection did not converge in 50 iterations"


def project_to_lightcone(m: MetricDefinition, v: TangentSample, w,
                         tol: float = CONE_PROJECTION_TOL) -> TangentSample:
    """Newton solve of L(v + delta*w) = 0 along a transversal direction w, in
    at most 50 iterations.

    Steps that would leave the conic domain are halved, at most 60 times,
    which lets the iteration approach cones sitting on the domain boundary
    (fractional-power metrics).  Idempotent on vectors that are already
    lightlike.  A sample whose step no longer moves delta would stay where it
    is to the 50th iteration, and fails at once.

    The sample is projected on Python floats: one compiled order-2 jet at
    the point x + y per Newton evaluation (`_point_jet`, which checks that
    every coefficient is finite) and one one-point domain check per halving
    candidate.  The slope dL_v(w) and the scale |y|^2 that the tolerances
    multiply are numpy dot products, which round as those of a loop over
    `TangentSample` arrays do.  A probe w of another shape than the fiber
    vector is a ValueError, raised before any work.
    """
    w = np.asarray(w, dtype=float)
    if w.shape != v.y.shape:
        raise ValueError(f"probe array of shape {w.shape} for fiber vectors "
                         f"of shape {v.y.shape}")
    x, y0 = v.x.tolist(), v.y.tolist()
    if v.dim != m.dim or not m._point_admissible(x + y0):
        raise _inadmissible(m, v)
    probe = w.tolist()
    y = y0
    value, slope = _newton_values(m, x, y, w)
    scale = _scale(y)
    # transversality: g_v(v, w) = (1/2) dL_v(w)
    if abs(slope) <= 1e-12 * scale:
        raise TransversalityFailure(
            f"probe vector pairs to {slope / 2:.3e} with the base vector")
    delta = 0.0
    for _ in range(50):
        if abs(value) <= tol * scale:
            return TangentSample(x, y)
        if slope == 0.0:
            raise NoConvergence("lightcone projection hit a critical point")
        step = -value / slope
        for _ in range(60):
            moved = delta + step
            y = [a + moved * b for a, b in zip(y0, probe)]
            if any(y) and m._point_admissible(x + y):
                break
            step *= 0.5
        else:
            raise NoConvergence("lightcone projection could not stay inside the domain")
        # a step that no longer moves delta leaves y, value and slope as they
        # are, so every later iteration would repeat this one to the 50th
        if moved == delta:
            raise NoConvergence(_NOT_CONVERGED)
        delta = moved
        value, slope = _newton_values(m, x, y, w)
        scale = _scale(y)
    raise NoConvergence(_NOT_CONVERGED)


def _newton_values(m: MetricDefinition, x: list, y: list, w: np.ndarray
                   ) -> tuple[float, float]:
    """L at the sample x + y and its derivative dL_v(w) along w, from one
    order-2 jet; the first fiber partial dL/dy^l is coefficient n - l
    (`JetSpace.partial_slots`)."""
    c = m._point_jet(x + y, 2)
    return c[0], float(np.array(c[len(y):0:-1]) @ w)


def _scale(y: list) -> float:
    """max(1, |y|^2), the factor of the lightcone tolerances."""
    y = np.array(y)
    return max(1.0, float(y @ y))


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
    """(1/2) integral of factor(velocity) * L(velocity) over the curve, from
    one domain check and the one-point values of the factor and of L at
    each node (see `_curve_points`)."""
    n = m.dim
    vals = []
    for p in _curve_points(m, curve.positions, curve.velocities, curve.grid):
        if lam is not None and not vals:
            lam._point(p[:n], p[n:])             # the shape check, after node 0's domain check
        vals.append(0.5 * (1.0 if lam is None else lam._point_value(p)) * m._point_value(p))
    return float(simpson(np.array(vals), curve.grid))


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
    if lam is not None:
        lam._point(*curve.state(lo))             # the shape check

    def rate(mu: float, phi: float) -> float:
        if lam is None:
            return 1.0
        return lam._point_value(curve.point(min(max(phi, lo), hi)))

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

