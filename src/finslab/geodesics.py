"""Geodesic integration, lightcone projection, energy, and conformal
reparametrization of lightlike geodesics.

The integrator is classical fixed-step RK4 on the first-order system
(x, y) -> (y, -2G(x, y)); every stage is checked against the conic domain so
fractional-power metrics fail loudly instead of producing NaNs mid-step.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import simpson

from .connection import _scalar_partials, spray_coefficients
from .curves import DiscreteCurve, Reparametrization
from .dsl import MetricDefinition, TangentSample
from .errors import (DomainExit, InadmissibleSample, NoConvergence,
                     ReparametrizationRangeError, TransversalityFailure)
from .tensors import legendre

__all__ = [
    "LIGHTLIKE_TOL", "rk4_step", "integrate_geodesic", "probe_vector",
    "project_to_lightcone", "energy", "reparametrize_conformal",
    "pregeodesic_residual", "lightlike_defect", "check_lightlike",
    "factor_values", "factor_rate",
]

LIGHTLIKE_TOL = 1e-8
CONE_PROJECTION_TOL = 1e-12


# --------------------------------------------------------------------------
# conformal factor helpers (a factor is a degree-0 definition, a number, or None)
# --------------------------------------------------------------------------

def _factor_value(lam, x, y) -> float:
    if lam is None:
        return 1.0
    if isinstance(lam, MetricDefinition):
        return lam.value(x, y)
    return float(lam)


def factor_values(lam, curve: DiscreteCurve) -> np.ndarray:
    """The factor evaluated on the curve's velocity samples."""
    return np.array([_factor_value(lam, x, y)
                     for x, y in zip(curve.positions, curve.velocities)])


def _chain_rates(lam, positions, velocities, accelerations) -> np.ndarray:
    """d/dt of the factor at curve samples (x, xdot, xddot), by the chain rule."""
    out = np.zeros(len(positions))
    if isinstance(lam, MetricDefinition):
        for k, (x, y, a) in enumerate(zip(positions, velocities, accelerations)):
            dx, dy = _scalar_partials(lam.jet(TangentSample(x, y), 2))
            out[k] = dx @ y + dy @ a
    return out


def factor_rate(lam, curve: DiscreteCurve) -> np.ndarray:
    """d/dt of the factor along the curve, by the chain rule through the
    stored accelerations (exact given the node data)."""
    return _chain_rates(lam, curve.positions, curve.velocities, curve.accelerations)


# --------------------------------------------------------------------------
# integration
# --------------------------------------------------------------------------

def rk4_step(f, t: float, s, h: float, k1=None):
    """One classical RK4 step of s' = f(t, s); pass k1 = f(t, s) when the
    caller already has it."""
    if k1 is None:
        k1 = f(t, s)
    k2 = f(t + 0.5 * h, s + 0.5 * h * k1)
    k3 = f(t + 0.5 * h, s + 0.5 * h * k2)
    k4 = f(t + h, s + h * k3)
    return s + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def _rhs(m: MetricDefinition, x: np.ndarray, y: np.ndarray, t: float) -> np.ndarray:
    if not m.admissible(TangentSample(x, y)):
        raise DomainExit(t)
    return -2.0 * spray_coefficients(m, x, y)


def integrate_geodesic(m: MetricDefinition, x0, v0, t_span: tuple[float, float],
                       h: float) -> DiscreteCurve:
    """Fixed-step RK4 integration of xdd = -2G(x, xd).

    The step is shrunk minimally so that it divides the span exactly.  Raises
    DomainExit if any RK stage leaves the conic domain, SingularMetric if the
    fundamental tensor degenerates along the way.
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
    ell = legendre(m, v)
    i = int(np.argmax(np.abs(ell)))
    if abs(ell[i]) <= 1e-12 * max(1.0, float(v.y @ v.y)):
        raise TransversalityFailure("no basis vector pairs with the sample")
    w = np.zeros(v.dim)
    w[i] = 1.0
    return w


def _value_and_slope(m: MetricDefinition, x, y, w) -> tuple[float, float]:
    jet = m.jet(TangentSample(x, y), 2)
    return jet.value, float(_scalar_partials(jet)[1] @ w)


def project_to_lightcone(m: MetricDefinition, v: TangentSample, w,
                         tol: float = CONE_PROJECTION_TOL) -> TangentSample:
    """Newton solve of L(v + delta*w) = 0 along a transversal direction w, in
    at most 50 iterations.

    Steps that would leave the conic domain are backtracked, which lets the
    iteration approach cones sitting on the domain boundary (fractional-power
    metrics).  Idempotent on vectors that are already lightlike.
    """
    if not m.admissible(v):
        raise InadmissibleSample(f"sample {v!r} is outside the domain of {m.name!r}")
    w = np.asarray(w, dtype=float)
    value, slope = _value_and_slope(m, v.x, v.y, w)
    # transversality: g_v(v, w) = (1/2) dL_v(w)
    if abs(slope) <= 1e-12 * max(1.0, float(v.y @ v.y)):
        raise TransversalityFailure(
            f"probe vector pairs to {slope / 2:.3e} with the base vector")
    delta = 0.0
    y = v.y.copy()
    for _ in range(50):
        scale = max(1.0, float(y @ y))
        if abs(value) <= tol * scale:
            return TangentSample(v.x, y)
        if slope == 0.0:
            raise NoConvergence("lightcone projection hit a critical point")
        step = -value / slope
        for _ in range(60):
            candidate = v.y + (delta + step) * w
            if np.any(candidate) and m.admissible(TangentSample(v.x, candidate)):
                break
            step *= 0.5
        else:
            raise NoConvergence("lightcone projection could not stay inside the domain")
        delta += step
        y = v.y + delta * w
        value, slope = _value_and_slope(m, v.x, y, w)
    raise NoConvergence("lightcone projection did not converge in 50 iterations")


def lightlike_defect(curve: DiscreteCurve, m: MetricDefinition) -> float:
    """max over nodes of |L(velocity)| normalized by the squared fiber norm."""
    worst = 0.0
    for x, y in zip(curve.positions, curve.velocities):
        worst = max(worst, abs(m.value(x, y)) / max(1.0, float(y @ y)))
    return worst


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
    vals = np.empty(curve.grid.size)
    for k, (x, y) in enumerate(zip(curve.positions, curve.velocities)):
        if not m.admissible(TangentSample(x, y)):
            raise InadmissibleSample(f"curve leaves the domain of {m.name!r} "
                                     f"at t={curve.grid[k]!r}")
        vals[k] = 0.5 * _factor_value(lam, x, y) * m.value(x, y)
    return float(simpson(vals, x=curve.grid))


def _pregeodesic_defects(curve: DiscreteCurve, m: MetricDefinition, lam, nodes):
    """D(factor * velocity) at the given nodes under the connection of m.

    Along the curve's own velocity Gamma(v)(v, v) = 2G(x, v), so the defect
    is factor_rate * v + factor * (a + 2G(x, v)) and needs no frame."""
    lam_vals = factor_values(lam, curve)
    lam_rate = factor_rate(lam, curve)
    for k in nodes:
        x, y = curve.positions[k], curve.velocities[k]
        if not m.admissible(TangentSample(x, y)):
            raise InadmissibleSample(f"curve leaves the domain of {m.name!r} "
                                     f"at t={curve.grid[k]!r}")
        yield lam_rate[k] * y + lam_vals[k] * (
            curve.accelerations[k] + 2.0 * spray_coefficients(m, x, y))


def pregeodesic_residual(curve: DiscreteCurve, m: MetricDefinition, lam=None) -> float:
    """max interior norm of D(factor * velocity) along the curve, under the
    connection of the base metric m."""
    defects = _pregeodesic_defects(curve, m, lam, range(1, curve.grid.size - 1))
    return max((float(np.linalg.norm(d)) for d in defects), default=0.0)


# --------------------------------------------------------------------------
# conformal reparametrization
# --------------------------------------------------------------------------

def reparametrize_conformal(curve: DiscreteCurve, lam, m: MetricDefinition | None = None,
                            mu_span: tuple[float, float] | None = None,
                            require_lightlike: bool = True
                            ) -> tuple[Reparametrization, DiscreteCurve]:
    """Solve phidot(mu) = factor(velocity(phi(mu))) with phi(mu0) = t0 and
    emit the reparametrized curve, by RK4 steps of the base curve's step.

    With mu_span=None the map is integrated until it exhausts the base
    curve's parameter range (the final partial step is bisected so the last
    node lands on t1).  The lightlike precondition can be switched off to use
    the parameter ODE on non-lightlike curves.
    """
    if require_lightlike:
        if m is None:
            raise ValueError("a base metric is needed to check the lightlike precondition")
        check_lightlike(curve, m)
    lo, hi = curve.t0, curve.t1

    def rate(mu: float, phi: float, clamp: bool = True) -> float:
        if not clamp and (phi < lo - 1e-12 or phi > hi + 1e-12):
            raise ReparametrizationRangeError(
                f"parameter map left [{lo!r}, {hi!r}] near mu={mu!r}",
                reachable=(lo, hi))
        t = min(max(phi, lo), hi)
        return _factor_value(lam, curve.position(t), curve.velocity(t))

    def strict_rate(mu: float, phi: float) -> float:
        return rate(mu, phi, clamp=False)

    h = curve.step
    mus = [curve.t0 if mu_span is None else float(mu_span[0])]
    phis = [lo]
    if mu_span is not None:
        mu0, mu1 = float(mu_span[0]), float(mu_span[1])
        steps = max(1, math.ceil((mu1 - mu0) / h - 1e-12))
        h = (mu1 - mu0) / steps
        for k in range(steps):
            mu = mu0 + k * h
            phis.append(rk4_step(strict_rate, mu, phis[-1], h))
            mus.append(mu + h if k < steps - 1 else mu1)
    else:
        while True:
            mu, phi = mus[-1], phis[-1]
            nxt = rk4_step(rate, mu, phi, h)
            if nxt < hi - 1e-13:
                mus.append(mu + h)
                phis.append(nxt)
                continue
            # bisect the final step length so the map lands exactly on t1
            lo_h, hi_h = 0.0, h
            for _ in range(80):
                mid = 0.5 * (lo_h + hi_h)
                if rk4_step(rate, mu, phi, mid) < hi:
                    lo_h = mid
                else:
                    hi_h = mid
            final = 0.5 * (lo_h + hi_h)
            if final > 1e-13 * max(1.0, h):
                mus.append(mu + final)
                phis.append(min(rk4_step(rate, mu, phi, final), hi))
            phis[-1] = hi
            break
    mus = np.asarray(mus)
    phis = np.asarray(phis)
    phidots = np.array([rate(mu, p) for p, mu in zip(phis, mus)])
    rep = Reparametrization(mus, phis, phidots)

    positions = curve.position(phis)
    base_vel = curve.velocity(phis)
    base_acc = curve.acceleration(phis)
    velocities = phidots[:, None] * base_vel
    # second derivative of the factor map via the chain rule; exact node data
    phiddots = _chain_rates(lam, positions, base_vel, base_acc) * phidots
    accelerations = (phiddots[:, None] * base_vel
                     + (phidots ** 2)[:, None] * base_acc)
    out = DiscreteCurve(mus, positions, velocities, accelerations)
    return rep, out

