"""Geodesic integration, lightcone projection, energy, and conformal
reparametrization of lightlike geodesics.

The integrator is classical fixed-step RK4 on the first-order system
(x, y) -> (y, -2G(x, y)); every stage state is checked to be finite and
inside the conic domain, so fractional-power metrics fail loudly instead of
producing NaNs mid-step.  A stage runs the metric's domain program, its
order-2 one-point jet kernel and the spray kernel, bound once per curve,
and a step is one straight-line function written per number of state
components, which `rk4_step` runs on one array.

Lightcone projection runs Newton's method on one sample as Python floats
(`_cone_point`; cone sampling calls it on its draws), by the metric's jet
kernel and domain check, bound once: one order-2 jet per Newton evaluation,
the first of which also picks the probe, and one domain check per halving
candidate; a stalled sample fails at once, as at the 50th iteration.
Along a curve, values, the factor's partials and sprays come from one walk
over the nodes on bound programs (`dsl._along`), as an RK stage takes them;
row-wise dot products are stacked matmuls, which round as the 1-D `@` does.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

from .connection import _spray_kernel
from .curves import DiscreteCurve, Reparametrization
from .dsl import MetricDefinition, TangentSample, _along, _inadmissible
from .errors import (CurveCheckFailure, DomainExit, EvaluationDomainError,
                     FinslabError, InadmissibleSample, NoConvergence,
                     PositivityFailure, TransversalityFailure)
from .jets import _compiled, jet_space
from .numerics import cumulative_simpson, simpson
from .tensors import _source, legendre

__all__ = [
    "LIGHTLIKE_TOL", "rk4_step", "integrate_geodesic", "probe_vector",
    "covector_probe", "project_to_lightcone", "energy", "reparametrize_conformal",
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


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The dot products a[k] @ b[k] of the rows of two (S, n) arrays, as a
    stacked matmul, which rounds as the 1-D `@` of each pair does."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def factor_rate(lam, curve: DiscreteCurve) -> np.ndarray:
    """d/dt of the factor along the curve (see `_factor_along`)."""
    return np.zeros(curve.grid.size) if lam is None else _factor_along(lam, curve, value=False)[3]


def _factor_along(lam, curve: DiscreteCurve, value: bool = True):
    """From one walk over the nodes: the factor's values (None without
    `value`), its partials d/dx and d/dy at the first-partial slots of one
    order-2 jet per node, and its rate d/dt by the chain rule through the
    stored accelerations (exact given the node data)."""
    size, n = curve.positions.shape
    slots = operator.itemgetter(*jet_space(2 * n, 2).partial_slots(1)[0][:, 0].tolist())
    reads = [(lam, "value")] * value + [(lam, lambda c, y: slots(c))]
    *values, grad = _along(curve.positions, curve.velocities, None, *reads)
    grad = np.array(grad).reshape(size, 2 * n)
    dx, dy = grad[:, :n].copy(), grad[:, n:].copy()
    rate = _row_dots(dx, curve.velocities) + _row_dots(dy, curve.accelerations)
    return (np.array(values[0]) if value else None), dx, dy, rate


# --------------------------------------------------------------------------
# integration
# --------------------------------------------------------------------------

def rk4_step(f, t, s, h, k1):
    """One classical RK4 step of s' = f(t, s) from k1 = f(t, s), for a state
    of one array: the written step of one component (`_rk4_kernel`).  t and
    h may be arrays that broadcast against the state, so one call takes
    several independent steps, each with the float operations of its own."""
    return _rk4_kernel(1)(lambda t, s: [f(t, *s)], t, [s], h, [k1])[0]


@functools.lru_cache(maxsize=None)
def _rk4_kernel(size: int):
    """`step(f, t, s, h, k1)`: one classical RK4 step of s' = f(t, s) from
    k1 = f(t, s), written as straight-line code for states and rates of
    `size` components, floats or arrays; each component takes the float
    operations of one array, in their order, and the step returns a list."""
    def row(form: str) -> str:
        return f"[{', '.join(form.format(i) for i in range(size))}]"

    def unpack(name: str) -> str:
        return "".join(f"{name}{i}, " for i in range(size))
    return _compiled(_source("step(f, t, s, h, k1)", [
        f"{unpack('s')}= s", f"{unpack('a')}= k1", "c = 0.5 * h",
        f"{unpack('b')}= f(t + c, {row('s{0} + c * a{0}')})",
        f"{unpack('d')}= f(t + c, {row('s{0} + c * b{0}')})",
        f"{unpack('e')}= f(t + h, {row('s{0} + h * d{0}')})",
        "w = h / 6.0", f"return {row('s{0} + w * (a{0} + 2 * b{0} + 2 * d{0} + e{0})')}"]), {})


def _rates(m: MetricDefinition):
    """f(t, s): the rate y + (-2G(x, y)) of the RK stage state s = x + y,
    2n floats, at curve time t, by m's domain program, order-2 jet kernel
    and the spray kernel, bound once, with the checks and errors of
    `_point_admissible` and `_point_jet` and a finite check of s."""
    n = m.dim
    inside, jet, spray = m._domain.positive_kernel(), m._body.point_kernel(2), _spray_kernel(n)

    def f(t, s):
        if not all(map(math.isfinite, s)):
            raise EvaluationDomainError(f"the integration state is not finite at t={t!r}")
        y = s[n:]
        if not (any(y) and inside(s)):      # a zero y is in no conic domain
            raise DomainExit(t)
        c = jet(s)
        if not all(map(math.isfinite, c)):
            raise m._not_finite(TangentSample(s[:n], y))
        return [*y, *[-2.0 * a for a in spray(c, y)]]
    return f


def integrate_geodesic(m: MetricDefinition, x0, v0, t_span: tuple[float, float],
                       h: float) -> DiscreteCurve:
    """Fixed-step RK4 integration of xdd = -2G(x, xd).

    The state (x, y) is held as one list of 2n Python floats, the point
    that m's domain program, order-2 jet kernel and spray kernel read; they
    are bound once per call (`_rates`), and each step is the written step
    of 2n components (`_rk4_kernel`), which takes the float operations of
    `rk4_step` on an array, to the bit.  The step is shrunk minimally so
    that it divides the span exactly.  Raises EvaluationDomainError if an
    RK stage state or its jet is not finite, DomainExit if a stage leaves
    the conic domain or its fiber vector is zero, SingularMetric if the
    fundamental tensor degenerates along the way.
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
    f, step = _rates(m), _rk4_kernel(2 * n)
    states = [start.x.tolist() + start.y.tolist()]
    rates = [f(t0, states[0])]
    for k in range(steps):
        t = t0 + k * h
        states.append(step(f, t, states[k], h, rates[k]))
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
    return covector_probe(legendre(m, v).tolist(), v.y.tolist())


def covector_probe(ell: list, y: list) -> np.ndarray:
    """The basis vector e_i at the first index of the largest |ell_i| for the
    Legendre covector ell of the sample y, or TransversalityFailure where
    that is within 1e-12 max(1, |y|^2) of zero."""
    pairing = [abs(a) for a in ell]
    i = pairing.index(max(pairing))
    if _within(pairing[i], 1e-12, y):
        raise TransversalityFailure("no basis vector pairs with the sample")
    return np.eye(len(y))[i]


def _within(value: float, tol: float, y: list) -> bool:
    """|value| <= tol max(1, y @ y), the numpy dot taken only where the test
    can pass: it and the float sum s of the squares lie within 2n u of |y|^2
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
    SIAM 2002, section 3.1), far inside the margin 1e-13 at n <= MAX_DIM."""
    if abs(value) > tol * max(1.0, sum(map(operator.mul, y, y)) * (1.0 + 1e-13)):
        return False
    return abs(value) <= tol * max(1.0, float(np.array(y) @ y))


_NOT_CONVERGED = "lightcone projection did not converge in 50 iterations"


def project_to_lightcone(m: MetricDefinition, v: TangentSample, w="auto",
                         tol: float = CONE_PROJECTION_TOL) -> TangentSample:
    """Newton solve of L(v + delta*w) = 0 along a transversal direction w, in
    at most 50 iterations.

    Steps that would leave the conic domain are halved, at most 60 times,
    which lets the iteration approach cones sitting on the domain boundary
    (fractional-power metrics).  Idempotent on vectors that are already
    lightlike.  A sample whose step no longer moves delta would stay where it
    is to the 50th iteration, and fails at once.

    The loop runs on Python floats (`_cone_point`); w="auto" is
    `probe_vector`'s basis vector, read off the first jet.  A probe w of
    another shape than the fiber vector is a ValueError, raised first.
    """
    auto = isinstance(w, str) and w == "auto"
    w = None if auto else np.asarray(w, dtype=float)
    if not auto and w.shape != v.y.shape:
        raise ValueError(f"probe array of shape {w.shape} for fiber vectors "
                         f"of shape {v.y.shape}")
    return TangentSample(v.x, _cone_point(m, v.x.tolist(), v.y.tolist(), w, tol))


def _cone_point(m: MetricDefinition, x: list, y0: list, w, tol: float) -> list:
    """The fiber vector of `project_to_lightcone` from x + y0 along the array
    w (None: the auto probe), all lists of Python floats.  m's jet kernel and
    domain check are bound once: one jet per Newton evaluation, checked
    finite, and one check per halving candidate.  Along a basis vector the
    slope is one jet coefficient; every decision is a sample loop's, to the bit."""
    n = m.dim
    inside = m._domain.positive_kernel()
    if len(x) != n or not inside(x + y0):
        raise _inadmissible(m, TangentSample(x, y0))
    jet = m._body.point_kernel(2)
    c = jet(x + y0)
    if not all(map(math.isfinite, c)):
        raise m._not_finite(TangentSample(x, y0))
    if w is None:
        w = covector_probe([0.5 * a for a in c[n:0:-1]], y0)
    probe = w.tolist()
    # the slope along e_i is coefficient k = n - i (`JetSpace.partial_slots`),
    # as the dot's other terms are +-0 and numpy sums from +0.0 (-0.0 reads
    # +0.0); k = 0 for any other w
    k = n - probe.index(1.0) if probe.count(0.0) == n - 1 and 1.0 in probe else 0
    slope = c[k] + 0.0 if k else float(np.array(c[n:0:-1]) @ w)
    # transversality: g_v(v, w) = (1/2) dL_v(w)
    if _within(slope, 1e-12, y0):
        raise TransversalityFailure(
            f"probe vector pairs to {slope / 2:.3e} with the base vector")
    delta, y = 0.0, y0
    for _ in range(50):
        if _within(c[0], tol, y):
            return y
        if slope == 0.0:
            raise NoConvergence("lightcone projection hit a critical point")
        step = -c[0] / slope
        for _ in range(60):
            moved = delta + step
            y = [a + moved * b for a, b in zip(y0, probe)]
            if any(y) and inside(x + y):
                break
            step *= 0.5
        else:
            raise NoConvergence("lightcone projection could not stay inside the domain")
        # a step that no longer moves delta leaves y, c and slope as they
        # are, so every later iteration would repeat this one to the 50th
        if moved == delta:
            raise NoConvergence(_NOT_CONVERGED)
        delta = moved
        c = jet(x + y)
        if not all(map(math.isfinite, c)):
            raise m._not_finite(TangentSample(x, y))
        slope = c[k] + 0.0 if k else float(np.array(c[n:0:-1]) @ w)
    raise NoConvergence(_NOT_CONVERGED)


def lightlike_defect(curve: DiscreteCurve, m: MetricDefinition) -> float:
    """max over nodes of |L(velocity)| normalized by the squared fiber norm."""
    ys = curve.velocities
    values = m.value(curve.positions, ys)
    return float(np.max(np.abs(values) / np.maximum(1.0, _row_dots(ys, ys)),
                        initial=0.0))


def check_lightlike(curve: DiscreteCurve, m: MetricDefinition) -> None:
    """CurveCheckFailure unless the lightlike defect stays within
    LIGHTLIKE_TOL."""
    defect = lightlike_defect(curve, m)
    if defect > LIGHTLIKE_TOL:
        raise CurveCheckFailure(f"curve is not lightlike: normalized |L| reaches {defect:.3e}")


# --------------------------------------------------------------------------
# energy and the pregeodesic characterization
# --------------------------------------------------------------------------

def energy(curve: DiscreteCurve, m: MetricDefinition, lam=None) -> float:
    """(1/2) integral of factor(velocity) * L(velocity) over the curve; at
    each node m's domain check, the factor's value, then m's value."""
    _, *vals = _along(curve.positions, curve.velocities, curve.grid, (m, "inside"),
                      *[(lam, "value")] * (lam is not None), (m, "value"))
    return float(simpson(functools.reduce(operator.mul, map(np.array, vals), 0.5), curve.grid))


def _pregeodesic_defects(curve: DiscreteCurve, m: MetricDefinition, lam, nodes):
    """D(factor * velocity) at the given nodes (an index array) under the
    connection of m, one row per node.

    Along the curve's own velocity Gamma(v)(v, v) = 2G(x, v), so the defect
    is factor_rate * v + factor * (a + 2G(x, v)) and needs no frame.  The
    first failing node in curve order raises, an inadmissible one with its
    curve time, m's before the factor's values and those before its jets."""
    ys = curve.velocities[nodes]
    _, G = _along(curve.positions[nodes], ys, curve.grid[nodes],
                  (m, "inside"), (m, _spray_kernel(m.dim)))
    lam_vals = factor_values(lam, curve)[nodes, None]
    lam_rate = factor_rate(lam, curve)[nodes, None]
    return lam_rate * ys + lam_vals * (curve.accelerations[nodes] + 2.0 * np.reshape(G, ys.shape))


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
    """The parameter map t = phi(mu) with phidot = factor(velocity(phi)),
    phi(t0) = t0, and the curve reparametrized by it.

    The curve must be lightlike under m.  mu(t) = t0 + the integral of
    1/factor is a cumulative Simpson sum over the base curve's nodes, which
    the reparametrized curve keeps, with velocities and accelerations from
    the exact node data by the chain rule.  PositivityFailure, naming the
    curve time, if the factor is not finite and positive at a node;
    FinslabError, naming the first such curve time, if the map or the
    rescaled node data is not finite there (a factor so small or so large
    that 1/factor or a rescaled velocity overflows), or if the factor varies
    too fast for the step, so that the map stalls.
    """
    check_lightlike(curve, m)
    phidots = factor_values(lam, curve)
    bad = np.flatnonzero(~(np.isfinite(phidots) & (phidots > 0)))
    if bad.size:
        value, t = float(phidots[bad[0]]), float(curve.grid[bad[0]])
        raise PositivityFailure(f"the conformal factor is {value!r} at t={t!r}, "
                                f"not finite and positive")
    mus = curve.t0 + cumulative_simpson(1.0 / phidots, curve.grid)
    _require_finite_nodes(curve, mus[:, None])
    # a Simpson step turns negative where 1/factor changes ~9-fold per step
    stalls = np.flatnonzero(~(np.diff(mus) > 0))
    if stalls.size:
        raise FinslabError(f"the conformal factor varies too fast for the curve's step "
                           f"near t={float(curve.grid[stalls[0]])!r}: the map stalls")
    vel = curve.velocities
    phiddots = factor_rate(lam, curve) * phidots
    new_vel = phidots[:, None] * vel
    new_acc = phiddots[:, None] * vel + (phidots ** 2)[:, None] * curve.accelerations
    _require_finite_nodes(curve, new_vel, new_acc)
    out = DiscreteCurve(mus, curve.positions, new_vel, new_acc)
    return Reparametrization(mus, curve.grid, phidots), out


def _require_finite_nodes(curve: DiscreteCurve, *rows: np.ndarray) -> None:
    """FinslabError naming the first curve time whose row, one row per node
    across the arrays, is not finite."""
    bad = np.flatnonzero(~np.isfinite(np.hstack(rows)).all(axis=1))
    if bad.size:
        raise FinslabError(f"the conformal reparametrization is not finite at "
                           f"t={float(curve.grid[bad[0]])!r}")
