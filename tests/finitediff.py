"""Richardson-extrapolated central finite differences.

Cross-check oracle for the jet engine; never used on the primary evaluation
path.  Mixed partials are built by nesting first-order central differences,
then extrapolating the whole stencil over three step sizes.  The patch
stencils `param_jacobian` and `param_second` are the oracle for the exact
derivatives a `SubmanifoldPatch` carries.
"""

from __future__ import annotations

import numpy as np


def _nested_central(f, point: np.ndarray, alpha: tuple[int, ...], h: float) -> float:
    total = sum(alpha)
    if total == 0:
        return float(f(point))
    var = next(i for i, a in enumerate(alpha) if a > 0)
    reduced = tuple(a - 1 if i == var else a for i, a in enumerate(alpha))
    step = np.zeros_like(point)
    step[var] = h
    plus = _nested_central(f, point + step, reduced, h)
    minus = _nested_central(f, point - step, reduced, h)
    return (plus - minus) / (2.0 * h)


def partial_derivative(f, point, alpha, h: float = 0.05, levels: int = 3) -> float:
    """Mixed partial d^alpha f at the point, Richardson-extrapolated.

    The base stencil has O(h^2) error; each extra level removes one even
    power.  Three levels are accurate to ~1e-8 relative for smooth functions
    at the default step, which is what the jet cross-checks need.
    """
    point = np.asarray(point, dtype=float)
    alpha = tuple(int(a) for a in alpha)
    estimates = [_nested_central(f, point, alpha, h / 2 ** i) for i in range(levels)]
    power = 4.0
    while len(estimates) > 1:
        estimates = [
            (power * fine - coarse) / (power - 1.0)
            for coarse, fine in zip(estimates, estimates[1:])
        ]
        power *= 4.0
    return estimates[0]


def directional_derivative(f, point, direction, h: float = 1e-4) -> float:
    """Richardson-extrapolated first derivative of t -> f(point + t*direction)."""
    point = np.asarray(point, dtype=float)
    direction = np.asarray(direction, dtype=float)

    def g(t):
        return f(point + t * direction)

    d1 = (g(h) - g(-h)) / (2 * h)
    d2 = (g(h / 2) - g(-h / 2)) / h
    return (4.0 * d2 - d1) / 3.0


def param_jacobian(fn, u, h: float = 1e-5) -> np.ndarray:
    """(n, d) Richardson central differences of a patch immersion u -> fn(u)."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    cols = []
    for a in range(u.size):
        e = np.zeros_like(u)
        e[a] = 1.0
        d1 = (np.asarray(fn(u + h * e)) - np.asarray(fn(u - h * e))) / (2 * h)
        d2 = (np.asarray(fn(u + 0.5 * h * e)) - np.asarray(fn(u - 0.5 * h * e))) / h
        cols.append((4.0 * d2 - d1) / 3.0)
    return np.stack(cols, axis=1)


def param_second(fn, u, a: int, b: int, h: float = 1e-4) -> np.ndarray:
    """Richardson central difference of d^2 fn / du_a du_b."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    ea = np.zeros_like(u)
    eb = np.zeros_like(u)
    ea[a] = 1.0
    eb[b] = 1.0

    def stencil(step):
        if a == b:
            return (np.asarray(fn(u + step * ea)) - 2.0 * np.asarray(fn(u))
                    + np.asarray(fn(u - step * ea))) / step ** 2
        return (np.asarray(fn(u + step * (ea + eb))) - np.asarray(fn(u + step * (ea - eb)))
                - np.asarray(fn(u - step * (ea - eb))) + np.asarray(fn(u - step * (ea + eb)))
                ) / (4.0 * step ** 2)

    d1, d2 = stencil(h), stencil(h / 2)
    return (4.0 * d2 - d1) / 3.0
