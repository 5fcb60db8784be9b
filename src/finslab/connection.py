"""Connection machinery: geodesic spray, Christoffel symbols, curvature, and
horizontal/vertical derivatives of anisotropic scalars.

Everything is computed from one jet of the metric scalar per sample.  With a
jet of order k, the fundamental tensor survives as an order-(k-2) jet, the
spray as order-(k-2), the nonlinear connection as order-(k-3), and the
Christoffel symbols as order-(k-3); curvature consumes the full order 4.
Derivatives of intermediate quantities are therefore exact (no finite
differences anywhere on this path).

A `ConnectionFrame` holds these jets as arrays of normalized coefficients
(the last axis runs over one `JetSpace`), takes their partials with
`JetSpace.partial_jets` and multiplies them with `JetSpace.mul`.  The jet of
g^{-1} is the Neumann series sum_j (-g0^{-1} gh)^j g0^{-1}, where g0^{-1} is
`tensors.inverse_metric` of the value of g and gh is the rest of g; gh is
nilpotent at truncation order, so the finite series is exact, by the
argument behind `Jet._compose` (Griewank & Walther, *Evaluating
Derivatives*, 2nd ed., SIAM 2008, ch. 13).

Conventions: the geodesic equation is xdd^i = -2 G^i(x, xd); the covariant
derivative along a curve uses Christoffel symbols referenced at an admissible
field U; `jacobi_operator(m, v, w)` returns the right-hand side of the Jacobi
equation D^2 J = R_v(v, J)v, normalized so that the flat case gives zero and
a unit round sphere gives -J for unit transverse J.  Along a curve every
consumer (`variational.CurveGeometry`, the Jacobi integrator and
`covariant_derivative_along`) reads connection data from the arrays of
`_frame_tables`, one frame per sample.

All functions here are pure and stateless; batch evaluation over sample
arrays is an ordinary map, safe to parallelize from the caller.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .curves import DiscreteCurve, spline_derivative
from .dsl import MetricDefinition, TangentSample
from .errors import GridMismatch, InadmissibleSample
from .jets import Jet, jet_space
from .tensors import fundamental_tensor, inverse_metric

__all__ = [
    "SprayValue", "ChristoffelField", "ConnectionFrame",
    "spray", "spray_coefficients", "christoffel",
    "jacobi_operator", "jacobi_matrix", "chern_curvature",
    "covariant_derivative_along", "horizontal_derivative",
    "vertical_gradient", "horizontal_gradient",
]


# --------------------------------------------------------------------------
# result records
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SprayValue:
    G: np.ndarray           # (n,) spray coefficients
    N: np.ndarray           # (n, n) nonlinear connection N^i_j = dG^i/dy^j
    basepoint: TangentSample


@dataclass(frozen=True)
class ChristoffelField:
    gamma: np.ndarray       # (n, n, n): gamma[k, i, j] = Gamma^k_ij
    basepoint: TangentSample


# --------------------------------------------------------------------------
# the per-sample evaluation frame
# --------------------------------------------------------------------------

def _cached(method):
    """Compute a frame quantity on first access and keep it for the frame's
    lifetime."""
    name = method.__name__

    @functools.wraps(method)
    def cached(self):
        val = self._cache.get(name)
        if val is None:
            val = self._cache[name] = method(self)
        return val

    return cached


class ConnectionFrame:
    """All connection data derived from one jet of the metric at one sample.

    Lazy: each derived quantity is computed on first access and cached for
    the lifetime of the frame.  Jet-valued quantities are coefficient arrays
    whose last axis runs over one jet space over the 2n chart and fiber
    variables: g and g^{-1} of shape (n, n, size) and G of shape (n, size) at
    order k-2, N of shape (n, n, size) and Gamma of shape (n, n, n, size) at
    order k-3.  Along a curve, `_frame_tables` builds one frame per sample
    and keeps only the values its consumers read.
    """

    def __init__(self, m: MetricDefinition, v: TangentSample, order: int = 4):
        if not m.admissible(v):
            raise InadmissibleSample(
                f"sample {v!r} is outside the domain of {m.name!r}")
        self.metric = m
        self.sample = v
        self.n = v.dim
        self.order = order
        self.L = m.jet(v, order)
        self._cache: dict[str, np.ndarray] = {}

    def _space(self, drop: int):
        return jet_space(2 * self.n, self.order - drop)

    @_cached
    def g_jets(self) -> np.ndarray:
        n = self.n
        return 0.5 * self.L.partial_jets(2)[n:, n:]

    def g(self) -> np.ndarray:
        return self.g_jets()[..., 0]

    @_cached
    def ginv_jets(self) -> np.ndarray:
        """g^{-1} = (sum_{j <= k-2} M^j) g0^{-1} with M = -g0^{-1} gh, by Horner."""
        g = self.g_jets()
        space = self._space(2)
        g0inv = inverse_metric(g[..., 0])
        step = -np.einsum("il,ljs->ijs", g0inv, g)
        step[..., 0] = 0.0
        series = step.copy()
        series[..., 0] = np.eye(self.n)
        for _ in range(space.order - 1):
            series = _contract(space, step, series)
            series[..., 0] = np.eye(self.n)
        return np.einsum("ims,ml->ils", series, g0inv)

    def ginv(self) -> np.ndarray:
        return self.ginv_jets()[..., 0]

    @_cached
    def spray_jets(self) -> np.ndarray:
        """G^i = (1/4) g^il ( d2L/dy^l dx^k y^k - dL/dx^l ), as jets."""
        n = self.n
        space = self._space(2)
        yvars = np.zeros((n, space.size))
        yvars[:, 0] = self.sample.y
        if space.order >= 1:
            yvars[:, space.partial_slots(1)[0][n:, 0]] = np.eye(n)
        rhs = (_contract(space, self.L.partial_jets(2)[n:, :n], yvars)
               - self.L.partial_jets(1)[:n, :space.size])
        return 0.25 * _contract(space, self.ginv_jets(), rhs)

    def spray_values(self) -> np.ndarray:
        return self.spray_jets()[:, 0]

    @_cached
    def nonlinear_jets(self) -> np.ndarray:
        n = self.n
        return self._space(2).partial_jets(self.spray_jets(), 1)[:, n:]

    def nonlinear(self) -> np.ndarray:
        return self.nonlinear_jets()[..., 0]

    @_cached
    def christoffel(self) -> np.ndarray:
        """Gamma^k_ij = (1/2) g^kl (delta_i g_lj + delta_j g_il - delta_l g_ij)
        with delta_k = d/dx^k - N^m_k d/dy^m, at value level."""
        if self.order < 3:
            raise ValueError("Christoffel symbols need a frame of order >= 3")
        n = self.n
        dg = 0.5 * self.L.partials(3)[n:, n:]      # [i, j, a] = d g_ij / dz^a
        delta = dg[..., :n] - np.einsum("ijm,mk->ijk", dg[..., n:], self.nonlinear())
        return 0.5 * np.einsum("kl,lij->kij", self.ginv(), _lowered_christoffel(delta))

    @_cached
    def christoffel_jets(self) -> np.ndarray:
        n = self.n
        space = self._space(3)
        dg = 0.5 * self.L.partial_jets(3)[n:, n:]   # [i, j, a, beta]
        N = self.nonlinear_jets()
        delta = dg[:, :, :n] - _contract(space, dg[:, :, n:], N)
        ginv = self.ginv_jets()[..., :space.size]
        return 0.5 * _contract(space, ginv, _lowered_christoffel(delta))

    @_cached
    def jacobi_matrix(self) -> np.ndarray:
        """Matrix A with D^2 J = A J along geodesics through this sample.

        Built from first and second derivatives of the spray; requires an
        order-4 frame.
        """
        if self.order < 4:
            raise ValueError("the Jacobi operator needs a frame of order 4")
        n = self.n
        G = self.spray_jets()               # order 2 at a full-order frame
        space = self._space(2)
        dG = space.partial_jets(G, 1)[..., 0]           # [i, a]
        d2G = space.partial_jets(G, 2)[..., 0]          # [i, a, b]
        R = (2.0 * dG[:, :n]
             - np.einsum("j,ijk->ik", self.sample.y, d2G[:, :n, n:])
             + 2.0 * np.einsum("j,ijk->ik", G[:, 0], d2G[:, n:, n:])
             - dG[:, n:] @ dG[:, n:])
        return -R

    @_cached
    def curvature_components(self) -> np.ndarray:
        """R^l_{kij} from horizontal derivatives of the Christoffel symbols."""
        n = self.n
        gamma = self.christoffel()
        dgamma = self._space(3).partial_jets(self.christoffel_jets(), 1)[..., 0]
        # [l, j, k, i] = delta_i Gamma^l_{jk}
        dgamma = dgamma[..., :n] - np.einsum("ljkm,mi->ljki", dgamma[..., n:],
                                             self.nonlinear())
        return (np.einsum("ljki->lkij", dgamma) - np.einsum("likj->lkij", dgamma)
                + np.einsum("lim,mjk->lkij", gamma, gamma)
                - np.einsum("ljm,mik->lkij", gamma, gamma))


def _contract(space, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Jet-valued contraction sum_m a[..., m, :] b[m, ..., :] of coefficient
    arrays over the last index of a and the first of b."""
    a = a.reshape(a.shape[:-1] + (1,) * (b.ndim - 2) + a.shape[-1:])
    return space.mul(a, b).sum(axis=a.ndim - b.ndim)


def _lowered_christoffel(delta: np.ndarray) -> np.ndarray:
    """[l, i, j] = delta_i g_lj + delta_j g_il - delta_l g_ij from
    delta[i, j, k] = delta_k g_ij (any trailing axes ride along)."""
    return (np.swapaxes(delta, 1, 2) + np.swapaxes(delta, 0, 1)
            - np.moveaxis(delta, 2, 0))


# --------------------------------------------------------------------------
# public operations
# --------------------------------------------------------------------------

def spray(m: MetricDefinition, v: TangentSample) -> SprayValue:
    frame = ConnectionFrame(m, v, order=3)
    return SprayValue(frame.spray_values(), frame.nonlinear(), v)


def spray_coefficients(m: MetricDefinition, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Fast path used by integrators: spray values only, from one order-2 jet.

    G = (1/4) g^{-1} (A y - b) with A_lk = d2L/dy^l dx^k and b_l = dL/dx^l.
    """
    y = np.asarray(y, dtype=float)
    n = y.size
    L = m.jet(TangentSample(x, y), 2)
    b = L.partials(1)[:n]
    hess = L.partials(2)
    A = hess[n:, :n]
    g = 0.5 * hess[n:, n:]
    return 0.25 * (inverse_metric(g) @ (A @ y - b))


def christoffel(m: MetricDefinition, v: TangentSample) -> ChristoffelField:
    frame = ConnectionFrame(m, v, order=3)
    return ChristoffelField(frame.christoffel(), v)


def jacobi_matrix(m: MetricDefinition, v: TangentSample) -> np.ndarray:
    return ConnectionFrame(m, v, order=4).jacobi_matrix()


def jacobi_operator(m: MetricDefinition, v: TangentSample, w) -> np.ndarray:
    """R_v(v, w)v: the right-hand side of the Jacobi equation D^2 J = R_v(v, J)v."""
    return jacobi_matrix(m, v) @ np.asarray(w, dtype=float)


def chern_curvature(m: MetricDefinition, v: TangentSample, X, Y, Z) -> np.ndarray:
    """Full curvature R_v(X, Y)Z assembled from Christoffel derivatives."""
    R = ConnectionFrame(m, v, order=4).curvature_components()
    return np.einsum("lkij,i,j,k->l", R,
                     np.asarray(X, float), np.asarray(Y, float), np.asarray(Z, float))


def _frame_tables(m: MetricDefinition, times: np.ndarray, positions: np.ndarray,
                  references: np.ndarray) -> tuple[np.ndarray, ...]:
    """Connection data along a curve, one order-4 frame per sample (x_k, U_k):
    g, g^{-1}, N, Gamma and the Jacobi operator A as arrays with a leading
    sample axis.  Each frame's values are copied out and the frame dropped,
    so memory holds the tables only.  A sample outside the domain raises
    `InadmissibleSample` naming the curve time."""
    s, n = positions.shape
    g, ginv, N, A = (np.empty((s, n, n)) for _ in range(4))
    gamma = np.empty((s, n, n, n))
    for k in range(s):
        try:
            fr = ConnectionFrame(m, TangentSample(positions[k], references[k]), order=4)
        except InadmissibleSample:
            raise InadmissibleSample(f"curve leaves the domain of {m.name!r} "
                                     f"at t={times[k]!r}") from None
        g[k], ginv[k], N[k] = fr.g(), fr.ginv(), fr.nonlinear()
        gamma[k], A[k] = fr.christoffel(), fr.jacobi_matrix()
    return g, ginv, N, gamma, A


def covariant_derivative_along(curve: DiscreteCurve, U, X, m: MetricDefinition
                               ) -> np.ndarray:
    """Covariant derivative of the field X along the curve with reference U
    (the velocity when None).

    (D X)^k = Xdot^k + X^i vel^j Gamma^k_ij(U); Xdot comes from a spline
    derivative of the samples.
    """
    X = np.asarray(X, dtype=float)
    U = curve.velocities if U is None else np.asarray(U, dtype=float)
    if X.shape != curve.positions.shape or U.shape != curve.positions.shape:
        raise GridMismatch("field samples must match the curve grid")
    gamma = _frame_tables(m, curve.grid, curve.positions, U)[3]
    return spline_derivative(curve.grid, X) + np.einsum(
        "kaij,ki,kj->ka", gamma, X, curve.velocities)


def _scalar_partials(jet: Jet) -> tuple[np.ndarray, np.ndarray]:
    """(d/dx, d/dy) of a scalar jet over the 2n chart and fiber variables."""
    grad = jet.partials(1)
    n = grad.size // 2
    return grad[:n], grad[n:]


def horizontal_derivative(f: MetricDefinition, X, v: TangentSample,
                          m: MetricDefinition) -> float:
    """Connection derivative of an anisotropic scalar along the direction X."""
    dx, dy = _scalar_partials(f.jet(v, 2))
    N = ConnectionFrame(m, v, order=3).nonlinear()
    delta = dx - N.T @ dy
    return float(delta @ np.asarray(X, dtype=float))


def vertical_gradient(f: MetricDefinition, v: TangentSample,
                      m: MetricDefinition) -> np.ndarray:
    """Solves g_v(grad, .) = fiber differential of f at v."""
    _, dy = _scalar_partials(f.jet(v, 2))
    g = fundamental_tensor(m, v).matrix
    return inverse_metric(g) @ dy


def horizontal_gradient(f: MetricDefinition, v: TangentSample,
                        m: MetricDefinition) -> np.ndarray:
    """Solves g_v(grad, .) = horizontal differential of f at v."""
    frame = ConnectionFrame(m, v, order=3)
    dx, dy = _scalar_partials(f.jet(v, 2))
    delta = dx - frame.nonlinear().T @ dy
    return frame.ginv() @ delta
