"""Connection machinery: geodesic spray, Christoffel symbols, curvature, and
horizontal/vertical derivatives of anisotropic scalars.

Everything is computed from one jet of the metric scalar per sample.  With a
jet of order k, the fundamental tensor survives as an order-(k-2) jet, the
spray as order-(k-2), the nonlinear connection as order-(k-3), and the
Christoffel symbols as order-(k-3); curvature consumes the full order 4.
Derivatives of intermediate quantities are therefore exact (no finite
differences anywhere on this path).

A `ConnectionFrame` holds these jets as arrays of normalized coefficients
(the last axis runs over one `JetSpace`) for S samples at once (the first
axis).  It takes the partials of the metric jet with `Jet.partial_jets`, as
every scalar jet's partials are taken, and those of the arrays it derives
with `JetSpace.partial_jets`; it multiplies them with `JetSpace.mul`.  The
jet of g^{-1} is the Neumann series sum_j (-g0^{-1} gh)^j g0^{-1}, where
g0^{-1} is `tensors.inverse_metric` of the value of g and gh is the rest of
g; gh is nilpotent at truncation order, so the finite series is exact, by
the argument behind `Jet._compose` (Griewank & Walther, *Evaluating
Derivatives*, 2nd ed., SIAM 2008, ch. 13).
Evaluating many samples in one pass is the vector mode of forward
differentiation (ibid.): the tape and the frame arithmetic run once per
chunk of samples instead of once per sample.

Conventions: the geodesic equation is xdd^i = -2 G^i(x, xd); the covariant
derivative along a curve uses Christoffel symbols referenced at an admissible
field U; `jacobi_operator(m, v, w)` returns the right-hand side of the Jacobi
equation D^2 J = R_v(v, J)v, normalized so that the flat case gives zero and
a unit round sphere gives -J for unit transverse J.  Along a curve every
consumer (`variational.CurveGeometry`, the Jacobi integrator and
`covariant_derivative_along`) reads connection data from the arrays of
`_frame_tables`, which evaluates the curve's samples in near-equal chunks
of at most `CHUNK`, one frame per chunk.  Row k of a chunk equals the frame
of sample k alone, to the bit, and a failing chunk raises the error of its
first failing sample, as a loop over samples would.

All functions here are pure and stateless.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .curves import DiscreteCurve, spline_derivative
from .dsl import MetricDefinition, SampleBatch, TangentSample
from .errors import GridMismatch, InadmissibleSample
from .jets import Jet, jet_space
from .tensors import (_inadmissible, _require_admissible, _require_nondegenerate,
                      fundamental_tensor, inverse_metric)

__all__ = [
    "SprayValue", "ChristoffelField", "ConnectionFrame",
    "spray", "spray_coefficients", "christoffel",
    "jacobi_operator", "jacobi_matrix", "chern_curvature",
    "covariant_derivative_along", "horizontal_derivative",
    "vertical_gradient", "horizontal_gradient",
]


# Most samples per frame along a curve: large enough that the tape and the
# frame arithmetic run over many samples per numpy call, small enough that
# one chunk's temporaries stay within a cache-sized working set and peak
# memory within noise of one frame per sample (see BENCH_8.json).  A curve
# is split into chunks of near-equal size (`_chunks`).
CHUNK = 16


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
    """Compute a frame quantity on first access, with its leading sample
    axis, and keep it for the frame's lifetime.  A frame of one
    `TangentSample` hands it out without that axis; the frame's own
    arithmetic reads it with the axis, through `_rows`."""
    name = method.__name__

    @functools.wraps(method)
    def cached(self):
        val = self._cache.get(name)
        if val is None:
            val = self._cache[name] = method(self)
        return val if self.batched else val[0]

    return cached


class ConnectionFrame:
    """All connection data derived from one jet of the metric at each of S
    samples.

    `v` is one `TangentSample` (S = 1) or a `SampleBatch`; every array
    carries a leading sample axis, and the arithmetic is the same for any S,
    so row k of a batch equals the frame of sample k alone, to the bit.
    Lazy: each derived quantity is computed on first access and cached for
    the lifetime of the frame.  Jet-valued quantities are coefficient arrays
    whose last axis runs over one jet space over the 2n chart and fiber
    variables: g and g^{-1} of shape (S, n, n, size) and G of shape
    (S, n, size) at order k-2, N of shape (S, n, n, size) and Gamma of shape
    (S, n, n, n, size) at order k-3.  A frame of one `TangentSample` hands
    out every quantity without the sample axis.  Along a curve,
    `_frame_tables` builds one frame per chunk of samples and keeps only the
    values its consumers read.
    """

    def __init__(self, m: MetricDefinition, v: TangentSample | SampleBatch,
                 order: int = 4):
        self.batched = isinstance(v, SampleBatch)
        _require_admissible(m, v)
        self.metric = m
        self.sample = v
        self.n = v.dim
        self.order = order
        c = m.jet(v, order).c
        self.c = c if self.batched else c[None]     # (S, size)
        self.y = v.y if self.batched else v.y[None]
        self._cache: dict[str, np.ndarray] = {}

    def _rows(self, name: str) -> np.ndarray:
        """A cached quantity with its sample axis."""
        if name not in self._cache:
            getattr(self, name)()
        return self._cache[name]

    def _space(self, drop: int):
        return jet_space(2 * self.n, self.order - drop)

    def _partial_jets(self, degree: int) -> np.ndarray:
        return Jet(self._space(0), self.c).partial_jets(degree)

    @_cached
    def g_jets(self) -> np.ndarray:
        n = self.n
        return 0.5 * self._partial_jets(2)[:, n:, n:]

    def g(self) -> np.ndarray:
        return self.g_jets()[..., 0]

    @_cached
    def ginv_jets(self) -> np.ndarray:
        """g^{-1} = (sum_{j <= k-2} M^j) g0^{-1} with M = -g0^{-1} gh, by Horner."""
        g = self._rows("g_jets")
        space = self._space(2)
        g0inv = inverse_metric(g[..., 0])
        step = -np.einsum("sil,sljk->sijk", g0inv, g)
        step[..., 0] = 0.0
        series = step.copy()
        series[..., 0] = np.eye(self.n)
        for _ in range(space.order - 1):
            series = _contract(space, step, series)
            series[..., 0] = np.eye(self.n)
        return np.einsum("simk,sml->silk", series, g0inv)

    def ginv(self) -> np.ndarray:
        return self.ginv_jets()[..., 0]

    @_cached
    def spray_jets(self) -> np.ndarray:
        """G^i = (1/4) g^il ( d2L/dy^l dx^k y^k - dL/dx^l ), as jets."""
        n = self.n
        space = self._space(2)
        yvars = np.zeros((len(self.c), n, space.size))
        yvars[:, :, 0] = self.y
        if space.order >= 1:
            yvars[:, :, space.partial_slots(1)[0][n:, 0]] = np.eye(n)
        rhs = (_contract(space, self._partial_jets(2)[:, n:, :n], yvars)
               - self._partial_jets(1)[:, :n, :space.size])
        return 0.25 * _contract(space, self._rows("ginv_jets"), rhs)

    def spray_values(self) -> np.ndarray:
        return self.spray_jets()[..., 0]

    @_cached
    def nonlinear_jets(self) -> np.ndarray:
        n = self.n
        return self._space(2).partial_jets(self._rows("spray_jets"), 1)[:, :, n:]

    def nonlinear(self) -> np.ndarray:
        return self.nonlinear_jets()[..., 0]

    @_cached
    def christoffel(self) -> np.ndarray:
        """Gamma^k_ij = (1/2) g^kl (delta_i g_lj + delta_j g_il - delta_l g_ij)
        with delta_k = d/dx^k - N^m_k d/dy^m, at value level."""
        if self.order < 3:
            raise ValueError("Christoffel symbols need a frame of order >= 3")
        n = self.n
        dg = 0.5 * self._partial_jets(3)[:, n:, n:, :, 0]  # [s, i, j, a] = d g_ij / dz^a
        N = self._rows("nonlinear_jets")[..., 0]
        delta = dg[..., :n] - np.einsum("sijm,smk->sijk", dg[..., n:], N)
        ginv = self._rows("ginv_jets")[..., 0]
        return 0.5 * np.einsum("skl,slij->skij", ginv, _lowered_christoffel(delta))

    @_cached
    def christoffel_jets(self) -> np.ndarray:
        n = self.n
        space = self._space(3)
        dg = 0.5 * self._partial_jets(3)[:, n:, n:]   # [s, i, j, a, beta]
        N = self._rows("nonlinear_jets")
        delta = dg[:, :, :, :n] - _contract(space, dg[:, :, :, n:], N)
        ginv = self._rows("ginv_jets")[..., :space.size]
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
        G = self._rows("spray_jets")        # order 2 at a full-order frame
        space = self._space(2)
        dG = space.partial_jets(G, 1)[..., 0]           # [s, i, a]
        d2G = space.partial_jets(G, 2)[..., 0]          # [s, i, a, b]
        R = (2.0 * dG[:, :, :n]
             - np.einsum("sj,sijk->sik", self.y, d2G[:, :, :n, n:])
             + 2.0 * np.einsum("sj,sijk->sik", G[:, :, 0], d2G[:, :, n:, n:])
             - dG[:, :, n:] @ dG[:, :, n:])
        return -R

    @_cached
    def curvature_components(self) -> np.ndarray:
        """R^l_{kij} from horizontal derivatives of the Christoffel symbols."""
        n = self.n
        gamma = self._rows("christoffel")
        dgamma = self._space(3).partial_jets(self._rows("christoffel_jets"), 1)[..., 0]
        # [s, l, j, k, i] = delta_i Gamma^l_{jk}
        dgamma = dgamma[..., :n] - np.einsum("sljkm,smi->sljki", dgamma[..., n:],
                                             self._rows("nonlinear_jets")[..., 0])
        return (np.einsum("sljki->slkij", dgamma) - np.einsum("slikj->slkij", dgamma)
                + np.einsum("slim,smjk->slkij", gamma, gamma)
                - np.einsum("sljm,smik->slkij", gamma, gamma))


def _contract(space, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Jet-valued contraction sum_m a[s, ..., m, :] b[s, m, ..., :] of
    coefficient arrays with a leading sample axis, over the last index of a
    and the first of b after the sample axis."""
    axis = a.ndim - 2
    a = a.reshape(a.shape[:-1] + (1,) * (b.ndim - 3) + a.shape[-1:])
    b = b.reshape(b.shape[:1] + (1,) * (axis - 1) + b.shape[1:])
    return space.mul(a, b).sum(axis=axis)


def _lowered_christoffel(delta: np.ndarray) -> np.ndarray:
    """[s, l, i, j] = delta_i g_lj + delta_j g_il - delta_l g_ij from
    delta[s, i, j, k] = delta_k g_ij (any trailing axes ride along)."""
    return (np.swapaxes(delta, 2, 3) + np.swapaxes(delta, 1, 2)
            - np.moveaxis(delta, 3, 1))


# --------------------------------------------------------------------------
# public operations
# --------------------------------------------------------------------------

def spray(m: MetricDefinition, v: TangentSample) -> SprayValue:
    frame = ConnectionFrame(m, v, order=3)
    return SprayValue(frame.spray_values(), frame.nonlinear(), v)


def spray_coefficients(m: MetricDefinition, v: TangentSample) -> np.ndarray:
    """Spray values only, from one order-2 jet (see `_spray`)."""
    return _spray(m.jet(v, 2).c, v.y)


def _spray(c: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The spray kernel: G = (1/4) z with g z = A y - b, where g_lk =
    (1/2) d2L/dy^l dy^k, A_lk = d2L/dy^l dx^k and b_l = dL/dx^l are read
    from the order-2 jet coefficients c of L at the fiber vector y.

    c and y hold one sample, or S samples along a leading axis; the
    degeneracy test and the solve run once over the stack, and row k equals
    the kernel at sample k alone, to the bit."""
    n = y.shape[-1]
    jet = Jet(jet_space(2 * n, 2), c)
    hess = jet.partials(2)
    g = 0.5 * hess[..., n:, n:]
    _require_nondegenerate(g)
    r = hess[..., n:, :n] @ y[..., None] - jet.partials(1)[..., :n, None]
    return 0.25 * np.linalg.solve(g, r)[..., 0]


def _sprays_along(m: MetricDefinition, times: np.ndarray, positions: np.ndarray,
                  velocities: np.ndarray) -> np.ndarray:
    """Spray values at the samples (x_k, y_k) of a curve, by the kernel over
    near-equal chunks of samples; errors are those of a loop over samples,
    and an inadmissible sample names its curve time (see `_in_order`)."""
    out = np.empty(positions.shape)
    for rows in _chunks(len(positions)):
        out[rows] = _in_order(_batch_spray, m, positions[rows], velocities[rows],
                              times[rows])
    return out


def _batch_spray(m: MetricDefinition, batch: SampleBatch) -> np.ndarray:
    _require_admissible(m, batch)
    return _spray(m.jet(batch, 2).c, batch.y)


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
    """Connection data along a curve at the samples (x_k, U_k): g, g^{-1},
    N, Gamma and the Jacobi operator A as arrays with a leading sample axis.

    The samples are evaluated in near-equal chunks of at most `CHUNK`, one
    order-4 frame per chunk; each frame's values are copied out and the
    frame dropped, so memory holds the tables and one chunk.  Errors are those of a loop over
    samples (see `_in_order`); a sample outside the domain raises
    `InadmissibleSample` naming the curve time."""
    s, n = positions.shape
    g, ginv, N, A = (np.empty((s, n, n)) for _ in range(4))
    gamma = np.empty((s, n, n, n))
    for rows in _chunks(s):
        g[rows], ginv[rows], N[rows], gamma[rows], A[rows] = _in_order(
            _frame_values, m, positions[rows], references[rows], times[rows])
    return g, ginv, N, gamma, A


def _frame_values(m: MetricDefinition, batch: SampleBatch) -> tuple[np.ndarray, ...]:
    fr = ConnectionFrame(m, batch, order=4)
    return fr.g(), fr.ginv(), fr.nonlinear(), fr.christoffel(), fr.jacobi_matrix()


def _chunks(s: int) -> list[slice]:
    """ceil(s / CHUNK) consecutive slices of near-equal size covering s
    samples, so that no curve ends in a chunk much smaller than the rest."""
    count = -(-s // CHUNK)
    return [slice(s * i // count, s * (i + 1) // count) for i in range(count)]


def _in_order(fn, m: MetricDefinition, x: np.ndarray, y: np.ndarray, times=None):
    """fn(m, SampleBatch(x, y)).  If that fails, fn runs again one sample at
    a time, in order, so that the first failing sample raises its own error,
    as it would in a loop over samples; with curve times given, an
    inadmissible sample names its time."""
    try:
        return fn(m, SampleBatch(x, y))
    except Exception:
        for k in range(len(x)):
            try:
                fn(m, SampleBatch(x[k:k + 1], y[k:k + 1]))
            except InadmissibleSample:
                if times is None:
                    raise
                raise _inadmissible(m, None, times[k]) from None
        raise


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
    """(d/dx, d/dy) of a scalar jet over the 2n chart and fiber variables,
    after the leading sample axis of a batched jet."""
    grad = jet.partials(1)
    n = grad.shape[-1] // 2
    return grad[..., :n], grad[..., n:]


def _scalar_partials_along(f: MetricDefinition, positions: np.ndarray,
                           velocities: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(d/dx, d/dy) of the scalar f at the samples (x_k, y_k), as two (S, n)
    arrays, from order-2 jets evaluated chunk by chunk."""
    dx, dy = np.empty(positions.shape), np.empty(positions.shape)
    for rows in _chunks(len(positions)):
        dx[rows], dy[rows] = _in_order(
            lambda f, batch: _scalar_partials(f.jet(batch, 2)),
            f, positions[rows], velocities[rows])
    return dx, dy


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
