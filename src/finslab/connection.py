"""Connection machinery: geodesic spray, nonlinear connection, Christoffel
symbols, the Jacobi operator and curvature.

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
with `JetSpace.partial_jets`; it multiplies them with `JetSpace.mul`.  It
inverts g only at value level, g0^{-1} = `tensors.inverse_metric` of the
value of g, and solves g z = r in jets on the right-hand side r by the
series z = sum_j (-g0^{-1} gh)^j g0^{-1} r, where gh is the rest of g: n^2
jet products per term.  gh is nilpotent at truncation order, so the finite
series is exact, by the argument behind `Jet._compose` (Griewank & Walther,
*Evaluating Derivatives*, 2nd ed., SIAM 2008, ch. 13).
Evaluating many samples in one pass is the vector mode of forward
differentiation (ibid.): the tape and the frame arithmetic run once per
chunk of samples instead of once per sample.

Conventions: the geodesic equation is xdd^i = -2 G^i(x, xd), with G from
`spray_coefficients` and N = dG/dy from `ConnectionFrame.nonlinear`; the
Christoffel symbols are referenced at an admissible field U (the fiber
vector of the sample); `ConnectionFrame.jacobi_matrix()` is the matrix A of
the Jacobi equation D^2 J = R_v(v, J)v = A J, normalized so that the flat
case gives zero and a unit round sphere gives -J for unit transverse J.
Along a curve every consumer (`variational.CurveGeometry` and the Jacobi
integrator) reads connection data from the arrays of `_frame_tables`, which
evaluates the curve's samples in near-equal chunks of at most `CHUNK`, one
frame per chunk.  Row k of a chunk equals the frame of sample k alone, to
the bit, and a failing chunk raises the error of its first failing sample,
as a loop over samples would.  Sprays and the factor's partials along a
curve need no frame: they run node by node on the one-point jet and the
spray kernel that an RK stage runs (`_sprays_along`,
`_scalar_partials_along`).

All functions here are pure and stateless.
"""

from __future__ import annotations

import functools

import numpy as np

from .dsl import MetricDefinition, SampleBatch, TangentSample
from .errors import InadmissibleSample
from .jets import Jet, _compiled, jet_space
from .tensors import (_ELIMINATION_NAMES, _elimination, _inadmissible, _require_admissible,
                      _source, inverse_metric)

__all__ = ["ConnectionFrame", "spray_coefficients", "chern_curvature"]


# Most samples per frame along a curve: large enough that the tape and the
# frame arithmetic run over many samples per numpy call, small enough that
# one chunk's temporaries stay within a cache-sized working set and peak
# memory within noise of one frame per sample (see BENCH_8.json).  A curve
# is split into chunks of near-equal size (`_chunks`).
CHUNK = 16


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
    (S, n, n, n, size) at order k-3.  `ginv` is the value of g^{-1}; G and
    the jets of g^{-1} are solves of g in jets (`_solve`), and only
    curvature reads the jets of g^{-1}.  A frame of one `TangentSample` hands
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
    def ginv(self) -> np.ndarray:
        return inverse_metric(self._rows("g_jets")[..., 0])

    @_cached
    def ginv_jets(self) -> np.ndarray:
        """g^{-1} as jets, the solve of the identity jets (read by curvature)."""
        rhs = np.zeros(self._rows("g_jets").shape)
        rhs[..., 0] = np.eye(self.n)
        return self._solve(self._space(2), rhs)

    def _solve(self, space, rhs: np.ndarray) -> np.ndarray:
        """g^{-1} rhs as jets, by Horner on the right-hand side: z = w + M(w
        + M(... w)) with w = g0^{-1} rhs, M = -g0^{-1} gh and `space.order`
        products by M, which is nilpotent at truncation order."""
        g0inv = self._rows("ginv")
        step = -np.einsum("sil,sljk->sijk", g0inv, self._rows("g_jets"))
        step[..., 0] = 0.0
        w = z = np.einsum("sil,sl...->si...", g0inv, rhs)
        for _ in range(space.order):
            z = w + _contract(space, step, z)
        return z

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
        return 0.25 * self._solve(space, rhs)

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
        return 0.5 * np.einsum("skl,slij->skij", self._rows("ginv"),
                               _lowered_christoffel(delta))

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

def spray_coefficients(m: MetricDefinition, v: TangentSample) -> np.ndarray:
    """Spray values at one sample, after the one domain check, from its
    one-point order-2 jet (see `_spray`)."""
    _require_admissible(m, v)
    return np.array(_spray(m._point_jet(v.x.tolist() + v.y.tolist(), 2), v.y.tolist()))


def _spray(c: list, y: list) -> list:
    """The spray kernel: G = (1/4) z with g z = A y - b, where g_lk =
    (1/2) d2L/dy^l dy^k, A_lk = d2L/dy^l dx^k and b_l = dL/dx^l are read
    from the order-2 jet coefficients c of L at the fiber vector y, both
    lists of Python floats, by the straight-line function of
    `_spray_kernel`."""
    return _spray_kernel(len(y))(c, y)


@functools.lru_cache(maxsize=None)
def _spray_kernel(n: int):
    """`spray(c, y)`: `_spray` at one sample over 2n variables, compiled
    from `_spray_source`."""
    return _compiled(_spray_source(n), _ELIMINATION_NAMES)


def _spray_source(n: int) -> str:
    """The source of `spray(c, y)`, written once per n.  It reads b, A and g
    from c by literal index (`_spray_slots`), builds r_l = ((0.0 + A_l0 y0)
    + ...) - b_l and g_lk = 0.5 * (c_i * factor), and solves g z = r by the
    lines of `tensors._elimination`, which are also the degeneracy test;
    it returns (1/4) z."""
    first, mixed, fiber = _spray_slots(n)
    reads = [f"{', '.join(f'y{k}' for k in range(n))}, = y"]
    for i, (b, row) in enumerate(zip(first, mixed)):
        terms = "".join(f" + c[{s}] * y{k}" for k, s in enumerate(row))
        reads.append(f"r{i} = 0.0{terms} - c[{b}]")
    reads += [f"g{k // n}_{k % n} = 0.5 * (c[{s}] * {f!r})" for k, (s, f) in enumerate(fiber)]
    result = ", ".join(f"0.25 * z{i}" for i in range(n))
    return _source("spray(c, y)", [*reads, *_elimination(n), f"return [{result}]"])


@functools.lru_cache(maxsize=None)
def _spray_slots(n: int) -> tuple[list, list, list]:
    """Where `_spray` reads its data among the order-2 coefficients over 2n
    variables: the index of b_l, the indices of row l of A, and the entries
    of g row by row as pairs (index, factor), with the factor that turns a
    coefficient into the partial (`JetSpace.partial_slots`)."""
    space = jet_space(2 * n, 2)
    first = space.partial_slots(1)[0][:n, 0].tolist()
    index, factor = (a[..., 0] for a in space.partial_slots(2))
    mixed = index[n:, :n].tolist()
    fiber = list(zip(index[n:, n:].ravel().tolist(), factor[n:, n:].ravel().tolist()))
    return first, mixed, fiber


def _sprays_along(m: MetricDefinition, times: np.ndarray, positions: np.ndarray,
                  velocities: np.ndarray) -> np.ndarray:
    """Spray values at the nodes (x_k, y_k) of a curve, each as an RK stage
    takes it: the one-point domain check, one one-point order-2 jet and the
    spray kernel, node by node in curve order (see `_curve_points`)."""
    n = positions.shape[1]
    spray = _spray_kernel(n)
    out = [spray(m._point_jet(point, 2), point[n:])
           for point in _curve_points(m, positions, velocities, times)]
    return np.array(out).reshape(positions.shape)


def _curve_points(m: MetricDefinition, positions: np.ndarray, velocities: np.ndarray,
                  times=None):
    """The nodes (x_k, y_k) of a curve as points x_k + y_k, lists of 2n
    floats, one at a time in curve order, each checked as a sample alone
    is: a zero fiber vector is a ValueError.  With curve times given, each
    node then passes the one-point domain check, and a node outside the
    domain, or of another dimension than m, raises `_inadmissible` naming
    its time, an element of `times`."""
    n = positions.shape[1]
    for k, point in enumerate(np.hstack((positions, velocities)).tolist()):
        if not any(point[n:]):
            raise ValueError("fiber vector must be nonzero")
        if times is not None and not (n == m.dim and m._point_admissible(point)):
            raise _inadmissible(m, None, times[k])
        yield point


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


def _scalar_partials_along(f: MetricDefinition, positions: np.ndarray,
                           velocities: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(d/dx, d/dy) of the scalar f at the nodes (x_k, y_k) of a curve, as
    two (S, n) arrays, read from one one-point order-2 jet per node at the
    first-partial slots (`JetSpace.partial_slots`)."""
    n = f.dim
    if len(positions):
        f._point(positions[0], velocities[0])           # the shape check
    slots = jet_space(2 * n, 2).partial_slots(1)[0][:, 0].tolist()
    grads = [[c[i] for i in slots] for c in (
        f._point_jet(point, 2) for point in _curve_points(f, positions, velocities))]
    grad = np.array(grads).reshape(len(positions), 2 * n)
    return grad[:, :n].copy(), grad[:, n:].copy()
