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
axis).  It takes the partials of the metric jet with `Jet.partial_jets`, one
gather per degree, and those of the arrays it derives with
`JetSpace.partial_jets`; it multiplies them with `JetSpace.mul`.  It
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
`spray_coefficients`, dG from `ConnectionFrame.spray_gradient` and N = dG/dy;
the Christoffel symbols are referenced at an admissible field U (the fiber
vector of the sample); `ConnectionFrame.jacobi_matrix()` is the matrix A of
the Jacobi equation D^2 J = R_v(v, J)v = A J, normalized so that the flat
case gives zero and a unit round sphere gives -J for unit transverse J.
Along a geodesic, Jacobi fields also solve the linearized spray Jdd = -2 dG
(J, Jd) with DJ = Jd + N J (Shen, *Differential Geometry of Spray and
Finsler Spaces*, Kluwer 2001), which an order-3 frame gives.  Along a curve
the Jacobi integrator and `variational.CurveGeometry` read the arrays of
`_frame_tables`, which evaluates the curve's samples in near-equal chunks,
one frame per chunk: `CHUNK` samples of an order-4 frame, or of an order-3
frame as many as hold the coefficients of `CHUNK` order-4 jets at the same
n (`_per_frame`: 40 at n = 3, 32 at n = 2).  Row k of a chunk equals the
frame of sample k alone, to the bit, and a failing chunk raises the error of
its first failing sample, as a loop over samples would.  Sprays along a
curve need no frame: `dsl._along` reads them as an RK stage does.

All functions here are pure and stateless.
"""

from __future__ import annotations

import functools

import numpy as np

from .dsl import MetricDefinition, SampleBatch, TangentSample, _inadmissible
from .errors import InadmissibleSample
from .jets import Jet, _compiled, jet_space
from .tensors import (_ELIMINATION_NAMES, _elimination, _require_admissible, _source,
                      inverse_metric)

__all__ = ["ConnectionFrame", "spray_coefficients", "chern_curvature"]


# Most samples per order-4 frame along a curve: large enough that the tape
# and the frame arithmetic run over many samples per numpy call, small
# enough that one chunk's temporaries stay within a cache-sized working set
# and peak memory within noise of one frame per sample (see BENCH_8.json).
# A frame of lower order takes as many samples as the jets of CHUNK order-4
# samples hold coefficients (`_per_frame`; BENCH_30.json).  A curve is split
# into chunks of near-equal size (`_chunks`).
CHUNK = 16


# --------------------------------------------------------------------------
# the per-sample evaluation frame
# --------------------------------------------------------------------------

class ConnectionFrame:
    """All connection data derived from one jet of the metric at each of S
    samples.

    `v` is one `TangentSample` (S = 1) or a `SampleBatch`; every array
    carries a leading sample axis, and the arithmetic is the same for any S,
    so row k of a batch equals the frame of sample k alone, to the bit.
    Construction computes what every caller reads: the jets of g, the value
    of g^{-1}, and the jets of G, dG and N = dG/dy.  Gamma, its jets, the
    jets of g^{-1}, the Jacobi operator and curvature are computed from them
    on each call.  Jet-valued quantities
    are coefficient arrays whose last axis runs over one jet space over the
    2n chart and fiber variables: g and g^{-1} of shape (S, n, n, size) and
    G of shape (S, n, size) at order k-2, dG of shape (S, n, 2n, size) and
    Gamma of shape (S, n, n, n, size) at order k-3.  `ginv` is the value of
    g^{-1}; G and the jets of g^{-1} are solves of g in jets (`_solve`), and
    only curvature reads the jets of g^{-1}.  A frame of one `TangentSample`
    hands out every quantity without the sample axis.  Along a curve,
    `_frame_tables` builds one frame per chunk of samples and keeps only the
    values its consumers read.
    """

    def __init__(self, m: MetricDefinition, v: TangentSample | SampleBatch,
                 order: int = 4):
        if order < 3:
            raise ValueError("Christoffel symbols need a frame of order >= 3")
        self.batched = isinstance(v, SampleBatch)
        _require_admissible(m, v)
        self.metric = m
        self.sample = v
        n = self.n = v.dim
        self.order = order
        c = m.jet(v, order).c
        self.c = c if self.batched else c[None]     # (S, size)
        self.y = v.y if self.batched else v.y[None]
        hess = self._partial_jets(2)
        self._g = 0.5 * hess[:, n:, n:]
        self._ginv = inverse_metric(self._g[..., 0])
        # G^i = (1/4) g^il ( d2L/dy^l dx^k y^k - dL/dx^l ), as jets
        space = self._space(2)
        yvars = np.zeros((len(self.c), n, space.size))
        yvars[:, :, 0] = self.y
        yvars[:, :, space.partial_slots(1)[0][n:, 0]] = np.eye(n)
        rhs = (_contract(space, hess[:, n:, :n], yvars)
               - self._partial_jets(1)[:, :n, :space.size])
        del hess    # not held through the solve, whose temporaries set peak memory
        self._G = 0.25 * self._solve(rhs)
        self._dG = space.partial_jets(self._G, 1)
        self._N = self._dG[:, :, n:]

    def _out(self, rows: np.ndarray) -> np.ndarray:
        """A quantity as handed out: without its sample axis at a frame of
        one `TangentSample`."""
        return rows if self.batched else rows[0]

    def _space(self, drop: int):
        return jet_space(2 * self.n, self.order - drop)

    def _partial_jets(self, degree: int) -> np.ndarray:
        return Jet(self._space(0), self.c).partial_jets(degree)

    def g_jets(self) -> np.ndarray:
        return self._out(self._g)

    def g(self) -> np.ndarray:
        return self._out(self._g[..., 0])

    def ginv(self) -> np.ndarray:
        return self._out(self._ginv)

    def ginv_jets(self) -> np.ndarray:
        """g^{-1} as jets, the solve of the identity jets (read by curvature)."""
        return self._out(self._ginv_jets())

    def _ginv_jets(self) -> np.ndarray:
        rhs = np.zeros(self._g.shape)
        rhs[..., 0] = np.eye(self.n)
        return self._solve(rhs)

    def _solve(self, rhs: np.ndarray) -> np.ndarray:
        """g^{-1} rhs as order-(k-2) jets, by Horner on the right-hand side:
        z = w + M(w + M(... w)) with w = g0^{-1} rhs, M = -g0^{-1} gh and k-2
        products by M, which is nilpotent at truncation order."""
        space = self._space(2)
        step = -np.einsum("sil,sljk->sijk", self._ginv, self._g)
        step[..., 0] = 0.0
        w = z = np.einsum("sil,sl...->si...", self._ginv, rhs)
        for _ in range(space.order):
            z = w + _contract(space, step, z)
        return z

    def spray_jets(self) -> np.ndarray:
        return self._out(self._G)

    def spray_gradient(self) -> np.ndarray:
        """dG^i/dz^a, [i, a] over z = (x, y), at value level; N = dG/dy."""
        return self._out(self._dG[..., 0])

    def nonlinear_jets(self) -> np.ndarray:
        return self._out(self._N)

    def nonlinear(self) -> np.ndarray:
        return self._out(self._N[..., 0])

    def christoffel(self) -> np.ndarray:
        """Gamma^k_ij = (1/2) g^kl (delta_i g_lj + delta_j g_il - delta_l g_ij)
        with delta_k = d/dx^k - N^m_k d/dy^m, at value level."""
        return self._out(self._christoffel())

    def _christoffel(self) -> np.ndarray:
        n = self.n
        dg = 0.5 * self._partial_jets(3)[:, n:, n:, :, 0]  # [s, i, j, a] = d g_ij / dz^a
        delta = dg[..., :n] - np.einsum("sijm,smk->sijk", dg[..., n:], self._N[..., 0])
        return 0.5 * np.einsum("skl,slij->skij", self._ginv, _lowered_christoffel(delta))

    def christoffel_jets(self) -> np.ndarray:
        return self._out(self._christoffel_jets())

    def _christoffel_jets(self) -> np.ndarray:
        n = self.n
        space = self._space(3)
        dg = 0.5 * self._partial_jets(3)[:, n:, n:]   # [s, i, j, a, beta]
        delta = dg[:, :, :, :n] - _contract(space, dg[:, :, :, n:], self._N)
        ginv = self._ginv_jets()[..., :space.size]
        return 0.5 * _contract(space, ginv, _lowered_christoffel(delta))

    def jacobi_matrix(self) -> np.ndarray:
        """Matrix A with D^2 J = A J along geodesics through this sample.

        Built from first and second derivatives of the spray; requires an
        order-4 frame.
        """
        if self.order < 4:
            raise ValueError("the Jacobi operator needs a frame of order 4")
        n = self.n
        dG = self._dG[..., 0]                                   # [s, i, a]
        d2G = self._space(3).partial_jets(self._dG, 1)[..., 0]  # [s, i, a, b]
        R = (2.0 * dG[:, :, :n]
             - np.einsum("sj,sijk->sik", self.y, d2G[:, :, :n, n:])
             + 2.0 * np.einsum("sj,sijk->sik", self._G[:, :, 0], d2G[:, :, n:, n:])
             - dG[:, :, n:] @ dG[:, :, n:])
        return self._out(-R)

    def curvature_components(self) -> np.ndarray:
        """R^l_{kij} from horizontal derivatives of the Christoffel symbols."""
        n = self.n
        gamma = self._christoffel()
        dgamma = self._space(3).partial_jets(self._christoffel_jets(), 1)[..., 0]
        # [s, l, j, k, i] = delta_i Gamma^l_{jk}
        dgamma = dgamma[..., :n] - np.einsum("sljkm,smi->sljki", dgamma[..., n:],
                                             self._N[..., 0])
        return self._out(
            np.einsum("sljki->slkij", dgamma) - np.einsum("slikj->slkij", dgamma)
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


def chern_curvature(m: MetricDefinition, v: TangentSample, X, Y, Z) -> np.ndarray:
    """Full curvature R_v(X, Y)Z assembled from Christoffel derivatives."""
    R = ConnectionFrame(m, v, order=4).curvature_components()
    return np.einsum("lkij,i,j,k->l", R,
                     np.asarray(X, float), np.asarray(Y, float), np.asarray(Z, float))


def _frame_values(fr: ConnectionFrame) -> tuple[np.ndarray, ...]:
    return fr.g(), fr.ginv(), fr.nonlinear(), fr.christoffel(), fr.jacobi_matrix()


def _frame_tables(m: MetricDefinition, times: np.ndarray, positions: np.ndarray,
                  references: np.ndarray, read=_frame_values,
                  order: int = 4) -> list[np.ndarray]:
    """Connection data along a curve at the samples (x_k, U_k), as arrays
    with a leading sample axis: the arrays that `read(frame)` takes from
    frames of the given order, by default g, g^{-1}, N, Gamma and the
    Jacobi operator A of order-4 frames.

    The samples are evaluated in near-equal chunks of at most
    `_per_frame(n, order)` samples (`_chunks`), one frame per chunk; each
    frame's values are copied out and the frame dropped, so memory holds the
    tables and one chunk.  Errors are those of a loop over samples (see
    `_in_order`); a sample outside the domain raises `InadmissibleSample`
    naming the curve time."""
    def values(m, batch):
        return read(ConnectionFrame(m, batch, order))

    tables = None
    for rows in _chunks(len(positions), _per_frame(m.dim, order)):
        chunk = _in_order(values, m, positions[rows], references[rows], times[rows])
        tables = tables or [np.empty((len(positions),) + a.shape[1:]) for a in chunk]
        for table, a in zip(tables, chunk):
            table[rows] = a
    return tables


def _per_frame(n: int, order: int) -> int:
    """Most samples per frame of this order over n coordinates: `CHUNK` at
    order 4, else as many as the jets of `CHUNK` order-4 samples hold
    coefficients, so no chunk's jet is larger than an order-4 chunk's."""
    return CHUNK * jet_space(2 * n, 4).size // jet_space(2 * n, order).size


def _chunks(s: int, per_frame: int) -> list[slice]:
    """ceil(s / per_frame) consecutive slices of near-equal size covering s
    samples, so that no curve ends in a chunk much smaller than the rest."""
    count = -(-s // per_frame)
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
