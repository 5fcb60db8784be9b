"""Connection machinery: geodesic spray, Christoffel symbols, curvature, and
horizontal/vertical derivatives of anisotropic scalars.

Everything is computed from one jet of the metric scalar per sample.  With a
jet of order k, the fundamental tensor survives as an order-(k-2) jet, the
spray as order-(k-2), the nonlinear connection as order-(k-3), and the
Christoffel symbols as order-(k-3); curvature consumes the full order 4.
Derivatives of intermediate quantities are therefore exact (no finite
differences anywhere on this path).

Conventions: the geodesic equation is xdd^i = -2 G^i(x, xd); the covariant
derivative along a curve uses Christoffel symbols referenced at an admissible
field U; `jacobi_operator(m, v, w)` returns the right-hand side of the Jacobi
equation D^2 J = R_v(v, J)v, normalized so that the flat case gives zero and
a unit round sphere gives -J for unit transverse J.

All functions here are pure and stateless; batch evaluation over sample
arrays is an ordinary map, safe to parallelize from the caller.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import DiscreteCurve, spline_derivative
from .dsl import MetricDefinition, TangentSample
from .errors import GridMismatch, InadmissibleSample, SingularMetric
from .jets import Jet, jet_space
from .tensors import DEGENERACY_TOL, fundamental_tensor, inverse_metric

__all__ = [
    "SprayValue", "ChristoffelField", "ConnectionFrame",
    "spray", "spray_coefficients", "christoffel",
    "jacobi_operator", "jacobi_matrix", "chern_curvature",
    "covariant_derivative_along", "horizontal_derivative",
    "vertical_gradient", "horizontal_gradient",
]


# --------------------------------------------------------------------------
# jet linear algebra (tiny matrices over the truncated-Taylor ring)
# --------------------------------------------------------------------------

def _jet_matrix_inverse(A: list[list[Jet]]) -> list[list[Jet]]:
    """Gauss-Jordan inverse with partial pivoting on the value parts."""
    n = len(A)
    space = A[0][0].space
    work = [row[:] for row in A]
    inv = [[Jet.constant(space, 1.0 if i == j else 0.0) for j in range(n)]
           for i in range(n)]
    scale = max(abs(work[i][j].value) for i in range(n) for j in range(n))
    for col in range(n):
        pivot_row = max(range(col, n), key=lambda r: abs(work[r][col].value))
        if abs(work[pivot_row][col].value) <= DEGENERACY_TOL * max(scale, 1e-300):
            raise SingularMetric("fundamental tensor is degenerate at this sample")
        work[col], work[pivot_row] = work[pivot_row], work[col]
        inv[col], inv[pivot_row] = inv[pivot_row], inv[col]
        piv = work[col][col].reciprocal()
        work[col] = [piv * e for e in work[col]]
        inv[col] = [piv * e for e in inv[col]]
        for row in range(n):
            if row == col:
                continue
            factor = work[row][col]
            if not np.any(factor.c):
                continue
            work[row] = [a - factor * b for a, b in zip(work[row], work[col])]
            inv[row] = [a - factor * b for a, b in zip(inv[row], inv[col])]
    return inv


def _values(jet_table) -> np.ndarray:
    return np.array([[e.value for e in row] for row in jet_table])


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

class ConnectionFrame:
    """All connection data derived from one jet of the metric at one sample.

    Lazy: each derived quantity is computed on first access and cached for
    the lifetime of the frame.  Along a curve, `variational.CurveGeometry`
    owns the frames and builds one per distinct sample.
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
        self._cache: dict[str, object] = {}

    # -- building blocks -----------------------------------------------------

    def _dy(self, jet: Jet, i: int) -> Jet:
        return jet.diff(self.n + i)

    def _dx(self, jet: Jet, i: int) -> Jet:
        return jet.diff(i)

    def g_jets(self) -> list[list[Jet]]:
        tab = self._cache.get("g_jets")
        if tab is None:
            n = self.n
            tab = [[None] * n for _ in range(n)]
            for i in range(n):
                di = self._dy(self.L, i)
                for j in range(i, n):
                    tab[i][j] = tab[j][i] = 0.5 * self._dy(di, j)
            self._cache["g_jets"] = tab
        return tab

    def g(self) -> np.ndarray:
        val = self._cache.get("g")
        if val is None:
            val = _values(self.g_jets())
            self._cache["g"] = val
        return val

    def ginv_jets(self) -> list[list[Jet]]:
        tab = self._cache.get("ginv_jets")
        if tab is None:
            tab = _jet_matrix_inverse(self.g_jets())
            self._cache["ginv_jets"] = tab
        return tab

    def ginv(self) -> np.ndarray:
        val = self._cache.get("ginv")
        if val is None:
            val = _values(self.ginv_jets())
            self._cache["ginv"] = val
        return val

    def spray_jets(self) -> list[Jet]:
        """G^i = (1/4) g^il ( d2L/dy^l dx^k y^k - dL/dx^l ), as jets."""
        out = self._cache.get("spray_jets")
        if out is None:
            n = self.n
            space = jet_space(2 * n, self.order - 2)
            yvars = [Jet.variable(space, n + k, float(self.sample.y[k]))
                     for k in range(n)]
            ginv = self.ginv_jets()
            rhs = []
            for l in range(n):
                dl = self._dy(self.L, l)
                acc = -self._dx(self.L, l).truncated(self.order - 2)
                for k in range(n):
                    acc = acc + self._dx(dl, k) * yvars[k]
                rhs.append(acc)
            out = []
            for i in range(n):
                acc = Jet.constant(space, 0.0)
                for l in range(n):
                    acc = acc + ginv[i][l] * rhs[l]
                out.append(0.25 * acc)
            self._cache["spray_jets"] = out
        return out

    def spray_values(self) -> np.ndarray:
        return np.array([gj.value for gj in self.spray_jets()])

    def nonlinear_jets(self) -> list[list[Jet]]:
        tab = self._cache.get("nonlinear_jets")
        if tab is None:
            G = self.spray_jets()
            tab = [[self._dy(G[i], j) for j in range(self.n)] for i in range(self.n)]
            self._cache["nonlinear_jets"] = tab
        return tab

    def nonlinear(self) -> np.ndarray:
        val = self._cache.get("nonlinear")
        if val is None:
            val = _values(self.nonlinear_jets())
            self._cache["nonlinear"] = val
        return val

    def _delta_x(self, jet: Jet, i: int, N_jets) -> Jet:
        """Horizontal derivative d/dx^i - N^m_i d/dy^m of a jet field."""
        out = self._dx(jet, i)
        for m_ in range(self.n):
            out = out - N_jets[m_][i] * self._dy(jet, m_)
        return out

    def christoffel(self) -> np.ndarray:
        """Christoffel values via the horizontal derivative of g, assembled
        at value level (cheaper than the jet-ring product path)."""
        val = self._cache.get("christoffel")
        if val is None:
            if self.order < 3:
                raise ValueError("Christoffel symbols need a frame of order >= 3")
            n = self.n
            g = self.g_jets()
            Nv = self.nonlinear()
            dgx = np.empty((n, n, n))   # [i, j, k] = d g_ij / dx^k
            dgy = np.empty((n, n, n))   # [i, j, m] = d g_ij / dy^m
            for i in range(n):
                for j in range(i, n):
                    for k in range(n):
                        dgx[i, j, k] = dgx[j, i, k] = g[i][j].diff(k).value
                        dgy[i, j, k] = dgy[j, i, k] = g[i][j].diff(n + k).value
            # delta[i, j, k] = delta_k g_ij = (d/dx^k - N^m_k d/dy^m) g_ij
            delta = dgx - np.einsum("ijm,mk->ijk", dgy, Nv)
            ginv = self.ginv()
            val = np.empty((n, n, n))
            for k in range(n):
                for i in range(n):
                    for j in range(i, n):
                        acc = 0.0
                        for l in range(n):
                            acc += ginv[k, l] * (delta[l, j, i] + delta[i, l, j]
                                                 - delta[i, j, l])
                        val[k, i, j] = val[k, j, i] = 0.5 * acc
            self._cache["christoffel"] = val
        return val

    def christoffel_jets(self) -> list[list[list[Jet]]]:
        tab = self._cache.get("christoffel_jets")
        if tab is None:
            n = self.n
            g = self.g_jets()
            ginv = self.ginv_jets()
            N = self.nonlinear_jets()
            dg = [[[self._delta_x(g[i][j], k, N) for k in range(n)]
                   for j in range(n)] for i in range(n)]
            tab = [[[None] * n for _ in range(n)] for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    for k in range(n):
                        acc = None
                        for l in range(n):
                            term = ginv[k][l] * (dg[l][j][i] + dg[i][l][j] - dg[i][j][l])
                            acc = term if acc is None else acc + term
                        val = 0.5 * acc
                        tab[k][i][j] = tab[k][j][i] = val
            self._cache["christoffel_jets"] = tab
        return tab

    def jacobi_matrix(self) -> np.ndarray:
        """Matrix A with D^2 J = A J along geodesics through this sample.

        Built from first and second derivatives of the spray; requires an
        order-4 frame.
        """
        A = self._cache.get("jacobi_matrix")
        if A is None:
            if self.order < 4:
                raise ValueError("the Jacobi operator needs a frame of order 4")
            n = self.n
            G = self.spray_jets()           # order 2 at a full-order frame
            y = self.sample.y
            Gv = np.array([gj.value for gj in G])
            dGdx = np.array([[self._dx(G[i], k).value for k in range(n)]
                             for i in range(n)])
            dGdy = np.array([[self._dy(G[i], j).value for j in range(n)]
                             for i in range(n)])
            d2G_xy = np.empty((n, n, n))    # [i, j, k] = d2 G^i / dx^j dy^k
            d2G_yy = np.empty((n, n, n))    # [i, j, k] = d2 G^i / dy^j dy^k
            for i in range(n):
                for j in range(n):
                    dxj = self._dx(G[i], j)
                    dyj = self._dy(G[i], j)
                    for k in range(n):
                        d2G_xy[i, j, k] = self._dy(dxj, k).value
                        d2G_yy[i, j, k] = self._dy(dyj, k).value
            R = (2.0 * dGdx
                 - np.einsum("j,ijk->ik", y, d2G_xy)
                 + 2.0 * np.einsum("j,ijk->ik", Gv, d2G_yy)
                 - dGdy @ dGdy)
            A = -R
            self._cache["jacobi_matrix"] = A
        return A

    def curvature_components(self) -> np.ndarray:
        """R^l_{kij} from horizontal derivatives of the Christoffel symbols."""
        R = self._cache.get("curvature_components")
        if R is None:
            n = self.n
            gamma_jets = self.christoffel_jets()
            gamma = self.christoffel()
            Nv = self.nonlinear()
            # dgamma[l, k, i] = horizontal derivative along x^i of Gamma^l_{.k},
            # assembled below with the middle slot looping over the pair (j,k).
            dgamma = np.empty((n, n, n, n))   # [l, j, k, i] = delta_i Gamma^l_{jk}
            for l in range(n):
                for j in range(n):
                    for k in range(j, n):
                        jet = gamma_jets[l][j][k]
                        dx = [self._dx(jet, i).value for i in range(n)]
                        dy = [self._dy(jet, m_).value for m_ in range(n)]
                        for i in range(n):
                            val = dx[i] - sum(Nv[m_][i] * dy[m_] for m_ in range(n))
                            dgamma[l, j, k, i] = dgamma[l, k, j, i] = val
            R = np.empty((n, n, n, n))        # [l, k, i, j]
            for l in range(n):
                for k in range(n):
                    for i in range(n):
                        for j in range(n):
                            val = dgamma[l, j, k, i] - dgamma[l, i, k, j]
                            for m_ in range(n):
                                val += (gamma[l][i][m_] * gamma[m_][j][k]
                                        - gamma[l][j][m_] * gamma[m_][i][k])
                            R[l, k, i, j] = val
            self._cache["curvature_components"] = R
        return R


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


def covariant_derivative_along(curve: DiscreteCurve, U, X, m: MetricDefinition,
                               X_dot=None) -> np.ndarray:
    """Covariant derivative of the field X along the curve with reference U.

    (D X)^k = Xdot^k + X^i vel^j Gamma^k_ij(U); Xdot comes from dense-output
    differentiation of the samples unless supplied explicitly.
    """
    X = np.asarray(X, dtype=float)
    if U is None:
        U = curve.velocities
    U = np.asarray(U, dtype=float)
    if X.shape != curve.positions.shape or U.shape != curve.positions.shape:
        raise GridMismatch("field samples must match the curve grid")
    if X_dot is None:
        X_dot = spline_derivative(curve.grid, X)
    out = np.empty_like(X)
    for k in range(curve.grid.size):
        sample = TangentSample(curve.positions[k], U[k])
        if not m.admissible(sample):
            raise InadmissibleSample(
                f"reference field leaves the domain of {m.name!r} at t={curve.grid[k]!r}")
        gamma = ConnectionFrame(m, sample, order=3).christoffel()
        out[k] = X_dot[k] + np.einsum("kij,i,j->k", gamma, X[k], curve.velocities[k])
    return out


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
    return inverse_metric(frame.g()) @ delta
