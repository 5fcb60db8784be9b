"""Pointwise tensor quantities of a metric at a tangent sample.

The fundamental tensor is half the fiber Hessian of the metric scalar, the
Cartan tensor a quarter of its third fiber derivative; both come out of one
jet evaluation, so their index symmetries hold exactly (each unordered index
set maps to a single stored coefficient).  At a `SampleBatch` every quantity
carries a leading sample axis, from one jet of the batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dsl import MetricDefinition, SampleBatch, TangentSample
from .errors import EvaluationDomainError, InadmissibleSample, SingularMetric

DEGENERACY_TOL = 1e-12


def _require_admissible(m: MetricDefinition, v: TangentSample | SampleBatch,
                        t=None) -> None:
    """The one domain check: InadmissibleSample naming the sample, or the
    curve time t when the sample lies on a curve.  A `SampleBatch` is
    checked in one row-wise run, and its first inadmissible sample raises."""
    if isinstance(v, SampleBatch):
        ok = m.admissible(v)
        if ok.all():
            return
        v = v[int(np.argmin(ok))]
    elif m.admissible(v):
        return
    raise _inadmissible(m, v, t)


def _inadmissible(m: MetricDefinition, v: TangentSample | None, t=None
                  ) -> InadmissibleSample:
    """The error of `_require_admissible`: it names the sample v, or the
    curve time t when one is given."""
    if t is None:
        return InadmissibleSample(f"sample {v!r} is outside the domain of {m.name!r}")
    return InadmissibleSample(f"curve leaves the domain of {m.name!r} at t={t!r}")


@dataclass(frozen=True)
class FundamentalTensor:
    matrix: np.ndarray      # (n, n), symmetric; (S, n, n) at a SampleBatch
    basepoint: TangentSample | SampleBatch

    def pair(self, u, w) -> float:
        return float(np.asarray(u) @ self.matrix @ np.asarray(w))

    @property
    def det(self) -> float:
        return float(np.linalg.det(self.matrix))


@dataclass(frozen=True)
class CartanTensor:
    array: np.ndarray       # (n, n, n), totally symmetric; (S, n, n, n) at a batch
    basepoint: TangentSample | SampleBatch


def _fiber_partials(m: MetricDefinition, v: TangentSample | SampleBatch,
                    degree: int) -> np.ndarray:
    """The degree-d fiber partials of L at the sample, from one jet of
    order max(d, 2), with a leading sample axis at a `SampleBatch`."""
    _require_admissible(m, v)
    fiber = slice(v.dim, None)
    return m.jet(v, max(degree, 2)).partials(degree)[(..., *(fiber,) * degree)]


def fundamental_tensor(m: MetricDefinition, v: TangentSample | SampleBatch
                       ) -> FundamentalTensor:
    """g_ij = (1/2) d^2 L / dy^i dy^j at the sample."""
    return FundamentalTensor(0.5 * _fiber_partials(m, v, 2), v)


def cartan_tensor(m: MetricDefinition, v: TangentSample | SampleBatch) -> CartanTensor:
    """C_ijk = (1/4) d^3 L / dy^i dy^j dy^k at the sample."""
    return CartanTensor(0.25 * _fiber_partials(m, v, 3), v)


def legendre(m: MetricDefinition, v: TangentSample | SampleBatch) -> np.ndarray:
    """The covector g_v(v, .), computed as half the fiber gradient."""
    return 0.5 * _fiber_partials(m, v, 1)


def inverse_metric(g: FundamentalTensor | np.ndarray) -> np.ndarray:
    """Inverse of the fundamental tensor, or a stack of them (leading sample
    axes), after the degeneracy test of `_require_nondegenerate`."""
    mat = g.matrix if isinstance(g, FundamentalTensor) else np.asarray(g, dtype=float)
    _require_nondegenerate(mat)
    return np.linalg.solve(mat, np.eye(mat.shape[-1]))


def _require_nondegenerate(mat: np.ndarray) -> None:
    """The one degeneracy test, of one matrix or a stack (leading sample
    axes), through `_nondegenerate_solve` of each matrix in turn, so the
    first failing matrix of a stack names the error."""
    n = mat.shape[-1]
    for entries in mat.reshape(-1, n * n).tolist():
        _nondegenerate_solve(entries, n)


def _nondegenerate_solve(g: list[float], n: int, r: list[float] | None = None):
    """The degeneracy test of one n x n matrix g, given as its n*n entries
    row by row in a list of Python floats, and with a right-hand side r the
    solution z of g z = r, from one Gaussian elimination with partial
    pivoting of g / scale, where scale = max|g_ij| (Golub & Van Loan,
    *Matrix Computations*, 4th ed., 2013, sec. 3.4).

    A non-finite entry is an EvaluationDomainError.  Each step swaps in the
    row of the first largest |entry| of its column, and a zero multiplier
    leaves its row as it is.  det(g / scale) is the signed product of the
    pivots; it cannot overflow, and |det| <= DEGENERACY_TOL is
    SingularMetric.  r is scaled with g, so z solves (g / scale) z =
    r / scale by back substitution."""
    if not all(map(math.isfinite, g)):
        raise EvaluationDomainError(_NON_FINITE)
    scale = max(map(abs, g))
    s = scale if scale > 0.0 else 1.0
    # the rows of [g | r] / scale
    a = [[v / s for v in g[i:i + n]] + [rk / s]
         for i, rk in zip(range(0, n * n, n), r or [0.0] * n)]
    det = 1.0
    for k in range(n):
        p, big = k, abs(a[k][k])
        for i in range(k + 1, n):
            if abs(a[i][k]) > big:
                p, big = i, abs(a[i][k])
        if p != k:
            a[k], a[p] = a[p], a[k]
            det = -det
        top = a[k]
        pivot = top[k]
        det *= pivot
        if pivot == 0.0:
            break
        for row in a[k + 1:]:
            f = row[k] / pivot
            if f:
                for j in range(k + 1, n + 1):
                    row[j] -= f * top[j]
    if abs(det) <= DEGENERACY_TOL:
        raise _degenerate(det, scale)
    if r is None:
        return None
    z = [0.0] * n
    for i in range(n - 1, -1, -1):
        row = a[i]
        acc = row[n]
        for j in range(i + 1, n):
            acc -= row[j] * z[j]
        z[i] = acc / row[i]
    return z


_NON_FINITE = "fundamental tensor has a non-finite entry"


def _degenerate(det: float, scale: float) -> SingularMetric:
    return SingularMetric(f"fundamental tensor is degenerate: |det g/scale|={abs(det):.3e} "
                          f"at scale {scale:.3e}")
