"""Pointwise tensor quantities of a metric at a tangent sample.

The fundamental tensor is half the fiber Hessian of the metric scalar, the
Cartan tensor a quarter of its third fiber derivative; both come out of one
jet evaluation, so their index symmetries hold exactly (each unordered index
set maps to a single stored coefficient).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dsl import MetricDefinition, TangentSample
from .errors import EvaluationDomainError, InadmissibleSample, SingularMetric

DEGENERACY_TOL = 1e-12


def _require_admissible(m: MetricDefinition, v: TangentSample, t=None) -> None:
    """The one domain check: InadmissibleSample naming the sample, or the
    curve time t when the sample lies on a curve."""
    if m.admissible(v):
        return
    if t is None:
        raise InadmissibleSample(f"sample {v!r} is outside the domain of {m.name!r}")
    raise InadmissibleSample(f"curve leaves the domain of {m.name!r} at t={t!r}")


@dataclass(frozen=True)
class FundamentalTensor:
    matrix: np.ndarray      # (n, n), symmetric
    basepoint: TangentSample

    def pair(self, u, w) -> float:
        return float(np.asarray(u) @ self.matrix @ np.asarray(w))

    @property
    def det(self) -> float:
        return float(np.linalg.det(self.matrix))


@dataclass(frozen=True)
class CartanTensor:
    array: np.ndarray       # (n, n, n), totally symmetric
    basepoint: TangentSample

    def contract(self, u, w, z) -> float:
        return float(np.einsum("ijk,i,j,k", self.array, u, w, z))


def fundamental_tensor(m: MetricDefinition, v: TangentSample) -> FundamentalTensor:
    """g_ij = (1/2) d^2 L / dy^i dy^j at the sample."""
    _require_admissible(m, v)
    n = v.dim
    return FundamentalTensor(0.5 * m.jet(v, 2).partials(2)[n:, n:], v)


def cartan_tensor(m: MetricDefinition, v: TangentSample) -> CartanTensor:
    """C_ijk = (1/4) d^3 L / dy^i dy^j dy^k at the sample."""
    _require_admissible(m, v)
    n = v.dim
    return CartanTensor(0.25 * m.jet(v, 3).partials(3)[n:, n:, n:], v)


def legendre(m: MetricDefinition, v: TangentSample) -> np.ndarray:
    """The covector g_v(v, .), computed as half the fiber gradient."""
    _require_admissible(m, v)
    n = v.dim
    return 0.5 * m.jet(v, 2).partials(1)[n:]


def inverse_metric(g: FundamentalTensor | np.ndarray) -> np.ndarray:
    """Inverse of the fundamental tensor, or SingularMetric if degenerate.

    Degeneracy threshold: |det(g / max|g_ij|)| <= DEGENERACY_TOL, which
    cannot overflow; a non-finite entry is an EvaluationDomainError.  A
    stack of matrices (leading sample axes) is inverted matrix by matrix
    with the same arithmetic; the first failing matrix names the error.
    """
    mat = g.matrix if isinstance(g, FundamentalTensor) else np.asarray(g, dtype=float)
    if mat.ndim > 2:
        return _inverse_metrics(mat)
    n = mat.shape[0]
    scale = float(np.max(np.abs(mat)))
    if not math.isfinite(scale):
        raise EvaluationDomainError("fundamental tensor has a non-finite entry")
    det = float(np.linalg.det(mat / scale)) if scale > 0.0 else 0.0
    if abs(det) <= DEGENERACY_TOL:
        raise _degenerate(det, scale)
    return np.linalg.solve(mat, np.eye(n))


def _inverse_metrics(mats: np.ndarray) -> np.ndarray:
    scales = np.max(np.abs(mats), axis=(-2, -1))
    if not np.isfinite(scales).all():
        raise EvaluationDomainError("fundamental tensor has a non-finite entry")
    dets = np.linalg.det(mats / np.where(scales > 0.0, scales, 1.0)[..., None, None])
    for det, scale in zip(dets.ravel().tolist(), scales.ravel().tolist()):
        if abs(det) <= DEGENERACY_TOL:
            raise _degenerate(det, scale)
    return np.linalg.solve(mats, np.eye(mats.shape[-1]))


def _degenerate(det: float, scale: float) -> SingularMetric:
    return SingularMetric(
        f"fundamental tensor is degenerate: |det g/scale|={abs(det):.3e} "
        f"at scale {scale:.3e}")
