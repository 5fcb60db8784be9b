"""Pointwise tensor quantities of a metric at a tangent sample.

The fundamental tensor is half the fiber Hessian of the metric scalar, the
Cartan tensor a quarter of its third fiber derivative; both come out of one
jet evaluation, so their index symmetries hold exactly (each unordered index
set maps to a single stored coefficient).  At a `SampleBatch` every quantity
carries a leading sample axis, from one jet of the batch.
"""

from __future__ import annotations

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
    axes): a non-finite entry is an EvaluationDomainError, and
    |det(g / max|g_ij|)| <= DEGENERACY_TOL, which cannot overflow, is
    SingularMetric.  The first failing matrix of a stack names the error."""
    scales = np.abs(mat).max(axis=(-2, -1))
    if not np.isfinite(scales).all():
        raise EvaluationDomainError("fundamental tensor has a non-finite entry")
    dets = np.linalg.det(mat / np.where(scales > 0.0, scales, 1.0)[..., None, None])
    bad = np.abs(dets) <= DEGENERACY_TOL
    if bad.any():
        k = int(np.argmax(bad))
        raise SingularMetric(
            f"fundamental tensor is degenerate: |det g/scale|={abs(dets.flat[k]):.3e} "
            f"at scale {scales.flat[k]:.3e}")
