"""Pointwise tensor quantities of a metric at a tangent sample.

The fundamental tensor is half the fiber Hessian of the metric scalar, the
Cartan tensor a quarter of its third fiber derivative; both come out of one
jet evaluation, so their index symmetries hold exactly (each unordered index
set maps to a single stored coefficient).  At a `SampleBatch` every quantity
carries a leading sample axis, from one jet of the batch.

The degeneracy test of g, which also solves the spray's linear system, is
one Gaussian elimination with partial pivoting on Python floats.  It is
written once per dimension n as straight-line source (`_elimination`) and
compiled on first use, so a 3 x 3 system costs no interpreted loop and no
numpy call; tests/solve_reference.py keeps the same elimination as a
loop, and the two agree to the bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .dsl import MetricDefinition, SampleBatch, TangentSample, _inadmissible
from .errors import EvaluationDomainError, SingularMetric
from .jets import _compiled

DEGENERACY_TOL = 1e-12


def _require_admissible(m: MetricDefinition, v: TangentSample | SampleBatch,
                        t=None) -> None:
    """The one domain check: InadmissibleSample naming the sample, or the
    curve time t when the sample lies on a curve.  A `SampleBatch` is
    checked sample by sample, and its first inadmissible sample raises."""
    if isinstance(v, SampleBatch):
        ok = m.admissible(v)
        if ok.all():
            return
        v = v[int(np.argmin(ok))]
    elif m.admissible(v):
        return
    raise _inadmissible(m, v, t)


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
    order d, with a leading sample axis at a `SampleBatch`."""
    _require_admissible(m, v)
    fiber = slice(v.dim, None)
    return m.jet(v, degree).partials(degree)[(..., *(fiber,) * degree)]


def fundamental_tensor(m: MetricDefinition, v: TangentSample | SampleBatch
                       ) -> FundamentalTensor:
    """g_ij = (1/2) d^2 L / dy^i dy^j at the sample."""
    return FundamentalTensor(0.5 * _fiber_partials(m, v, 2), v)


def cartan_tensor(m: MetricDefinition, v: TangentSample | SampleBatch) -> CartanTensor:
    """C_ijk = (1/4) d^3 L / dy^i dy^j dy^k at the sample."""
    return CartanTensor(0.25 * _fiber_partials(m, v, 3), v)


def legendre(m: MetricDefinition, v: TangentSample) -> np.ndarray:
    """The covector g_v(v, .), computed as half the fiber gradient, after
    the one domain check, from the one-point order-2 jet: the first fiber
    partial dL/dy^l is coefficient n - l (`JetSpace.partial_slots`)."""
    _require_admissible(m, v)
    return 0.5 * np.array(m._point_jet(m._point(v.x, v.y), 2)[v.dim:0:-1])


def inverse_metric(g: FundamentalTensor | np.ndarray) -> np.ndarray:
    """Inverse of the fundamental tensor, or a stack of them (leading sample
    axes), after the degeneracy test of `_require_nondegenerate`."""
    mat = g.matrix if isinstance(g, FundamentalTensor) else np.asarray(g, dtype=float)
    _require_nondegenerate(mat)
    return np.linalg.solve(mat, np.eye(mat.shape[-1]))


def _require_nondegenerate(mat: np.ndarray) -> None:
    """The one degeneracy test, of one matrix or a stack (leading sample
    axes), through `_solver` of each matrix in turn on a zero right-hand
    side, so the first failing matrix of a stack names the error."""
    n = mat.shape[-1]
    for entries in mat.reshape(-1, n * n).tolist():
        _solver(n)(entries, [0.0] * n)


@functools.lru_cache(maxsize=None)
def _solver(n: int):
    """`solve(g, r)`, compiled from `_solver_source`: the degeneracy test of
    one n x n matrix g, given as its n*n entries row by row in a list of
    Python floats, and the solution z of g z = r, a list, from one Gaussian
    elimination with partial pivoting of g / scale, where scale = max|g_ij|
    (Golub & Van Loan, *Matrix Computations*, 4th ed., 2013, sec. 3.4).

    A non-finite entry is an EvaluationDomainError.  Each step swaps in the
    row of the first largest |entry| of its column, and a zero multiplier
    leaves its row as it is.  det(g / scale) is the signed product of the
    pivots; it cannot overflow, and |det| <= DEGENERACY_TOL, or a zero
    pivot, is SingularMetric.  r is scaled with g, so z solves (g / scale) z
    = r / scale by back substitution.  The r column never feeds a pivot or
    the determinant, so the verdict does not depend on r."""
    return _compiled(_solver_source(n), _ELIMINATION_NAMES)


def _solver_source(n: int) -> str:
    entries = ", ".join(f"g{i}_{j}" for i in range(n) for j in range(n))
    reads = [f"{entries}, = g", f"{_names('r', n)}, = r"]
    return _source("solve(g, r)", [*reads, *_elimination(n), f"return [{_names('z', n)}]"])


def _names(prefix: str, n: int) -> str:
    return ", ".join(f"{prefix}{i}" for i in range(n))


def _source(head: str, body: list[str]) -> str:
    """The source of the function `def head:` with these lines as its body."""
    return "\n    ".join([f"def {head}:", *body]) + "\n"


def _elimination(n: int) -> list[str]:
    """The lines of `_solver` for n x n matrices as straight-line
    code (Griewank & Walther, *Evaluating Derivatives*, 2nd ed., SIAM 2008,
    ch. 6): the entries of g are the locals g{i}_{j}, those of r r{i}, and
    the solution is left in the locals z{i}.

    The locals a{i}_{j} hold the rows of [g | r] / scale by position, and a
    row swap exchanges their values, as it exchanges the rows of a list; the
    pivot search and the swaps are `if`/`elif` on them.  Every float
    operation is that of the elimination loop, in its order, so the two
    agree to the bit (tests/solve_reference.py)."""
    cols = n + 1
    a = [[f"a{i}_{j}" for j in range(cols)] for i in range(n)]
    g = [f"g{i}_{j}" for i in range(n) for j in range(n)]
    scaled = [[f"g{i}_{j} / s" for j in range(n)] + [f"r{i} / s"] for i in range(n)]
    # max(|g_ij|, 0.0): the 0.0 never wins, and it gives max two arguments at n = 1
    lines = [f"if not ({' and '.join(f'isfinite({v})' for v in g)}):",
             "    raise EvaluationDomainError(_NON_FINITE)",
             f"scale = max({', '.join(f'abs({v})' for v in g)}, 0.0)",
             "s = scale if scale > 0.0 else 1.0",
             *(f"{', '.join(a[i])}, = {', '.join(scaled[i])}," for i in range(n)),
             "det = 1.0"]
    for k in range(n):
        below = range(k + 1, n)
        if below:
            lines.append(f"p, big = {k}, abs({a[k][k]})")
            for i in below:
                lines += [f"if abs({a[i][k]}) > big:", f"    p, big = {i}, abs({a[i][k]})"]
        for i in below:
            top, row = a[k][k:], a[i][k:]
            lines += [f"{'if' if i == k + 1 else 'elif'} p == {i}:",
                      f"    {', '.join(top + row)} = {', '.join(row + top)}",
                      "    det = -det"]
        lines += [f"det *= {a[k][k]}",
                  f"if {a[k][k]} == 0.0:",
                  "    raise _degenerate(det, scale)"]
        for i in below:
            lines += [f"f = {a[i][k]} / {a[k][k]}", "if f:"]
            lines += [f"    {a[i][j]} -= f * {a[k][j]}" for j in range(k + 1, cols)]
    lines += ["if abs(det) <= DEGENERACY_TOL:", "    raise _degenerate(det, scale)"]
    for i in reversed(range(n)):
        rest = "".join(f" - {a[i][j]} * z{j}" for j in range(i + 1, n))
        lines.append(f"z{i} = ({a[i][n]}{rest}) / {a[i][i]}")
    return lines


_NON_FINITE = "fundamental tensor has a non-finite entry"


def _degenerate(det: float, scale: float) -> SingularMetric:
    return SingularMetric(f"fundamental tensor is degenerate: |det g/scale|={abs(det):.3e} "
                          f"at scale {scale:.3e}")


# the names that the written elimination reads besides its locals
_ELIMINATION_NAMES = {"isfinite": math.isfinite, "EvaluationDomainError": EvaluationDomainError,
          "_NON_FINITE": _NON_FINITE, "_degenerate": _degenerate,
          "DEGENERACY_TOL": DEGENERACY_TOL}
