"""Variations of the conformally scaled energy, Jacobi fields, focal points,
and the transfer of Jacobi fields between conformally related metrics.

Everything here is expressed through the connection of ONE base metric; the
scaled metric never needs its own connection.  Along a fixed curve all
pointwise geometry (fundamental tensor, Christoffel symbols, Jacobi operator,
factor gradients) is read from tables built by `connection._frame_tables`,
one frame per chunk of samples.  A `CurveGeometry` carries one curve, its
base metric and its factor; it builds the table at the nodes and the
horizontal and vertical gradients of the factor (`grad_h`, `grad_v`) when
it is made, and computes the covariant derivative along the curve (`cov`).
The variation fields, the first and second variation, the index form, the
transfer and its residuals all take it as their first argument and read
curve, metric and factor from it.  The Jacobi integrator solves the
linearized spray on its own table of order-3 frames at the RK stage times,
and the focal search reads g and Gamma at the curve start from its first frame.
Geodesic checks read the spray, as Gamma(v)(v, v) = 2G(x, v).

Curvature terms of the form g(R(vel, V)W, vel) are evaluated through the
Jacobi operator using its g-self-adjointness, g(R(vel,V)W, vel) = -g(AV, W)
with A the operator of D^2 J = A J; the full curvature tensor route exists in
`connection.chern_curvature` and the two are cross-checked in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .connection import ConnectionFrame, _frame_tables
from .curves import DiscreteCurve, Reparametrization, spline_derivative
from .dsl import MetricDefinition, Tape, TangentSample, parse_expression
from .errors import CurveCheckFailure, EvaluationDomainError, FinslabError, GridMismatch
from .geodesics import (_factor_along, _pregeodesic_defects, check_lightlike, energy,
                        reparametrize_conformal, rk4_step)
from .jets import jet_space
from .numerics import HermiteSpline, cumulative_simpson, null_space, simpson

__all__ = [
    "SubmanifoldPatch", "VariationField", "JacobiSolution", "FocalPoint",
    "CurveGeometry", "first_variation", "second_variation", "index_form",
    "energy_derivative_fd",
    "second_fundamental_form", "normal_second_fundamental_form",
    "integrate_jacobi_basis", "find_focal_points",
    "transfer_jacobi", "conformal_jacobi_residual", "boundary_residual",
    "verify_focal_correspondence", "CorrespondenceReport",
]


# --------------------------------------------------------------------------
# submanifold patches
# --------------------------------------------------------------------------

class SubmanifoldPatch:
    """Parametrized immersion u in R^d -> chart coordinates, given by its
    exact 2-jet: `jet(u)` returns the chart point, the (n, d) Jacobian and
    the (n, d, d) second derivatives at the parameters u.  `from_point` has
    zero derivatives, `from_expressions` reads them from order-2 tape jets,
    and `experiments.great_circle_patch` applies its closed-form chain rule.
    """

    def __init__(self, dim_params: int, jet, basepoint, name: str = "patch"):
        self.d = int(dim_params)
        self.jet = jet
        self.basepoint = np.atleast_1d(np.asarray(basepoint, dtype=float))
        self.name = name

    @staticmethod
    def from_point(x0) -> "SubmanifoldPatch":
        x0 = np.asarray(x0, dtype=float)
        n = x0.size
        return SubmanifoldPatch(
            0, lambda u: (x0, np.zeros((n, 0)), np.zeros((n, 0, 0))), np.zeros(0),
            name="point")

    @staticmethod
    def from_expressions(sources: list[str], basepoint, name: str = "patch"
                         ) -> "SubmanifoldPatch":
        """Immersion given as expressions in parameters x0..x{d-1} (y_a
        reads the same parameter as x_a).  The point is the float program's
        value; the derivatives come from one order-2 jet per expression,
        which must be finite."""
        basepoint = np.atleast_1d(np.asarray(basepoint, dtype=float))
        d = basepoint.size
        tapes = [Tape([parse_expression(src, d)], d) for src in sources]
        space = jet_space(2 * d, 2)

        def jet(u):
            point = np.atleast_1d(np.asarray(u, dtype=float)).tolist() * 2
            c = np.array([tape.point_jet(point, 2) for tape in tapes])
            if not np.isfinite(c).all():
                raise EvaluationDomainError(
                    f"the jet of patch {name!r} is not finite at u={point[:d]!r}")
            # u enters as both x and y: each derivative sums over the copies
            first = space.partial_jets(c, 1)[..., 0].reshape(-1, 2, d).sum(axis=1)
            second = space.partial_jets(c, 2)[..., 0].reshape(-1, 2, d, 2, d)
            return (np.array([tape.floats(point)[0] for tape in tapes]),
                    first, second.sum(axis=(1, 3)))

        return SubmanifoldPatch(d, jet, basepoint, name=name)

    def _jet_at(self, u):
        return self.jet(self.basepoint if u is None
                        else np.atleast_1d(np.asarray(u, dtype=float)))

    def point(self, u=None) -> np.ndarray:
        return self._jet_at(u)[0]

    def tangent_basis(self, u=None) -> np.ndarray:
        """(n, d) matrix whose columns span the tangent space at u."""
        return self._jet_at(u)[1]

    def second_derivatives(self, u=None) -> np.ndarray:
        """(n, d, d) array of second parameter derivatives of the immersion."""
        return self._jet_at(u)[2]


# --------------------------------------------------------------------------
# fields along curves
# --------------------------------------------------------------------------

@dataclass
class VariationField:
    """Samples of a variation vector field, optionally with the transverse
    acceleration of the underlying two-parameter map."""
    values: np.ndarray
    accel: np.ndarray | None = None

    @staticmethod
    def affine(geom: CurveGeometry, fn) -> "VariationField":
        """Field for the chart-affine variation x(t) + s*W(t) of the
        geometry's curve; its transverse acceleration is Gamma(vel)(W, W)
        since the chart second s-derivative vanishes."""
        vals = np.array([fn(t) for t in geom.curve.grid], dtype=float)
        return VariationField(vals, np.einsum("skij,si,sj->sk", geom.gamma, vals, vals))


@dataclass
class JacobiSolution:
    grid: np.ndarray
    J: np.ndarray          # (npts, n) field values
    K: np.ndarray          # (npts, n) covariant derivative along the curve
    J_dot: np.ndarray      # (npts, n) coordinate time derivative, for dense output

    def spline(self):
        return HermiteSpline(self.grid, self.J, self.J_dot)


# --------------------------------------------------------------------------
# pointwise geometry tables along one curve
# --------------------------------------------------------------------------

class CurveGeometry:
    """One curve with its base metric m and factor lam (None for the unit
    factor): the argument of every formula along that curve.

    The geometry of m is referenced at the curve velocity.  Construction
    builds one table from `connection._frame_tables` at the nodes, which
    gives the fundamental tensor `g`, the Christoffel symbols `gamma` and the
    Jacobi operator `jacobi`, and the factor's values `lam_values`, rate
    `lam_rate` and partials in one walk, from which, with the table, come
    its horizontal and vertical gradients `grad_h` and `grad_v`; a failing
    node raises here.
    """

    def __init__(self, curve: DiscreteCurve, m: MetricDefinition, lam=None):
        self.curve = curve
        self.m = m
        self.lam = lam
        self.npts = curve.grid.size
        self.n = curve.dim
        self._lightlike = False
        self.g, ginv, N, self.gamma, self.jacobi = _frame_tables(
            m, curve.grid, curve.positions, curve.velocities)
        if lam is None:
            self.lam_values, self.lam_rate = np.ones(self.npts), np.zeros(self.npts)
            self.grad_h, self.grad_v = np.zeros((2, self.npts, self.n))
        else:
            self.lam_values, dx, dy, self.lam_rate = _factor_along(lam, curve)
            # stacked matmuls round as the products node by node do; einsum does not
            dh = dx - (N.transpose(0, 2, 1) @ dy[..., None])[..., 0]
            self.grad_h = (ginv @ dh[..., None])[..., 0]
            self.grad_v = (ginv @ dy[..., None])[..., 0]

    def require_lightlike(self) -> None:
        """`geodesics.check_lightlike` of the curve under m.  A passed check
        is kept, so it runs once per geometry; a failed one raises its
        ValueError on every call."""
        if not self._lightlike:
            check_lightlike(self.curve, self.m)
            self._lightlike = True

    # -- field calculus ------------------------------------------------------

    def pair(self, U: np.ndarray, W: np.ndarray) -> np.ndarray:
        """Nodewise g(U, W)."""
        return np.einsum("kij,ki,kj->k", self.g, U, W)

    def cov(self, X: np.ndarray, X_dot: np.ndarray | None = None) -> np.ndarray:
        """Covariant derivative of node samples along the curve."""
        X = np.asarray(X, dtype=float)
        if X.shape != (self.npts, self.n):
            raise GridMismatch("field samples must match the curve grid")
        if X_dot is None:
            X_dot = spline_derivative(self.curve.grid, X)
        return X_dot + np.einsum("kaij,ki,kj->ka", self.gamma, X, self.curve.velocities)

    def cov_scalar_times_velocity(self, f: np.ndarray) -> np.ndarray:
        """D(f * velocity) using the exact node accelerations for the
        velocity part and a spline derivative for the scalar."""
        f = np.asarray(f, dtype=float)
        f_dot = spline_derivative(self.curve.grid, f)
        X = f[:, None] * self.curve.velocities
        X_dot = (f_dot[:, None] * self.curve.velocities
                 + f[:, None] * self.curve.accelerations)
        return self.cov(X, X_dot)


# --------------------------------------------------------------------------
# first and second variation of the scaled energy
# --------------------------------------------------------------------------

def first_variation(geom: CurveGeometry, W: VariationField) -> float:
    """Derivative of the scaled energy along the variation field W.

    Valid for lightlike base curves: integral of g(W, -D(factor*vel)) plus
    the boundary pairing factor * g(vel, W)."""
    curve = geom.curve
    geom.require_lightlike()
    if W.values.shape != curve.positions.shape:
        raise GridMismatch("variation field must match the curve grid")
    lam_v = geom.lam_values
    DZ = geom.cov_scalar_times_velocity(lam_v)
    integrand = geom.pair(W.values, -DZ)
    total = float(simpson(integrand, curve.grid))
    boundary = lam_v * geom.pair(curve.velocities, W.values)
    return total + float(boundary[-1] - boundary[0])


def second_variation(geom: CurveGeometry, W: VariationField) -> float:
    """Second derivative of the scaled energy along the variation.

    Requires the curve to satisfy the scaled geodesic equation; the result
    uses the transverse acceleration samples of W for the boundary term
    (absent samples mean a geodesic-transversal variation, a = 0)."""
    curve = geom.curve
    geom.require_lightlike()
    lam_v = geom.lam_values
    Wv = W.values
    Wp = geom.cov(Wv)
    vel = curve.velocities
    # g(R(vel, W)W, vel) = -g(AW, W) via self-adjointness of the operator
    AW = np.einsum("kij,kj->ki", geom.jacobi, Wv)
    curvature_term = geom.pair(AW, Wv)
    integrand = lam_v * (curvature_term + geom.pair(Wp, Wp))
    integrand += 2.0 * geom.pair(Wp, vel) * (
        geom.pair(Wv, geom.grad_h) + geom.pair(Wp, geom.grad_v))
    total = float(simpson(integrand, curve.grid))
    if W.accel is not None:
        boundary = lam_v * geom.pair(W.accel, vel)
        total += float(boundary[-1] - boundary[0])
    return total


def energy_derivative_fd(curve: DiscreteCurve, W: VariationField, lam,
                         m: MetricDefinition) -> tuple[float, float]:
    """First and second Richardson finite differences of s -> energy of the
    chart variation x(t) + s W(t), with steps 1e-3 and 5e-4, from the five
    energies at s = 0, +-1e-3 and +-5e-4.  Independent of the variation
    formulas: it only uses the energy quadrature."""
    step = 1e-3
    grid = curve.grid
    W_dot = spline_derivative(grid, W.values)

    def E(s: float) -> float:
        pos = curve.positions + s * W.values
        vel = curve.velocities + s * W_dot
        return energy(DiscreteCurve(grid, pos, vel, np.zeros_like(pos)), m, lam)

    e0, up, down, half_up, half_down = map(E, (0.0, step, -step, step / 2, -step / 2))
    d1 = (up - down) / (2 * step)
    d2 = (half_up - half_down) / step
    s1 = (up - 2 * e0 + down) / step ** 2
    s2 = (half_up - 2 * e0 + half_down) / (step / 2) ** 2
    return (4.0 * d2 - d1) / 3.0, (4.0 * s2 - s1) / 3.0


# --------------------------------------------------------------------------
# second fundamental forms
# --------------------------------------------------------------------------

def _tangent_projector(B: np.ndarray, g: np.ndarray):
    """Returns tan(), the g-orthogonal projection onto span(B)."""
    if B.shape[1] == 0:
        return lambda z: np.zeros_like(z)
    gram = B.T @ g @ B
    scale = max(np.abs(gram).max(), 1e-300)
    if abs(np.linalg.det(gram)) <= 1e-10 * scale ** B.shape[1]:
        raise FinslabError("the metric restricted to the patch is degenerate")
    gram_inv = np.linalg.inv(gram)

    def tan(z):
        return B @ (gram_inv @ (B.T @ (g @ z)))

    return tan


def _patch_frame(P: SubmanifoldPatch, N0: np.ndarray, m: MetricDefinition):
    """g and the Christoffel symbols at (P.point(), N0), from an order-3
    frame."""
    frame = ConnectionFrame(m, TangentSample(P.point(), N0), order=3)
    return frame.g(), frame.christoffel()


def _require_normal(basis: np.ndarray, N0: np.ndarray, g: np.ndarray) -> None:
    for a in range(basis.shape[1]):
        pairing = float(N0 @ g @ basis[:, a])
        if abs(pairing) > 1e-6 * max(1.0, float(N0 @ N0)):
            raise FinslabError(
                f"reference vector is not normal to the patch: pairing {pairing:.3e}")


def second_fundamental_form(P: SubmanifoldPatch, N, U, W, m: MetricDefinition
                            ) -> np.ndarray:
    """Normal part of the patch derivative of a tangent field: the bilinear
    form measuring how the patch curves away from its tangent plane.

    N is the reference normal vector at the basepoint; U and W are tangent
    vectors there, given in chart components; W is extended with constant
    coefficients in the coordinate frame of the patch."""
    N = np.asarray(N, dtype=float)
    basis = P.tangent_basis()
    g, gamma = _patch_frame(P, N, m)
    _require_normal(basis, N, g)
    tan = _tangent_projector(basis, g)
    u_coeff = _tangent_coefficients(basis, U)
    w_coeff = _tangent_coefficients(basis, W)
    second = P.second_derivatives()
    dW = np.einsum("nab,a,b->n", second, u_coeff, w_coeff)
    full = dW + np.einsum("kij,i,j->k", gamma,
                          basis @ u_coeff, basis @ w_coeff)
    return full - tan(full)


def normal_second_fundamental_form(P: SubmanifoldPatch, N0, dN, U,
                                   m: MetricDefinition) -> np.ndarray:
    """Tangential part of the patch derivative of a normal field along the
    tangent vector U, from the field's value N0 at the basepoint and its
    (n, d) Jacobian dN in the patch parameters there."""
    N0 = np.asarray(N0, dtype=float)
    basis = P.tangent_basis()
    g, gamma = _patch_frame(P, N0, m)
    _require_normal(basis, N0, g)
    tan = _tangent_projector(basis, g)
    u_coeff = _tangent_coefficients(basis, U)
    full = np.asarray(dN, dtype=float) @ u_coeff + np.einsum(
        "kij,i,j->k", gamma, basis @ u_coeff, N0)
    return tan(full)


def _tangent_coefficients(basis: np.ndarray, v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if basis.shape[1] == 0:
        if np.linalg.norm(v) > 1e-6:
            raise FinslabError("nonzero vector cannot be tangent to a point")
        return np.zeros(0)
    coeff, *_ = np.linalg.lstsq(basis, v, rcond=None)
    if np.linalg.norm(basis @ coeff - v) > 1e-6 * max(1.0, np.linalg.norm(v)):
        raise FinslabError("vector is not tangent to the patch")
    return coeff


def _normal_sff_matrix(P: SubmanifoldPatch, N0: np.ndarray, m: MetricDefinition
                       ) -> np.ndarray:
    """`_normal_sff_columns` with g and the Christoffel symbols of m at the
    patch basepoint and N0."""
    return _normal_sff_columns(P, N0, *_patch_frame(P, N0, m))


def _normal_sff_columns(P: SubmanifoldPatch, N0: np.ndarray, g: np.ndarray,
                        gamma: np.ndarray) -> np.ndarray:
    """(n, d) columns: the normal second fundamental form applied to each
    coordinate tangent basis vector, computed without extending the normal,
    from g and the Christoffel symbols at the basepoint and N0.

    Uses compatibility of the connection plus normality of N along the
    patch: g_N(S(U), b) = -g_N(N, D_U b) for tangent frame fields b."""
    basis = P.tangent_basis()
    _require_normal(basis, N0, g)
    n, d = basis.shape
    if d == 0:
        return np.zeros((n, 0))
    second = P.second_derivatives()
    gram = basis.T @ g @ basis
    out = np.empty((n, d))
    for a in range(d):
        rhs = np.empty(d)
        for b in range(d):
            covariant = second[:, a, b] + np.einsum(
                "kij,i,j->k", gamma, basis[:, a], basis[:, b])
            rhs[b] = -float(N0 @ g @ covariant)
        out[:, a] = basis @ np.linalg.solve(gram, rhs)
    return out


# --------------------------------------------------------------------------
# index form
# --------------------------------------------------------------------------

def index_form(geom: CurveGeometry, V: VariationField, W: VariationField,
               P: SubmanifoldPatch | None, Q: SubmanifoldPatch | None) -> float:
    """Symmetric bilinear form whose kernel (on endpoint-constrained fields)
    is the space of endpoint-respecting Jacobi fields of the scaled metric."""
    curve, m = geom.curve, geom.m
    geom.require_lightlike()
    lam_v = geom.lam_values
    vel = curve.velocities
    Vv, Wv = V.values, W.values
    _check_endpoint_tangency(P, Vv[0], Wv[0])
    _check_endpoint_tangency(Q, Vv[-1], Wv[-1])
    Vp = geom.cov(Vv)
    Wp = geom.cov(Wv)
    AV = np.einsum("kij,kj->ki", geom.jacobi, Vv)
    integrand = lam_v * (geom.pair(AV, Wv) + geom.pair(Vp, Wp))
    integrand += (geom.pair(Vp, vel) * geom.pair(Wv, geom.grad_h)
                  + geom.pair(Wp, vel) * geom.pair(Vv, geom.grad_h))
    integrand += (geom.pair(Vp, vel) * geom.pair(Wp, geom.grad_v)
                  + geom.pair(Wp, vel) * geom.pair(Vp, geom.grad_v))
    total = float(simpson(integrand, curve.grid))
    if Q is not None and Q.d > 0:
        S = second_fundamental_form(Q, vel[-1], Vv[-1], Wv[-1], m)
        total += lam_v[-1] * float(S @ geom.g[-1] @ vel[-1])
    if P is not None and P.d > 0:
        S = second_fundamental_form(P, vel[0], Vv[0], Wv[0], m)
        total -= lam_v[0] * float(S @ geom.g[0] @ vel[0])
    return total


def _check_endpoint_tangency(patch, *vectors) -> None:
    if patch is None:
        return
    basis = patch.tangent_basis()
    for v in vectors:
        _tangent_coefficients(basis, v)


# --------------------------------------------------------------------------
# Jacobi field integration
# --------------------------------------------------------------------------

def _geodesic_spot_check(curve: DiscreteCurve, m: MetricDefinition,
                         tol: float = 1e-4) -> None:
    idx = np.linspace(0, curve.grid.size - 1, 5).astype(int)
    for k, dv in zip(idx, _pregeodesic_defects(curve, m, None, idx)):
        scale = max(1.0, float(curve.velocities[k] @ curve.velocities[k]))
        if np.linalg.norm(dv) > tol * scale:
            raise CurveCheckFailure(
                f"curve is not a geodesic of {m.name!r}: residual "
                f"{np.linalg.norm(dv):.3e} at t={curve.grid[k]!r}")


def _stage_table(curve: DiscreteCurve, m: MetricDefinition) -> tuple[np.ndarray, ...]:
    """The curve, spot-checked to be a geodesic of m, and one
    `connection._frame_tables` table of order-3 frames at its distinct RK
    stage times (the nodes, the step midpoints and t + h): (times, dG, g0,
    Gamma0), with the spray gradient dG at each and g and Gamma at the curve
    start, row 0, from the first frame."""
    _geodesic_spot_check(curve, m)
    grid = curve.grid
    # the stage times exactly as rk4_step forms them; t + h may differ from
    # the next node in the last bit, and np.unique merges the equal ones
    h = grid[1:] - grid[:-1]
    times = np.unique(np.concatenate([grid, grid[:-1] + 0.5 * h, grid[:-1] + h]))
    start = []

    def read(frame):
        if not start:
            start[:] = frame.g()[0], frame.christoffel()[0]
        return frame.spray_gradient(),

    dG, = _frame_tables(m, times, curve.position(times), curve.velocity(times), read,
                        order=3)
    return times, dG, *start


def _integrate_on_stages(curve: DiscreteCurve, table, J0: np.ndarray,
                         K0: np.ndarray) -> tuple[np.ndarray, ...]:
    """RK4 steps of Jdd = -2 dG (J, Jd) over the curve grid, reading dG at
    every stage from a `_stage_table` by its stage time, from J0 and
    Jd = K0 - N J0: (J, K, Jd) at the nodes, each (npts, n, nfields), where
    K = Jd + N J, with N = dG/dy, is DJ."""
    times, dG = table[:2]
    grid = curve.grid
    n = curve.dim
    N = dG[..., n:]
    at = dict(zip(times.tolist(), dG))      # the row of each distinct stage time

    def rhs(t, S):   # S = (J, Jd)
        return np.array([S[1], -2.0 * (at[t] @ S.reshape(2 * n, -1))])

    J, K = (np.asarray(a, dtype=float).reshape(n, -1) for a in (J0, K0))
    S = np.array([J, K - N[0] @ J])
    states = [S]
    for t, h in zip(grid[:-1].tolist(), (grid[1:] - grid[:-1]).tolist()):
        S = rk4_step(rhs, t, S, h, k1=rhs(t, S))
        states.append(S)
    Js, Jdots = np.array(states).transpose(1, 0, 2, 3)
    return Js, Jdots + N[np.searchsorted(times, grid)] @ Js, Jdots


def integrate_jacobi_basis(curve: DiscreteCurve, m: MetricDefinition,
                           J0: np.ndarray, K0: np.ndarray) -> list[JacobiSolution]:
    """RK4 integration of Jacobi fields for several initial pairs at once.

    J0, K0 are (n, nfields), J and DJ at the curve start.  Jacobi fields solve
    the linearized geodesic equation Jdd = -2 (dG/dx) J - 2 (dG/dy) Jd, linear
    along the fixed curve: one order-3 `_stage_table` holds every dG it needs
    before the first step, and all fields share it.  The curve is first
    spot-checked to be a geodesic.  Returns one solution record per column.
    """
    fields = _integrate_on_stages(curve, _stage_table(curve, m), J0, K0)
    return [JacobiSolution(curve.grid, *(a[:, :, f] for a in fields))
            for f in range(fields[0].shape[2])]


# --------------------------------------------------------------------------
# focal point detection
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class FocalPoint:
    parameter: float
    multiplicity: int


def _require_patch_start(curve: DiscreteCurve, P: SubmanifoldPatch) -> None:
    p = P.point()
    if np.linalg.norm(p - curve.positions[0]) > 1e-8 * max(1.0, np.linalg.norm(p)):
        raise FinslabError("patch basepoint does not match the curve start")


def _focal_initial_data(curve: DiscreteCurve, P: SubmanifoldPatch, table
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Initial data (J0, DJ0) of the focal family, with g and the
    Christoffel symbols at the curve start (x0, N0) from its `_stage_table`."""
    n = curve.dim
    N0 = curve.velocities[0]
    g, gamma = table[2:]
    basis = P.tangent_basis()
    d = basis.shape[1]
    J0 = np.zeros((n, n))
    K0 = np.zeros((n, n))
    if d > 0:
        J0[:, :d] = basis
        K0[:, :d] = _normal_sff_columns(P, N0, g, gamma)
        complement = null_space(basis.T @ g)
    else:
        complement = np.eye(n)
    if complement.shape[1] != n - d:
        raise FinslabError("could not build a complement of the patch tangent space")
    K0[:, d:] = complement
    return J0, K0


def find_focal_points(curve: DiscreteCurve, P: SubmanifoldPatch,
                      m: MetricDefinition) -> list[FocalPoint]:
    """Zeros (with multiplicity) of the endpoint-constrained Jacobi family.

    Integrates the n-dimensional solution family fixed by the patch data:
    d fields starting on the tangent basis with derivative matching the
    normal second fundamental form, and n-d fields vanishing initially with
    derivatives spanning a metric-orthogonal complement.  g and the
    Christoffel symbols at the curve start come from the first frame of the
    integration's order-3 stage table.  Focal parameters are bracketed by
    sign changes of det M(t) at grid resolution and refined by bisection on
    the dense output to a bracket of width 1e-8; multiplicity is the count
    of singular values below 1e-7 times the largest.
    """
    _require_patch_start(curve, P)
    table = _stage_table(curve, m)
    M, _, Mdot = _integrate_on_stages(curve, table, *_focal_initial_data(curve, P, table))
    npts = curve.grid.size
    spline = HermiteSpline(curve.grid, M, Mdot)
    dets = np.linalg.det(M)
    out: list[FocalPoint] = []
    for k in range(1, npts - 1):
        a, b = dets[k], dets[k + 1]
        if a == 0.0:
            t_star = float(curve.grid[k])
        elif a * b < 0.0:
            lo, hi = float(curve.grid[k]), float(curve.grid[k + 1])
            flo = a
            while hi - lo > 1e-8:
                mid = 0.5 * (lo + hi)
                fmid = float(np.linalg.det(spline(mid)))
                if fmid == 0.0:
                    lo = hi = mid
                    break
                if flo * fmid < 0.0:
                    hi = mid
                else:
                    lo, flo = mid, fmid
            t_star = 0.5 * (lo + hi)
        else:
            continue
        sv = np.linalg.svd(spline(t_star), compute_uv=False)
        multiplicity = int(np.sum(sv <= 1e-7 * sv[0]))
        if multiplicity > 0:
            out.append(FocalPoint(parameter=t_star, multiplicity=multiplicity))
    return out


# --------------------------------------------------------------------------
# transfer of Jacobi fields through a conformal change
# --------------------------------------------------------------------------

def transfer_jacobi(geom: CurveGeometry, Jsol: JacobiSolution,
                    rep: Reparametrization) -> tuple[JacobiSolution, np.ndarray]:
    """Carry a Jacobi field of the reparametrized curve back to the scaled
    parametrization of the geometry's curve, correcting by a multiple of the
    velocity.

    The correction solves hdd = -sdot/factor + s*factor_rate/factor^2 with
    h = 0 at both ends, where s pairs the field with the factor gradients.
    Returns the corrected solution and the h samples (zero at both ends by
    construction)."""
    grid = geom.curve.grid
    mu = rep.inverse(grid)
    mu[0], mu[-1] = Jsol.grid[0], Jsol.grid[-1]
    J_spline = Jsol.spline()
    K_spline = HermiteSpline(Jsol.grid, Jsol.K, spline_derivative(Jsol.grid, Jsol.K))
    lam_v = geom.lam_values
    lam_r = geom.lam_rate
    J = J_spline(mu)
    K = K_spline(mu) / lam_v[:, None]
    s = geom.pair(J, geom.grad_h) + geom.pair(K, geom.grad_v)
    s_dot = spline_derivative(grid, s)
    forcing = -s_dot / lam_v + s * lam_r / lam_v ** 2
    q = cumulative_simpson(forcing, grid)
    H = cumulative_simpson(q, grid)
    span = grid[-1] - grid[0]
    h = H - (grid - grid[0]) * (H[-1] / span)
    h[0] = 0.0
    h[-1] = 0.0
    h_dot = q - H[-1] / span
    vel = geom.curve.velocities
    J_hat = J + h[:, None] * vel
    # D(h*vel) = hdot*vel + h*Dvel with Dvel = -(factor_rate/factor)*vel
    K_hat = K + (h_dot - h * lam_r / lam_v)[:, None] * vel
    gamma_y = np.einsum("kaij,kj->kai", geom.gamma, vel)
    J_hat_dot = K_hat - np.einsum("kai,ki->ka", gamma_y, J_hat)
    return JacobiSolution(grid, J_hat, K_hat, J_hat_dot), h


def _require_curve_grid(geom: CurveGeometry, sol: JacobiSolution) -> None:
    if not np.array_equal(sol.grid, geom.curve.grid):
        raise GridMismatch("the Jacobi solution must be sampled on the curve grid")


def conformal_jacobi_residual(geom: CurveGeometry, sol: JacobiSolution) -> float:
    """Interior residual of the scaled-metric Jacobi characterization,
    written entirely with the base connection, as the largest norm over the
    nodes two or more away from either end (the spline derivatives are least
    accurate at the ends):

        factor*A V - (factor*V')' + g(V',vel)*grad_h
        - (g(V,grad_h)*vel)' - (g(V',vel)*grad_v)' - (g(V',grad_v)*vel)' = 0
    """
    _require_curve_grid(geom, sol)
    lam_v = geom.lam_values
    V = sol.J
    Vp = sol.K
    vel = geom.curve.velocities
    AV = np.einsum("kij,kj->ki", geom.jacobi, V)
    lamVp = lam_v[:, None] * Vp
    term2 = geom.cov(lamVp)
    vp_vel = geom.pair(Vp, vel)
    term3 = vp_vel[:, None] * geom.grad_h
    term4 = geom.cov_scalar_times_velocity(geom.pair(V, geom.grad_h))
    term5 = geom.cov(vp_vel[:, None] * geom.grad_v)
    term6 = geom.cov_scalar_times_velocity(geom.pair(Vp, geom.grad_v))
    residual = (lam_v[:, None] * AV - term2 + term3 - term4 - term5 - term6)
    return float(np.max(np.linalg.norm(residual[2:-2], axis=1)))


def boundary_residual(geom: CurveGeometry, sol: JacobiSolution,
                      P: SubmanifoldPatch | None, Q: SubmanifoldPatch | None) -> float:
    """Endpoint residual of the scaled-metric endpoint conditions, tested
    against every tangent basis vector of the end patches:

        factor * g(V' - S(V), w) + g(V', vel) * g(grad_v, w) = 0.
    """
    _require_curve_grid(geom, sol)
    curve = geom.curve
    worst = 0.0
    for patch, k in ((P, 0), (Q, curve.grid.size - 1)):
        if patch is None or patch.d == 0:
            continue
        basis = patch.tangent_basis()
        coeffs = _tangent_coefficients(basis, sol.J[k])
        sff = _normal_sff_matrix(patch, curve.velocities[k], geom.m)
        SV = sff @ coeffs
        lead = geom.lam_values[k]
        extra = float(sol.K[k] @ geom.g[k] @ curve.velocities[k])
        for a in range(basis.shape[1]):
            w = basis[:, a]
            r = (lead * float((sol.K[k] - SV) @ geom.g[k] @ w)
                 + extra * float(geom.grad_v[k] @ geom.g[k] @ w))
            worst = max(worst, abs(r))
    return worst


# --------------------------------------------------------------------------
# the focal correspondence experiment
# --------------------------------------------------------------------------

@dataclass
class CorrespondencePair:
    base_parameter: float
    base_multiplicity: int
    scaled_parameter: float | None
    scaled_multiplicity: int | None
    pairing_error: float | None


@dataclass
class CorrespondenceReport:
    base_focal: list[FocalPoint]
    scaled_focal: list[FocalPoint]
    pairs: list[CorrespondencePair] = field(default_factory=list)
    matched: bool = False
    tolerance: float = 1e-4


def verify_focal_correspondence(curve: DiscreteCurve, P: SubmanifoldPatch,
                                lam, m: MetricDefinition, scaled: MetricDefinition,
                                tolerance: float = 1e-4) -> CorrespondenceReport:
    """Detect focal points of a lightlike geodesic of the scaled metric
    (lam * m, given as `scaled`) twice: once directly, once on its
    reparametrization under the base metric, and match the parameter lists
    through the reparametrization map.

    A failed match is reported, not raised; with no pair there is nothing
    matched."""
    rep, tilde = reparametrize_conformal(curve, lam, m)
    base_focal = find_focal_points(tilde, P, m)
    scaled_focal = find_focal_points(curve, P, scaled)
    report = CorrespondenceReport(base_focal=base_focal, scaled_focal=scaled_focal,
                                  tolerance=tolerance)
    available = list(scaled_focal)
    all_ok = True
    for fp in base_focal:
        target = float(rep(fp.parameter))
        best = min(((cand, abs(cand.parameter - target)) for cand in available),
                   key=lambda pair: pair[1], default=None)
        if best is not None and best[1] <= tolerance:
            cand, err = best
            available.remove(cand)
            report.pairs.append(CorrespondencePair(
                fp.parameter, fp.multiplicity, cand.parameter,
                cand.multiplicity, err))
            all_ok = all_ok and cand.multiplicity == fp.multiplicity
        else:
            report.pairs.append(CorrespondencePair(
                fp.parameter, fp.multiplicity, None, None, None))
            all_ok = False
    report.matched = all_ok and bool(report.pairs) and not available
    return report
