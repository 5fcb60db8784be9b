"""Spray, Christoffel symbols, curvature operators, covariant derivatives and
anisotropic gradients, checked against closed forms and the defining axioms.
Each quantity is read where the library computes it: G from
`spray_coefficients`, N, Gamma and the Jacobi operator from a
`ConnectionFrame`, and along a curve the covariant derivative and the
gradients of a scalar from a `variational.CurveGeometry`."""

import collections
import hashlib

import numpy as np
import pytest

import finslab
from finslab import conformal, connection, dsl, geodesics, jets, tensors, variational
from finslab.curves import spline_derivative
from finslab.errors import EvaluationDomainError, SingularMetric
import solve_reference
from conftest import margin_sample
from frame_reference import ReferenceFrame


def levi_civita_oracle(A_fn, x, h=1e-5):
    """Textbook Christoffel symbols of a coefficient matrix field A(x),
    with Richardson central differences for the derivatives of A."""
    x = np.asarray(x, dtype=float)
    n = x.size
    dA = np.empty((n, n, n))
    for k in range(n):
        e = np.zeros(n)
        e[k] = 1.0
        d1 = (A_fn(x + h * e) - A_fn(x - h * e)) / (2 * h)
        d2 = (A_fn(x + h / 2 * e) - A_fn(x - h / 2 * e)) / h
        dA[:, :, k] = (4 * d2 - d1) / 3
    Ainv = np.linalg.inv(A_fn(x))
    gamma = np.empty((n, n, n))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                gamma[k, i, j] = 0.5 * sum(
                    Ainv[k, l] * (dA[l, j, i] + dA[i, l, j] - dA[i, j, l])
                    for l in range(n))
    return gamma


def warped_quadratic_matrix(x):
    return np.array([
        [-np.exp(0.2 * x[1]), 0.0, 0.0],
        [0.0, 1.0, 0.15 * x[0]],
        [0.0, 0.15 * x[0], 1.0 + 0.5 * x[0] ** 2]])


# --------------------------------------------------------------------------
# spray and Christoffel symbols
# --------------------------------------------------------------------------

def test_flat_metric_has_zero_spray_and_symbols(minkowski3):
    v = dsl.TangentSample([0.3, -0.1, 0.2], [1.0, 0.3, 0.2])
    frame = connection.ConnectionFrame(minkowski3, v, order=3)
    assert np.abs(connection.spray_coefficients(minkowski3, v)).max() == 0.0
    assert np.abs(frame.nonlinear()).max() == 0.0
    assert np.abs(frame.christoffel()).max() == 0.0


def test_spray_reduces_to_levi_civita_for_quadratic_metrics():
    m = dsl.builtin_metric("warped-quadratic")
    rng = np.random.default_rng(0)
    for v in dsl.sample_admissible(m, rng, count=10):
        G = connection.spray_coefficients(m, v)
        gamma_lc = levi_civita_oracle(warped_quadratic_matrix, v.x)
        expected = 0.5 * np.einsum("kij,i,j->k", gamma_lc, v.y, v.y)
        assert np.abs(G - expected).max() <= 1e-8


def test_spray_homogeneity(einstein):
    v = dsl.TangentSample([0.0, np.pi / 4, 0.3], [1.0, 0.2, 1.1])
    G1, G2 = (connection.spray_coefficients(einstein, s) for s in (v, v.scaled(2.0)))
    N1, N2 = (connection.ConnectionFrame(einstein, s, order=3).nonlinear()
              for s in (v, v.scaled(2.0)))
    assert np.abs(G2 - 4.0 * G1).max() <= 1e-10
    assert np.abs(N2 - 2.0 * N1).max() <= 1e-10


def test_product_sphere_christoffel_closed_form(einstein):
    v = dsl.TangentSample([0.0, np.pi / 4, 0.3], [1.0, 0.2, 1.1])
    gamma = connection.ConnectionFrame(einstein, v, order=3).christoffel()
    theta = np.pi / 4
    assert gamma[1, 2, 2] == pytest.approx(-np.sin(theta) * np.cos(theta), abs=1e-12)
    assert gamma[2, 1, 2] == pytest.approx(1.0 / np.tan(theta), abs=1e-12)
    assert gamma[2, 2, 1] == pytest.approx(1.0 / np.tan(theta), abs=1e-12)


def test_christoffel_matches_levi_civita_for_quadratic_metrics():
    m = dsl.builtin_metric("warped-quadratic")
    rng = np.random.default_rng(1)
    for v in dsl.sample_admissible(m, rng, count=25):
        gamma = connection.ConnectionFrame(m, v, order=3).christoffel()
        gamma_lc = levi_civita_oracle(warped_quadratic_matrix, v.x)
        assert np.abs(gamma - gamma_lc).max() <= 1e-8
        assert np.abs(tensors.cartan_tensor(m, v).array).max() <= 1e-13


def test_christoffel_torsion_symmetry_and_homogeneity():
    m = dsl.builtin_metric("bogoslovsky2-warped")
    rng = np.random.default_rng(2)
    for v in dsl.sample_admissible(m, rng, count=15):
        gamma = connection.ConnectionFrame(m, v, order=3).christoffel()
        assert np.abs(gamma - np.transpose(gamma, (0, 2, 1))).max() <= 1e-13
        for s in (0.5, 3.0):
            gs = connection.ConnectionFrame(m, v.scaled(s), order=3).christoffel()
            assert np.abs(gs - gamma).max() <= 1e-10


def compatibility_residual(m, rng, fd_step=1e-5):
    """Residual of the metric-derivation identity for a linear reference
    field and constant test fields, with outer derivatives by central
    differences."""
    v = margin_sample(m, rng, margin=0.4 if m.domain else 0.0)
    n = v.dim
    B = 0.2 * rng.standard_normal((n, n))
    X, Y, Z = (rng.uniform(-1, 1, n) for _ in range(3))

    def g_at(x):
        field = v.y + B @ (x - v.x)
        return tensors.fundamental_tensor(m, dsl.TangentSample(x, field)).matrix

    lhs = (Y @ g_at(v.x + fd_step * X) @ Z
           - Y @ g_at(v.x - fd_step * X) @ Z) / (2 * fd_step)
    frame = connection.ConnectionFrame(m, v, order=3)
    gamma = frame.christoffel()
    g0 = frame.g()
    nabla = lambda a, b: np.einsum("kij,i,j->k", gamma, a, b)
    nabla_XV = B @ X + nabla(X, v.y)
    C = tensors.cartan_tensor(m, v).array
    rhs = (nabla(X, Y) @ g0 @ Z + Y @ g0 @ nabla(X, Z)
           + 2.0 * np.einsum("ijk,i,j,k", C, nabla_XV, Y, Z))
    return abs(lhs - rhs)


@pytest.mark.parametrize("name", ["einstein-static", "bogoslovsky2-warped",
                                  "warped-quadratic"])
def test_metric_derivation_axiom(name):
    m = dsl.builtin_metric(name)
    rng = np.random.default_rng(3)
    worst = max(compatibility_residual(m, rng) for _ in range(25))
    assert worst <= 1e-6


# --------------------------------------------------------------------------
# curvature
# --------------------------------------------------------------------------

def test_flat_curvature_vanishes(minkowski3):
    v = dsl.TangentSample([0, 0, 0], [1.0, 0.2, 0.1])
    A = connection.ConnectionFrame(minkowski3, v).jacobi_matrix()
    assert np.abs(A @ np.array([0.0, 1.0, 0.0])).max() == 0.0
    assert np.abs(connection.chern_curvature(
        minkowski3, v, [1, 0, 0], [0, 1, 0], [0, 0, 1])).max() == 0.0


def test_unit_sphere_jacobi_operator(einstein):
    v = dsl.TangentSample([0.0, np.pi / 2, 0.0], [1.0, 0.0, 1.0])
    out = connection.ConnectionFrame(einstein, v).jacobi_matrix() @ np.array([0.0, 1.0, 0.0])
    assert np.allclose(out, [0.0, -1.0, 0.0], atol=1e-12)


def test_jacobi_operator_scaling(einstein):
    v = dsl.TangentSample([0.0, 1.1, 0.4], [1.0, 0.3, 0.8])
    w = np.array([0.2, -0.5, 0.4])
    out1, out2 = (connection.ConnectionFrame(einstein, s).jacobi_matrix() @ w
                  for s in (v, v.scaled(3.0)))
    assert np.abs(out2 - 9.0 * out1).max() <= 1e-9 * max(1.0, np.abs(out1).max())


def test_curvature_antisymmetry_in_the_plane_slots(scaled_einstein):
    rng = np.random.default_rng(4)
    for v in dsl.sample_admissible(scaled_einstein, rng, count=5):
        X, Y, Z = (rng.uniform(-1, 1, 3) for _ in range(3))
        a = connection.chern_curvature(scaled_einstein, v, X, Y, Z)
        b = connection.chern_curvature(scaled_einstein, v, Y, X, Z)
        assert np.abs(a + b).max() <= 1e-9 * max(1.0, np.abs(a).max())


def test_curvature_routes_agree_on_radial_slots(scaled_einstein):
    """The Christoffel-assembled tensor and the spray-based operator must
    agree when slotted with the base direction on both sides."""
    rng = np.random.default_rng(5)
    metrics = [scaled_einstein] + [dsl.builtin_metric(n) for n in
                                   ("einstein-static", "bogoslovsky2-warped",
                                    "warped-quadratic")]
    for m in metrics:
        for v in dsl.sample_admissible(m, rng, count=8):
            w = rng.uniform(-1, 1, m.dim)
            via_tensor = connection.chern_curvature(m, v, v.y, w, v.y)
            via_spray = connection.ConnectionFrame(m, v).jacobi_matrix() @ w
            assert np.abs(via_tensor - via_spray).max() <= 1e-7


def test_jacobi_operator_is_self_adjoint(scaled_einstein):
    rng = np.random.default_rng(6)
    for v in dsl.sample_admissible(scaled_einstein, rng, count=10):
        A = connection.ConnectionFrame(scaled_einstein, v).jacobi_matrix()
        g = tensors.fundamental_tensor(scaled_einstein, v).matrix
        u, w = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
        assert abs((A @ w) @ g @ u - (A @ u) @ g @ w) <= 1e-8


# --------------------------------------------------------------------------
# covariant derivative along curves
# --------------------------------------------------------------------------

def test_flat_covariant_derivative_is_plain_rate(minkowski3):
    curve = geodesics.integrate_geodesic(minkowski3, [0, 0, 0], [1, 0.5, 0], (0, 1), 1e-2)
    X = np.stack([np.sin(curve.grid), np.cos(curve.grid), curve.grid ** 2], axis=1)
    DX = variational.CurveGeometry(curve, minkowski3).cov(X)
    expected = np.stack([np.cos(curve.grid), -np.sin(curve.grid), 2 * curve.grid], axis=1)
    assert np.abs(DX - expected)[2:-2].max() <= 1e-6


def test_covariant_derivative_reference_scale_invariance(einstein):
    """Xdot + Gamma(U)(X, vel) with the symbols of `_frame_tables` referenced
    at U = vel and at U = 2 vel: the symbols are 0-homogeneous in U."""
    curve = geodesics.integrate_geodesic(
        einstein, [0, np.pi / 2, 0], [1, 0.1, 1.0], (0, 1), 5e-3)
    X = np.stack([np.sin(curve.grid), np.cos(curve.grid), curve.grid], axis=1)
    grid, pos, vel = curve.grid, curve.positions, curve.velocities
    a, b = (spline_derivative(grid, X) + np.einsum(
        "kaij,ki,kj->ka", connection._frame_tables(einstein, grid, pos, U)[3], X, vel)
        for U in (vel, 2.0 * vel))
    assert np.abs(a - b).max() <= 1e-10


def test_covariant_derivative_reparametrization_chain_rule(einstein):
    from scipy.interpolate import CubicHermiteSpline

    curve = geodesics.integrate_geodesic(
        einstein, [0, np.pi / 2, 0], [1, -0.0898785, 0.99], (0, 1), 2e-3)
    W = np.array([[np.sin(t), np.cos(2 * t), t ** 2] for t in curve.grid])
    DW = variational.CurveGeometry(curve, einstein).cov(W)
    DW_dense = CubicHermiteSpline(curve.grid, DW,
                                  np.gradient(DW, curve.grid, axis=0), axis=0)
    mus = np.arange(0.0, 1.0 + 1e-12, 2e-3)
    phi = 0.3 * mus ** 2 + 0.6 * mus
    phid = 0.6 * mus + 0.6
    pos = curve.position(phi)
    vel = phid[:, None] * curve.velocity(phi)
    acc = 0.6 * curve.velocity(phi) + (phid ** 2)[:, None] * curve.acceleration(phi)
    reparam = finslab.DiscreteCurve(mus, pos, vel, acc)
    W_mu = np.array([[np.sin(t), np.cos(2 * t), t ** 2] for t in phi])
    DW_mu = variational.CurveGeometry(reparam, einstein).cov(W_mu)
    expected = phid[:, None] * DW_dense(phi)
    assert np.abs(DW_mu - expected)[3:-3].max() <= 1e-6


def test_two_parameter_mixed_derivatives_agree(einstein):
    """Torsion freeness in variation form: the two mixed covariant
    derivatives of a synthetic two-parameter map coincide."""
    def surface(t, s):
        return np.array([t + 0.2 * s, np.pi / 2 + 0.3 * s * t, t - 0.1 * s ** 2])

    fd = 1e-5
    worst = 0.0
    for t in np.linspace(0.1, 0.9, 5):
        for s in (-0.2, 0.0, 0.2):
            dt = (surface(t + fd, s) - surface(t - fd, s)) / (2 * fd)
            ds = (surface(t, s + fd) - surface(t, s - fd)) / (2 * fd)
            dts = (surface(t + fd, s + fd) - surface(t + fd, s - fd)
                   - surface(t - fd, s + fd) + surface(t - fd, s - fd)) / (4 * fd ** 2)
            v = dsl.TangentSample(surface(t, s), dt)
            gamma = connection.ConnectionFrame(einstein, v, order=3).christoffel()
            lhs = dts + np.einsum("kij,i,j->k", gamma, ds, dt)
            rhs = dts + np.einsum("kij,i,j->k", gamma, dt, ds)
            worst = max(worst, np.abs(lhs - rhs).max())
    assert worst <= 1e-6


# --------------------------------------------------------------------------
# anisotropic scalar derivatives
# --------------------------------------------------------------------------

def _geometry_at(samples, m, f):
    """A `CurveGeometry` of m and the scalar f whose nodes are the samples:
    row k of its g, grad_h = g^{-1}(d_x f - N^T d_y f) and grad_v = g^{-1}
    d_y f is taken at sample k, so the horizontal derivative of f along X_k
    there is `geom.pair(geom.grad_h, X)[k]`."""
    x = np.array([v.x for v in samples])
    y = np.array([v.y for v in samples])
    curve = finslab.DiscreteCurve(np.arange(len(samples), dtype=float), x, y, np.zeros_like(y))
    return variational.CurveGeometry(curve, m, f)


def test_horizontal_derivative_of_x_independent_scalar_over_flat(minkowski3, theta_weight):
    v = dsl.TangentSample([0.2, -0.3, 0.1], [1.0, 0.4, 0.3])
    geom = _geometry_at([v, v.scaled(2.0)], minkowski3, theta_weight)
    assert np.abs(geom.pair(geom.grad_h, np.ones((2, 3)))).max() <= 1e-14


def test_metric_scalar_is_horizontally_constant(einstein):
    rng = np.random.default_rng(7)
    samples = dsl.sample_admissible(einstein, rng, count=20)
    X = rng.uniform(-1, 1, (20, 3))
    geom = _geometry_at(samples, einstein, einstein)
    assert np.abs(geom.pair(geom.grad_h, X)).max() <= 1e-9
    assert np.abs(geom.grad_h).max() <= 1e-8


def test_vertical_gradient_of_metric_is_twice_the_base_vector(einstein):
    rng = np.random.default_rng(8)
    samples = dsl.sample_admissible(einstein, rng, count=20)
    for v, grad in zip(samples, _geometry_at(samples, einstein, einstein).grad_v):
        assert np.abs(grad - 2.0 * v.y).max() <= 1e-10 * max(1.0, np.abs(v.y).max())


def test_vertical_gradient_of_degree_zero_scalar_is_orthogonal(einstein, theta_weight):
    rng = np.random.default_rng(9)
    samples = dsl.sample_admissible(einstein, rng, count=20)
    for v, grad in zip(samples, _geometry_at(samples, einstein, theta_weight).grad_v):
        g = tensors.fundamental_tensor(einstein, v).matrix
        assert abs(v.y @ g @ grad) <= 1e-10


def test_horizontal_derivative_is_extension_independent(einstein, theta_weight):
    """Two different admissible linear extensions give the same value."""
    rng = np.random.default_rng(10)
    fd = 1e-5
    for v in dsl.sample_admissible(einstein, rng, count=8):
        X = rng.uniform(-1, 1, 3)
        geom = _geometry_at([v, v.scaled(2.0)], einstein, theta_weight)
        direct = geom.pair(geom.grad_h, np.array([X, X]))[0]
        gamma = connection.ConnectionFrame(einstein, v, order=3).christoffel()
        jet = theta_weight.jet(v, 2)
        dy = np.array([jet.derivative(tuple(1 if q == 3 + i else 0 for q in range(6)))
                       for i in range(3)])
        values = []
        for _ in range(2):
            B = 0.3 * rng.standard_normal((3, 3))
            plus = theta_weight.value(v.x + fd * X, v.y + fd * (B @ X))
            minus = theta_weight.value(v.x - fd * X, v.y - fd * (B @ X))
            nabla_XV = B @ X + np.einsum("kij,i,j->k", gamma, X, v.y)
            values.append((plus - minus) / (2 * fd) - float(dy @ nabla_XV))
        assert abs(values[0] - values[1]) <= 1e-6
        assert abs(direct - values[0]) <= 1e-6


def test_christoffel_contraction_along_the_reference_is_twice_the_spray(
        einstein, scaled_einstein):
    """Gamma(y)(y, y) = 2G(x, y) for the Chern connection (Bao, Chern & Shen,
    GTM 200): the frame-free geodesic residuals rest on this identity."""
    metrics = [dsl.builtin_metric("warped-quadratic"),
               dsl.builtin_metric("bogoslovsky2-warped"), einstein, scaled_einstein]
    rng = np.random.default_rng(21)
    for m in metrics:
        for v in dsl.sample_admissible(m, rng, count=20):
            gamma = connection.ConnectionFrame(m, v, order=3).christoffel()
            lhs = np.einsum("kij,i,j->k", gamma, v.y, v.y)
            rhs = 2.0 * connection.spray_coefficients(m, v)
            assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(rhs), m.name


# --------------------------------------------------------------------------
# the array-valued frame against the list-of-Jet reference
# --------------------------------------------------------------------------

def _coefficients(table):
    return np.array([[jet.c for jet in row] for row in table])


@pytest.mark.parametrize("name", ["einstein-static", "warped-quadratic",
                                  "bogoslovsky2-warped", "minkowski3",
                                  "theta-weight*einstein-static"])
def test_array_frame_matches_the_jet_list_reference(name, scaled_einstein):
    """g, g^{-1}, G and N as jets and Gamma and the Jacobi operator as values
    agree with Gauss-Jordan over the jet ring and single-Jet loops."""
    m = scaled_einstein if name == scaled_einstein.name else dsl.builtin_metric(name)
    rng = np.random.default_rng(22)
    for v in dsl.sample_admissible(m, rng, count=20):
        frame = connection.ConnectionFrame(m, v, order=4)
        ref = ReferenceFrame(m, v, order=4)
        pairs = {
            "g": (frame.g_jets(), _coefficients(ref.g)),
            "ginv": (frame.ginv_jets(), _coefficients(ref.ginv)),
            "spray": (frame.spray_jets(), np.array([jet.c for jet in ref.G])),
            "nonlinear": (frame.nonlinear_jets(), _coefficients(ref.N)),
            "christoffel": (frame.christoffel(), ref.christoffel()),
            "jacobi": (frame.jacobi_matrix(), ref.jacobi_matrix()),
        }
        for what, (got, want) in pairs.items():
            assert got.shape == want.shape, what
            bound = 1e-10 * np.maximum(1.0, np.abs(want))
            assert np.all(np.abs(got - want) <= bound), (what, v)


@pytest.mark.parametrize("order", [3, 4])
def test_neumann_inverse_is_exact_at_truncation_order(order, scaled_einstein):
    """The jet product g g^{-1} is the identity jet up to round-off."""
    rng = np.random.default_rng(23)
    for m in (scaled_einstein, dsl.builtin_metric("bogoslovsky2-warped")):
        for v in dsl.sample_admissible(m, rng, count=10):
            frame = connection.ConnectionFrame(m, v, order=order)
            g, ginv = frame.g_jets(), frame.ginv_jets()
            space = jets.jet_space(2 * v.dim, order - 2)
            product = space.mul(g[:, :, None], ginv[None]).sum(axis=1)
            identity = np.zeros_like(product)
            identity[..., 0] = np.eye(v.dim)
            scale = np.abs(g).max() * np.abs(ginv).max()
            assert np.abs(product - identity).max() <= 1e-13 * scale


@pytest.mark.parametrize("order", [3, 4])
def test_the_spray_solve_is_exact_at_truncation_order(order, scaled_einstein):
    """The jet product g (4 G) is the right-hand side A y - b as jets, with
    A = d2L/dy dx, b = dL/dx and y the fiber variables, up to round-off."""
    rng = np.random.default_rng(23)
    for m in (scaled_einstein, dsl.builtin_metric("bogoslovsky2-warped")):
        for v in dsl.sample_admissible(m, rng, count=10):
            n = v.dim
            frame = connection.ConnectionFrame(m, v, order=order)
            g, z = frame.g_jets(), 4.0 * frame.spray_jets()
            space = jets.jet_space(2 * n, order - 2)
            L = m.jet(v, order)
            y = [jets.Jet.variable(space, n + k, v.y[k]) for k in range(n)]
            rhs = np.array([(sum(L.diff(n + l).diff(k) * y[k] for k in range(n))
                             - L.diff(l)).truncated(order - 2).c for l in range(n)])
            product = space.mul(g, z[None]).sum(axis=1)
            scale = np.abs(g).max() * np.abs(z).max()
            assert np.abs(product - rhs).max() <= 1e-13 * scale


@pytest.mark.parametrize("order", [3, 4])
@pytest.mark.parametrize("batched", [False, True], ids=["sample", "batch"])
def test_a_frame_takes_its_jet_and_solves_for_the_spray_on_construction(
        order, batched, einstein, monkeypatch):
    """Building a frame takes one metric jet and runs one jet solve, for G;
    reading g, g^{-1}, G, N, Gamma and the Jacobi operator afterwards takes
    no further jet and runs no further solve."""
    samples = dsl.sample_admissible(einstein, np.random.default_rng(5), count=3)
    v = (dsl.SampleBatch(np.array([s.x for s in samples]), np.array([s.y for s in samples]))
         if batched else samples[0])
    calls = collections.Counter()
    plain_jet, plain_solve = dsl.MetricDefinition.jet, connection.ConnectionFrame._solve
    monkeypatch.setattr(dsl.MetricDefinition, "jet", lambda self, *args: calls.update(
        ["jet"]) or plain_jet(self, *args))
    monkeypatch.setattr(connection.ConnectionFrame, "_solve", lambda self, *args: calls.update(
        ["solve"]) or plain_solve(self, *args))
    frame = connection.ConnectionFrame(einstein, v, order=order)
    assert calls == {"jet": 1, "solve": 1}
    frame.g(), frame.ginv(), frame.spray_jets(), frame.nonlinear(), frame.christoffel()
    if order == 4:
        frame.jacobi_matrix()
    assert calls == {"jet": 1, "solve": 1}


def test_curve_tables_take_no_jet_inverse(monkeypatch, scaled_einstein):
    """Along a curve g^{-1} is read at value level only: `_frame_tables`
    builds the same tables when the jets of g^{-1} cannot be taken."""
    def refused(self):
        raise AssertionError("the jets of g^{-1} were taken along a curve")

    rng = np.random.default_rng(24)
    samples = dsl.sample_admissible(scaled_einstein, rng, count=connection.CHUNK + 1)
    x = np.array([v.x for v in samples])
    y = np.array([v.y for v in samples])
    times = np.arange(len(x), dtype=float)
    want = connection._frame_tables(scaled_einstein, times, x, y)
    monkeypatch.setattr(connection.ConnectionFrame, "ginv_jets", refused)
    got = connection._frame_tables(scaled_einstein, times, x, y)
    for table, value in zip(got, want):
        assert np.array_equal(table, value)


# --------------------------------------------------------------------------
# sample-batched frames and tables
# --------------------------------------------------------------------------

def _metrics_with_frames():
    """Every builtin metric, and every factor * metric product that
    `scale_metric` forms from the builtins."""
    builtins = [dsl.builtin_metric(name) for name in dsl.builtin_names()]
    metrics = [m for m in builtins if m.degree == 2]
    return metrics + [finslab.scale_metric(m, lam, sample_budget=1)
                      for lam in builtins if lam.degree == 0
                      for m in metrics if m.dim == lam.dim]


# The quantities compared row by row, per frame order: every quantity of an
# order-4 frame, and what the Jacobi stage table reads from order-3 frames.
FRAME_QUANTITIES = {
    4: ("g_jets", "ginv_jets", "spray_jets", "nonlinear_jets", "christoffel",
        "christoffel_jets", "jacobi_matrix", "curvature_components"),
    3: ("spray_gradient", "g", "christoffel"),
}
TABLE_QUANTITIES = {4: ("g", "ginv", "nonlinear", "christoffel", "jacobi_matrix"),
                    3: FRAME_QUANTITIES[3]}


@pytest.mark.parametrize("order", [3, 4])
@pytest.mark.parametrize("m", _metrics_with_frames(), ids=lambda m: m.name)
def test_a_batched_frame_and_table_equal_single_sample_frames(m, order):
    """Row k of a frame over a `SampleBatch`, and of `_frame_tables`, equals
    the frame of sample k alone, to the bit, for one sample, a full chunk of
    frames of this order and a chunk plus one (two chunks)."""
    rng = np.random.default_rng(len(m.name))
    chunk = connection._per_frame(m.dim, order)
    for count in (1, chunk, chunk + 1):
        samples = dsl.sample_admissible(m, rng, count=count)
        X = np.array([v.x for v in samples])
        Y = np.array([v.y for v in samples])
        singles = [connection.ConnectionFrame(m, v, order=order) for v in samples]
        batch = connection.ConnectionFrame(m, dsl.SampleBatch(X, Y), order=order)
        for name in FRAME_QUANTITIES[order]:
            rows = getattr(batch, name)()
            assert len(rows) == count
            for row, single in zip(rows, singles):
                assert np.array_equal(row, getattr(single, name)()), name
        names = TABLE_QUANTITIES[order]
        tables = connection._frame_tables(
            m, np.arange(count, dtype=float), X, Y, order=order,
            read=lambda frame: [getattr(frame, name)() for name in names])
        assert len(tables) == len(names)
        for k, single in enumerate(singles):
            for table, name in zip(tables, names):
                assert np.array_equal(table[k], getattr(single, name)()), name
        # the spray kernel along a curve, in the walk over its nodes
        sprays = [connection.spray_coefficients(m, v) for v in samples]
        _, along = dsl._along(X, Y, np.arange(count, dtype=float),
                              (m, "inside"), (m, connection._spray_kernel(m.dim)))
        for k, spray in enumerate(sprays):
            assert np.array_equal(along[k], spray)


def _inverse_spray(m, v):
    """The spray by the explicit inverse, G = (1/4) g^{-1} (A y - b)."""
    n = v.dim
    jet = m.jet(v, 2)
    hess = jet.partials(2)
    g = 0.5 * hess[n:, n:]
    return 0.25 * (tensors.inverse_metric(g) @ (hess[n:, :n] @ v.y - jet.partials(1)[:n]))


@pytest.mark.parametrize("m", _metrics_with_frames(), ids=lambda m: m.name)
def test_the_spray_kernel_agrees_with_the_inverse_metric_formula(m):
    """The kernel solves g z = A y - b directly; the explicit inverse gives
    the same spray up to round-off."""
    rng = np.random.default_rng(7 + len(m.name))
    for v in dsl.sample_admissible(m, rng, count=20):
        want = _inverse_spray(m, v)
        got = connection.spray_coefficients(m, v)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want), m.name


def test_spray_coefficients_checks_the_domain(einstein):
    """Outside the domain (sin(x1) < 0) the spray raises the
    InadmissibleSample that the fundamental tensor and a frame raise."""
    v = dsl.TangentSample([0.0, -0.5, 0.0], [1.0, 0.2, 0.3])
    errors = []
    for fn in (connection.spray_coefficients, tensors.fundamental_tensor,
               connection.ConnectionFrame):
        with pytest.raises(finslab.InadmissibleSample) as caught:
            fn(einstein, v)
        errors.append(str(caught.value))
    assert errors == [f"sample {v!r} is outside the domain of 'einstein-static'"] * 3


def _spray_outcome(fn):
    try:
        return fn()
    except (EvaluationDomainError, SingularMetric) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("m", _metrics_with_frames(), ids=lambda m: m.name)
def test_the_written_spray_equals_the_loop_spray(m):
    """The straight-line spray of `_spray_kernel` gives the loop spray of
    tests/solve_reference.py to the bit at sampled jets, and at jets with
    planted entries: a zero or a huge g, a singular g, a non-finite g."""
    rng = np.random.default_rng(11 + len(m.name))
    fiber = connection._spray_slots(m.dim)[2]
    g_slots = [i for i, _ in fiber]
    kinds = set()
    for v in dsl.sample_admissible(m, rng, count=20):
        c, y = m.jet(v, 2).c.tolist(), v.y.tolist()
        cases = [c]
        for planted in (0.0, 1e300, np.nan, np.inf):
            bad = list(c)
            bad[g_slots[rng.integers(len(g_slots))]] = planted
            cases.append(bad)
        flat = list(c)
        for i in g_slots:
            flat[i] = 0.0
        singular = list(c)      # every entry of g is 1
        for i, factor in fiber:
            singular[i] = 2.0 / factor
        cases += [flat, singular]
        for case in cases:
            want = _spray_outcome(lambda: solve_reference.spray(case, y))
            got = _spray_outcome(lambda: connection._spray(case, y))
            assert repr(got) == repr(want)
            kinds.add(want[0] if isinstance(want, tuple) else list)
    assert kinds == {list, EvaluationDomainError, SingularMetric}


def test_one_written_spray_and_solver_per_dimension(monkeypatch):
    """Sprays and degeneracy tests at many samples and stacks write one
    spray kernel per dimension and one solver per dimension."""
    written = []
    for module, name in ((connection, "_spray_source"), (tensors, "_solver_source")):
        plain = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, plain=plain, name=name:
                            written.append((name, *args)) or plain(*args))
    connection._spray_kernel.cache_clear()
    tensors._solver.cache_clear()
    try:
        rng = np.random.default_rng(3)
        for name in ("einstein-static", "minkowski2", "warped-quadratic", "bogoslovsky2"):
            m = dsl.builtin_metric(name)
            samples = dsl.sample_admissible(m, rng, count=5)
            for v in samples:
                connection.spray_coefficients(m, v)
                tensors.inverse_metric(tensors.fundamental_tensor(m, v))
            dsl._along(np.array([v.x for v in samples]), np.array([v.y for v in samples]),
                       np.arange(5.0), (m, "inside"), (m, connection._spray_kernel(m.dim)))
        assert sorted(written) == [("_solver_source", 2), ("_solver_source", 3),
                                   ("_spray_source", 2), ("_spray_source", 3)]
    finally:
        connection._spray_kernel.cache_clear()
        tensors._solver.cache_clear()


# A metric whose frame fails in four ways, chosen by the sample: x0 = 0 makes
# g singular, x0 >= 5 leaves the domain, x1 = 1 overflows the jet to inf,
# and x1 = -5 takes the log of a negative number inside the tape.
EDGE_METRIC = dsl.parse_metric(
    "-y0^2 + x0^2 * exp(400*x1) * exp(400*x1) * log(4 + x1) * y1^2", 2,
    domain=("5 - x0",), name="edges")
FAILURES = {"singular": (0.0, 0.0), "outside": (6.0, 0.0),
            "not finite": (1.0, 1.0), "log": (1.0, -5.0)}


def _frame_at(m, v):
    frame = connection.ConnectionFrame(m, v, order=4)
    frame.christoffel(), frame.jacobi_matrix()


def _spray_at(m, v):
    connection.spray_coefficients(m, v)


def _defects_along(m, times, X, Y):
    curve = finslab.DiscreteCurve(times, X, Y, np.zeros_like(Y))
    geodesics._pregeodesic_defects(curve, m, None, np.arange(len(times)))


def _loop_error(m, times, X, Y, evaluate):
    """The error of evaluate(m, sample) in a loop over samples in curve
    order, with an inadmissible sample named by its curve time."""
    for t, x, y in zip(times, X, Y):
        try:
            evaluate(m, dsl.TangentSample(x, y))
        except finslab.InadmissibleSample:
            return finslab.InadmissibleSample, (
                f"curve leaves the domain of {m.name!r} at t={t!r}")
        except finslab.FinslabError as exc:
            return type(exc), str(exc)
    return None


PLANTED = pytest.mark.parametrize("first,later", [
    (a, b) for a in sorted(FAILURES) for b in sorted(FAILURES) if a != b])
PLACES = pytest.mark.parametrize("at", ["mid-chunk", "chunk-end", "chunk-start"])


@PLANTED
@PLACES
def test_the_first_failing_sample_in_curve_order_decides_the_error(first, later, at):
    """One failure in the middle of a chunk, at its last sample or at its
    first, and another kind right after it (in the same chunk, or at the
    start of the next): the table raises what a loop over samples raises,
    the earlier sample's error."""
    _check_first_failure(first, later, at, connection._frame_tables, _frame_at)


@PLANTED
@PLACES
def test_the_first_failing_node_decides_the_pregeodesic_defect_error(first, later, at):
    """The same planted failures along a curve: the pregeodesic defects,
    whose spray kernel runs node by node, raise what the loop of one
    `spray_coefficients` per node raises, an inadmissible node with its
    curve time."""
    _check_first_failure(first, later, at, _defects_along, _spray_at)


def _check_first_failure(first, later, at, along, evaluate):
    chunk = connection.CHUNK
    k = {"mid-chunk": chunk + chunk // 2, "chunk-end": chunk - 1,
         "chunk-start": chunk}[at]
    s = 3 * chunk
    times = 0.25 * np.arange(s)
    X = np.column_stack([1.0 + 0.01 * np.arange(s), np.zeros(s)])
    Y = np.tile([1.0, 0.5], (s, 1))
    X[k], X[k + 1] = FAILURES[first], FAILURES[later]
    with np.errstate(over="ignore", invalid="ignore"):
        error, message = _loop_error(EDGE_METRIC, times, X, Y, evaluate)
        with pytest.raises(error) as caught:
            along(EDGE_METRIC, times, X, Y)
    assert str(caught.value) == message
    assert isinstance(caught.value, {
        "singular": finslab.SingularMetric, "outside": finslab.InadmissibleSample,
        "not finite": finslab.EvaluationDomainError,
        "log": finslab.EvaluationDomainError}[first])
    if first == "outside":
        assert message.endswith(f"t={times[k]!r}")


@pytest.mark.parametrize("n,order,per_frame", [(2, 3, 32), (2, 4, 16), (3, 3, 40),
                                               (3, 4, 16)])
@pytest.mark.parametrize("count", [1, 15, 16, 17, 32, 33, 40, 41, 97, 149])
def test_a_curve_splits_into_chunks_of_near_equal_size(count, n, order, per_frame):
    """ceil(count / k) chunks of at most k samples, the most whose jets of
    this order hold no more coefficients than `CHUNK` order-4 jets, with
    sizes that differ by at most one, so no curve ends in a one-sample chunk
    after full ones."""
    assert connection._per_frame(n, order) == per_frame
    chunks = connection._chunks(count, per_frame)
    sizes = [c.stop - c.start for c in chunks]
    assert len(chunks) == -(-count // per_frame)
    assert sum(sizes) == count and chunks[0].start == 0 and chunks[-1].stop == count
    assert all(a.stop == b.start for a, b in zip(chunks, chunks[1:]))
    assert max(sizes) - min(sizes) <= 1
    budget = connection.CHUNK * jets.jet_space(2 * n, 4).size
    assert max(sizes) * jets.jet_space(2 * n, order).size <= budget


@pytest.mark.parametrize("n", range(1, dsl.MAX_DIM + 1))
def test_order_4_frames_take_chunk_samples_at_every_dimension(n):
    """An order-4 frame takes `CHUNK` = 16 samples at every n up to
    `MAX_DIM`, and an order-3 frame no fewer."""
    assert connection.CHUNK == 16
    assert connection._per_frame(n, 4) == 16
    assert connection._per_frame(n, 3) >= 16


def test_a_frame_checks_its_batch_in_one_row_wise_run(einstein, monkeypatch):
    """A chunk's domain check is one batched admissibility run; an
    inadmissible row raises the error that names it, as a sample alone does."""
    checked = []
    plain = dsl.MetricDefinition.admissible

    def admissible(self, sample):
        checked.append(len(sample) if isinstance(sample, dsl.SampleBatch) else 1)
        return plain(self, sample)

    monkeypatch.setattr(dsl.MetricDefinition, "admissible", admissible)
    x = np.array([[0.0, 1.0, 0.0], [0.0, 1.2, 0.0], [0.0, 0.0, 0.0], [0.0, 3.5, 0.0]])
    y = np.tile([1.0, 0.3, 0.2], (4, 1))
    connection.ConnectionFrame(einstein, dsl.SampleBatch(x[:2], y[:2]), order=3)
    assert checked == [2]
    with pytest.raises(finslab.InadmissibleSample) as batched:
        tensors._require_admissible(einstein, dsl.SampleBatch(x, y))
    with pytest.raises(finslab.InadmissibleSample) as alone:
        tensors._require_admissible(einstein, dsl.TangentSample(x[2], y[2]))
    assert str(batched.value) == str(alone.value)


def test_a_seventeen_sample_curve_is_tabulated_in_two_chunks(einstein, monkeypatch):
    sizes = []
    plain = connection.ConnectionFrame.__init__

    def init(self, m, v, order=4):
        sizes.append(len(v))
        plain(self, m, v, order)

    monkeypatch.setattr(connection.ConnectionFrame, "__init__", init)
    rng = np.random.default_rng(4)
    samples = dsl.sample_admissible(einstein, rng, count=17)
    X = np.array([v.x for v in samples])
    Y = np.array([v.y for v in samples])
    connection._frame_tables(einstein, np.arange(17.0), X, Y)
    assert sizes == [8, 9]


# sha256 of g, g^-1, N, Gamma and A from `_frame_tables`, of a batch frame's
# curvature components and of `chern_curvature` at one sample: the reference
# bits, which a change of gather layout or contraction order moves.
# Recorded with numpy 2.4.6 (Python 3.11.7) on an x86-64 Xeon with AVX2 and
# AVX-512. The bits also depend on numpy's einsum/BLAS kernel choice and the
# CPU's SIMD features, so after a numpy upgrade or on another CPU, re-record
# them from an unchanged checkout before judging a change by them.
FRAME_DIGESTS = {
    ("theta-weight", "einstein-static", 20): (
        "6b9d45bf6ee3ea1d69ba498f50c16ec529008829579ff9bb7af17c8acd20191c",
        "a86830f7edd743034445a763edd14525d7df456c8181d4a06724f33c7e3c46be",
        "b747458b4d457df0d10469a1a35d750ed8a05c4186497054f63fce7488a8da6b",
        "3411c6ff3d218d1765df934e3f5c2fa6de1d8ba2c17a9874cfbbd22d0581812d",
        "ee2bf6020ecf4859eff507227f0d0097fae6226f050b66f43358ff684947076b",
        "302dcf5f24a3808a83022a27df5c11e8296110849ebb57586c19fcfe7e8abdcb",
        "5713519b046173e6682711bd4f1fd09f7d7de3d6785df5aa8e91570bfd2580d1"),
    (None, "warped-quadratic", 21): (
        "e412586c477e3a35d6aaac166f224d40eba6957088349f008ea7cea202d475c8",
        "0ac70095412e862bb40f04ffc5d4311be27865199cfe9d2d6dd004dceea154e4",
        "672d898e05df0cb26313b2054d70c39c7e78c5ee354e09b6da3825bb2dd5ea84",
        "a06cfb46832dc5f1cd93cfec2f27f57e8a65194a655510ea174665f0aef1795b",
        "0e6d34ea83620cc05223530b5e4a4af5b7756ebf876e217e6b31e7dcdbaa43a6",
        "d09be831ba410f4045c95267baec0ee7f2fb3cecef8f2a72100504447025c4c6",
        "5e4f15e5111a0ff1ec7f6435b23e1dd56b7ca02df3cb2be85ba18068d5eab084"),
}


@pytest.mark.parametrize("key", FRAME_DIGESTS, ids=lambda k: k[1])
def test_frame_arrays_keep_their_bits(key):
    """A change in how a frame gathers or contracts its jets can move Gamma
    and the curvature in the last bit while every tolerance still holds;
    the digests of 17 seeded samples (two chunks) pin them exactly."""
    factor, name, seed = key
    m = dsl.builtin_metric(name)
    if factor is not None:
        m = conformal.scale_metric(m, dsl.builtin_metric(factor), sample_budget=1)
    rng = np.random.default_rng(seed)
    samples = dsl.sample_admissible(m, rng, count=connection.CHUNK + 1)
    x = np.array([v.x for v in samples])
    y = np.array([v.y for v in samples])
    tables = connection._frame_tables(m, np.arange(len(x), dtype=float), x, y)
    curvature = connection.ConnectionFrame(
        m, dsl.SampleBatch(x, y), order=4).curvature_components()
    X, Y, Z = rng.standard_normal((3, m.dim))
    chern = connection.chern_curvature(m, samples[0], X, Y, Z)
    digests = tuple(hashlib.sha256(a.tobytes()).hexdigest()
                    for a in (*tables, curvature, chern))
    assert digests == FRAME_DIGESTS[key]
