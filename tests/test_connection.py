"""Spray, Christoffel symbols, curvature operators, covariant derivatives and
anisotropic gradients, checked against closed forms and the defining axioms."""

import hashlib

import numpy as np
import pytest

import finslab
from finslab import conformal, connection, dsl, geodesics, jets, tensors
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
    sp = connection.spray(minkowski3, v)
    assert np.abs(sp.G).max() == 0.0
    assert np.abs(sp.N).max() == 0.0
    assert np.abs(connection.christoffel(minkowski3, v).gamma).max() == 0.0


def test_spray_reduces_to_levi_civita_for_quadratic_metrics():
    m = dsl.builtin_metric("warped-quadratic")
    rng = np.random.default_rng(0)
    for v in dsl.sample_admissible(m, rng, count=10):
        G = connection.spray(m, v).G
        gamma_lc = levi_civita_oracle(warped_quadratic_matrix, v.x)
        expected = 0.5 * np.einsum("kij,i,j->k", gamma_lc, v.y, v.y)
        assert np.abs(G - expected).max() <= 1e-8


def test_spray_homogeneity(einstein):
    v = dsl.TangentSample([0.0, np.pi / 4, 0.3], [1.0, 0.2, 1.1])
    sp1 = connection.spray(einstein, v)
    sp2 = connection.spray(einstein, v.scaled(2.0))
    assert np.abs(sp2.G - 4.0 * sp1.G).max() <= 1e-10
    assert np.abs(sp2.N - 2.0 * sp1.N).max() <= 1e-10


def test_product_sphere_christoffel_closed_form(einstein):
    v = dsl.TangentSample([0.0, np.pi / 4, 0.3], [1.0, 0.2, 1.1])
    gamma = connection.christoffel(einstein, v).gamma
    theta = np.pi / 4
    assert gamma[1, 2, 2] == pytest.approx(-np.sin(theta) * np.cos(theta), abs=1e-12)
    assert gamma[2, 1, 2] == pytest.approx(1.0 / np.tan(theta), abs=1e-12)
    assert gamma[2, 2, 1] == pytest.approx(1.0 / np.tan(theta), abs=1e-12)


def test_christoffel_matches_levi_civita_for_quadratic_metrics():
    m = dsl.builtin_metric("warped-quadratic")
    rng = np.random.default_rng(1)
    for v in dsl.sample_admissible(m, rng, count=25):
        gamma = connection.christoffel(m, v).gamma
        gamma_lc = levi_civita_oracle(warped_quadratic_matrix, v.x)
        assert np.abs(gamma - gamma_lc).max() <= 1e-8
        assert np.abs(tensors.cartan_tensor(m, v).array).max() <= 1e-13


def test_christoffel_torsion_symmetry_and_homogeneity():
    m = dsl.builtin_metric("bogoslovsky2-warped")
    rng = np.random.default_rng(2)
    for v in dsl.sample_admissible(m, rng, count=15):
        gamma = connection.christoffel(m, v).gamma
        assert np.abs(gamma - np.transpose(gamma, (0, 2, 1))).max() <= 1e-13
        for s in (0.5, 3.0):
            gs = connection.christoffel(m, v.scaled(s)).gamma
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
    assert np.abs(connection.jacobi_operator(minkowski3, v, [0, 1, 0])).max() == 0.0
    assert np.abs(connection.chern_curvature(
        minkowski3, v, [1, 0, 0], [0, 1, 0], [0, 0, 1])).max() == 0.0


def test_unit_sphere_jacobi_operator(einstein):
    v = dsl.TangentSample([0.0, np.pi / 2, 0.0], [1.0, 0.0, 1.0])
    out = connection.jacobi_operator(einstein, v, [0.0, 1.0, 0.0])
    assert np.allclose(out, [0.0, -1.0, 0.0], atol=1e-12)


def test_jacobi_operator_scaling(einstein):
    v = dsl.TangentSample([0.0, 1.1, 0.4], [1.0, 0.3, 0.8])
    w = np.array([0.2, -0.5, 0.4])
    out1 = connection.jacobi_operator(einstein, v, w)
    out2 = connection.jacobi_operator(einstein, v.scaled(3.0), w)
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
            via_spray = connection.jacobi_operator(m, v, w)
            assert np.abs(via_tensor - via_spray).max() <= 1e-7


def test_jacobi_operator_is_self_adjoint(scaled_einstein):
    rng = np.random.default_rng(6)
    for v in dsl.sample_admissible(scaled_einstein, rng, count=10):
        A = connection.jacobi_matrix(scaled_einstein, v)
        g = tensors.fundamental_tensor(scaled_einstein, v).matrix
        u, w = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
        assert abs((A @ w) @ g @ u - (A @ u) @ g @ w) <= 1e-8


# --------------------------------------------------------------------------
# covariant derivative along curves
# --------------------------------------------------------------------------

def test_flat_covariant_derivative_is_plain_rate(minkowski3):
    curve = geodesics.integrate_geodesic(minkowski3, [0, 0, 0], [1, 0.5, 0], (0, 1), 1e-2)
    X = np.stack([np.sin(curve.grid), np.cos(curve.grid), curve.grid ** 2], axis=1)
    DX = connection.covariant_derivative_along(curve, None, X, minkowski3)
    expected = np.stack([np.cos(curve.grid), -np.sin(curve.grid), 2 * curve.grid], axis=1)
    assert np.abs(DX - expected)[2:-2].max() <= 1e-6


def test_covariant_derivative_reference_scale_invariance(einstein):
    curve = geodesics.integrate_geodesic(
        einstein, [0, np.pi / 2, 0], [1, 0.1, 1.0], (0, 1), 5e-3)
    X = np.stack([np.sin(curve.grid), np.cos(curve.grid), curve.grid], axis=1)
    a = connection.covariant_derivative_along(curve, curve.velocities, X, einstein)
    b = connection.covariant_derivative_along(curve, 2.0 * curve.velocities, X, einstein)
    assert np.abs(a - b).max() <= 1e-10


def test_covariant_derivative_reparametrization_chain_rule(einstein):
    from scipy.interpolate import CubicHermiteSpline

    curve = geodesics.integrate_geodesic(
        einstein, [0, np.pi / 2, 0], [1, -0.0898785, 0.99], (0, 1), 2e-3)
    W = np.array([[np.sin(t), np.cos(2 * t), t ** 2] for t in curve.grid])
    DW = connection.covariant_derivative_along(curve, None, W, einstein)
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
    DW_mu = connection.covariant_derivative_along(reparam, None, W_mu, einstein)
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
            gamma = connection.christoffel(einstein, v).gamma
            lhs = dts + np.einsum("kij,i,j->k", gamma, ds, dt)
            rhs = dts + np.einsum("kij,i,j->k", gamma, dt, ds)
            worst = max(worst, np.abs(lhs - rhs).max())
    assert worst <= 1e-6


# --------------------------------------------------------------------------
# anisotropic scalar derivatives
# --------------------------------------------------------------------------

def test_horizontal_derivative_of_x_independent_scalar_over_flat(minkowski3, theta_weight):
    v = dsl.TangentSample([0.2, -0.3, 0.1], [1.0, 0.4, 0.3])
    lam3 = theta_weight
    assert abs(connection.horizontal_derivative(lam3, [1, 1, 1], v, minkowski3)) <= 1e-14


def test_metric_scalar_is_horizontally_constant(einstein):
    rng = np.random.default_rng(7)
    for v in dsl.sample_admissible(einstein, rng, count=20):
        X = rng.uniform(-1, 1, 3)
        assert abs(connection.horizontal_derivative(einstein, X, v, einstein)) <= 1e-9
        assert np.abs(connection.horizontal_gradient(einstein, v, einstein)).max() <= 1e-8


def test_vertical_gradient_of_metric_is_twice_the_base_vector(einstein):
    rng = np.random.default_rng(8)
    for v in dsl.sample_admissible(einstein, rng, count=20):
        grad = connection.vertical_gradient(einstein, v, einstein)
        assert np.abs(grad - 2.0 * v.y).max() <= 1e-10 * max(1.0, np.abs(v.y).max())


def test_vertical_gradient_of_degree_zero_scalar_is_orthogonal(einstein, theta_weight):
    rng = np.random.default_rng(9)
    for v in dsl.sample_admissible(einstein, rng, count=20):
        grad = connection.vertical_gradient(theta_weight, v, einstein)
        g = tensors.fundamental_tensor(einstein, v).matrix
        assert abs(v.y @ g @ grad) <= 1e-10


def test_horizontal_derivative_is_extension_independent(einstein, theta_weight):
    """Two different admissible linear extensions give the same value."""
    rng = np.random.default_rng(10)
    fd = 1e-5
    for v in dsl.sample_admissible(einstein, rng, count=8):
        X = rng.uniform(-1, 1, 3)
        direct = connection.horizontal_derivative(theta_weight, X, v, einstein)
        gamma = connection.christoffel(einstein, v).gamma
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
            lhs = np.einsum("kij,i,j->k", connection.christoffel(m, v).gamma, v.y, v.y)
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


# --------------------------------------------------------------------------
# sample-batched frames and tables
# --------------------------------------------------------------------------

def _metrics_with_frames():
    """Every builtin metric, and every factor * metric product that
    `scale_metric` forms from the builtins."""
    builtins = [dsl.builtin_metric(name) for name in dsl.builtin_names()]
    metrics = [m for m in builtins if m.degree == 2]
    return metrics + [finslab.scale_metric(m, lam, sample_budget=1)[0]
                      for lam in builtins if lam.degree == 0
                      for m in metrics if m.dim == lam.dim]


FRAME_QUANTITIES = ("g_jets", "ginv_jets", "spray_jets", "nonlinear_jets",
                    "christoffel", "christoffel_jets", "jacobi_matrix",
                    "curvature_components")


@pytest.mark.parametrize("m", _metrics_with_frames(), ids=lambda m: m.name)
def test_a_batched_frame_and_table_equal_single_sample_frames(m):
    """Row k of a frame over a `SampleBatch`, and of `_frame_tables`, equals
    the frame of sample k alone, to the bit, for one sample, a chunk and a
    chunk plus one."""
    rng = np.random.default_rng(len(m.name))
    for count in (1, connection.CHUNK, connection.CHUNK + 1):
        samples = dsl.sample_admissible(m, rng, count=count)
        X = np.array([v.x for v in samples])
        Y = np.array([v.y for v in samples])
        singles = [connection.ConnectionFrame(m, v, order=4) for v in samples]
        batch = connection.ConnectionFrame(m, dsl.SampleBatch(X, Y), order=4)
        for name in FRAME_QUANTITIES:
            rows = getattr(batch, name)()
            assert len(rows) == count
            for row, single in zip(rows, singles):
                assert np.array_equal(row, getattr(single, name)()), name
        tables = connection._frame_tables(m, np.arange(count, dtype=float), X, Y)
        for k, single in enumerate(singles):
            want = (single.g(), single.ginv(), single.nonlinear(),
                    single.christoffel(), single.jacobi_matrix())
            for table, value in zip(tables, want):
                assert np.array_equal(table[k], value)
        # the spray kernel over the batch, and along a curve in chunks
        sprays = [connection.spray_coefficients(m, v) for v in samples]
        batched = connection._spray(m.jet(dsl.SampleBatch(X, Y), 2).c, Y)
        along = connection._sprays_along(m, np.arange(count, dtype=float), X, Y)
        for k, spray in enumerate(sprays):
            assert np.array_equal(batched[k], spray)
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
    tensors._require_admissible(m, v)
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
    whose spray kernel runs chunk by chunk, raise what the loop of one domain
    check and one `spray_coefficients` per node raises, an inadmissible node
    with its curve time."""
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


@pytest.mark.parametrize("count", [1, 15, 16, 17, 33, 48, 100])
def test_a_curve_splits_into_chunks_of_near_equal_size(count):
    """ceil(count / CHUNK) chunks whose sizes differ by at most one, so no
    curve ends in a one-sample chunk after full ones."""
    chunks = connection._chunks(count)
    sizes = [c.stop - c.start for c in chunks]
    assert len(chunks) == -(-count // connection.CHUNK)
    assert sum(sizes) == count and chunks[0].start == 0 and chunks[-1].stop == count
    assert all(a.stop == b.start for a, b in zip(chunks, chunks[1:]))
    assert max(sizes) <= connection.CHUNK and max(sizes) - min(sizes) <= 1


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
        "dd75c72533bb329110835fe2526982fdc7c7d214271f045f2b16155d7a7efdde",
        "3ba69f025d88164c0148f8d1326feeabd6cbf193da44c5061f00a3e5e57404d3",
        "334bba7ec5af4367042d9f726c3d4bccf3f959bf56bc9c20288c32b45ac32beb",
        "abd862ba28888c54cf26f7342ddd0bac4a5c14133c33f694a49d2f8668aa74a5",
        "5713519b046173e6682711bd4f1fd09f7d7de3d6785df5aa8e91570bfd2580d1"),
    (None, "warped-quadratic", 21): (
        "e412586c477e3a35d6aaac166f224d40eba6957088349f008ea7cea202d475c8",
        "a74e0d11665778817e6b6e1825238b83bd98bb3458587c9386a59d7e552ba06a",
        "672d898e05df0cb26313b2054d70c39c7e78c5ee354e09b6da3825bb2dd5ea84",
        "a06cfb46832dc5f1cd93cfec2f27f57e8a65194a655510ea174665f0aef1795b",
        "a54f908b6bd2cb4a578b951ac9e09608ea2a06c73bc6b966e03b2f53942565da",
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
        m = conformal.scale_metric(m, dsl.builtin_metric(factor), sample_budget=1)[0]
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
