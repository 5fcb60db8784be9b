"""Energy variations, index form, second fundamental forms, Jacobi fields,
focal detection, and the conformal transfer of Jacobi data."""

import weakref

import numpy as np
import pytest

from finslab import (conformal, connection, dsl, experiments, geodesics,
                     tensors, variational)
from finslab.curves import DiscreteCurve
from finslab.errors import FinslabError, InadmissibleSample
from conftest import lightlike_start
from jacobi_reference import integrate_jacobi_per_stage


def straight_null_line(n=3, v0=(1.0, 1.0, 0.0), span=1.0, h=1e-2):
    grid = np.arange(0.0, span + 1e-12, h)
    v0 = np.asarray(v0, dtype=float)
    return DiscreteCurve(grid, np.outer(grid, v0), np.tile(v0, (grid.size, 1)),
                         np.zeros((grid.size, n)))


# --------------------------------------------------------------------------
# first variation
# --------------------------------------------------------------------------

def test_first_variation_boundary_worked_example(minkowski3):
    curve = straight_null_line()
    W = variational.VariationField(np.outer(curve.grid, [0.0, 1.0, 0.0]))
    out = variational.first_variation(curve, W, None, minkowski3)
    assert out == pytest.approx(1.0, abs=1e-10)


def test_first_variation_vanishes_on_scaled_geodesics(scaled_einstein, einstein,
                                                      theta_weight):
    x0, v0 = experiments.tilted_null_data(np.pi / 2 - 0.6)
    start = lightlike_start(einstein, x0, v0)
    curve = geodesics.integrate_geodesic(scaled_einstein, start.x, start.y, (0, 1.0), 2e-3)
    span = curve.t1 - curve.t0
    shape = lambda t: np.sin(np.pi * (t - curve.t0) / span) * np.array([0.3, -0.2, 0.5])
    W = variational.VariationField.from_function(curve, shape)
    out = variational.first_variation(curve, W, theta_weight, einstein)
    assert abs(out) <= 1e-8


def test_first_variation_requires_lightlike_curves(minkowski3):
    grid = np.arange(0.0, 1.0 + 1e-12, 1e-2)
    v0 = np.array([1.0, 0.0, 0.0])
    timelike = DiscreteCurve(grid, np.outer(grid, v0), np.tile(v0, (grid.size, 1)),
                             np.zeros((grid.size, 3)))
    W = variational.VariationField(np.zeros((grid.size, 3)))
    with pytest.raises(ValueError):
        variational.first_variation(timelike, W, None, minkowski3)


def test_first_variation_matches_finite_differences_on_bent_curve(minkowski3):
    """A lightlike but non-geodesic curve gives a nonzero first variation."""
    from scipy.integrate import cumulative_simpson

    grid = np.arange(0.0, 1.0 + 1e-12, 2e-3)
    angle = 0.3 * np.sin(grid)
    cx = cumulative_simpson(np.cos(angle), x=grid, initial=0.0)
    sx = cumulative_simpson(np.sin(angle), x=grid, initial=0.0)
    pos = np.stack([grid, cx, sx], axis=1)
    vel = np.stack([np.ones_like(grid), np.cos(angle), np.sin(angle)], axis=1)
    rate = 0.3 * np.cos(grid)
    acc = np.stack([np.zeros_like(grid), -np.sin(angle) * rate,
                    np.cos(angle) * rate], axis=1)
    bent = DiscreteCurve(grid, pos, vel, acc)
    assert geodesics.lightlike_defect(bent, minkowski3) <= 1e-14
    W = variational.VariationField.affine(
        bent, minkowski3,
        lambda t: np.array([0.7 * np.sin(np.pi * t), t * (1 - t), -0.2 * np.sin(np.pi * t)]))
    formula = variational.first_variation(bent, W, None, minkowski3)
    oracle = variational.energy_derivative_fd(bent, W, None, minkowski3, order=1)
    assert abs(formula) > 1e-3
    assert abs(formula - oracle) <= 1e-6


# --------------------------------------------------------------------------
# second variation
# --------------------------------------------------------------------------

def test_second_variation_flat_closed_form(minkowski3):
    curve = straight_null_line(h=2e-3)
    coeff = np.array([0.2, -0.4, 0.7])
    W = variational.VariationField(
        np.outer(np.sin(np.pi * curve.grid), coeff), np.zeros((curve.grid.size, 3)))
    out = variational.second_variation(curve, W, None, minkowski3)
    # integrand g(W', W') with W' = pi cos(pi t) coeff
    g = np.diag([-1.0, 1.0, 1.0])
    expected = float(coeff @ g @ coeff) * np.pi ** 2 / 2.0
    assert out == pytest.approx(expected, abs=1e-8)


def test_second_variation_kernel_field_on_the_sphere(einstein):
    curve = geodesics.integrate_geodesic(
        einstein, [0, np.pi / 2, 0], [1, 0, 1], (0, np.pi), 2e-3)
    W = variational.VariationField(
        np.outer(np.sin(curve.grid), [0.0, 1.0, 0.0]),
        np.zeros((curve.grid.size, 3)))
    out = variational.second_variation(curve, W, None, einstein)
    assert abs(out) <= 1e-6


@pytest.mark.parametrize("factor", [None, "theta-weight"])
def test_variation_formulas_match_energy_differentiation(einstein, factor):
    lam = dsl.builtin_metric(factor) if factor else None
    metric_for_curve = einstein
    if lam is not None:
        metric_for_curve, _ = conformal.scale_metric(einstein, lam, sample_budget=8, seed=0)
    start = lightlike_start(einstein, np.array([0.0, np.pi / 2, 0.0]),
                            np.array([1.0, 0.25, 1.0]))
    curve = geodesics.integrate_geodesic(metric_for_curve, start.x, start.y, (0, 1.0), 2e-3)
    geom = variational.CurveGeometry(curve, einstein, lam)
    rng = np.random.default_rng(3)
    span = curve.t1 - curve.t0
    for _ in range(3):
        c1, c2 = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)

        def shape(t):
            tau = (t - curve.t0) / span
            return np.sin(np.pi * tau) * c1 + tau * (1 - tau) * c2

        W = variational.VariationField.affine(curve, einstein, shape)
        first = variational.first_variation(curve, W, lam, einstein, geometry=geom)
        second = variational.second_variation(curve, W, lam, einstein, geometry=geom)
        assert abs(first - variational.energy_derivative_fd(
            curve, W, lam, einstein, order=1)) <= 1e-6
        assert abs(second - variational.energy_derivative_fd(
            curve, W, lam, einstein, order=2)) <= 1e-5


# --------------------------------------------------------------------------
# index form
# --------------------------------------------------------------------------

def test_index_form_flat_closed_form(minkowski3):
    curve = straight_null_line(h=2e-3)
    V = variational.VariationField(np.outer(np.sin(np.pi * curve.grid), [0, 0, 1.0]))
    out = variational.index_form(curve, V, V, None, None, None, minkowski3)
    assert out == pytest.approx(np.pi ** 2 / 2.0, abs=1e-6)


def test_index_form_symmetry(tilted_transfer):
    b = tilted_transfer
    rng = np.random.default_rng(4)
    grid = b.curve.grid
    tau = (grid - grid[0]) / (grid[-1] - grid[0])
    V = variational.VariationField(np.outer(np.sin(np.pi * tau), rng.uniform(-1, 1, 3)))
    W = variational.VariationField(np.outer(tau * (1 - tau), rng.uniform(-1, 1, 3)))
    I_vw = variational.index_form(b.curve, V, W, b.patch, None, b.factor, b.base,
                                  geometry=b.geometry)
    I_wv = variational.index_form(b.curve, W, V, b.patch, None, b.factor, b.base,
                                  geometry=b.geometry)
    assert abs(I_vw - I_wv) <= 1e-9 * max(1.0, abs(I_vw))


def test_transferred_field_is_in_the_index_form_kernel(tilted_transfer):
    b = tilted_transfer
    rng = np.random.default_rng(5)
    grid = b.curve.grid
    tau = (grid - grid[0]) / (grid[-1] - grid[0])
    V = variational.VariationField(b.jacobi_hat.J)
    Q = variational.SubmanifoldPatch.from_point(b.curve.positions[-1])
    worst = 0.0
    for _ in range(20):
        W = variational.VariationField(np.outer(np.sin(np.pi * tau), rng.uniform(-1, 1, 3)))
        worst = max(worst, abs(variational.index_form(
            b.curve, V, W, b.patch, Q, b.factor, b.base, geometry=b.geometry)))
    assert worst <= 1e-5


def test_index_form_endpoint_tangency_guard(minkowski3):
    curve = straight_null_line()
    V = variational.VariationField(np.ones((curve.grid.size, 3)))
    P = variational.SubmanifoldPatch.from_point([0, 0, 0])
    with pytest.raises(FinslabError):
        variational.index_form(curve, V, V, P, None, None, minkowski3)


# --------------------------------------------------------------------------
# second fundamental forms
# --------------------------------------------------------------------------

def test_hyperplane_in_flat_space_is_totally_geodesic(minkowski3):
    patch = variational.SubmanifoldPatch.from_expressions(
        ["x0", "x1", "0"], [0.0, 0.0], name="plane")
    N = np.array([0.0, 0.0, 1.0])
    out = variational.second_fundamental_form(
        patch, N, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], minkowski3)
    assert np.abs(out).max() <= 1e-10
    out2 = variational.normal_second_fundamental_form(
        patch, lambda u: N, [1.0, 0.0, 0.0], minkowski3)
    assert np.abs(out2).max() <= 1e-8


def test_second_fundamental_form_output_is_normal(latitude_focal, einstein):
    patch = latitude_focal.patch
    N = latitude_focal.curve.velocities[0]
    basis = patch.tangent_basis()
    out = variational.second_fundamental_form(
        patch, N, basis[:, 0], basis[:, 0], einstein)
    g = tensors.fundamental_tensor(
        einstein, dsl.TangentSample(patch.point(), N)).matrix
    for a in range(basis.shape[1]):
        assert abs(out @ g @ basis[:, a]) <= 1e-10 * max(1.0, np.abs(out).max())


def test_latitude_circle_shape_values(latitude_focal, einstein):
    """Geodesic circle of radius rho: second fundamental data has magnitude
    cot(rho) against unit tangents; at rho = pi/4 that is exactly 1."""
    patch = latitude_focal.patch
    N = latitude_focal.curve.velocities[0]
    basis = patch.tangent_basis()
    unit = basis[:, 0] / np.linalg.norm(basis[:, 0])
    g = tensors.fundamental_tensor(
        einstein, dsl.TangentSample(patch.point(), N)).matrix
    unit = unit / np.sqrt(abs(unit @ g @ unit))
    S = variational.second_fundamental_form(patch, N, unit, unit, einstein)
    assert np.sqrt(abs(S @ g @ S)) == pytest.approx(1.0, abs=1e-6)
    sff = variational._normal_sff_matrix(patch, N, einstein)
    coeff = np.linalg.lstsq(basis, unit, rcond=None)[0]
    val = sff @ coeff
    assert np.sqrt(abs(val @ g @ val)) == pytest.approx(1.0, abs=1e-6)
    # output is tangential
    resid = np.linalg.lstsq(basis, val, rcond=None)[1]
    assert float(resid[0]) <= 1e-12 if resid.size else True


def test_normal_sff_extension_route_matches_frame_route(einstein):
    """The extension-based tangential derivative agrees with the
    extension-free assembly when the supplied field really is normal."""
    rho = np.pi / 4
    x0 = np.array([0.0, np.pi / 2, 0.0])
    v0 = np.array([1.0, 0.0, 1.0])
    patch = experiments.great_circle_patch(x0, v0, rho)
    p, tangent, _ = experiments._spatial_frame(x0, v0)
    center = np.cos(rho) * p + np.sin(rho) * tangent

    def normal_field(alpha):
        """Null normal along the circle: time part 1, spatial part the unit
        vector pointing from the circle point toward the center."""
        q3 = experiments.embed(*patch.point(alpha)[1:])
        inward = center - np.cos(rho) * q3
        inward = inward / np.linalg.norm(inward)
        theta, phi = patch.point(alpha)[1:]
        d_theta = np.array([np.cos(theta) * np.cos(phi),
                            np.cos(theta) * np.sin(phi), -np.sin(theta)])
        d_phi = np.array([-np.sin(theta) * np.sin(phi),
                          np.sin(theta) * np.cos(phi), 0.0])
        frame = np.stack([d_theta, d_phi], axis=1)
        coeff, *_ = np.linalg.lstsq(frame, inward, rcond=None)
        return np.array([1.0, coeff[0], coeff[1]])

    basis = patch.tangent_basis()
    u = basis[:, 0]
    via_extension = variational.normal_second_fundamental_form(
        patch, normal_field, u, einstein)
    sff = variational._normal_sff_matrix(patch, normal_field([0.0]), einstein)
    via_frame = sff @ np.linalg.lstsq(basis, u, rcond=None)[0]
    assert np.abs(via_extension - via_frame).max() <= 1e-6


# --------------------------------------------------------------------------
# Jacobi fields and focal points
# --------------------------------------------------------------------------

def test_flat_jacobi_fields_are_affine(minkowski3):
    curve = geodesics.integrate_geodesic(minkowski3, [0, 0, 0], [1, 1, 0], (0, 1), 1e-2)
    sol = variational.integrate_jacobi(curve, minkowski3, [0, 1, 0], [0, 0, 1])
    expected = np.outer(np.ones(curve.grid.size), [0, 1, 0]) + np.outer(curve.grid, [0, 0, 1])
    assert np.abs(sol.J - expected).max() <= 1e-12


def test_velocity_field_is_a_jacobi_field(einstein):
    curve = geodesics.integrate_geodesic(
        einstein, [0, np.pi / 2, 0], [1, 0.2, 0.9], (0, 1.5), 5e-3)
    sol = variational.integrate_jacobi(curve, einstein, curve.velocities[0],
                                       np.zeros(3))
    assert np.abs(sol.J - curve.velocities).max() <= 1e-9


def test_sphere_jacobi_oscillation(einstein):
    curve = geodesics.integrate_geodesic(
        einstein, [0, np.pi / 2, 0], [1, 0, 1], (0, np.pi), 1e-3)
    sol = variational.integrate_jacobi(curve, einstein, np.zeros(3), [0, 1, 0])
    assert np.abs(sol.J[:, 1] - np.sin(curve.grid)).max() <= 1e-7
    assert np.abs(sol.J[:, [0, 2]]).max() <= 1e-9


def test_jacobi_requires_a_geodesic(minkowski3):
    grid = np.arange(0.0, 1.0 + 1e-12, 1e-2)
    pos = np.stack([grid, np.sin(grid), np.zeros_like(grid)], axis=1)
    vel = np.stack([np.ones_like(grid), np.cos(grid), np.zeros_like(grid)], axis=1)
    acc = np.stack([np.zeros_like(grid), -np.sin(grid), np.zeros_like(grid)], axis=1)
    bent = DiscreteCurve(grid, pos, vel, acc)
    with pytest.raises(ValueError):
        variational.integrate_jacobi(bent, minkowski3, [0, 1, 0], [0, 0, 0])


def test_focal_detection_requires_a_matching_basepoint(minkowski3):
    curve = geodesics.integrate_geodesic(minkowski3, [0, 0, 0], [1, 1, 0], (0, 1), 1e-2)
    patch = variational.SubmanifoldPatch.from_point([1.0, 0.0, 0.0])
    with pytest.raises(FinslabError):
        variational.find_focal_points(curve, patch, minkowski3)


def test_second_fundamental_form_rejects_non_normal_reference(minkowski3):
    patch = variational.SubmanifoldPatch.from_expressions(
        ["x0", "x1", "0"], [0.0, 0.0], name="plane")
    slanted = np.array([0.0, 1.0, 1.0])   # pairs with the x1 tangent direction
    with pytest.raises(FinslabError):
        variational.second_fundamental_form(
            patch, slanted, [1.0, 0, 0], [0, 1.0, 0], minkowski3)


def test_flat_focal_list_is_empty(minkowski3):
    curve = geodesics.integrate_geodesic(minkowski3, [0, 0, 0], [1, 1, 0], (0, 2), 1e-2)
    patch = variational.SubmanifoldPatch.from_point([0, 0, 0])
    assert variational.find_focal_points(curve, patch, minkowski3) == []


def test_equatorial_conjugate_point(equatorial_conjugate):
    focal = equatorial_conjugate.focal
    assert len(focal) == 1
    assert focal[0].parameter == pytest.approx(np.pi, abs=1e-5)
    assert focal[0].multiplicity == 1


def test_latitude_circle_focal_point(latitude_focal):
    focal = latitude_focal.focal
    assert len(focal) == 1
    assert focal[0].parameter == pytest.approx(np.pi / 4, abs=1e-5)
    assert focal[0].multiplicity == 1


def test_focal_oracle_from_the_scalar_equation():
    """The circle field solves u'' = -u with u(0)=1, u'(0)=-cot(rho); its
    first zero is at the radius itself."""
    rho = np.pi / 4
    u = lambda s: np.cos(s) - (1.0 / np.tan(rho)) * np.sin(s)
    assert u(rho) == pytest.approx(0.0, abs=1e-15)
    assert u(rho - 0.1) > 0 and u(rho + 0.1) < 0


def test_focal_basis_kernel_pairing(tilted_transfer):
    """Endpoint-constrained fields with both-end conditions pair to zero with
    the velocity through their covariant derivative, along the whole curve."""
    b = tilted_transfer
    sol = b.jacobi_tilde
    geom = variational.CurveGeometry(b.tilde, b.base, None)
    pairing = geom.pair(sol.K, b.tilde.velocities)
    assert np.abs(pairing).max() <= 1e-7


# --------------------------------------------------------------------------
# the conformal transfer
# --------------------------------------------------------------------------

def test_transfer_with_unit_factor_is_identity(einstein, equatorial_conjugate):
    unit = dsl.builtin_metric("unit-factor")
    curve = equatorial_conjugate.curve
    sol = variational.integrate_jacobi(curve, einstein, np.zeros(3), [0, 1, 0])
    rep, _ = geodesics.reparametrize_conformal(curve, unit, einstein)
    geom = variational.CurveGeometry(curve, einstein, unit)
    out, h = variational.transfer_jacobi(sol, curve, rep, unit, einstein, geometry=geom)
    assert np.abs(h).max() == 0.0
    assert np.abs(out.J - sol.J).max() <= 1e-12


def test_transfer_endpoint_values_are_pinned(tilted_transfer):
    b = tilted_transfer
    assert b.h[0] == 0.0
    assert b.h[-1] == 0.0
    assert np.abs(b.jacobi_hat.J[0] - b.jacobi_tilde.J[0]).max() <= 1e-9
    assert np.abs(b.jacobi_hat.J[-1] - b.jacobi_tilde.J[-1]).max() <= 1e-9
    assert np.abs(b.h).max() > 1e-4     # the correction is genuinely nontrivial


def test_transferred_field_satisfies_the_scaled_characterization(tilted_transfer):
    b = tilted_transfer
    residual = variational.conformal_jacobi_residual(
        b.curve, b.jacobi_hat, b.factor, b.base, geometry=b.geometry)
    assert residual <= 1e-5


def test_transferred_field_satisfies_the_endpoint_conditions(tilted_transfer):
    b = tilted_transfer
    Q = variational.SubmanifoldPatch.from_point(b.curve.positions[-1])
    residual = variational.boundary_residual(
        b.curve, b.jacobi_hat, b.patch, Q, b.factor, b.base, geometry=b.geometry)
    assert residual <= 1e-6


def test_rewritten_jacobi_equation_equivalence(tilted_transfer):
    """The reparametrized field satisfies (factor * J')' = factor * A J
    exactly when the original field solves the plain Jacobi equation."""
    from scipy.interpolate import CubicHermiteSpline

    from finslab.curves import spline_derivative

    b = tilted_transfer
    geom = b.geometry
    mu = b.rep.inverse(b.curve.grid)
    mu[0], mu[-1] = b.jacobi_tilde.grid[0], b.jacobi_tilde.grid[-1]
    lam_v = geom.lam_values
    J = b.jacobi_tilde.spline()(mu)
    K_spline = CubicHermiteSpline(b.jacobi_tilde.grid, b.jacobi_tilde.K,
                                  spline_derivative(b.jacobi_tilde.grid,
                                                    b.jacobi_tilde.K), axis=0)
    K = K_spline(mu) / lam_v[:, None]
    lhs = geom.cov(lam_v[:, None] * K)
    rhs = lam_v[:, None] * np.einsum("kij,kj->ki", geom.jacobi, J)
    assert np.abs(lhs - rhs)[3:-3].max() <= 1e-6
    # and the plain equation holds along the reparametrized curve itself
    geom_t = variational.CurveGeometry(b.tilde, b.base, None)
    lhs_t = geom_t.cov(b.jacobi_tilde.K)
    rhs_t = np.einsum("kij,kj->ki", geom_t.jacobi, b.jacobi_tilde.J)
    assert np.abs(lhs_t - rhs_t)[3:-3].max() <= 1e-6


def test_transfer_preserves_linear_independence(tilted_transfer):
    """Transferring a full endpoint-constrained basis keeps it a basis away
    from focal parameters."""
    b = tilted_transfer
    J0, K0 = variational._focal_initial_data(b.tilde, b.patch, b.base)
    sols = variational.integrate_jacobi_basis(b.tilde, b.base, J0, K0)
    transferred = [variational.transfer_jacobi(s, b.curve, b.rep, b.factor,
                                               b.base, geometry=b.geometry)[0]
                   for s in sols]
    npts = b.curve.grid.size
    focal_t = b.rep(b.radius)
    for k in range(5, npts - 1, npts // 7):
        t = b.curve.grid[k]
        if abs(t - focal_t) < 0.05:
            continue
        M = np.stack([s.J[k] for s in transferred], axis=1)
        sv = np.linalg.svd(M, compute_uv=False)
        assert sv[-1] > 1e-6 * sv[0]


def test_transfer_agrees_with_the_scaled_connection(tilted_transfer):
    """Fully independent closure: the transferred field must solve the
    scaled metric's own Jacobi equation, integrated through the generic
    pipeline with the scaled connection (which the transfer never touches)."""
    from finslab import connection

    b = tilted_transfer
    J0 = b.jacobi_hat.J[0]
    Jdot0 = b.jacobi_hat.J_dot[0]
    start = dsl.TangentSample(b.curve.positions[0], b.curve.velocities[0])
    gamma_scaled = connection.christoffel(b.scaled, start).gamma
    K0 = Jdot0 + np.einsum("kij,i,j->k", gamma_scaled, J0, b.curve.velocities[0])
    direct = variational.integrate_jacobi(b.curve, b.scaled, J0, K0)
    assert np.abs(direct.J - b.jacobi_hat.J).max() <= 1e-8


def test_repeated_conjugate_points_on_a_long_run(einstein):
    curve = geodesics.integrate_geodesic(
        einstein, [0, np.pi / 2, 0], [1, 0, 1], (0.0, 6.6), 5e-3)
    patch = variational.SubmanifoldPatch.from_point([0, np.pi / 2, 0])
    focal = variational.find_focal_points(curve, patch, einstein)
    assert len(focal) == 2
    assert focal[0].parameter == pytest.approx(np.pi, abs=1e-5)
    assert focal[1].parameter == pytest.approx(2 * np.pi, abs=1e-5)
    assert all(f.multiplicity == 1 for f in focal)


def test_constant_factor_scales_focal_parameters(einstein):
    """With a constant factor c the parameter map is affine, so base-side
    focal parameters are the scaled-side ones divided by c; multiplicities
    are untouched."""
    c = 0.5
    half = dsl.parse_metric("0.5", 3, degree=0, name="half")
    scaled, _ = conformal.scale_metric(einstein, half, sample_budget=8, seed=0)
    x0 = np.array([0.0, np.pi / 2, 0.0])
    curve = geodesics.integrate_geodesic(scaled, x0, [1.0, 0.0, 1.0], (0.0, 3.3), 5e-3)
    patch = variational.SubmanifoldPatch.from_point(x0)
    report = variational.verify_focal_correspondence(curve, patch, half, einstein,
                                                     scaled=scaled)
    assert report.matched
    assert len(report.scaled_focal) == 1
    assert report.scaled_focal[0].parameter == pytest.approx(np.pi, abs=1e-5)
    assert report.base_focal[0].parameter == pytest.approx(np.pi / c, abs=1e-4)
    assert report.base_focal[0].multiplicity == report.scaled_focal[0].multiplicity == 1


def test_focal_correspondence_with_nontrivial_parameter_map(
        einstein, theta_weight, scaled_einstein):
    x0, v0 = experiments.tilted_null_data(np.pi / 2 - 0.6)
    start = v0 / theta_weight.value(x0, v0)
    curve = geodesics.integrate_geodesic(scaled_einstein, x0, start, (0, 3.4), 5e-3)
    patch = variational.SubmanifoldPatch.from_point(x0)
    report = variational.verify_focal_correspondence(
        curve, patch, theta_weight, einstein, scaled=scaled_einstein)
    assert report.matched
    assert len(report.pairs) == 1
    pair = report.pairs[0]
    assert pair.base_parameter == pytest.approx(np.pi, abs=1e-5)
    assert pair.base_multiplicity == pair.scaled_multiplicity == 1
    assert abs(pair.scaled_parameter - np.pi) > 1e-3   # genuinely reparametrized
    assert pair.pairing_error <= 1e-4


def test_one_connection_frame_per_distinct_sample(einstein, monkeypatch):
    built = []
    plain_init = connection.ConnectionFrame.__init__

    def init(self, m, v, order=4):
        plain_init(self, m, v, order)
        built.append((v.x.tobytes(), v.y.tobytes()))

    monkeypatch.setattr(connection.ConnectionFrame, "__init__", init)
    steps = 10
    curve = geodesics.integrate_geodesic(
        einstein, [0, np.pi / 2, 0], [1, 0.2, 0.9], (0, 0.5), 0.5 / steps)
    variational.integrate_jacobi(curve, einstein, np.zeros(3), [0, 1, 0])
    # one frame per node and one per step midpoint
    assert len(built) == len(set(built)) == 2 * steps + 1

    built.clear()
    geodesics.pregeodesic_residual(curve, einstein)
    assert built == []

    geom = variational.CurveGeometry(curve, einstein)
    assert geom.gamma.shape == (curve.grid.size, 3, 3, 3)
    at_nodes = list(built)

    def shape(t):
        return [0.0, np.sin(t), t]

    W = variational.VariationField.affine(curve, einstein, shape, geometry=geom)
    assert built == at_nodes
    plain = variational.VariationField.affine(curve, einstein, shape)
    assert np.array_equal(W.values, plain.values) and np.array_equal(W.accel, plain.accel)


def test_focal_search_from_a_point_builds_one_frame_per_distinct_sample(
        einstein, monkeypatch):
    """The initial data read g at the basepoint from the fundamental tensor,
    so the Jacobi integration's frames are the only ones built."""
    built = []
    plain_init = connection.ConnectionFrame.__init__

    def init(self, m, v, order=4):
        plain_init(self, m, v, order)
        built.append((v.x.tobytes(), v.y.tobytes()))

    monkeypatch.setattr(connection.ConnectionFrame, "__init__", init)
    steps = 10
    curve = geodesics.integrate_geodesic(
        einstein, [0, np.pi / 2, 0], [1, 0, 1], (0, 0.5), 0.5 / steps)
    patch = variational.SubmanifoldPatch.from_point(curve.positions[0])
    assert variational.find_focal_points(curve, patch, einstein) == []
    assert len(built) == len(set(built)) == 2 * steps + 1


def test_jacobi_integration_keeps_only_the_current_step_frames(einstein, monkeypatch):
    live = weakref.WeakSet()
    peak = []
    plain_init = connection.ConnectionFrame.__init__

    def init(self, m, v, order=4):
        plain_init(self, m, v, order)
        live.add(self)
        peak.append(len(live))

    monkeypatch.setattr(connection.ConnectionFrame, "__init__", init)
    curve = geodesics.integrate_geodesic(
        einstein, [0, np.pi / 2, 0], [1, 0.2, 0.9], (0, 0.5), 0.05)
    variational.integrate_jacobi(curve, einstein, np.zeros(3), [0, 1, 0])
    # a step's midpoint and end frames, not one per sample of the curve
    assert len(peak) == 21 and max(peak) <= 3


def test_table_driven_jacobi_integration_matches_the_per_stage_path(
        einstein, theta_weight, scaled_einstein):
    """The stage table reproduces one frame per RK stage bit for bit: on a
    uniform grid from 0, from t0 = 0.37 with a step that does not divide
    the span, on the uneven grid of a reparametrization, and on a grid where
    t + h misses the next node in the last bit, so both times are tabulated
    and their frames differ."""
    x0 = np.array([0.0, np.pi / 2, 0.0])
    xt, vt = experiments.tilted_null_data(np.pi / 2 - 0.6)
    scaled_curve = geodesics.integrate_geodesic(
        scaled_einstein, xt, vt / theta_weight.value(xt, vt), (0.0, 0.3), 0.01)
    _, tilde = geodesics.reparametrize_conformal(scaled_curve, theta_weight,
                                                 scaled_einstein)
    # a geodesic read at uneven nodes, with the exact accelerations -2G
    source = geodesics.integrate_geodesic(einstein, x0, [1, 1, 0.3], (-1.2, 1.2), 0.01)
    grid = np.array([-1.1, 0.05, 0.6, 1.15])
    assert -1.1 + (0.05 - -1.1) != 0.05
    pos, vel = source.position(grid), source.velocity(grid)
    acc = np.array([-2.0 * connection.spray_coefficients(einstein, x, y)
                    for x, y in zip(pos, vel)])
    missed = DiscreteCurve(grid, pos, vel, acc)
    curves = [
        geodesics.integrate_geodesic(einstein, x0, [1, 0.2, 0.9], (0.0, 0.5), 0.05),
        geodesics.integrate_geodesic(einstein, x0, [1, 0.1, 0.95], (0.37, 1.1), 0.07),
        tilde, missed]
    assert np.ptp(np.diff(tilde.grid)) > 1e-4      # genuinely uneven
    J0 = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.3, 0.0]])
    K0 = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [0.0, 0.5, 0.2]])
    for curve in curves:
        sols = variational.integrate_jacobi_basis(curve, einstein, J0, K0)
        Js, Ks, Jdots = integrate_jacobi_per_stage(curve, einstein, J0, K0)
        for f, sol in enumerate(sols):
            assert np.array_equal(sol.J, Js[:, :, f])
            assert np.array_equal(sol.K, Ks[:, :, f])
            assert np.array_equal(sol.J_dot, Jdots[:, :, f])


def test_domain_exit_along_a_curve_reports_the_curve_time():
    m = dsl.parse_metric("-y0^2 + y1^2", 2, domain=("1 - x0",), name="slab")
    grid = np.array([0.0, 0.5, 1.25, 2.0])
    v = np.array([1.0, 0.5])
    curve = DiscreteCurve(grid, np.outer(grid, v), np.tile(v, (4, 1)), np.zeros((4, 2)))
    message = r"curve leaves the domain of 'slab' at t=.*1\.25"
    with pytest.raises(InadmissibleSample, match=message):
        variational.CurveGeometry(curve, m).g
    with pytest.raises(InadmissibleSample, match=message):
        geodesics.pregeodesic_residual(curve, m)
    with pytest.raises(InadmissibleSample, match=message):
        connection.covariant_derivative_along(curve, None, np.zeros((4, 2)), m)
