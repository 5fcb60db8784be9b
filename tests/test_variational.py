"""Energy variations, index form, second fundamental forms, Jacobi fields,
focal detection, and the conformal transfer of Jacobi data."""

import collections
import weakref
from pathlib import Path

import numpy as np
import pytest

from finslab import (cli, conformal, connection, dsl, experiments, geodesics,
                     tensors, variational)
from finslab.curves import DiscreteCurve
from finslab.errors import (EvaluationDomainError, FinslabError, GridMismatch,
                            InadmissibleSample)
from conftest import jacobi_field, lightlike_start
import finitediff
from jacobi_reference import (integrate_jacobi_per_stage, integrate_linearized_per_stage,
                              integrate_propagated_per_stage)
import sphere_reference

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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
    out = variational.first_variation(variational.CurveGeometry(curve, minkowski3), W)
    assert out == pytest.approx(1.0, abs=1e-10)


def test_first_variation_vanishes_on_scaled_geodesics(scaled_einstein, einstein,
                                                      theta_weight):
    x0, v0 = sphere_reference.tilted_null_data(np.pi / 2 - 0.6)
    start = lightlike_start(einstein, x0, v0)
    curve = geodesics.integrate_geodesic(scaled_einstein, start.x, start.y, (0, 1.0), 2e-3)
    span = curve.t1 - curve.t0
    shape = lambda t: np.sin(np.pi * (t - curve.t0) / span) * np.array([0.3, -0.2, 0.5])
    W = variational.VariationField(np.array([shape(t) for t in curve.grid]))
    out = variational.first_variation(
        variational.CurveGeometry(curve, einstein, theta_weight), W)
    assert abs(out) <= 1e-8


def test_first_variation_requires_lightlike_curves(minkowski3):
    grid = np.arange(0.0, 1.0 + 1e-12, 1e-2)
    v0 = np.array([1.0, 0.0, 0.0])
    timelike = DiscreteCurve(grid, np.outer(grid, v0), np.tile(v0, (grid.size, 1)),
                             np.zeros((grid.size, 3)))
    W = variational.VariationField(np.zeros((grid.size, 3)))
    with pytest.raises(ValueError):
        variational.first_variation(variational.CurveGeometry(timelike, minkowski3), W)


def _counting_lightlike_checks(monkeypatch):
    calls = []
    plain = variational.check_lightlike

    def counting(curve, m):
        calls.append(None)
        plain(curve, m)

    monkeypatch.setattr(variational, "check_lightlike", counting)
    return calls


def _the_three_formulas(geom, W):
    return (lambda: variational.first_variation(geom, W),
            lambda: variational.second_variation(geom, W),
            lambda: variational.index_form(geom, W, W, None, None))


def test_the_lightlike_check_runs_once_per_geometry(minkowski3, monkeypatch):
    """The first and second variation and the index form share one passed
    check of their geometry; a new geometry checks again."""
    calls = _counting_lightlike_checks(monkeypatch)
    curve = straight_null_line()
    W = variational.VariationField(np.outer(curve.grid, [0.0, 1.0, 0.0]))
    geom = variational.CurveGeometry(curve, minkowski3)
    for formula in _the_three_formulas(geom, W) * 2:
        formula()
    assert len(calls) == 1
    variational.first_variation(variational.CurveGeometry(curve, minkowski3), W)
    assert len(calls) == 2


def test_each_formula_rejects_a_non_lightlike_curve(minkowski3, monkeypatch):
    """A failed check is not kept: every formula raises the same
    ValueError, every time."""
    calls = _counting_lightlike_checks(monkeypatch)
    grid = np.arange(0.0, 1.0 + 1e-12, 1e-2)
    v0 = np.array([1.0, 0.0, 0.0])
    timelike = DiscreteCurve(grid, np.outer(grid, v0), np.tile(v0, (grid.size, 1)),
                             np.zeros((grid.size, 3)))
    W = variational.VariationField(np.zeros((grid.size, 3)))
    geom = variational.CurveGeometry(timelike, minkowski3)
    for formula in _the_three_formulas(geom, W) * 2:
        with pytest.raises(ValueError, match=r"curve is not lightlike: normalized "
                                             r"\|L\| reaches 1\.000e\+00"):
            formula()
    assert len(calls) == 6


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
    geom = variational.CurveGeometry(bent, minkowski3)
    W = variational.VariationField.affine(
        geom,
        lambda t: np.array([0.7 * np.sin(np.pi * t), t * (1 - t), -0.2 * np.sin(np.pi * t)]))
    formula = variational.first_variation(geom, W)
    oracle, _ = variational.energy_derivative_fd(bent, W, None, minkowski3)
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
    out = variational.second_variation(variational.CurveGeometry(curve, minkowski3), W)
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
    out = variational.second_variation(variational.CurveGeometry(curve, einstein), W)
    assert abs(out) <= 1e-6


@pytest.mark.parametrize("factor", [None, "theta-weight"])
def test_variation_formulas_match_energy_differentiation(einstein, factor):
    lam = dsl.builtin_metric(factor) if factor else None
    metric_for_curve = einstein
    if lam is not None:
        metric_for_curve = conformal.scale_metric(einstein, lam, sample_budget=8, seed=0)
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

        W = variational.VariationField.affine(geom, shape)
        first = variational.first_variation(geom, W)
        second = variational.second_variation(geom, W)
        fd1, fd2 = variational.energy_derivative_fd(curve, W, lam, einstein)
        assert abs(first - fd1) <= 1e-6
        assert abs(second - fd2) <= 1e-5


# --------------------------------------------------------------------------
# index form
# --------------------------------------------------------------------------

def test_index_form_flat_closed_form(minkowski3):
    curve = straight_null_line(h=2e-3)
    V = variational.VariationField(np.outer(np.sin(np.pi * curve.grid), [0, 0, 1.0]))
    out = variational.index_form(variational.CurveGeometry(curve, minkowski3),
                                 V, V, None, None)
    assert out == pytest.approx(np.pi ** 2 / 2.0, abs=1e-6)


def test_index_form_symmetry(tilted_transfer):
    b = tilted_transfer
    rng = np.random.default_rng(4)
    grid = b.curve.grid
    tau = (grid - grid[0]) / (grid[-1] - grid[0])
    V = variational.VariationField(np.outer(np.sin(np.pi * tau), rng.uniform(-1, 1, 3)))
    W = variational.VariationField(np.outer(tau * (1 - tau), rng.uniform(-1, 1, 3)))
    I_vw = variational.index_form(b.geometry, V, W, b.patch, None)
    I_wv = variational.index_form(b.geometry, W, V, b.patch, None)
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
        worst = max(worst, abs(variational.index_form(b.geometry, V, W, b.patch, Q)))
    assert worst <= 1e-5


def test_index_form_endpoint_tangency_guard(minkowski3):
    curve = straight_null_line()
    V = variational.VariationField(np.ones((curve.grid.size, 3)))
    P = variational.SubmanifoldPatch.from_point([0, 0, 0])
    with pytest.raises(FinslabError):
        variational.index_form(variational.CurveGeometry(curve, minkowski3), V, V, P, None)


# --------------------------------------------------------------------------
# submanifold patches
# --------------------------------------------------------------------------

def _assert_patch_matches_oracle(patch):
    """The exact derivatives at the basepoint against Richardson stencils of
    the patch point."""
    u, d = patch.basepoint, patch.d
    _, jacobian, second = patch.jet(u)
    stencils = [[finitediff.param_second(patch.point, u, a, b) for b in range(d)]
                for a in range(d)]
    assert np.abs(jacobian - finitediff.param_jacobian(patch.point, u)).max() <= 1e-9
    assert np.abs(second - np.array(stencils).transpose(2, 0, 1)).max() <= 1e-6


@pytest.mark.parametrize("rho", [0.3, np.pi / 4, 1.1, 2.5])
@pytest.mark.parametrize("x0,v0", [
    ((0.0, np.pi / 2, 0.0), (1.0, 0.0, 1.0)),
    ((0.0, 1.2, 0.4), (1.0, 0.3, 0.8)),
    ((0.0, 0.7, -1.0), (1.0, -0.5, 0.2))], ids=["equator", "north-east", "south-east"])
def test_circle_patch_derivatives_match_the_richardson_oracle(rho, x0, v0):
    _assert_patch_matches_oracle(
        experiments.great_circle_patch(np.array(x0), np.array(v0), rho))


def test_expression_patch_derivatives_match_the_richardson_oracle():
    patch = variational.SubmanifoldPatch.from_expressions(
        ["sin(x0)*cos(x1)", "exp(x0*x1)", "x0 + sqrt(1 + y1^2)"], [0.3, -0.7])
    _assert_patch_matches_oracle(patch)
    second = patch.second_derivatives()
    assert np.array_equal(second, second.transpose(0, 2, 1))
    assert second[0, 0, 1] == pytest.approx(-np.cos(0.3) * np.sin(-0.7), rel=1e-14)


def test_polynomial_patch_derivatives_are_exact():
    patch = variational.SubmanifoldPatch.from_expressions(
        ["x0^2*x1 + 3*x1", "x0*x1 - y0", "x1^3"], [0.5, -0.25])
    point, jacobian, second = patch.jet([0.5, -0.25])
    assert np.array_equal(point, [-0.8125, -0.625, -0.015625])
    assert np.array_equal(jacobian, [[-0.25, 3.25], [-1.25, 0.5], [0.0, 0.1875]])
    assert np.array_equal(second, [[[-0.5, 1.0], [1.0, 0.0]],
                                   [[0.0, 1.0], [1.0, 0.0]],
                                   [[0.0, 0.0], [0.0, -1.5]]])


def test_expression_patch_rejects_a_jet_that_is_not_finite():
    """The value 1e308 is finite, its first derivative 2e308 is not."""
    patch = variational.SubmanifoldPatch.from_expressions(["1e308*x0*x0", "x0"], [1.0])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(EvaluationDomainError, match="not finite"):
            patch.tangent_basis()


def test_point_patch_has_zero_derivatives():
    point, jacobian, second = variational.SubmanifoldPatch.from_point([1.0, 2.0]).jet([])
    assert np.array_equal(point, [1.0, 2.0])
    assert jacobian.shape == (2, 0) and second.shape == (2, 0, 0)


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
        patch, N, np.zeros((3, 2)), [1.0, 0.0, 0.0], minkowski3)
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
        patch, normal_field([0.0]), finitediff.param_jacobian(normal_field, [0.0]), u,
        einstein)
    sff = variational._normal_sff_matrix(patch, normal_field([0.0]), einstein)
    via_frame = sff @ np.linalg.lstsq(basis, u, rcond=None)[0]
    assert np.abs(via_extension - via_frame).max() <= 1e-6


# --------------------------------------------------------------------------
# Jacobi fields and focal points
# --------------------------------------------------------------------------

def test_flat_jacobi_fields_are_affine(minkowski3):
    curve = geodesics.integrate_geodesic(minkowski3, [0, 0, 0], [1, 1, 0], (0, 1), 1e-2)
    sol = jacobi_field(curve, minkowski3, [0, 1, 0], [0, 0, 1])
    expected = np.outer(np.ones(curve.grid.size), [0, 1, 0]) + np.outer(curve.grid, [0, 0, 1])
    assert np.abs(sol.J - expected).max() <= 1e-12


def test_velocity_field_is_a_jacobi_field(einstein):
    curve = geodesics.integrate_geodesic(
        einstein, [0, np.pi / 2, 0], [1, 0.2, 0.9], (0, 1.5), 5e-3)
    sol = jacobi_field(curve, einstein, curve.velocities[0], np.zeros(3))
    assert np.abs(sol.J - curve.velocities).max() <= 1e-9


def test_sphere_jacobi_oscillation(einstein):
    curve = geodesics.integrate_geodesic(
        einstein, [0, np.pi / 2, 0], [1, 0, 1], (0, np.pi), 1e-3)
    sol = jacobi_field(curve, einstein, np.zeros(3), [0, 1, 0])
    assert np.abs(sol.J[:, 1] - np.sin(curve.grid)).max() <= 1e-7
    assert np.abs(sol.J[:, [0, 2]]).max() <= 1e-9


def test_jacobi_requires_a_geodesic(minkowski3):
    grid = np.arange(0.0, 1.0 + 1e-12, 1e-2)
    pos = np.stack([grid, np.sin(grid), np.zeros_like(grid)], axis=1)
    vel = np.stack([np.ones_like(grid), np.cos(grid), np.zeros_like(grid)], axis=1)
    acc = np.stack([np.zeros_like(grid), -np.sin(grid), np.zeros_like(grid)], axis=1)
    bent = DiscreteCurve(grid, pos, vel, acc)
    with pytest.raises(ValueError):
        jacobi_field(bent, minkowski3, [0, 1, 0], [0, 0, 0])


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


@pytest.mark.parametrize("n", [4, 5])
def test_null_geodesics_from_a_point_focus_at_arc_pi_with_multiplicity_n_minus_2(n):
    """On R x S^(n-1) the null geodesics from a point refocus after spatial
    arc pi with multiplicity n - 2.  At n = 4 the multiplicity is even, so
    det M keeps its sign across the focal point and only the singular
    values of M find it."""
    m = sphere_reference.product_sphere(n)
    x0, v0 = sphere_reference.equatorial_null_start(n)
    curve = geodesics.integrate_geodesic(m, x0, v0, (0.0, 3.5), 5e-3)
    patch = variational.SubmanifoldPatch.from_point(x0)
    focal = variational.find_focal_points(curve, patch, m)
    assert [fp.multiplicity for fp in focal] == [n - 2]
    assert abs(focal[0].parameter - np.pi) <= 1e-8


def test_the_focal_search_takes_one_svd_at_the_nodes_and_few_per_point(
        minkowski3, monkeypatch):
    """One batched SVD of M at the nodes finds every candidate, so the flat
    search takes no other.  Refining a focal point and counting its
    multiplicity take a few more: at most 6 per focal point on
    configs/focal.ini, with the SVD of the circle patch's initial data."""
    calls = []
    plain = np.linalg.svd
    monkeypatch.setattr(variational.np.linalg, "svd",
                        lambda *args, **kw: calls.append(1) or plain(*args, **kw))
    curve = geodesics.integrate_geodesic(minkowski3, [0, 0, 0], [1, 1, 0], (0, 2), 1e-2)
    patch = variational.SubmanifoldPatch.from_point([0, 0, 0])
    assert variational.find_focal_points(curve, patch, minkowski3) == []
    assert len(calls) <= 1
    calls.clear()
    # the run passes only if it finds the one expected focal point
    report = cli.run_experiment("focal", cli.load_config(CONFIGS / "focal.ini"))
    assert report.passed
    assert 0 < len(calls) <= 6


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


def test_circle_focal_parameter_is_within_1e_8_of_the_radius(latitude_focal, einstein):
    """With exact patch derivatives the focal parameter of a circle patch
    is its radius to within 1e-8, on the equator and on two tilted great
    circles."""
    found = [(latitude_focal.focal, np.pi / 4)]
    for theta_c, rho in ((np.pi / 2 - 0.6, 0.5), (np.pi / 2 + 0.4, 1.3)):
        x0, v0 = sphere_reference.tilted_null_data(theta_c)
        curve = geodesics.integrate_geodesic(einstein, x0, v0, (0.0, rho + 0.4), 5e-3)
        patch = experiments.great_circle_patch(x0, v0, rho)
        found.append((variational.find_focal_points(curve, patch, einstein), rho))
    for focal, rho in found:
        assert len(focal) == 1
        assert abs(focal[0].parameter - rho) <= 1e-8


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
    sol = jacobi_field(curve, einstein, np.zeros(3), [0, 1, 0])
    rep, _ = geodesics.reparametrize_conformal(curve, unit, einstein)
    geom = variational.CurveGeometry(curve, einstein, unit)
    out, h = variational.transfer_jacobi(geom, sol, rep)
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
    residual = variational.conformal_jacobi_residual(b.geometry, b.jacobi_hat)
    assert residual <= 1e-5


def test_transferred_field_satisfies_the_endpoint_conditions(tilted_transfer):
    b = tilted_transfer
    Q = variational.SubmanifoldPatch.from_point(b.curve.positions[-1])
    residual = variational.boundary_residual(b.geometry, b.jacobi_hat, b.patch, Q)
    assert residual <= 1e-6


def _off_grid_solutions(b):
    """The untransferred field, on the reparametrized grid, and the
    transferred one on a shifted copy of the curve grid."""
    sol = b.jacobi_hat
    assert not np.array_equal(b.jacobi_tilde.grid, b.curve.grid)
    return [b.jacobi_tilde,
            variational.JacobiSolution(sol.grid + 1e-3, sol.J, sol.K, sol.J_dot)]


def test_conformal_jacobi_residual_rejects_a_solution_on_another_grid(tilted_transfer):
    for sol in _off_grid_solutions(tilted_transfer):
        with pytest.raises(GridMismatch):
            variational.conformal_jacobi_residual(tilted_transfer.geometry, sol)


def test_boundary_residual_rejects_a_solution_on_another_grid(tilted_transfer):
    b = tilted_transfer
    Q = variational.SubmanifoldPatch.from_point(b.curve.positions[-1])
    for sol in _off_grid_solutions(b):
        with pytest.raises(GridMismatch):
            variational.boundary_residual(b.geometry, sol, b.patch, Q)


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
    J0, K0 = variational._focal_initial_data(
        b.tilde, b.patch, variational._stage_table(b.tilde, b.base))
    sols = variational.integrate_jacobi_basis(b.tilde, b.base, J0, K0)
    transferred = [variational.transfer_jacobi(b.geometry, s, b.rep)[0] for s in sols]
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
    b = tilted_transfer
    J0 = b.jacobi_hat.J[0]
    Jdot0 = b.jacobi_hat.J_dot[0]
    start = dsl.TangentSample(b.curve.positions[0], b.curve.velocities[0])
    gamma_scaled = connection.ConnectionFrame(b.scaled, start, order=3).christoffel()
    K0 = Jdot0 + np.einsum("kij,i,j->k", gamma_scaled, J0, b.curve.velocities[0])
    direct = jacobi_field(b.curve, b.scaled, J0, K0)
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
    scaled = conformal.scale_metric(einstein, half, sample_budget=8, seed=0)
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
    x0, v0 = sphere_reference.tilted_null_data(np.pi / 2 - 0.6)
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


def _tabulated_samples(monkeypatch):
    """Every sample a ConnectionFrame is built for, one entry per row of a
    batch, as the bytes of its chart point and fiber vector."""
    rows = []
    plain_init = connection.ConnectionFrame.__init__

    def init(self, m, v, order=4):
        plain_init(self, m, v, order)
        xs, ys = (v.x, v.y) if self.batched else ([v.x], [v.y])
        rows.extend((x.tobytes(), y.tobytes()) for x, y in zip(xs, ys))

    monkeypatch.setattr(connection.ConnectionFrame, "__init__", init)
    return rows


def test_one_connection_frame_per_distinct_sample(einstein, monkeypatch):
    """Each distinct sample is tabulated once: frames come in chunks of
    samples, and no sample appears in two of them."""
    tabulated = _tabulated_samples(monkeypatch)
    steps = 10
    curve = geodesics.integrate_geodesic(
        einstein, [0, np.pi / 2, 0], [1, 0.2, 0.9], (0, 0.5), 0.5 / steps)
    jacobi_field(curve, einstein, np.zeros(3), [0, 1, 0])
    # one sample per node and one per step midpoint
    assert len(tabulated) == len(set(tabulated)) == 2 * steps + 1

    tabulated.clear()
    geodesics.pregeodesic_residual(curve, einstein)
    assert tabulated == []

    geom = variational.CurveGeometry(curve, einstein)
    assert geom.gamma.shape == (curve.grid.size, 3, 3, 3)
    at_nodes = list(tabulated)
    assert len(at_nodes) == len(set(at_nodes)) == curve.grid.size

    def shape(t):
        return [0.0, np.sin(t), t]

    W = variational.VariationField.affine(geom, shape)
    assert tabulated == at_nodes
    plain = variational.VariationField.affine(variational.CurveGeometry(curve, einstein),
                                              shape)
    assert np.array_equal(W.values, plain.values) and np.array_equal(W.accel, plain.accel)


def test_a_curve_geometry_builds_its_table_and_gradients_once(tilted_transfer,
                                                            monkeypatch):
    """Building a geometry with a factor takes the node table once and one
    order-2 jet of the factor per node, counted at the bound jet kernel;
    the variations, the index form, the conformal Jacobi residual and the
    transfer, which reads the factor's rate, take neither again."""
    b = tilted_transfer
    calls = collections.Counter()
    plain_tables, plain_kernel = variational._frame_tables, dsl.Tape.point_kernel
    monkeypatch.setattr(variational, "_frame_tables", lambda *args: calls.update(
        ["_frame_tables"]) or plain_tables(*args))

    def point_kernel(self, order):
        kernel = plain_kernel(self, order)
        return lambda point: calls.update([(self, order)]) or kernel(point)

    monkeypatch.setattr(dsl.Tape, "point_kernel", point_kernel)
    geom = variational.CurveGeometry(b.curve, b.base, b.factor)
    once = {"_frame_tables": 1, (b.factor._body, 2): b.curve.grid.size}
    assert calls == once
    W = variational.VariationField.affine(geom, lambda t: [0.0, np.sin(t), t])
    variational.first_variation(geom, W)
    variational.second_variation(geom, W)
    variational.index_form(geom, W, W, None, None)
    variational.conformal_jacobi_residual(geom, b.jacobi_hat)
    variational.transfer_jacobi(geom, b.jacobi_tilde, b.rep)
    assert calls == once


def _focal_search_samples(einstein, monkeypatch, patch_of):
    tabulated = _tabulated_samples(monkeypatch)
    steps = 10
    x0, v0 = np.array([0.0, np.pi / 2, 0.0]), np.array([1.0, 0.0, 1.0])
    curve = geodesics.integrate_geodesic(einstein, x0, v0, (0, 0.5), 0.5 / steps)
    assert variational.find_focal_points(curve, patch_of(x0, v0), einstein) == []
    return tabulated, 2 * steps + 1


def test_focal_search_from_a_point_builds_one_frame_per_distinct_sample(
        einstein, monkeypatch):
    """The Jacobi integration's stage samples are the only ones tabulated."""
    tabulated, stages = _focal_search_samples(
        einstein, monkeypatch, lambda x0, v0: variational.SubmanifoldPatch.from_point(x0))
    assert len(tabulated) == len(set(tabulated)) == stages


def test_focal_search_from_a_circle_tabulates_only_the_stage_samples(
        einstein, monkeypatch):
    """g and the Christoffel symbols at the curve start, which the initial
    data of a circle patch need, are row 0 of the stage table: no frame of
    its own at the patch basepoint."""
    tabulated, stages = _focal_search_samples(
        einstein, monkeypatch,
        lambda x0, v0: experiments.great_circle_patch(x0, v0, np.pi / 4))
    assert len(tabulated) == len(set(tabulated)) == stages


def test_the_jacobi_path_builds_no_order_4_frame(einstein, monkeypatch):
    """The focal search from a circle patch and the Jacobi basis read the
    spray gradient, g and the Christoffel symbols from order-3 frames: no
    order-4 frame and no Jacobi operator."""
    orders = collections.Counter()
    plain_init = connection.ConnectionFrame.__init__

    def init(self, m, v, order=4):
        plain_init(self, m, v, order)
        orders.update([order])

    monkeypatch.setattr(connection.ConnectionFrame, "__init__", init)
    monkeypatch.setattr(connection.ConnectionFrame, "jacobi_matrix",
                        lambda self: orders.update(["jacobi_matrix"]))
    x0, v0 = np.array([0.0, np.pi / 2, 0.0]), np.array([1.0, 0.0, 1.0])
    curve = geodesics.integrate_geodesic(einstein, x0, v0, (0, 0.5), 0.05)
    patch = experiments.great_circle_patch(x0, v0, np.pi / 4)
    assert variational.find_focal_points(curve, patch, einstein) == []
    variational.integrate_jacobi_basis(curve, einstein, np.eye(3), np.eye(3))
    # two tables of 21 stage samples, each within one order-3 chunk
    assert orders == {3: 2}


def test_jacobi_k_is_the_covariant_derivative_along_the_curve(tilted_transfer):
    """K - J_dot of a Jacobi solution is Gamma(vel)(J, vel), with the
    Christoffel symbols of `CurveGeometry` at the nodes: K is the DJ that
    `transfer_jacobi` and `boundary_residual` read."""
    b = tilted_transfer
    sol = b.jacobi_tilde
    gamma = variational.CurveGeometry(b.tilde, b.base).gamma
    connection_term = np.einsum("kaij,ki,kj->ka", gamma, sol.J, b.tilde.velocities)
    assert np.abs(sol.K - sol.J_dot - connection_term).max() <= 1e-14 * np.abs(sol.K).max()


def test_jacobi_integration_keeps_only_the_current_step_frames(einstein, monkeypatch):
    """The stage table is built one chunk of samples at a time, and a
    chunk's frame is dropped before the next one is built."""
    live = weakref.WeakSet()
    peak = []
    sizes = []
    plain_init = connection.ConnectionFrame.__init__

    def init(self, m, v, order=4):
        plain_init(self, m, v, order)
        live.add(self)
        peak.append(len(live))
        sizes.append(len(v))

    monkeypatch.setattr(connection.ConnectionFrame, "__init__", init)
    curve = geodesics.integrate_geodesic(
        einstein, [0, np.pi / 2, 0], [1, 0.2, 0.9], (0, 1.0), 0.025)
    jacobi_field(curve, einstein, np.zeros(3), [0, 1, 0])
    # 81 stage samples in three chunks of at most 40 order-3 samples (84
    # coefficients each), never more than one chunk's frame alive
    assert sizes == [27, 27, 27]
    assert max(peak) == 1


JACOBI_J0 = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.3, 0.0]])
JACOBI_K0 = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [0.0, 0.5, 0.2]])


@pytest.fixture(scope="module")
def stage_curves(einstein, theta_weight, scaled_einstein):
    """A uniform grid from 0, one from t0 = 0.37 with a step that does not
    divide the span, the uneven grid of a reparametrization, and a grid
    where t + h misses the next node in the last bit, so both times are
    tabulated and their frames differ."""
    x0 = np.array([0.0, np.pi / 2, 0.0])
    xt, vt = sphere_reference.tilted_null_data(np.pi / 2 - 0.6)
    scaled_curve = geodesics.integrate_geodesic(
        scaled_einstein, xt, vt / theta_weight.value(xt, vt), (0.0, 1.0), 0.01)
    _, tilde = geodesics.reparametrize_conformal(scaled_curve, theta_weight,
                                                 scaled_einstein)
    # a geodesic read at uneven nodes, with the exact accelerations -2G
    source = geodesics.integrate_geodesic(einstein, x0, [1, 1, 0.3], (-1.2, 1.2), 0.01)
    grid = np.array([-1.1, 0.05, 0.6, 1.15])
    assert -1.1 + (0.05 - -1.1) != 0.05
    pos, vel = source.position(grid), source.velocity(grid)
    acc = np.array([-2.0 * connection.spray_coefficients(einstein, dsl.TangentSample(x, y))
                    for x, y in zip(pos, vel)])
    missed = DiscreteCurve(grid, pos, vel, acc)
    assert np.ptp(np.diff(tilde.grid)) > 1e-4      # genuinely uneven
    return [
        geodesics.integrate_geodesic(einstein, x0, [1, 0.2, 0.9], (0.0, 0.5), 0.05),
        geodesics.integrate_geodesic(einstein, x0, [1, 0.1, 0.95], (0.37, 1.1), 0.07),
        tilde, missed]


def _assert_matches_propagated_per_stage(curve, m):
    sols = variational.integrate_jacobi_basis(curve, m, JACOBI_J0, JACOBI_K0)
    Js, Ks, Jdots = integrate_propagated_per_stage(curve, m, JACOBI_J0, JACOBI_K0)
    for f, sol in enumerate(sols):
        assert np.array_equal(sol.J, Js[:, :, f])
        assert np.array_equal(sol.K, Ks[:, :, f])
        assert np.array_equal(sol.J_dot, Jdots[:, :, f])


def test_table_driven_jacobi_integration_matches_the_per_stage_path(einstein, stage_curves):
    """The stage table and the batched propagators reproduce, bit for bit,
    one order-3 frame per RK stage and one RK4 step of the identity per
    step, applied to the state (see `stage_curves` for the four grids)."""
    for curve in stage_curves:
        _assert_matches_propagated_per_stage(curve, einstein)


def test_jacobi_propagators_differ_from_stepping_the_state_by_rounding(
        einstein, stage_curves):
    """P_k S_k and an RK4 step of S_k are one formula in two orders of
    float operations: on the four grids they differ by at most 1e-14 of
    the largest entry."""
    for curve in stage_curves:
        sols = variational.integrate_jacobi_basis(curve, einstein, JACOBI_J0, JACOBI_K0)
        stepped = integrate_linearized_per_stage(curve, einstein, JACOBI_J0, JACOBI_K0)
        for name, ref in zip(("J", "K", "J_dot"), stepped):
            ours = np.stack([getattr(sol, name) for sol in sols], axis=2)
            assert np.abs(ours - ref).max() <= 1e-14 * np.abs(ref).max()


def test_a_jacobi_curve_of_more_steps_than_one_block_matches_the_per_stage_path(einstein):
    """Propagators are formed `BLOCK` steps at a time; a curve of 150 steps
    spans two blocks and still reproduces the per-stage oracle bit for bit."""
    assert variational.BLOCK == 128
    curve = geodesics.integrate_geodesic(
        einstein, [0.0, np.pi / 2, 0.0], [1, 0.2, 0.9], (0.0, 1.5), 0.01)
    assert curve.grid.size - 1 == 150
    _assert_matches_propagated_per_stage(curve, einstein)


def test_a_stage_time_missing_from_the_table_raises(einstein, stage_curves):
    """A stage time is read from the table exactly: with one step midpoint
    removed, the integrator raises instead of reading a neighbouring row."""
    curve = stage_curves[0]
    times, dG, *start = variational._stage_table(curve, einstein)
    mid = curve.grid[2] + 0.5 * (curve.grid[3] - curve.grid[2])
    keep = times != mid
    assert keep.sum() == times.size - 1
    with pytest.raises(KeyError, match="no stage table row"):
        variational._integrate_on_stages(curve, (times[keep], dG[keep], *start),
                                         JACOBI_J0, JACOBI_K0)


@pytest.mark.parametrize("metric", ["einstein", "scaled_einstein"])
def test_jacobi_fields_converge_at_fourth_order_to_the_jacobi_operator_path(
        metric, theta_weight, request):
    """The linearized spray and D^2 J = A J on (J, DJ), with A from order-4
    frames, are two formulations of one equation: on the same curve their
    RK4 solutions differ by the truncation error alone, which falls about
    16-fold per halving of h (at least 12-fold here), to below 2e-9 of
    max|J| at h = 0.0125."""
    m = request.getfixturevalue(metric)
    x0, v0 = sphere_reference.tilted_null_data(np.pi / 2 - 0.6)
    J0 = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.3, 0.0]])
    K0 = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [0.0, 0.5, 0.2]])
    gaps = []
    for h in (0.05, 0.025, 0.0125):
        curve = geodesics.integrate_geodesic(m, x0, v0 / theta_weight.value(x0, v0),
                                             (0.0, 1.0), h)
        sols = variational.integrate_jacobi_basis(curve, m, J0, K0)
        J = np.stack([sol.J for sol in sols], axis=2)
        oracle = integrate_jacobi_per_stage(curve, m, J0, K0)[0]
        gaps.append(np.abs(J - oracle).max() / np.abs(oracle).max())
    assert gaps[0] >= 12 * gaps[1] and gaps[1] >= 12 * gaps[2]
    assert gaps[2] <= 2e-9


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
        variational.CurveGeometry(curve, m).cov(np.zeros((4, 2)))
