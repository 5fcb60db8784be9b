"""Geodesic integration, lightcone projection, energy quadrature, and the
conformal reparametrization of lightlike geodesics."""

import collections

import numpy as np
import pytest

from finslab import conformal, connection, dsl, experiments, geodesics, jets, tensors
from finslab.errors import (DomainExit, EvaluationDomainError, FinslabError,
                            NoConvergence, PositivityFailure, TransversalityFailure)
import sphere_reference
from conftest import lightlike_start


# --------------------------------------------------------------------------
# integration
# --------------------------------------------------------------------------

def test_flat_geodesics_are_straight_lines(minkowski3):
    curve = geodesics.integrate_geodesic(minkowski3, [0, 0, 0], [1, 1, 0], (0, 1), 1e-2)
    assert np.abs(curve.positions - np.outer(curve.grid, [1, 1, 0])).max() <= 1e-12
    assert np.abs(curve.velocities - [1, 1, 0]).max() <= 1e-12


def test_speed_conservation_along_geodesics(einstein):
    iota = 0.8
    v0 = np.array([1.0, -np.sin(iota), np.cos(iota)])
    curve = geodesics.integrate_geodesic(einstein, [0, np.pi / 2, 0], v0, (0, 1.0), 1e-3)
    L0 = einstein.value([0, np.pi / 2, 0], v0)
    drift = max(abs(einstein.value(x, y) - L0)
                for x, y in zip(curve.positions, curve.velocities))
    assert drift <= 1e-8


def test_warped_cone_metric_conservation():
    m = dsl.builtin_metric("bogoslovsky2-warped")
    start = dsl.TangentSample([0.0, 0.0], [2.0, 1.0])
    curve = geodesics.integrate_geodesic(m, start.x, start.y, (0, 1.0), 1e-3)
    L0 = m.value_at(start)
    drift = max(abs(m.value(x, y) - L0)
                for x, y in zip(curve.positions, curve.velocities))
    assert drift <= 1e-8


def test_equatorial_null_geodesic_wraps(einstein):
    curve = geodesics.integrate_geodesic(
        einstein, [0, np.pi / 2, 0], [1, 0, 1], (0, 2 * np.pi), 1e-3)
    assert abs(curve.positions[-1, 2] - 2 * np.pi) <= 1e-6
    assert np.abs(curve.positions[:, 1] - np.pi / 2).max() <= 1e-12


def test_rk4_convergence_order(einstein):
    """Terminal-state error on a fast tilted null geodesic falls by a factor
    in [12, 20] per halving (slope 4 +- 0.3 in log-log)."""
    iota, speed = 0.8, 8.0
    x0 = np.array([0.0, np.pi / 2, 0.0])
    v0 = np.array([speed, -speed * np.sin(iota), speed * np.cos(iota)])
    position, spatial = sphere_reference.exact_tilted_circle(x0, v0)
    steps = [4e-3, 2e-3, 1e-3, 5e-4]
    errors = []
    for h in steps:
        c = geodesics.integrate_geodesic(einstein, x0, v0, (0, 1.0), h)
        q = experiments.embed(c.positions[-1, 1], c.positions[-1, 2])
        errors.append(np.linalg.norm(q - spatial(1.0))
                      + abs(c.positions[-1, 0] - position(1.0)[0]))
    ratios = [errors[i] / errors[i + 1] for i in range(3)]
    assert all(12.0 <= r <= 20.0 for r in ratios)
    A = np.vstack([np.log(steps), np.ones(4)]).T
    slope = float(np.linalg.lstsq(A, np.log(errors), rcond=None)[0][0])
    assert 3.7 <= slope <= 4.3


def test_inadmissible_start_is_rejected(bogoslovsky):
    from finslab.errors import InadmissibleSample

    with pytest.raises(InadmissibleSample):
        geodesics.integrate_geodesic(bogoslovsky, [0, 0], [1.0, 1.0], (0, 1), 1e-2)


def test_domain_exit_is_detected_mid_trajectory():
    """A chart-bounded domain: the straight geodesic crosses the predicate
    zero set mid-integration and the error reports the crossing time."""
    m = dsl.parse_metric("-y0^2 + y1^2", 2, domain=("1 - x0",), name="slab")
    with pytest.raises(DomainExit) as err:
        geodesics.integrate_geodesic(m, [0, 0], [2.0, 0.5], (0, 1.0), 1e-2)
    assert err.value.t == pytest.approx(0.5, abs=2e-2)


def test_singular_metric_stops_the_integrator():
    from finslab.errors import SingularMetric

    rank_one = dsl.parse_metric("y0^2", 2, name="rank-one")
    with pytest.raises(SingularMetric):
        geodesics.integrate_geodesic(rank_one, [0, 0], [1.0, 0.2], (0, 1), 1e-2)


def test_a_non_finite_stage_state_is_named_by_its_curve_time():
    """The x0*y0*y1 term overflows A y - b to inf at the first node, so the
    next stage state is not finite.  Its y-dependent domain predicate cannot
    be evaluated there; the integrator reports the state, not a domain
    exit."""
    m = dsl.parse_metric("-y0^2 + y1^2 + pow(sin(x1), 2) * y2^2 + 1e300*x0*y0*y1",
                         3, domain=("sin(x1)", "1 + y0^2"), name="overflowing")
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(EvaluationDomainError) as err:
            geodesics.integrate_geodesic(m, [0, np.pi / 2, 0], [1e5, 1.0, 1.0],
                                         (0, 1), 1e-2)
    assert str(err.value) == "the integration state is not finite at t=0.005"


@pytest.mark.parametrize("name", ["einstein", "scaled_einstein", "bogoslovsky"])
def test_the_float_state_takes_the_steps_of_an_array_state_to_the_bit(name, request):
    """`integrate_geodesic` holds (x, y) as one tuple of Python floats.  A
    loop of `rk4_step` over numpy arrays, holding the state as a (2, n)
    array with the same float spray per stage, gives the same curve to the
    bit: the float state performs `rk4_step`'s operations in its order."""
    m = request.getfixturevalue(name)
    x0, v0 = ([0.1, 0.0], [2.0, 1.0]) if m.dim == 2 else ([0.0, 1.2, 0.3], [1.0, 0.2, 0.9])
    t0, t1, steps = 0.25, 0.85, 60
    curve = geodesics.integrate_geodesic(m, x0, v0, (t0, t1), 1e-2)
    h = (t1 - t0) / steps                # the step the integrator takes

    def f(t, s):
        return np.array([s[1], geodesics._rhs(m, s[0].tolist() + s[1].tolist(), t)])

    states = [np.array([x0, v0], dtype=float)]
    rates = [f(t0, states[0])]
    for k in range(steps):
        t = t0 + k * h
        states.append(geodesics.rk4_step(f, t, states[k], h, rates[k]))
        rates.append(f(t + h, states[-1]))
    assert len(curve.grid) == steps + 1
    for got, want in ((curve.positions, [s[0] for s in states]),
                      (curve.velocities, [s[1] for s in states]),
                      (curve.accelerations, [r[1] for r in rates])):
        assert np.array(want).tobytes() == got.tobytes()


def test_dense_output_matches_nodes_exactly(minkowski3):
    curve = geodesics.integrate_geodesic(minkowski3, [0, 0, 0], [1, 0.3, 0.1],
                                         (0, 1), 1e-2)
    assert np.abs(curve.position(curve.grid) - curve.positions).max() == 0.0
    assert np.abs(curve.velocity(curve.grid) - curve.velocities).max() == 0.0


def test_curve_csv_round_trip(tmp_path, minkowski3):
    curve = geodesics.integrate_geodesic(minkowski3, [0, 0, 0], [1, 0.2, 0], (0, 0.5), 1e-2)
    path = tmp_path / "curve.csv"
    curve.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x0,x1,x2,y0,y1,y2"
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert np.array_equal(data[:, 0], curve.grid)
    assert np.array_equal(data[:, 1:4], curve.positions)
    assert np.array_equal(data[:, 4:7], curve.velocities)


# --------------------------------------------------------------------------
# lightcone projection
# --------------------------------------------------------------------------

def test_projection_closed_form(minkowski3):
    v = dsl.TangentSample([0, 0, 0], [1.0, 0.5, 0.0])
    out = geodesics.project_to_lightcone(minkowski3, v, [1.0, 0.0, 0.0])
    assert np.allclose(out.y, [0.5, 0.5, 0.0], atol=1e-12)


def test_projection_is_idempotent(minkowski3):
    v = dsl.TangentSample([0, 0, 0], [1.0, 1.0, 0.0])
    out = geodesics.project_to_lightcone(minkowski3, v, [1.0, 0.0, 0.0])
    assert np.array_equal(out.y, v.y)


def test_projection_onto_a_boundary_cone(bogoslovsky):
    v = dsl.TangentSample([0, 0], [2.0, 1.9])
    out = geodesics.project_to_lightcone(bogoslovsky, v, [1.0, 0.0])
    assert abs(bogoslovsky.value_at(out)) <= 1e-12 * max(1.0, float(out.y @ out.y))
    assert bogoslovsky.admissible(out)

    # bisection oracle on the step parameter, sign-extended past the boundary
    def signed(delta):
        u = 0.1 + delta
        return np.sign(u) * abs(u) ** 1.3 * (3.9 + delta) ** 0.7

    lo, hi = -0.2, 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if signed(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    assert out.y[0] - 2.0 == pytest.approx(0.5 * (lo + hi), abs=1e-6)


def test_projection_transversality_guard(minkowski3):
    v = dsl.TangentSample([0, 0, 0], [1.0, 1.0, 0.0])   # lightlike
    # w with g(v, w) = 0: w = (1, 1, 0) since g(v,w) = -1 + 1 = 0
    with pytest.raises(TransversalityFailure):
        geodesics.project_to_lightcone(minkowski3, v, [1.0, 1.0, 0.0])


def test_no_one_point_path_calls_taylor(einstein, bogoslovsky, monkeypatch):
    """The RK stages of an einstein-static geodesic, a bogoslovsky2
    projection, and the spray and the Legendre covector at one sample run
    their elementary functions as written lines: at admissible points they
    make no call of `jets.taylor`.  A jet over a `SampleBatch`, whose row
    program does call it, shows that the counter counts."""
    calls = []
    plain = jets.taylor

    def counting(*args):
        calls.append(args)
        return plain(*args)

    # fresh definitions, whose kernels are written and compiled under the patch
    monkeypatch.setattr(jets, "taylor", counting)
    monkeypatch.setattr(dsl, "_KERNELS", {})
    monkeypatch.setattr(dsl, "_FLOAT_KERNELS", {})
    einstein, bogoslovsky = (
        dsl.MetricDefinition(m.name, m.dim, m.degree, m.body, m.domain, m.sample_box)
        for m in (einstein, bogoslovsky))
    curve = geodesics.integrate_geodesic(einstein, [0, np.pi / 2, 0], [1, 0.2, 0.9],
                                         (0, 0.5), 0.05)
    assert curve.grid.size == 11
    v = dsl.TangentSample([0, 0], [2.0, 1.9])
    out = geodesics.project_to_lightcone(bogoslovsky, v, [1.0, 0.0])
    connection.spray_coefficients(einstein, dsl.TangentSample(curve.positions[3],
                                                              curve.velocities[3]))
    tensors.legendre(bogoslovsky, out)
    assert calls == []
    bogoslovsky.jet(dsl.SampleBatch([out.x], [out.y]), 2)
    assert len(calls) == 2          # pow(y0 - y1, 1.3) and pow(y0 + y1, 0.7)


def test_projection_fails_on_a_metric_without_zeros():
    m = dsl.parse_metric("y0^2 + y1^2", 2, name="definite")
    v = dsl.TangentSample([0, 0], [1.0, 0.5])
    with pytest.raises(NoConvergence):
        geodesics.project_to_lightcone(m, v, [1.0, 0.0])


# --------------------------------------------------------------------------
# energy
# --------------------------------------------------------------------------

def test_energy_of_lightlike_curve_vanishes(minkowski3):
    curve = geodesics.integrate_geodesic(minkowski3, [0, 0, 0], [1, 1, 0], (0, 1), 1e-2)
    assert abs(geodesics.energy(curve, minkowski3)) <= 1e-12


def test_energy_of_unit_timelike_line(minkowski3):
    curve = geodesics.integrate_geodesic(minkowski3, [0, 0, 0], [1, 0, 0], (0, 1), 1e-2)
    assert geodesics.energy(curve, minkowski3) == pytest.approx(-0.5, abs=1e-12)
    lam = dsl.parse_metric("2.5", 3, degree=0, name="const")
    assert geodesics.energy(curve, minkowski3, lam) == pytest.approx(-1.25, abs=1e-12)


# --------------------------------------------------------------------------
# conformal reparametrization
# --------------------------------------------------------------------------

def test_unit_factor_reparametrization_is_a_shift(minkowski3):
    curve = geodesics.integrate_geodesic(minkowski3, [0, 0, 0], [1, 1, 0], (0, 1), 1e-2)
    rep, tilde = geodesics.reparametrize_conformal(curve, None, minkowski3)
    assert np.abs(rep.phi - rep.grid).max() <= 1e-12
    assert np.abs(tilde.positions - curve.positions).max() <= 1e-12


def test_constant_factor_reparametrization_is_affine(minkowski3):
    lam = dsl.parse_metric("0.5", 3, degree=0, name="half")
    curve = geodesics.integrate_geodesic(minkowski3, [0, 0, 0], [1, 1, 0], (0, 1), 1e-2)
    rep, tilde = geodesics.reparametrize_conformal(curve, lam, minkowski3)
    assert np.abs(rep.phi - 0.5 * rep.grid).max() <= 1e-12
    assert rep.grid[-1] == pytest.approx(2.0, abs=1e-10)


def test_directional_factor_constant_along_straight_line():
    """Along a straight line the direction-dependent factor is frozen, so
    the parameter map is the closed-form affine one."""
    lightlike = dsl.parse_metric("y0^2 - 4*y1^2", 2)
    lam = dsl.builtin_metric("bogoslovsky-factor")
    grid = np.arange(0.0, 1.0 + 1e-12, 1e-2)
    v0 = np.array([2.0, 1.0])
    curve = geodesics.DiscreteCurve(
        grid, np.outer(grid, v0), np.tile(v0, (grid.size, 1)),
        np.zeros((grid.size, 2)))
    rep, tilde = geodesics.reparametrize_conformal(curve, lam, lightlike)
    lam0 = (1.0 / 3.0) ** 0.3
    assert lam0 == pytest.approx(3.0 ** -0.3, rel=1e-15)
    assert np.abs(rep.phi - lam0 * rep.grid).max() <= 1e-9
    assert np.abs(rep.phidot - lam0).max() <= 1e-12


def test_lightlike_precondition_is_enforced(minkowski3):
    curve = geodesics.integrate_geodesic(minkowski3, [0, 0, 0], [1, 0, 0], (0, 1), 1e-2)
    with pytest.raises(ValueError):
        geodesics.reparametrize_conformal(curve, None, minkowski3)


def _tilted_scaled_curve(scaled_einstein, theta_weight):
    x0, v0 = sphere_reference.tilted_null_data(np.pi / 2 - 0.6)
    return geodesics.integrate_geodesic(
        scaled_einstein, x0, v0 / theta_weight.value(x0, v0), (0, 0.8), 2e-3)


def test_round_trip_with_the_inverse_factor(scaled_einstein, einstein, theta_weight):
    curve = _tilted_scaled_curve(scaled_einstein, theta_weight)
    rep, tilde = geodesics.reparametrize_conformal(curve, theta_weight, scaled_einstein)
    rep_back, _ = geodesics.reparametrize_conformal(
        tilde, conformal.inverse_factor(theta_weight), einstein)
    probe = np.linspace(tilde.t0, tilde.t1 * 0.999, 41)
    assert np.abs(rep_back(rep(probe)) - probe).max() <= 1e-8


def test_reparametrized_nodes_are_the_base_nodes(scaled_einstein, theta_weight):
    """The map is tabulated at the base curve's nodes, and the reparametrized
    curve holds their exact data: the same times and positions, bit for bit,
    and velocities scaled by the factor."""
    curve = _tilted_scaled_curve(scaled_einstein, theta_weight)
    rep, tilde = geodesics.reparametrize_conformal(curve, theta_weight, scaled_einstein)
    assert np.array_equal(rep.phi, curve.grid)
    assert np.array_equal(tilde.grid, rep.grid)
    assert np.array_equal(tilde.positions, curve.positions)
    assert np.array_equal(rep.phidot, geodesics.factor_values(theta_weight, curve))
    assert np.array_equal(tilde.velocities, rep.phidot[:, None] * curve.velocities)


def test_parameter_map_is_the_integral_of_the_inverse_factor(scaled_einstein,
                                                             theta_weight):
    """mu(t) - t0 equals an adaptive quadrature of 1/factor along the dense
    output, to 1e-12 at step 2e-3 (Simpson's error there is about 1e-14)."""
    from scipy.integrate import quad

    curve = _tilted_scaled_curve(scaled_einstein, theta_weight)
    rep, _ = geodesics.reparametrize_conformal(curve, theta_weight, scaled_einstein)

    def inverse_factor(t):
        return 1.0 / theta_weight.value(*curve.state(t))

    for k in range(0, curve.grid.size, 25):
        want, _ = quad(inverse_factor, curve.t0, curve.grid[k],
                       epsabs=1e-14, epsrel=1e-14, limit=200)
        assert abs(rep.grid[k] - curve.t0 - want) <= 1e-12


def _lightlike_line(t1, nodes):
    grid = np.linspace(0.0, t1, nodes)
    v = np.array([1.0, 1.0])
    return geodesics.DiscreteCurve(grid, np.outer(grid, v), np.tile(v, (nodes, 1)),
                                   np.zeros((nodes, 2)))


def test_a_vanishing_factor_is_a_positivity_failure():
    """1 - x0 falls to 0 at t = 1 on this lightlike line; the map would stop
    there, and the error names the time before any division."""
    lightlike = dsl.parse_metric("y0^2 - y1^2", 2)
    ramp = dsl.parse_metric("1 - x0", 2, degree=0, name="ramp")
    with pytest.raises(PositivityFailure, match=r"is 0\.0 at t=1\.0"):
        geodesics.reparametrize_conformal(_lightlike_line(2.0, 9), ramp, lightlike)


def test_a_factor_too_steep_for_the_step_is_a_typed_error():
    """exp(250 x0) grows about 12-fold per step of 0.01, and from about
    9-fold a Simpson step of 1/factor is negative, so the map would not
    increase: a FinslabError naming the time, not a spline's ValueError."""
    lightlike = dsl.parse_metric("y0^2 - y1^2", 2)
    steep = dsl.parse_metric("exp(250*x0)", 2, degree=0, name="steep")
    with pytest.raises(FinslabError, match=r"too fast for the curve's step near t=0\.01"):
        geodesics.reparametrize_conformal(_lightlike_line(0.1, 11), steep, lightlike)


# --------------------------------------------------------------------------
# pregeodesic residual
# --------------------------------------------------------------------------

def test_residual_vanishes_for_plain_geodesics(einstein):
    curve = geodesics.integrate_geodesic(
        einstein, [0, np.pi / 2, 0], [1, 0.3, 0.9], (0, 1.0), 1e-3)
    assert geodesics.pregeodesic_residual(curve, einstein, None) <= 1e-7


def test_residual_vanishes_for_scaled_geodesics_measured_with_base_symbols(
        scaled_einstein, einstein, theta_weight):
    x0, v0 = sphere_reference.tilted_null_data(np.pi / 2 - 0.6)
    start = lightlike_start(einstein, x0, v0)
    curve = geodesics.integrate_geodesic(
        scaled_einstein, start.x, start.y, (0, 1.0), 1e-3)
    assert geodesics.pregeodesic_residual(curve, einstein, theta_weight) <= 1e-6


def test_residual_detects_a_varying_factor(einstein, theta_weight):
    """A base-metric geodesic is NOT a scaled-metric pregeodesic when the
    factor varies along it."""
    x0, v0 = sphere_reference.tilted_null_data(np.pi / 2 - 0.6)
    curve = geodesics.integrate_geodesic(einstein, x0, v0, (0, 1.0), 2e-3)
    rate = geodesics.factor_rate(theta_weight, curve)
    speeds = np.linalg.norm(curve.velocities, axis=1)
    lower_bound = np.abs(rate[1:-1] * speeds[1:-1]).max()
    assert lower_bound > 1e-3
    residual = geodesics.pregeodesic_residual(curve, einstein, theta_weight)
    assert residual >= lower_bound - 1e-6


def test_reparametrized_curve_satisfies_base_equation(scaled_einstein, einstein,
                                                      theta_weight):
    x0, v0 = sphere_reference.tilted_null_data(np.pi / 2 - 0.6)
    start = v0 / theta_weight.value(x0, v0)
    residuals = []
    for h in (4e-3, 2e-3, 1e-3):
        curve = geodesics.integrate_geodesic(scaled_einstein, x0, start, (0, 0.5), h)
        _, tilde = geodesics.reparametrize_conformal(curve, theta_weight, scaled_einstein)
        residuals.append(geodesics.pregeodesic_residual(tilde, einstein, None))
    assert residuals[-1] <= 1e-6
    # the reparametrized nodes carry the integrator's node data, so the
    # residual falls with the RK4 error until round-off
    assert residuals[0] / residuals[-1] >= 16.0


def test_curve_values_equal_the_values_node_by_node(einstein, theta_weight):
    """`lightlike_defect` and `factor_values` read the curve node by node
    through the one-point float program; the numbers equal a loop over the
    nodes."""
    curve = geodesics.integrate_geodesic(einstein, [0, np.pi / 2, 0], [1, 0.3, 0.9],
                                         (0, 0.4), 0.02)
    nodes = list(zip(curve.positions, curve.velocities))
    assert geodesics.factor_values(theta_weight, curve).tobytes() == np.array(
        [theta_weight.value(x, y) for x, y in nodes]).tobytes()
    assert geodesics.factor_values(None, curve).tolist() == [1.0] * len(nodes)
    assert geodesics.lightlike_defect(curve, einstein) == max(
        [0.0] + [abs(einstein.value(x, y)) / max(1.0, float(y @ y)) for x, y in nodes])


def test_curve_consumers_run_one_point_programs_only(einstein, theta_weight, monkeypatch):
    """Along an einstein-static curve with the theta-weight factor, the
    pregeodesic residual, the energy, the factor rate and the lightlike
    defect run no tape jet at a 2-D point array: the spray and the factor
    partials take one one-point jet per node, and the values one float
    program per node."""
    x0, v0 = sphere_reference.tilted_null_data(np.pi / 2 - 0.6)
    curve = geodesics.integrate_geodesic(einstein, x0, v0, (0, 0.4), 0.02)
    size = curve.grid.size
    rows, jets, floats = [], collections.Counter(), collections.Counter()
    plain_jet, plain_point, plain_floats = (
        dsl.Tape.jet, dsl.MetricDefinition._point_jet, dsl.Tape.floats)
    monkeypatch.setattr(dsl.Tape, "jet", lambda self, point, order: rows.append(
        np.ndim(point)) or plain_jet(self, point, order))

    def point_jet(self, point, order):
        jets[self.name, order] += 1
        return plain_point(self, point, order)

    monkeypatch.setattr(dsl.MetricDefinition, "_point_jet", point_jet)
    monkeypatch.setattr(dsl.Tape, "floats", lambda self, point: floats.update(
        [self]) or plain_floats(self, point))
    geodesics.pregeodesic_residual(curve, einstein, theta_weight)
    assert jets == {("einstein-static", 2): size - 2, ("theta-weight", 2): size}
    assert floats == {einstein._domain: size - 2, theta_weight._body: size}
    jets.clear(), floats.clear()
    geodesics.factor_rate(theta_weight, curve)
    assert jets == {("theta-weight", 2): size} and not floats
    jets.clear()
    geodesics.energy(curve, einstein, theta_weight)
    geodesics.lightlike_defect(curve, einstein)
    assert not jets
    assert floats == {einstein._domain: size, theta_weight._body: size,
                      einstein._body: 2 * size}
    assert 2 not in rows


def test_a_curve_value_raises_at_the_first_failing_node():
    """Nodes 3 and 5 leave the domain of log(x0); node 3's error is raised."""
    lam = dsl.parse_metric("log(x0) + 0*y0", 1, degree=0)
    x = np.array([[1.0], [0.5], [0.1], [-1.0], [0.2], [-2.0]])
    curve = geodesics.DiscreteCurve(np.arange(6.0), x, np.ones((6, 1)), np.zeros((6, 1)))
    with pytest.raises(EvaluationDomainError, match="-1.0"):
        geodesics.factor_values(lam, curve)
