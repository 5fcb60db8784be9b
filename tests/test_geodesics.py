"""Geodesic integration, lightcone projection, energy quadrature, and the
conformal reparametrization of lightlike geodesics."""

import collections

import numpy as np
import pytest

from finslab import conformal, connection, dsl, experiments, geodesics, jets, tensors
from finslab.errors import (DomainExit, EvaluationDomainError, FinslabError,
                            InadmissibleSample, NoConvergence, PositivityFailure,
                            TransversalityFailure)
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


def test_a_zero_fiber_vector_at_an_rk_stage_is_a_domain_exit():
    """G = y^2/2 for exp(2*x0)*y0^2: the second stage of one step of 2 from
    y = 1 has y = 0 at t = 1, which lies in no conic domain."""
    m = dsl.parse_metric("exp(2*x0)*y0^2", 1, name="expo")
    with pytest.raises(DomainExit) as err:
        geodesics.integrate_geodesic(m, [0.0], [1.0], (0.0, 2.0), 2.0)
    assert err.value.t == 1.0


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
    """`integrate_geodesic` holds (x, y) as one list of Python floats.  A
    loop of `rk4_step` over numpy arrays, holding the state as a (2, n)
    array with the same float spray per stage, gives the same curve to the
    bit: the float state performs `rk4_step`'s operations in its order."""
    m = request.getfixturevalue(name)
    x0, v0 = ([0.1, 0.0], [2.0, 1.0]) if m.dim == 2 else ([0.0, 1.2, 0.3], [1.0, 0.2, 0.9])
    t0, t1, steps = 0.25, 0.85, 60
    curve = geodesics.integrate_geodesic(m, x0, v0, (t0, t1), 1e-2)
    h = (t1 - t0) / steps                # the step the integrator takes
    stage = geodesics._rates(m)

    def f(t, s):
        return np.array([s[1], stage(t, s[0].tolist() + s[1].tolist())[m.dim:]])

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


def _stage_outcome(stage, t, point):
    try:
        return stage(t, point)
    except Exception as exc:       # noqa: BLE001 - the outcome is compared
        return type(exc), str(exc)


def _stage_by_methods(m):
    """An RK stage as a chain of m's one-point methods: the finite check,
    `_point_admissible`, `_point_jet` and `connection._spray`."""
    def stage(t, point):
        if not all(map(np.isfinite, point)):
            raise EvaluationDomainError(f"the integration state is not finite at t={t!r}")
        y = point[m.dim:]
        if not (any(y) and m._point_admissible(point)):
            raise DomainExit(t)
        return [*y, *(-2.0 * a for a in connection._spray(m._point_jet(point, 2), y))]
    return stage


_STAGE_CASES = {
    # metric text, domain, and points x + y of a 2-D metric
    "body constant fails": ("-y0^2 + y1^2 + (1/0)*x0*y1^2", (),
                            [[0.1, 0.2, 1.0, 2.0], [0.1, 0.2, 0.0, 0.0]]),
    "domain constant fails": ("-y0^2 + y1^2", ("y0 + log(0)",), [[0.1, 0.2, 1.0, 2.0]]),
    "domain program raises": ("-y0^2 + y1^2", ("log(x0)",),
                              [[-1.0, 0.2, 1.0, 2.0], [0.5, 0.2, 1.0, 2.0]]),
    "domain miss": ("-y0^2 + y1^2", ("x0", "y1"),
                    [[0.5, 0.2, 1.0, -2.0], [0.5, 0.2, 1.0, 2.0]]),
    "zero fiber vector": ("-y0^2 + y1^2", (), [[0.5, 0.2, 0.0, 0.0]]),
    "state not finite": ("-y0^2 + y1^2", (), [[np.inf, 0.2, 1.0, 2.0],
                                              [0.5, 0.2, np.nan, 2.0]]),
    "jet not finite": ("-y0^2 + y1^2 + 1e300*x0*y0*y1", (), [[1e10, 0.2, 1.0, 2.0]]),
    "singular": ("y0^2 + 0*y1", (), [[0.5, 0.2, 1.0, 2.0]]),
}


@pytest.mark.parametrize("case", sorted(_STAGE_CASES))
def test_an_rk_stage_keeps_the_checks_of_the_one_point_methods(case):
    """An RK stage with m's compiled programs bound (`_rates`) gives, at
    each point, the rate or the error type and text of the chain of
    one-point methods, in the same order: a state that is not finite, a
    zero fiber vector, a domain miss or a domain program that raises, a
    tape whose constant failed, a jet that is not finite, a singular g."""
    text, domain, points = _STAGE_CASES[case]
    m = dsl.parse_metric(text, 2, domain=domain, name=case)
    outcomes = []
    for point in points:
        with np.errstate(over="ignore", invalid="ignore"):
            want = _stage_outcome(_stage_by_methods(m), 0.375, point)
            outcomes.append(_stage_outcome(geodesics._rates(m), 0.375, point))
        assert repr(outcomes[-1]) == repr(want)
    assert isinstance(outcomes[0], tuple)      # the first point of each case fails


def test_a_shared_kernel_names_the_definition_that_runs_it():
    """Two definitions of one text share the jet and domain kernels through
    `dsl._KERNELS` and `dsl._FLOAT_KERNELS`; a stage whose jet is not
    finite names the definition it runs for, so no kernel carries a name."""
    first, second = (dsl.parse_metric("-y0^2 + y1^2 + 1e300*x0*y0*y1", 2, domain=("y1",),
                                      name=name) for name in ("first", "second"))
    assert first._body.point_kernel(2) is second._body.point_kernel(2)
    assert first._domain.float_kernel() is second._domain.float_kernel()
    assert first._domain.positive_kernel() is second._domain.positive_kernel()
    for m in (first, second, first):
        with np.errstate(over="ignore"), pytest.raises(EvaluationDomainError) as err:
            geodesics.integrate_geodesic(m, [1e10, 0.0], [1.0, 2.0], (0, 1), 0.1)
        assert str(err.value) == f"the jet of {m.name!r} is not finite at " \
                                 f"{dsl.TangentSample([1e10, 0.0], [1.0, 2.0])!r}"


def test_a_failed_constant_raises_at_the_first_stage():
    """A body whose constant fails passes the start check and raises its
    failure at the first RK stage; a domain whose constant fails admits no
    start."""
    body = dsl.parse_metric("-y0^2 + y1^2 + (1/0)*x0*y1^2", 2, name="body")
    with pytest.raises(EvaluationDomainError) as err:
        geodesics.integrate_geodesic(body, [0.1, 0.2], [1.0, 2.0], (0, 1), 0.1)
    assert str(err.value) == body._body.failure
    domain = dsl.parse_metric("-y0^2 + y1^2", 2, domain=("y0 + log(0)",), name="domain")
    with pytest.raises(InadmissibleSample):
        geodesics.integrate_geodesic(domain, [0.1, 0.2], [1.0, 2.0], (0, 1), 0.1)


def test_an_rk_stage_calls_no_one_point_method(einstein, bogoslovsky, monkeypatch):
    """The RK stages of `integrate_geodesic` run m's bound programs: no
    `_point_admissible`, `_point_jet`, `Tape.floats` or `connection._spray`
    beyond the one domain check of the start, which runs the bound check
    and no `Tape.floats`, whatever the step count; the step is written once
    per state length, and `rk4_step` on an array is the step of one
    component."""
    calls = collections.Counter()
    for owner, name in ((dsl.MetricDefinition, "_point_admissible"),
                        (dsl.MetricDefinition, "_point_jet"), (dsl.Tape, "floats"),
                        (connection, "_spray")):
        monkeypatch.setattr(owner, name, lambda *args, _plain=getattr(owner, name),
                            _name=name: calls.update([_name]) or _plain(*args))
    sources, plain_compiled = [], geodesics._compiled
    monkeypatch.setattr(geodesics, "_compiled", lambda source, names: sources.append(
        source) or plain_compiled(source, names))
    geodesics._rk4_kernel.cache_clear()
    for m, x0, v0 in ((einstein, [0, np.pi / 2, 0], [1, 0.3, 0.9]),
                      (bogoslovsky, [0.0, 0.0], [2.0, 1.0])):
        for h in (0.1, 0.01):
            geodesics.integrate_geodesic(m, x0, v0, (0, 0.4), h)
    assert calls == {"_point_admissible": 4}
    s = np.array([[1.0, 2.0], [3.0, 4.0]])
    geodesics.rk4_step(lambda t, s: t * s, 0.5, s, 0.25, 0.5 * s)
    assert [source.splitlines()[1].strip() for source in sources] == [
        "s0, s1, s2, s3, s4, s5, = s", "s0, s1, s2, s3, = s", "s0, = s"]


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


def test_the_factor_values_are_checked_before_its_jets_are_taken():
    """The map reads the factor's values at every node, and checks them,
    before it takes the factor's jets: a factor that vanishes at t = 4 is a
    PositivityFailure although the jets would refuse the zero fiber vector
    at t = 1 first."""
    lightlike = dsl.parse_metric("y0^2 - y1^2", 2)
    ramp = dsl.parse_metric("1 - x0", 2, degree=0, name="ramp")
    line = _lightlike_line(1.25, 6)
    velocities = line.velocities.copy()
    velocities[1] = 0.0
    curve = geodesics.DiscreteCurve(line.grid, line.positions, velocities,
                                    line.accelerations)
    with pytest.raises(PositivityFailure, match=r"is 0\.0 at t=1\.0"):
        geodesics.reparametrize_conformal(curve, ramp, lightlike)
    with pytest.raises(ValueError, match="fiber vector must be nonzero"):
        geodesics.factor_rate(ramp, curve)


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


def _count_programs(monkeypatch) -> collections.Counter:
    """From now on, the runs of the programs that a tape hands out, counted
    by (tape, program): "inside" for its domain check
    (`Tape.positive_kernel`), "value" for its float program
    (`Tape.float_kernel`, and `Tape.floats`, which runs it) and the order for
    its one-point jet kernel (`Tape.point_kernel`), bound or through the
    method layers."""
    runs = collections.Counter()
    for getter, program in (("positive_kernel", "inside"), ("float_kernel", "value"),
                            ("point_kernel", None)):
        def spy(self, *order, _plain=getattr(dsl.Tape, getter), _program=program):
            kernel, key = _plain(self, *order), (self, *order) if order else (self, _program)
            return lambda point: runs.update([key]) or kernel(point)
        monkeypatch.setattr(dsl.Tape, getter, spy)
    monkeypatch.setattr(dsl.Tape, "floats", lambda self, point: self.float_kernel()(point))
    return runs


def test_curve_consumers_run_one_point_programs_only(einstein, theta_weight, monkeypatch):
    """Along an einstein-static curve with the theta-weight factor, the
    pregeodesic residual, the conformal reparametrization, the energy, the
    factor's values and rate and the lightlike defect run no tape jet at a
    2-D point array, and at most one domain check, one float value and one
    order-2 one-point jet per node and definition: the spray and the factor
    partials take one jet per node, and the values one float program per
    node."""
    x0, v0 = sphere_reference.tilted_null_data(np.pi / 2 - 0.6)
    curve = geodesics.integrate_geodesic(einstein, x0, v0, (0, 0.4), 0.02)
    size = curve.grid.size
    rows = []
    plain_jet = dsl.Tape.jet
    monkeypatch.setattr(dsl.Tape, "jet", lambda self, point, order: rows.append(
        np.ndim(point)) or plain_jet(self, point, order))
    runs = _count_programs(monkeypatch)
    domain, body, factor = einstein._domain, einstein._body, theta_weight._body
    for run, want in (
            (lambda: geodesics.pregeodesic_residual(curve, einstein, theta_weight),
             {(domain, "inside"): size - 2, (body, 2): size - 2, (factor, "value"): size,
              (factor, 2): size}),
            (lambda: geodesics.reparametrize_conformal(curve, theta_weight, einstein),
             {(body, "value"): size, (factor, "value"): size, (factor, 2): size}),
            (lambda: geodesics.factor_rate(theta_weight, curve), {(factor, 2): size}),
            (lambda: geodesics.factor_values(theta_weight, curve), {(factor, "value"): size}),
            (lambda: geodesics.energy(curve, einstein, theta_weight),
             {(domain, "inside"): size, (factor, "value"): size, (body, "value"): size}),
            (lambda: geodesics.lightlike_defect(curve, einstein), {(body, "value"): size})):
        runs.clear()
        run()
        assert runs == want
    assert 2 not in rows


# The energy's node chain fails in three ways, chosen by the node: x0 = 6
# leaves the metric's domain, x1 = -1 fails the factor's value (log) and
# x0 = -2 fails the metric's value (sqrt).
ENERGY_METRIC = dsl.parse_metric("-y0^2 + y1^2 + 0*sqrt(x0 + 1)", 2, domain=("5 - x0",),
                                 name="bounded")
ENERGY_FACTOR = dsl.parse_metric("2 + log(x1)", 2, degree=0, name="log-factor")
ENERGY_PLANTS = {"outside": (0, 6.0), "factor": (1, -1.0), "metric": (0, -2.0)}


def _energy_by_loop(times, X, Y):
    """The error of a loop over the nodes in curve order that checks the
    metric's domain, then takes the factor's value and then the metric's."""
    for t, x, y in zip(times, X, Y):
        if not ENERGY_METRIC.admissible(dsl.TangentSample(x, y)):
            return InadmissibleSample, f"curve leaves the domain of 'bounded' at t={t!r}"
        for f in (ENERGY_FACTOR, ENERGY_METRIC):
            try:
                f.value(x, y)
            except EvaluationDomainError as exc:
                return EvaluationDomainError, str(exc)
    return None


@pytest.mark.parametrize("plants", [
    {3: ["outside"], 6: ["factor"]}, {3: ["factor"], 6: ["outside"]},
    {3: ["factor"], 6: ["metric"]}, {3: ["metric"], 6: ["factor"]},
    {4: ["outside", "factor"]}, {4: ["factor", "metric"]}], ids=repr)
def test_the_energy_checks_each_node_before_the_next(plants):
    """At node k the energy checks m's domain, then takes the factor's value,
    then m's value, all before node k + 1: a factor failure and a domain
    exit (or m's own failure) at two nodes raise the earlier node's error in
    either order, and at one node the first in that chain."""
    times = 0.25 * np.arange(10)
    X = np.column_stack([1.0 + 0.1 * np.arange(10), np.ones(10)])
    Y = np.tile([1.0, 1.0], (10, 1))
    for k, kinds in plants.items():
        for kind in kinds:
            column, value = ENERGY_PLANTS[kind]
            X[k, column] = value
    error, message = _energy_by_loop(times, X, Y)
    curve = geodesics.DiscreteCurve(times, X, Y, np.zeros_like(Y))
    with pytest.raises(error) as caught:
        geodesics.energy(curve, ENERGY_METRIC, ENERGY_FACTOR)
    assert str(caught.value) == message
    first = plants[min(plants)][0]
    assert ("log" in message, "sqrt" in message, "domain" in message) == (
        first == "factor", first == "metric", first == "outside")


def test_a_curve_value_raises_at_the_first_failing_node():
    """Nodes 3 and 5 leave the domain of log(x0); node 3's error is raised."""
    lam = dsl.parse_metric("log(x0) + 0*y0", 1, degree=0)
    x = np.array([[1.0], [0.5], [0.1], [-1.0], [0.2], [-2.0]])
    curve = geodesics.DiscreteCurve(np.arange(6.0), x, np.ones((6, 1)), np.zeros((6, 1)))
    with pytest.raises(EvaluationDomainError, match="-1.0"):
        geodesics.factor_values(lam, curve)
