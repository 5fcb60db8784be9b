"""Shared lightcones, the directional conformal factor, and metric scaling."""

import numpy as np
import pytest

from finslab import conformal, dsl, geodesics, tensors
from finslab.errors import InadmissibleSample, PositivityFailure, TransversalityFailure


@pytest.fixture(scope="module")
def cone_pair(bogoslovsky):
    cone = dsl.builtin_metric("minkowski2-cone")
    return conformal.ConformalPair(cone, bogoslovsky, sample_budget=48, seed=7)


def test_pair_requires_shared_domain(minkowski2, bogoslovsky):
    with pytest.raises(ValueError):
        conformal.ConformalPair(minkowski2, bogoslovsky)


def test_scaled_pair_shares_its_lightcone(minkowski2):
    double = dsl.parse_metric("-2*y0^2 + 2*y1^2", 2, name="double")
    pair = conformal.ConformalPair(minkowski2, double, sample_budget=32, seed=1)
    report = conformal.lightcones_coincide(pair)
    assert report.verdict
    assert report.max_violation <= 1e-12


def test_quadratic_cone_and_power_cone_coincide(cone_pair):
    report = conformal.lightcones_coincide(cone_pair)
    assert report.verdict
    assert report.max_violation <= 1e-8
    assert not report.empty_cones


def test_distinct_cones_are_rejected():
    a = dsl.parse_metric("-y0^2 + y1^2", 2, name="a")
    b = dsl.parse_metric("-2*y0^2 + y1^2", 2, name="b")
    report = conformal.lightcones_coincide(conformal.ConformalPair(a, b, 32, 3))
    assert not report.verdict
    assert report.max_violation > 0.1


def test_empty_cone_is_reported():
    a = dsl.parse_metric("y0^2 + y1^2", 2, name="round")
    b = dsl.parse_metric("2*y0^2 + 2*y1^2", 2, name="round2")
    report = conformal.lightcones_coincide(conformal.ConformalPair(a, b, 16, 4))
    assert not report.verdict
    assert set(report.empty_cones) == {"round", "round2"}


def test_factor_constant_pair(minkowski2):
    double = dsl.parse_metric("-2*y0^2 + 2*y1^2", 2, name="double")
    pair = conformal.ConformalPair(minkowski2, double, seed=2)
    rng = np.random.default_rng(11)
    for v in dsl.sample_admissible(minkowski2, rng, count=10):
        assert conformal.anisotropy_factor(pair, v) == pytest.approx(2.0, abs=1e-12)
    # on the cone the quotient degenerates but the pairing ratio still works
    on_cone = dsl.TangentSample([0, 0], [1.0, 1.0])
    assert conformal.anisotropy_factor(pair, on_cone) == pytest.approx(2.0, abs=1e-12)


def test_factor_closed_form_off_the_cone(cone_pair):
    v = dsl.TangentSample([0, 0], [2.0, 1.0])
    mu = conformal.anisotropy_factor(cone_pair, v)
    assert mu == pytest.approx((1.0 / 3.0) ** 0.3, rel=1e-12)
    assert mu == pytest.approx(0.7192230933248643, rel=1e-12)


def test_factor_closed_form_sweep_with_near_cone_offsets(cone_pair):
    rng = np.random.default_rng(5)
    worst = 0.0
    checked = 0
    for v in dsl.sample_admissible(cone_pair.L1, rng, count=120):
        mu = conformal.anisotropy_factor(cone_pair, v)
        closed = ((v.y[0] - v.y[1]) / (v.y[0] + v.y[1])) ** 0.3
        worst = max(worst, abs(mu - closed) / max(1.0, abs(closed)))
        checked += 1
    for exponent in (2, 3, 4, 5, 6):
        for v in dsl.sample_admissible(cone_pair.L1, rng, count=16):
            star = geodesics.project_to_lightcone(cone_pair.L1, v, [1.0, 0.0])
            # rescale along the cone so the offset stays clear of the tip
            star = star.scaled(1.0 / np.linalg.norm(star.y))
            off = dsl.TangentSample(star.x, star.y + 10.0 ** -exponent * np.array([1.0, 0.0]))
            if not cone_pair.L1.admissible(off):
                continue
            mu = conformal.anisotropy_factor(cone_pair, off)
            closed = ((off.y[0] - off.y[1]) / (off.y[0] + off.y[1])) ** 0.3
            worst = max(worst, abs(mu - closed) / max(1.0, abs(closed)))
            checked += 1
    assert checked >= 200
    assert worst <= 1e-8


def test_factor_is_probe_independent(cone_pair, einstein, theta_weight):
    rng = np.random.default_rng(6)
    # off the cone the probe is ignored entirely
    for v in dsl.sample_admissible(cone_pair.L1, rng, count=10):
        values = [conformal.anisotropy_factor(cone_pair, v, w=rng.uniform(-1, 1, 2))
                  for _ in range(10)]
        assert max(values) - min(values) <= 1e-9
    # on the cone of a smooth pair the pairing-ratio is probe-independent
    scaled, _ = conformal.scale_metric(einstein, theta_weight, sample_budget=8, seed=0)
    pair = conformal.ConformalPair(einstein, scaled, seed=3)
    for v in dsl.sample_admissible(einstein, rng, count=10):
        star = geodesics.project_to_lightcone(einstein, v, [1.0, 0.0, 0.0])
        values = []
        for _ in range(10):
            w = rng.uniform(-1.0, 1.0, 3)
            ell = tensors.legendre(einstein, star)
            if abs(float(ell @ w)) < 1e-3:
                continue
            values.append(conformal.anisotropy_factor(pair, star, w=w))
        assert max(values) - min(values) <= 1e-9


def test_factor_transversality_guard(minkowski2):
    double = dsl.parse_metric("-2*y0^2 + 2*y1^2", 2, name="double")
    pair = conformal.ConformalPair(minkowski2, double, seed=2)
    on_cone = dsl.TangentSample([0, 0], [1.0, 1.0])
    with pytest.raises(TransversalityFailure):
        conformal.anisotropy_factor(pair, on_cone, w=[1.0, 1.0])


def test_factor_checks_the_domain_off_the_cone():
    """y = (0.2, 1.0) lies outside the forward cone y0 > |y1| of both
    metrics, and off their lightcone; the quotient L2/L1 = 2 there must
    not be returned, just as on the cone at y = (-1, 1)."""
    cone = dsl.builtin_metric("minkowski2-cone")
    double = dsl.parse_metric("2*(y0^2 - y1^2)", 2, domain=("y0 - y1", "y0 + y1"),
                              name="double-cone")
    pair = conformal.ConformalPair(cone, double)
    for y in ([0.2, 1.0], [-1.0, 1.0]):
        with pytest.raises(InadmissibleSample, match="outside the domain of 'minkowski2-cone'"):
            conformal.anisotropy_factor(pair, dsl.TangentSample([0.0, 0.0], y))
    assert conformal.anisotropy_factor(pair, dsl.TangentSample([0.0, 0.0], [1.0, 0.2])) == 2.0


def test_factor_is_degree_zero(cone_pair):
    rng = np.random.default_rng(8)
    for v in dsl.sample_admissible(cone_pair.L1, rng, count=20):
        a = conformal.anisotropy_factor(cone_pair, v)
        b = conformal.anisotropy_factor(cone_pair, v.scaled(3.7))
        assert abs(a - b) <= 1e-10


# --------------------------------------------------------------------------
# scaling
# --------------------------------------------------------------------------

def test_unit_scaling_is_the_identity(einstein):
    unit = dsl.builtin_metric("unit-factor")
    scaled, report = conformal.scale_metric(einstein, unit, sample_budget=16, seed=1)
    rng = np.random.default_rng(9)
    for v in dsl.sample_admissible(einstein, rng, count=10):
        assert scaled.value_at(v) == pytest.approx(einstein.value_at(v), rel=1e-15)
    assert report.nondegenerate


def test_scaled_fundamental_tensor_matches_finite_differences(einstein, theta_weight):
    import finitediff

    scaled, _ = conformal.scale_metric(einstein, theta_weight, sample_budget=8, seed=2)
    rng = np.random.default_rng(10)
    for v in dsl.sample_admissible(scaled, rng, count=5):
        g = tensors.fundamental_tensor(scaled, v).matrix

        def f(y):
            return scaled.value(v.x, y)

        for i in range(3):
            for j in range(i, 3):
                alpha = tuple(np.bincount([i, j], minlength=3))
                fd = 0.5 * finitediff.partial_derivative(f, v.y, alpha, h=0.02)
                assert abs(g[i, j] - fd) / max(1.0, abs(fd)) < 1e-6


def test_factor_recovered_from_the_scaled_pair(einstein, theta_weight):
    scaled, _ = conformal.scale_metric(einstein, theta_weight, sample_budget=8, seed=3)
    pair = conformal.ConformalPair(einstein, scaled, seed=4)
    rng = np.random.default_rng(11)
    for v in dsl.sample_admissible(einstein, rng, count=100):
        mu = conformal.anisotropy_factor(pair, v)
        assert abs(mu - theta_weight.value_at(v)) <= 1e-9


def test_forward_equivalence_for_constructed_pairs(einstein, theta_weight):
    scaled, _ = conformal.scale_metric(einstein, theta_weight, sample_budget=8, seed=5)
    pair = conformal.ConformalPair(einstein, scaled, sample_budget=32, seed=6)
    report = conformal.lightcones_coincide(pair)
    assert report.verdict
    rng = np.random.default_rng(12)
    for v in dsl.sample_admissible(einstein, rng, count=50):
        mu = conformal.anisotropy_factor(pair, v)
        l1, l2 = einstein.value_at(v), scaled.value_at(v)
        assert abs(mu * l1 - l2) <= 1e-9 * max(1.0, abs(l2))


def test_positivity_failure_is_raised(einstein):
    signed = dsl.parse_metric("y1^2 / (y0^2 + y1^2 + y2^2) - 0.2", 3,
                              degree=0, name="signed")
    with pytest.raises(PositivityFailure):
        conformal.scale_metric(einstein, signed, sample_budget=64, seed=7)


def test_degree_validation():
    m = dsl.builtin_metric("einstein-static")
    with pytest.raises(ValueError):
        conformal.scale_metric(m, m)   # degree-2 factor rejected


def test_factor_continuity_across_a_smooth_cone(einstein, theta_weight):
    """For a pair whose factor extends smoothly over the cone, quotient
    values at offsets 1e-2..1e-6 converge to the on-cone pairing value."""
    scaled, _ = conformal.scale_metric(einstein, theta_weight, sample_budget=8, seed=8)
    pair = conformal.ConformalPair(einstein, scaled, seed=9)
    rng = np.random.default_rng(14)
    for v in dsl.sample_admissible(einstein, rng, count=5):
        star = geodesics.project_to_lightcone(einstein, v, [1.0, 0.0, 0.0])
        on_cone = conformal.anisotropy_factor(pair, star)
        assert abs(on_cone - theta_weight.value_at(star)) <= 1e-10
        w = np.array([1.0, 0.0, 0.0])
        for exponent in (2, 3, 4, 5, 6):
            off = dsl.TangentSample(star.x, star.y + 10.0 ** -exponent * w)
            mu = conformal.anisotropy_factor(pair, off)
            assert abs(mu - theta_weight.value_at(off)) <= 1e-9


def test_degeneracy_sweep_of_the_power_family():
    """Scaling the cone metric by ((y0-y1)/(y0+y1))^b degenerates the
    fundamental tensor as b -> 1; the inverse raises once past threshold and
    the scale report flags the near-degenerate survey."""
    cone = dsl.builtin_metric("minkowski2-cone")
    v = dsl.TangentSample([0.0, 0.0], [2.0, 1.0])

    def factor(b):
        return dsl.parse_metric(f"pow((y0 - y1) / (y0 + y1), {b!r})", 2,
                                degree=0, domain=("y0 - y1", "y0 + y1"),
                                name=f"power-{b}")

    from finslab.errors import SingularMetric

    dets = []
    for b in (0.3, 0.999, 1 - 1e-13):
        scaled, report = conformal.scale_metric(cone, factor(b),
                                                sample_budget=4, seed=1)
        g = tensors.fundamental_tensor(scaled, v)
        dets.append(abs(g.det))
        if b < 0.5:
            assert report.nondegenerate
            tensors.inverse_metric(g)
        elif b > 1 - 1e-12:
            assert not report.nondegenerate
            with pytest.raises(SingularMetric):
                tensors.inverse_metric(g)
    assert dets[0] > dets[1] > dets[2]


def test_inverse_factor_round_trip(theta_weight):
    inv = conformal.inverse_factor(theta_weight)
    rng = np.random.default_rng(13)
    m = dsl.builtin_metric("einstein-static")
    for v in dsl.sample_admissible(m, rng, count=10):
        assert inv.value_at(v) * theta_weight.value_at(v) == pytest.approx(1.0, rel=1e-14)
