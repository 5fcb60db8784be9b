"""Batched lightcone projection and cone sampling against the serial loops
they replaced (tests/projection_reference.py): every sample ends at the same
vector to the bit, or fails with the same exception type and text."""

import numpy as np
import pytest

import projection_reference as reference
from finslab import conformal, dsl, geodesics
from finslab.errors import (EvaluationDomainError, InadmissibleSample,
                            NoConvergence, TransversalityFailure)


def _bogoslovsky(b: float) -> dsl.MetricDefinition:
    return dsl.parse_metric_file(
        f"name=bogoslovsky-b\ndim=2\ndegree=2\ndomain=y0 - y1; y0 + y1\n"
        f"pow(y0 - y1, {1.0 + b!r}) * pow(y0 + y1, {1.0 - b!r})\n")


CONE_METRICS = ([dsl.builtin_metric(name) for name in
                 ("minkowski2-cone", "bogoslovsky2", "bogoslovsky2-warped")]
                + [_bogoslovsky(b) for b in (0.05, 0.3, 0.4)])


def _serial(m, samples, probes, tol):
    out = []
    for v, w in zip(samples, probes):
        try:
            out.append(reference.project_to_lightcone(m, v, w, tol=tol))
        except Exception as exc:
            out.append(exc)
    return out


def _assert_same_outcomes(got, ref):
    assert len(got) == len(ref)
    for g, r in zip(got, ref):
        if isinstance(r, Exception):
            assert type(g) is type(r) and str(g) == str(r), (g, r)
        else:
            assert isinstance(g, dsl.TangentSample), g
            assert np.array_equal(g.x, r.x) and np.array_equal(g.y, r.y)
            assert g.y.tobytes() == r.y.tobytes()


def _batch(samples):
    return dsl.SampleBatch([v.x for v in samples], [v.y for v in samples])


@pytest.mark.parametrize("m", CONE_METRICS, ids=lambda m: m.pretty())
@pytest.mark.parametrize("seed", range(3))
def test_batched_projection_matches_the_serial_loop(m, seed):
    """32 samples of a cone metric, each along its best probe, projected in
    one call: the same vectors, to the bit, and the same failures."""
    samples = dsl.sample_admissible(m, np.random.default_rng(seed), count=32)
    probes = np.array([geodesics.probe_vector(m, v) for v in samples])
    for tol in (1e-12, 1e-13):
        got = geodesics.project_to_lightcone(m, _batch(samples), probes, tol=tol)
        _assert_same_outcomes(got, _serial(m, samples, probes, tol))


@pytest.mark.parametrize("m", CONE_METRICS[:3], ids=lambda m: m.name)
def test_one_sample_is_the_batch_of_one(m):
    """A `TangentSample` returns its projection or raises its exception,
    as the serial loop does, whichever way it ends."""
    samples = dsl.sample_admissible(m, np.random.default_rng(5), count=12)
    for v in samples:
        w = geodesics.probe_vector(m, v)
        for tol in (1e-12, 1e-13):
            (ref,) = _serial(m, [v], [w], tol)
            try:
                got = geodesics.project_to_lightcone(m, v, w, tol=tol)
            except Exception as exc:
                got = exc
            _assert_same_outcomes([got], [ref])


def test_a_batch_mixes_transversality_and_convergence_failures():
    """y0^2 + y1^2 has no cone: a probe orthogonal to its sample fails
    transversality, the others fail to converge, each as alone."""
    m = dsl.parse_metric("y0^2 + y1^2", 2)
    rng = np.random.default_rng(2)
    ys = rng.normal(size=(12, 2))
    probes = np.array([[-y[1], y[0]] if k % 3 == 0 else [1.0, 0.0] if k % 3 == 1
                       else [0.6, 0.8] for k, y in enumerate(ys)])
    samples = [dsl.TangentSample(rng.uniform(-1, 1, 2), y) for y in ys]
    got = geodesics.project_to_lightcone(m, _batch(samples), probes)
    ref = _serial(m, samples, probes, 1e-12)
    _assert_same_outcomes(got, ref)
    kinds = {type(r) for r in ref}
    assert kinds == {TransversalityFailure, NoConvergence}


def test_a_row_that_exhausts_its_halvings_fails_alone():
    """From y = (1, 1) a Newton step of about -1e19 along y0 leaves the
    domain y0 > 0 at all 60 halvings; from y = (1, 0) the row beside it,
    stepping along y1, converges."""
    m = dsl.parse_metric("1e8*y1 + 1e-11*y0", 2, domain=("y0",))
    samples = [dsl.TangentSample([0.0, 0.0], [1.0, 1.0]),
               dsl.TangentSample([0.0, 0.0], [1.0, 0.0])]
    probes = np.array([[1.0, 0.0], [0.0, 1.0]])
    got = geodesics.project_to_lightcone(m, _batch(samples), probes)
    ref = _serial(m, samples, probes, 1e-12)
    _assert_same_outcomes(got, ref)
    assert str(ref[0]) == "lightcone projection could not stay inside the domain"
    assert isinstance(ref[1], dsl.TangentSample)


def test_the_sixtieth_halving_is_still_tried():
    """With slope 2.5e-10 the step is about -4e17: halvings 0 to 58 leave
    the domain y0 > 0 and halving 59, the last one allowed, stays in."""
    m = dsl.parse_metric("1e8*y1 + 2.5e-10*y0", 2, domain=("y0",))
    samples = [dsl.TangentSample([0.0, 0.0], [1.0, 1.0])]
    probes = np.array([[1.0, 0.0]])
    calls = []
    plain = m.admissible
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dsl.MetricDefinition, "admissible",
                      lambda self, v: calls.append(len(v)) or plain(v))
        got = geodesics.project_to_lightcone(m, _batch(samples), probes)
    assert calls[:61] == [1] * 61      # the start, then 60 candidates of one step
    _assert_same_outcomes(got, _serial(m, samples, probes, 1e-12))


def test_a_zero_candidate_counts_as_inadmissible():
    """For L = y0 a full Newton step lands on the zero vector, which no
    sample may be, so the step is halved, as alone."""
    m = dsl.parse_metric("y0", 1)
    samples = [dsl.TangentSample([0.0], [2.0]), dsl.TangentSample([0.0], [-0.5])]
    probes = np.array([[1.0], [1.0]])
    got = geodesics.project_to_lightcone(m, _batch(samples), probes)
    _assert_same_outcomes(got, _serial(m, samples, probes, 1e-12))


def test_inadmissible_and_non_finite_rows_fail_alone():
    """A sample outside the domain and a sample whose jet is not finite get
    their own errors; the other samples still project."""
    m = dsl.parse_metric("exp(700*x0) * (y0^2 - y1^2)", 2, domain=("y0 - y1", "y0 + y1"))
    samples = [dsl.TangentSample([0.0, 0.0], [1.0, 0.5]),
               dsl.TangentSample([0.0, 0.0], [0.5, 1.0]),       # outside
               dsl.TangentSample([0.999, 0.0], [1.0, 0.5]),     # non-finite jet
               dsl.TangentSample([0.0, 0.7], [1.5, 0.2])]
    probes = np.array([[0.0, 1.0]] * 4)
    with np.errstate(over="ignore", invalid="ignore"):
        got = geodesics.project_to_lightcone(m, _batch(samples), probes)
        ref = _serial(m, samples, probes, 1e-12)
    _assert_same_outcomes(got, ref)
    assert [type(r) for r in ref] == [dsl.TangentSample, InadmissibleSample,
                                      EvaluationDomainError, dsl.TangentSample]


def _same_report(got, ref):
    assert (got.verdict, got.max_violation, got.samples, got.projection_failures,
            got.empty_cones) == (ref.verdict, ref.max_violation, ref.samples,
                                 ref.projection_failures, ref.empty_cones)
    assert len(got.records) == len(ref.records)
    for g, r in zip(got.records, ref.records):
        assert g.sample.tobytes() == r.sample.tobytes()
        assert g.w_used.tobytes() == r.w_used.tobytes()
        assert (g.L1, g.L2, g.mu, g.violation) == (r.L1, r.L2, r.mu, r.violation)


@pytest.mark.parametrize("m2", CONE_METRICS[1:], ids=lambda m: m.pretty())
def test_cone_sampling_matches_the_serial_loop(m2):
    pair = conformal.ConformalPair(dsl.builtin_metric("minkowski2-cone"), m2,
                                   sample_budget=24, seed=7)
    _same_report(conformal.lightcones_coincide(pair), reference.lightcones_coincide(pair))


def test_cone_sampling_records_pairing_ratios_on_the_cone(einstein, theta_weight):
    """On einstein-static and its theta-weighted scaling every projected
    sample is on the cone of both, so each factor is a pairing ratio."""
    scaled, _ = conformal.scale_metric(einstein, theta_weight, sample_budget=4)
    pair = conformal.ConformalPair(einstein, scaled, sample_budget=6, seed=3)
    got = conformal.lightcones_coincide(pair)
    _same_report(got, reference.lightcones_coincide(pair))
    assert got.records and all(r.mu is not None for r in got.records)


def test_a_later_non_finite_jet_raises_after_earlier_failures():
    """Sample k's jet is not finite and earlier samples fail to converge:
    the failures are counted and sample k's EvaluationDomainError is raised,
    as in the serial loop."""
    cone = ("y0 - y1", "y0 + y1")
    m1 = dsl.parse_metric("exp(700*x0) * (y0^2 - y1^2)", 2, domain=cone,
                          sample_box=((0.95, 1.0), (-1.0, 1.0)))
    m2 = dsl.parse_metric("exp(700*x0) * pow(y0 - y1, 1.3) * pow(y0 + y1, 0.7)", 2,
                          domain=cone, sample_box=((0.95, 1.0), (-1.0, 1.0)))
    # at seed 10 the jet of m1 is first not finite at sample 16 (x0 > 0.9962)
    pair = conformal.ConformalPair(m1, m2, sample_budget=32, seed=10)
    samples = dsl.sample_admissible(m1, np.random.default_rng(pair.seed), count=32)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(EvaluationDomainError) as ref:
            reference.lightcones_coincide(pair)
        with pytest.raises(EvaluationDomainError) as got:
            conformal.lightcones_coincide(pair)
        k = next(k for k, v in enumerate(samples) if repr(v) in str(ref.value))
        earlier = []
        for v in samples[:k]:
            try:
                reference.project_to_lightcone(m1, v, reference.probe_vector(m1, v),
                                               tol=1e-13)
            except NoConvergence as exc:
                earlier.append(exc)
    assert str(got.value) == str(ref.value)
    assert earlier
