"""Rejection sampling, lightcone projection and cone sampling against the
serial loops of tests/projection_reference.py: every sample ends at the same
vector to the bit, or fails with the same exception type and text, and the
generator ends in the same state."""

import collections

import numpy as np
import pytest

import projection_reference as reference
from finslab import conformal, dsl, geodesics
from finslab.errors import (EvaluationDomainError, InadmissibleSample,
                            NoAdmissibleSample, NoConvergence, TransversalityFailure)


def _bogoslovsky(b: float) -> dsl.MetricDefinition:
    return dsl.parse_metric_file(
        f"name=bogoslovsky-b\ndim=2\ndegree=2\ndomain=y0 - y1; y0 + y1\n"
        f"pow(y0 - y1, {1.0 + b!r}) * pow(y0 + y1, {1.0 - b!r})\n")


CONE_METRICS = ([dsl.builtin_metric(name) for name in
                 ("minkowski2-cone", "bogoslovsky2", "bogoslovsky2-warped")]
                + [_bogoslovsky(b) for b in (0.05, 0.3, 0.4)])

_EINSTEIN = dsl.builtin_metric("einstein-static")
PROJECTED_METRICS = CONE_METRICS + [_EINSTEIN, conformal.scale_metric(
    _EINSTEIN, dsl.builtin_metric("theta-weight"), sample_budget=1)[0]]

# a probe along no basis vector: on the three-dimensional metrics the
# slope dL_v(w), a numpy dot product, rounds apart from a float sum
SKEW_PROBE = [0.3, -0.7, 0.2]


def _outcomes(project, m, samples, probes, tol):
    """project(m, v, w, tol=tol) at each sample along its probe: the
    projected sample, or the exception raised."""
    out = []
    for v, w in zip(samples, probes):
        try:
            out.append(project(m, v, w, tol=tol))
        except Exception as exc:
            out.append(exc)
    return out


def _serial(m, samples, probes, tol=1e-12):
    return _outcomes(reference.project_to_lightcone, m, samples, probes, tol)


def _projected(m, samples, probes, tol=1e-12):
    return _outcomes(geodesics.project_to_lightcone, m, samples, probes, tol)


def _assert_same_outcomes(got, ref):
    assert len(got) == len(ref)
    for g, r in zip(got, ref):
        if isinstance(r, Exception):
            assert type(g) is type(r) and str(g) == str(r), (g, r)
        else:
            assert isinstance(g, dsl.TangentSample), g
            assert np.array_equal(g.x, r.x) and np.array_equal(g.y, r.y)
            assert g.y.tobytes() == r.y.tobytes()


def _sampled_metrics():
    """Every builtin metric and factor, and every factor * metric product
    that `scale_metric` forms from them."""
    builtins = [dsl.builtin_metric(name) for name in dsl.builtin_names()]
    return builtins + [conformal.scale_metric(m, lam, sample_budget=1)[0]
                       for lam in builtins if lam.degree == 0
                       for m in builtins if m.degree == 2 and m.dim == lam.dim]


def _draw_both(m, seed, count):
    """The shipped sampler's and the serial loop's draws from one seed: each
    outcome (the samples as bytes, or the exception type and text) and the
    generator state it leaves."""
    draws = []
    for sample in (dsl.sample_admissible, reference.sample_admissible):
        rng = np.random.default_rng(seed)
        try:
            got = [(v.x.tobytes(), v.y.tobytes()) for v in sample(m, rng, count=count)]
        except Exception as exc:
            got = (type(exc), str(exc))
        draws.append((got, rng.bit_generator.state))
    return draws


@pytest.mark.parametrize("m", _sampled_metrics(), ids=lambda m: m.name)
def test_sampling_matches_the_serial_loop(m):
    """The same samples, to the bit, and the generator left where the loop
    leaves it."""
    for seed in (0, 1, 2, 11):
        for count in (1, 2, 17, 100):
            got, ref = _draw_both(m, seed, count)
            assert len(ref[0]) == count
            assert got == ref, (seed, count)


@pytest.mark.parametrize("name,count", [("bogoslovsky2", 100), ("bogoslovsky2", 5),
                                        ("minkowski2-cone", 40), ("einstein-static", 3)])
def test_running_out_of_rejections_leaves_the_generator_as_the_loop(monkeypatch,
                                                                    name, count):
    """NoAdmissibleSample after the last allowed rejection, with the
    generator where the loop leaves it; a budget of 0 raises before any
    draw, and one that suffices returns the samples."""
    m = dsl.builtin_metric(name)
    for budget in (0, 1, 7, 30):
        monkeypatch.setattr(dsl, "MAX_REJECTIONS", budget)
        for seed in range(3):
            got, ref = _draw_both(m, seed, count)
            assert got == ref, (budget, seed)


def test_no_admissible_sample_is_raised_as_the_loop_raises_it(monkeypatch):
    """Before 100 bogoslovsky2 samples are drawn, and after the rejections
    of an empty domain."""
    monkeypatch.setattr(dsl, "MAX_REJECTIONS", 7)
    got, ref = _draw_both(dsl.builtin_metric("bogoslovsky2"), 0, 100)
    assert got == ref and ref[0] == (NoAdmissibleSample, "no admissible sample for "
                                     "'bogoslovsky2' after 7 rejections")
    monkeypatch.setattr(dsl, "MAX_REJECTIONS", 200)
    m = dsl.parse_metric("y0^2", 1, domain=("-(y0*y0)",), name="empty")
    got, ref = _draw_both(m, 5, 3)
    assert got == ref and ref[0][0] is NoAdmissibleSample


@pytest.mark.parametrize("box,error", [(((0.0, 1.0), (1.0, 0.0)), ValueError),
                                       (((0.0, 1.0), (float("nan"), 1.0)), OverflowError),
                                       (((0.0, 1.0), (float("-inf"), 1.0)), OverflowError),
                                       (((0.0, 1.0),), ValueError)])
def test_a_bad_box_fails_as_the_serial_draw(box, error):
    m = dsl.parse_metric("y0^2 + y1^2", 2, sample_box=box)
    got, ref = _draw_both(m, 0, 2)
    assert got[0] == ref[0] and ref[0][0] is error


@pytest.mark.parametrize("m", PROJECTED_METRICS, ids=lambda m: m.pretty())
@pytest.mark.parametrize("seed", range(3))
def test_projection_matches_the_serial_loop(m, seed):
    """32 samples of a cone metric, each along its best probe (in three
    dimensions the first along `SKEW_PROBE`), projected one at a time: the
    same vectors, to the bit, and the same failures."""
    samples = dsl.sample_admissible(m, np.random.default_rng(seed), count=32)
    probes = np.array([geodesics.probe_vector(m, v) for v in samples])
    if m.dim == 3:
        probes[0] = SKEW_PROBE
    for tol in (1e-12, 1e-13):
        got = _projected(m, samples, probes, tol)
        _assert_same_outcomes(got, _serial(m, samples, probes, tol))


@pytest.mark.parametrize("m", CONE_METRICS[:3], ids=lambda m: m.name)
def test_a_sample_returns_or_raises_as_the_serial_loop(m):
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


def _count_point_jets(monkeypatch) -> collections.Counter:
    """From now on, the one-point jets taken of any definition, counted by
    the chart point x of the sample x + y."""
    jets = collections.Counter()
    plain = dsl.MetricDefinition._point_jet

    def spy(self, point, order):
        jets[tuple(point[:self.dim])] += 1
        return plain(self, point, order)

    monkeypatch.setattr(dsl.MetricDefinition, "_point_jet", spy)
    return jets


def test_stalled_samples_stop_before_the_last_iteration(monkeypatch):
    """On the (y0 + y1)^0.7 face of bogoslovsky2 some samples reach a step
    that no longer moves delta: they fail at once, not after all 50 Newton
    iterations, and every outcome is still that of the loop."""
    m = dsl.builtin_metric("bogoslovsky2")
    samples = dsl.sample_admissible(m, np.random.default_rng(0), count=32)
    probes = np.array([geodesics.probe_vector(m, v) for v in samples])
    ref = _serial(m, samples, probes, 1e-13)
    jets = _count_point_jets(monkeypatch)
    got = _projected(m, samples, probes, 1e-13)
    _assert_same_outcomes(got, ref)
    stalled = [k for k, r in enumerate(ref)
               if str(r) == "lightcone projection did not converge in 50 iterations"]
    assert len(stalled) >= 10
    # one jet at the start, then one after each Newton step before the 40th
    for k in stalled:
        assert 1 <= jets[tuple(samples[k].x.tolist())] <= 40, k


def test_projection_runs_one_point_programs_only(monkeypatch):
    """32 bogoslovsky2 samples are projected without a row program (no tape
    jet at a 2-D point array), with exactly as many one-point jets, sample
    by sample, as the serial loop takes, except that a sample that stalls
    stops early."""
    m = dsl.builtin_metric("bogoslovsky2")
    samples = dsl.sample_admissible(m, np.random.default_rng(4), count=32)
    probes = np.array([geodesics.probe_vector(m, v) for v in samples])
    serial_jets = _count_point_jets(monkeypatch)
    ref = _serial(m, samples, probes, 1e-13)
    monkeypatch.undo()
    rows = []
    plain_jet = dsl.Tape.jet
    monkeypatch.setattr(dsl.Tape, "jet", lambda self, point, order: rows.append(
        np.ndim(point)) or plain_jet(self, point, order))
    jets = _count_point_jets(monkeypatch)
    got = _projected(m, samples, probes, 1e-13)
    _assert_same_outcomes(got, ref)
    assert 2 not in rows
    assert len(jets) == len(serial_jets) == 32
    for v, r in zip(samples, ref):
        x = tuple(v.x.tolist())
        if str(r) == "lightcone projection did not converge in 50 iterations":
            assert jets[x] < serial_jets[x] == 51
        else:
            assert jets[x] == serial_jets[x]


@pytest.mark.parametrize("shape", [(1, 2), (2, 2), (3,), ()])
def test_a_probe_array_of_the_wrong_shape_is_refused(monkeypatch, shape):
    """A sample of a two-dimensional metric needs a (2,) probe: a row, a
    stack of rows, a longer vector or a scalar is a ValueError, raised
    before any jet."""
    m = dsl.builtin_metric("bogoslovsky2")
    (v,) = dsl.sample_admissible(m, np.random.default_rng(0), count=1)
    jets = _count_point_jets(monkeypatch)
    with pytest.raises(ValueError, match="probe array of shape"):
        geodesics.project_to_lightcone(m, v, np.ones(shape))
    assert not jets


def test_transversality_and_convergence_failures_match_the_serial_loop():
    """y0^2 + y1^2 has no cone: a probe orthogonal to its sample fails
    transversality, the others fail to converge, as in the serial loop."""
    m = dsl.parse_metric("y0^2 + y1^2", 2)
    rng = np.random.default_rng(2)
    ys = rng.normal(size=(12, 2))
    probes = np.array([[-y[1], y[0]] if k % 3 == 0 else [1.0, 0.0] if k % 3 == 1
                       else [0.6, 0.8] for k, y in enumerate(ys)])
    samples = [dsl.TangentSample(rng.uniform(-1, 1, 2), y) for y in ys]
    got = _projected(m, samples, probes)
    ref = _serial(m, samples, probes)
    _assert_same_outcomes(got, ref)
    kinds = {type(r) for r in ref}
    assert kinds == {TransversalityFailure, NoConvergence}


def test_a_sample_that_exhausts_its_halvings_fails():
    """From y = (1, 1) a Newton step of about -1e19 along y0 leaves the
    domain y0 > 0 at all 60 halvings; from y = (1, 0), stepping along y1,
    the projection converges."""
    m = dsl.parse_metric("1e8*y1 + 1e-11*y0", 2, domain=("y0",))
    samples = [dsl.TangentSample([0.0, 0.0], [1.0, 1.0]),
               dsl.TangentSample([0.0, 0.0], [1.0, 0.0])]
    probes = np.array([[1.0, 0.0], [0.0, 1.0]])
    got = _projected(m, samples, probes)
    ref = _serial(m, samples, probes)
    _assert_same_outcomes(got, ref)
    assert str(ref[0]) == "lightcone projection could not stay inside the domain"
    assert isinstance(ref[1], dsl.TangentSample)


def test_the_sixtieth_halving_is_still_tried():
    """With slope 2.5e-10 the step is about -4e17: halvings 0 to 58 leave
    the domain y0 > 0 and halving 59, the last one allowed, stays in."""
    m = dsl.parse_metric("1e8*y1 + 2.5e-10*y0", 2, domain=("y0",))
    samples = [dsl.TangentSample([0.0, 0.0], [1.0, 1.0])]
    probes = np.array([[1.0, 0.0]])
    checks = []
    plain = dsl.MetricDefinition._point_admissible

    def spy(self, point):
        checks.append(plain(self, point))
        return checks[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dsl.MetricDefinition, "_point_admissible", spy)
        got = _projected(m, samples, probes)
    # the start, then the 60 candidates of the first step: 61 one-point
    # domain checks up to the first admissible candidate
    assert checks.index(True, 1) == 60
    assert checks[:61] == [True] + [False] * 59 + [True]
    _assert_same_outcomes(got, _serial(m, samples, probes))


def test_a_zero_candidate_counts_as_inadmissible():
    """For L = y0 a full Newton step lands on the zero vector, which no
    sample may be, so the step is halved, as in the serial loop."""
    m = dsl.parse_metric("y0", 1)
    samples = [dsl.TangentSample([0.0], [2.0]), dsl.TangentSample([0.0], [-0.5])]
    probes = np.array([[1.0], [1.0]])
    _assert_same_outcomes(_projected(m, samples, probes), _serial(m, samples, probes))


def test_inadmissible_and_non_finite_samples_fail_with_their_errors():
    """A sample outside the domain and a sample whose jet is not finite get
    their own errors, as in the serial loop; the other samples project."""
    m = dsl.parse_metric("exp(700*x0) * (y0^2 - y1^2)", 2, domain=("y0 - y1", "y0 + y1"))
    samples = [dsl.TangentSample([0.0, 0.0], [1.0, 0.5]),
               dsl.TangentSample([0.0, 0.0], [0.5, 1.0]),       # outside
               dsl.TangentSample([0.999, 0.0], [1.0, 0.5]),     # non-finite jet
               dsl.TangentSample([0.0, 0.7], [1.5, 0.2])]
    probes = np.array([[0.0, 1.0]] * 4)
    with np.errstate(over="ignore", invalid="ignore"):
        got = _projected(m, samples, probes)
        ref = _serial(m, samples, probes)
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


def test_sampling_and_cone_sampling_take_one_sample_at_a_time(monkeypatch):
    """`sample_admissible` and `lightcones_coincide` build no `SampleBatch`
    and run no row jet program (no tape jet at a 2-D point array), and the
    report is still the serial loop's."""
    pair = conformal.ConformalPair(dsl.builtin_metric("minkowski2-cone"),
                                   dsl.builtin_metric("bogoslovsky2"), sample_budget=16, seed=7)
    ref = reference.lightcones_coincide(pair)
    batches, rows = [], []
    plain_init, plain_jet = dsl.SampleBatch.__init__, dsl.Tape.jet
    monkeypatch.setattr(dsl.SampleBatch, "__init__", lambda self, x, y: batches.append(
        len(x)) or plain_init(self, x, y))
    monkeypatch.setattr(dsl.Tape, "jet", lambda self, point, order: rows.append(
        np.ndim(point)) or plain_jet(self, point, order))
    samples = dsl.sample_admissible(_EINSTEIN, np.random.default_rng(1), count=20)
    got = conformal.lightcones_coincide(pair)
    _same_report(got, ref)
    assert len(samples) == 20 and all(r.mu is not None for r in got.records)
    assert not batches and 2 not in rows


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
