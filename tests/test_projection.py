"""Rejection sampling, lightcone projection and cone sampling against the
serial loops of tests/projection_reference.py: every sample ends at the same
vector to the bit, or fails with the same exception type and text, and the
generator ends in the same state."""

import collections
import math
import operator

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
    _EINSTEIN, dsl.builtin_metric("theta-weight"), sample_budget=1)]

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
    return builtins + [conformal.scale_metric(m, lam, sample_budget=1)
                       for lam in builtins if lam.degree == 0
                       for m in builtins if m.degree == 2 and m.dim == lam.dim]


def _shipped(m, rng, count):
    return [(v.x, v.y) for v in dsl.sample_admissible(m, rng, count=count)]


def _serial_draws(m, rng, count):
    return [(v.x, v.y) for v in reference.sample_admissible(m, rng, count=count)]


def _float_draws(m, rng, count):
    """`dsl._draws`, each of whose coordinates must be a Python float."""
    draws = dsl._draws(m, rng, count)
    assert all(type(a) is float for x, y in draws for a in x + y)
    return draws


def _draw_both(m, seed, count, sample=_shipped):
    """The sampler's (by default the shipped sampler's) and the serial loop's
    draws from one seed: each outcome (the samples as bytes, or the
    exception type and text) and the generator state it leaves."""
    draws = []
    for draw in (sample, _serial_draws):
        rng = np.random.default_rng(seed)
        try:
            got = [(np.array(x).tobytes(), np.array(y).tobytes())
                   for x, y in draw(m, rng, count)]
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


@pytest.mark.parametrize("name", ["minkowski2-cone", "bogoslovsky2", "einstein-static",
                                  "theta-weight"])
def test_float_draws_are_the_serial_loops_floats(monkeypatch, name):
    """`dsl._draws` yields the serial loop's samples as Python floats, to
    the bit, and leaves the generator where the loop leaves it, also on
    minkowski2-cone, whose domain rejects about 3 of 4 candidates, and when
    MAX_REJECTIONS runs out."""
    m = dsl.builtin_metric(name)
    for seed in (0, 1, 2, 11):
        for count in (1, 17, 100):
            got, ref = _draw_both(m, seed, count, _float_draws)
            assert len(ref[0]) == count
            assert got == ref, (seed, count)
    for budget in (0, 7, 30):
        monkeypatch.setattr(dsl, "MAX_REJECTIONS", budget)
        for seed in range(3):
            got, ref = _draw_both(m, seed, 100, _float_draws)
            assert got == ref, (budget, seed)
            if budget == 0 or name == "minkowski2-cone":
                assert ref[0][0] is NoAdmissibleSample


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


def _outcome(project):
    try:
        return project()
    except Exception as exc:       # noqa: BLE001 - the outcome is compared
        return exc


@pytest.mark.parametrize("m", CONE_METRICS, ids=lambda m: m.name)
def test_the_auto_probe_is_the_probe_vector(m):
    """`project_to_lightcone(m, v)` reads `probe_vector`'s basis vector off
    its first jet: every outcome is that of the projection along
    `probe_vector(m, v)`, to the bit, and a sample along which no basis
    vector pairs fails with `probe_vector`'s error."""
    samples = dsl.sample_admissible(m, np.random.default_rng(9), count=32)
    flat = dsl.parse_metric("pow(y0 - y1, 3) + 0*x0", 2, name="flat")
    cases = [(m, v) for v in samples] + [(flat, dsl.TangentSample([0.0, 0.0], [1.0, 1.0]))]
    for tol in (1e-12, 1e-13):
        got = [_outcome(lambda: geodesics.project_to_lightcone(mk, v, tol=tol))
               for mk, v in cases]
        want = [_outcome(lambda: geodesics.project_to_lightcone(
            mk, v, geodesics.probe_vector(mk, v), tol=tol)) for mk, v in cases]
        _assert_same_outcomes(got, want)
        assert str(got[-1]) == "no basis vector pairs with the sample"
        assert sum(isinstance(g, dsl.TangentSample) for g in got) >= 8


def _ulps(x: float, k: int) -> float:
    """x moved k units in the last place (down for k < 0)."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


@pytest.mark.parametrize("n", range(1, dsl.MAX_DIM + 1))
def test_the_squared_norm_bound_decides_as_the_numpy_dot(n):
    """At |value| within 3 ulp of tol max(1, y @ y), with |y|^2 just below
    1, at 1 and far above it, `_within` decides as the numpy dot does; the
    data hold values that a bound without the margin 1e-13 would refuse
    although the dot admits them (the float sum of the squares rounds below
    the dot)."""
    rng = np.random.default_rng(400 + n)
    refused_without_margin = 0
    for size in (1.0 - 1e-12, 1.0, 1e6):
        for _ in range(40):
            y = rng.standard_normal(n)
            y = (y * math.sqrt(size / float(y @ y))).tolist()
            dot = float(np.array(y) @ np.array(y))
            for tol in (1e-12, 1e-13, 1e-8):
                edge = tol * max(1.0, dot)
                floor = tol * max(1.0, sum(map(operator.mul, y, y)))
                for k in range(-3, 4):
                    value = _ulps(edge, k)
                    refused_without_margin += floor < value <= edge
                    for signed in (value, -value):
                        assert geodesics._within(signed, tol, y) is (value <= edge), (y, k)
    assert n == 1 or refused_without_margin


class _CountingNumpy:
    """numpy, with the arrays that `np.array` makes counted."""

    def __init__(self):
        self.arrays = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def array(self, *args, **kwargs):
        self.arrays += 1
        return np.array(*args, **kwargs)


def test_a_basis_probe_takes_no_slope_dot_and_the_norm_dot_only_where_it_can_pass(
        monkeypatch):
    """Along a basis probe, auto or given, no Newton evaluation makes a numpy
    array for the slope: every array is the |y|^2 of a tolerance test, and a
    test takes one exactly where tol max(1, s (1 + 1e-13)), from the float
    sum s of the squares, does not already fail it.  Along a skew probe the
    slope is the numpy dot, one array per Newton evaluation."""
    m = dsl.builtin_metric("bogoslovsky2")
    samples = dsl.sample_admissible(m, np.random.default_rng(3), count=32)
    counting, plain, tests = _CountingNumpy(), geodesics._within, []

    def spy(value, tol, y):
        before = counting.arrays
        verdict = plain(value, tol, y)
        bound = tol * max(1.0, sum(map(operator.mul, y, y)) * (1.0 + 1e-13))
        tests.append((abs(value) <= bound, counting.arrays - before))
        return verdict

    jets = _count_point_jets(monkeypatch)
    monkeypatch.setattr(geodesics, "np", counting)
    monkeypatch.setattr(geodesics, "_within", spy)
    for w in ("auto", [0.0, 1.0], [0.6, 0.8]):
        tests.clear()
        jets.clear()
        start = counting.arrays
        for v in samples:
            _outcome(lambda: geodesics.project_to_lightcone(m, v, w, tol=1e-13))
        taken = sum(arrays for _, arrays in tests)
        assert all(arrays == can_pass for can_pass, arrays in tests)
        assert 0 < taken < len(tests)
        if w == [0.6, 0.8]:
            assert counting.arrays - start == taken + sum(jets.values())
        else:
            assert counting.arrays - start == taken


def _count_point_jets(monkeypatch) -> collections.Counter:
    """From now on, the one-point jets taken of any definition, counted by
    the chart point x of the sample x + y: each run of a jet kernel that
    `Tape.point_kernel` hands out, bound or through the method layers."""
    jets = collections.Counter()
    plain = dsl.Tape.point_kernel

    def spy(self, order):
        kernel = plain(self, order)

        def counted(point):
            jets[tuple(point[:self.dim])] += 1
            return kernel(point)
        return counted

    monkeypatch.setattr(dsl.Tape, "point_kernel", spy)
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
    """32 bogoslovsky2 samples are projected along the probe that the
    projection picks, without a row program (no tape jet at a 2-D point
    array), with one one-point jet fewer, sample by sample, than
    `probe_vector` and the serial loop take (the probe's jet is the first
    Newton jet), except that a sample that stalls stops early."""
    m = dsl.builtin_metric("bogoslovsky2")
    samples = dsl.sample_admissible(m, np.random.default_rng(4), count=32)
    serial_jets = _count_point_jets(monkeypatch)
    probes = [geodesics.probe_vector(m, v) for v in samples]
    ref = _serial(m, samples, probes, 1e-13)
    monkeypatch.undo()
    rows = []
    plain_jet = dsl.Tape.jet
    monkeypatch.setattr(dsl.Tape, "jet", lambda self, point, order: rows.append(
        np.ndim(point)) or plain_jet(self, point, order))
    jets = _count_point_jets(monkeypatch)
    got = _outcomes(lambda m, v, w, tol: geodesics.project_to_lightcone(m, v, tol=tol),
                    m, samples, probes, 1e-13)
    _assert_same_outcomes(got, ref)
    assert 2 not in rows
    assert len(jets) == len(serial_jets) == 32
    for v, r in zip(samples, ref):
        x = tuple(v.x.tolist())
        if str(r) == "lightcone projection did not converge in 50 iterations":
            assert jets[x] < serial_jets[x] - 1 == 51
        else:
            assert jets[x] == serial_jets[x] - 1


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


def test_a_negative_zero_slope_reads_as_the_dot_reads_it():
    """At x0 = 0 the slope of -(x0 y1) - y0^2 along e1 is the jet
    coefficient -0.0; the serial loop's numpy dot sums it from +0.0 to +0.0,
    and the projection's transversality failure prints the same zero."""
    m = dsl.parse_metric("-(x0*y1) - y0^2", 2)
    samples = [dsl.TangentSample([0.0, 0.0], [1.0, 1.0])]
    probes = np.array([[0.0, 1.0]])
    ref = _serial(m, samples, probes)
    _assert_same_outcomes(_projected(m, samples, probes), ref)
    assert str(ref[0]) == "probe vector pairs to 0.000e+00 with the base vector"


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
    plain = dsl.Tape.positive_kernel

    def spy(self):
        check = plain(self)
        return lambda point: checks.append(check(point)) or checks[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dsl.Tape, "positive_kernel", spy)
        got = _projected(m, samples, probes)
    # the start, then the 60 candidates of the first step: 61 runs of the
    # bound domain check up to the first admissible candidate
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
    assert len(samples) == 20 and got.samples
    assert not batches and 2 not in rows


def test_cone_sampling_builds_no_tangent_sample(monkeypatch):
    """Cone sampling and the factor's sign check keep every sample as Python
    floats: no `TangentSample` is built on a pair whose projections all
    converge, and the report is still the serial loop's."""
    cone = dsl.builtin_metric("minkowski2-cone")
    lam = dsl.parse_metric("1 + 0.5*x0^2", 2, degree=0, name="x0-weight")
    built = []
    plain = dsl.TangentSample.__init__
    monkeypatch.setattr(dsl.TangentSample, "__init__", lambda self, x, y: built.append(
        1) or plain(self, x, y))
    pair = conformal.ConformalPair(cone, conformal.scale_metric(cone, lam), sample_budget=32)
    got = conformal.lightcones_coincide(pair)
    assert not built
    _same_report(got, reference.lightcones_coincide(pair))
    assert got.samples == 64 and got.projection_failures == 0


def test_anisotropy_factor_is_the_closed_form_at_projected_cone_samples(einstein,
                                                                        theta_weight):
    """At the cone samples of einstein-static and its theta-weighted scaling,
    projected as the serial loop projects them, each sample is on the cone of
    both metrics, so `anisotropy_factor` takes the pairing ratio along the
    probe, and it is theta-weight's closed form 1 + 0.1 y1^2 / |y|^2."""
    scaled = conformal.scale_metric(einstein, theta_weight, sample_budget=4)
    pair = conformal.ConformalPair(einstein, scaled, sample_budget=6, seed=3)
    got = conformal.lightcones_coincide(pair)
    _same_report(got, reference.lightcones_coincide(pair))
    rng = np.random.default_rng(pair.seed)
    checked = 0
    for source in (einstein, scaled):
        for vstar, w in filter(None, reference.cone_points(source, rng, pair.sample_budget)):
            y = vstar.y
            scale = max(1.0, float(y @ y))
            assert abs(einstein.value_at(vstar)) <= geodesics.LIGHTLIKE_TOL * scale
            closed = 1.0 + 0.1 * y[1] ** 2 / float(y @ y)
            assert abs(conformal.anisotropy_factor(pair, vstar, w=w) - closed) <= 1e-12
            checked += 1
    assert checked == got.samples > 0


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
