"""The compiled expression tape against the recursive jet walk over all 2n
variables that it replaced (tests/expr_reference.py)."""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import expr_reference
from finslab import conformal, connection, dsl, jets
from finslab.errors import EvaluationDomainError

ORDERS = range(5)
# Bare errors of the tree walk (sin of inf, overflowing powers) that the
# tape raises as EvaluationDomainError instead.
UNTYPED = (ValueError, OverflowError, ZeroDivisionError)


def _definitions():
    """Every builtin metric and factor, and every factor * metric product
    that `scale_metric` forms from them."""
    builtins = [dsl.builtin_metric(name) for name in dsl.builtin_names()]
    products = [conformal.scale_metric(m, lam, sample_budget=1)[0]
                for lam in builtins if lam.degree == 0
                for m in builtins if m.degree == 2 and m.dim == lam.dim]
    return builtins + products


@pytest.mark.parametrize("m", _definitions(), ids=lambda m: m.name)
def test_tape_matches_the_tree_walk_on_builtin_definitions(m):
    rng = np.random.default_rng(len(m.name))
    for v in dsl.sample_admissible(m, rng, count=4):
        for order in ORDERS:
            ref = expr_reference.reference_jet(m.body, v.x, v.y, order)
            assert m.jet(v, order).c.tobytes() == ref.tobytes()
        assert m.value_at(v) == float(expr_reference.evaluate(m.body, v.x, v.y))


def _trees():
    leaves = st.one_of(
        st.floats(min_value=-3, max_value=3).map(dsl.Num),
        st.sampled_from([0.0, 1e200]).map(dsl.Num),
        st.sampled_from([dsl.Var(kind, i) for kind in "xy" for i in range(2)]),
    )

    def extend(children):
        pairs = st.tuples(children, children)
        return st.one_of(
            *(pairs.map(lambda ab, op=op: op(*ab))
              for op in (dsl.Add, dsl.Sub, dsl.Mul, dsl.Div)),
            children.map(dsl.Neg),
            st.tuples(children, st.sampled_from(
                [0.0, 1.0, 2.0, 3.0, -1.0, -2.0, 0.5, 1.3, -0.7])).map(
                lambda bp: dsl.Pow(*bp)),
            st.tuples(st.sampled_from(["exp", "log", "sqrt", "sin", "cos"]),
                      children).map(lambda na: dsl.Func(*na)),
            # repeated subtrees, which the tape computes once
            children.map(lambda c: dsl.Mul(c, dsl.Add(c, dsl.Num(1.0)))),
            pairs.map(lambda ab: dsl.Div(dsl.Sub(ab[0], ab[1]), dsl.Add(ab[1], ab[0]))),
        )

    return st.recursive(leaves, extend, max_leaves=10)


def _outcome(fn):
    try:
        return fn()
    except EvaluationDomainError:
        return EvaluationDomainError
    except UNTYPED as exc:
        return type(exc)


def _finite(c):
    if not np.isfinite(c).all():
        raise EvaluationDomainError("not finite")
    return c


@given(_trees(), st.lists(st.floats(min_value=-1.5, max_value=1.5), min_size=4,
                          max_size=4))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_tape_matches_the_tree_walk_on_random_trees(tree, point):
    x, y = point[:2], point[2:]
    tape = dsl.Tape((tree,), 2)
    with np.errstate(all="ignore"):
        for order in ORDERS:
            ref = _outcome(lambda: expr_reference.reference_jet(tree, x, y, order))
            got = _outcome(lambda: _finite(tape.jet(point, order)))
            if isinstance(ref, type):
                assert got is EvaluationDomainError, (ref, got)
            else:
                assert not isinstance(got, type), got
                np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0)
        # floats: a non-finite value of the tree walk is an error of the tape
        ref = _outcome(lambda: _finite(np.float64(expr_reference.evaluate(tree, x, y))))
        got = _outcome(lambda: tape.floats(point)[0])
        if isinstance(ref, type):
            assert got is EvaluationDomainError, (ref, got)
        else:
            assert got == ref or abs(got - ref) <= 1e-13 * abs(ref)


def test_a_definition_compiles_once(monkeypatch):
    """Body and domain compile when the definition is made; evaluating it
    at any order, any number of times, compiles nothing more."""
    compiled = []
    plain = dsl.Tape.__init__

    def counting(self, exprs, dim):
        compiled.append(tuple(exprs))
        plain(self, exprs, dim)

    monkeypatch.setattr(dsl.Tape, "__init__", counting)
    lam, m = dsl.builtin_metric("theta-weight"), dsl.builtin_metric("einstein-static")
    scaled = dsl.MetricDefinition(name="lam*L", dim=3, degree=2,
                                  body=dsl.Mul(lam.body, m.body), domain=m.domain)
    assert compiled == [(scaled.body,), scaled.domain]
    v = dsl.TangentSample([0.1, 1.2, 0.3], [1.0, 0.4, -0.2])
    for _ in range(3):
        assert scaled.admissible(v)
        scaled.value_at(v)
        for order in ORDERS:
            scaled.jet(v, order)
    assert len(compiled) == 2


@pytest.mark.parametrize("p", [4, 5, 7, 13, 100, -6])
def test_integer_powers_match_repeated_multiplication(p):
    """Repeated squaring sums in another order than the reference's
    repeated multiplication, so the two agree to round-off, not to the bit."""
    power = dsl.Pow(dsl.parse_expression("x1 * y0 + 0.9 * y1", 2), float(p))
    tape = dsl.Tape((power,), 2)
    x, y = [0.3, 0.7], [1.1, -0.4]
    for order in ORDERS:
        ref = expr_reference.reference_jet(power, x, y, order)
        np.testing.assert_allclose(tape.jet(x + y, order), ref, rtol=1e-12, atol=0)


def _counting_products(monkeypatch):
    calls = []
    plain = jets.product

    def counting(a, b, plan):
        calls.append(None)
        return plain(a, b, plan)

    monkeypatch.setattr(jets, "product", counting)
    return calls


def test_an_integer_power_squares_its_way_up(monkeypatch):
    """pow(u, 1000) takes a few products by repeated squaring, not 999, on
    the tape and in `Jet` arithmetic alike."""
    m = dsl.parse_metric("pow(y0, 1000)", 2)
    v = dsl.TangentSample([0.1, 0.2], [1.0, 0.5])
    calls = _counting_products(monkeypatch)
    tape_jet = m.jet(v, 2)
    assert len(calls) <= 20
    calls.clear()
    y0 = jets.Jet.variable(jets.jet_space(4, 2), 2, 1.0)
    plain_jet = y0 ** 1000
    assert len(calls) <= 20
    for jet in (tape_jet, plain_jet):
        assert jet.derivative((0, 0, 1, 0)) == pytest.approx(1000.0, rel=1e-13)
        assert jet.derivative((0, 0, 2, 0)) == pytest.approx(1000.0 * 999.0, rel=1e-13)


def test_a_huge_integer_power_returns_promptly(monkeypatch):
    """The cost of an integer power grows with log p: an order-4 jet of
    pow(y0, 1e9) is some sixty products, not a billion."""
    m = dsl.parse_metric("pow(y0, 1e9) + y1^2", 2)
    v = dsl.TangentSample([0.1, 0.2], [1.0, 0.5])
    calls = _counting_products(monkeypatch)
    start = time.perf_counter()
    jet = m.jet(v, 4)
    assert time.perf_counter() - start < 10.0
    assert len(calls) <= 60
    p = 1e9
    assert jet.value == 1.25
    assert jet.derivative((0, 0, 4, 0)) == pytest.approx(
        p * (p - 1) * (p - 2) * (p - 3), rel=1e-12)


SAMPLE_COUNTS = (1, connection.CHUNK, connection.CHUNK + 1)


@pytest.mark.parametrize("m", _definitions(), ids=lambda m: m.name)
def test_a_sample_batch_gives_the_jets_of_its_samples(m):
    """Row k of a jet over a `SampleBatch` is the jet at sample k alone, to
    the bit, at every order, whether the batch holds one sample, a chunk of
    them or one more."""
    rng = np.random.default_rng(len(m.name) + 7)
    for count in SAMPLE_COUNTS:
        samples = dsl.sample_admissible(m, rng, count=count)
        batch = dsl.SampleBatch([v.x for v in samples], [v.y for v in samples])
        for order in ORDERS:
            rows = m.jet(batch, order).c
            assert rows.shape == (count, jets.jet_space(2 * m.dim, order).size)
            for row, v in zip(rows, samples):
                assert row.tobytes() == m.jet(v, order).c.tobytes()


@pytest.mark.parametrize("m", _definitions(), ids=lambda m: m.name)
def test_a_batched_jet_takes_the_partials_of_its_samples(m):
    """`partial_jets` and `partials` of a jet over a `SampleBatch` give, row
    by row, those of each sample's own jet, to the bit and with the same
    strides, so that a dot with a row rounds as the one-jet dot does (the
    probe dot of the lightcone projection checks this)."""
    rng = np.random.default_rng(len(m.name) + 11)
    samples = dsl.sample_admissible(m, rng, count=5)
    batch = dsl.SampleBatch([v.x for v in samples], [v.y for v in samples])
    w = rng.standard_normal((len(samples), m.dim))
    n = m.dim
    for order in (2, 3, 4):
        jet = m.jet(batch, order)
        singles = [m.jet(v, order) for v in samples]
        for degree in range(1, order + 1):
            rows, values = jet.partial_jets(degree), jet.partials(degree)
            for k, single in enumerate(singles):
                one = single.partial_jets(degree)
                assert np.array_equal(rows[k], one)
                assert rows[k].strides == one.strides
                assert np.array_equal(values[k], single.partials(degree))
                assert values[k].strides == single.partials(degree).strides
        grad = jet.partials(1)
        for k, single in enumerate(singles):
            assert grad[k, n:] @ w[k] == single.partials(1)[n:] @ w[k]


@given(_trees(), st.lists(st.lists(st.floats(min_value=-1.5, max_value=1.5),
                                   min_size=4, max_size=4), min_size=1, max_size=3))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_the_tape_runs_over_a_sample_axis(tree, points):
    """A (2n, S) point array runs the program once over S points: where
    every point evaluates, column s is the jet at point s alone, to the bit,
    and agrees with the tree walk; where one fails, the batch fails too."""
    tape = dsl.Tape((tree,), 2)
    columns = np.array(points).T
    with np.errstate(all="ignore"):
        for order in ORDERS:
            refs = [_outcome(lambda: expr_reference.reference_jet(
                tree, p[:2], p[2:], order)) for p in points]
            singles = [_outcome(lambda: _finite(tape.jet(p, order))) for p in points]
            got = _outcome(lambda: _finite(tape.jet(columns, order)))
            if any(isinstance(o, type) for o in refs + singles):
                assert got is EvaluationDomainError, (refs, singles, got)
                continue
            assert got.shape == (jets.jet_space(4, order).size, len(points))
            for column, single, ref in zip(got.T, singles, refs):
                assert column.tobytes() == single.tobytes()
                np.testing.assert_allclose(column, ref, rtol=1e-13, atol=0)


def _floats_outcome(fn):
    try:
        return fn()
    except EvaluationDomainError as exc:
        return str(exc)


@given(_trees(), st.lists(st.lists(st.one_of(
    st.floats(min_value=-1.5, max_value=1.5), st.sampled_from([0.0, -0.0, 1e200])),
    min_size=4, max_size=4), min_size=1, max_size=4))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_row_wise_floats_equal_floats_point_by_point(tree, points):
    """Column s of `float_rows` is `floats` at point s alone, to the bit;
    where a point fails, the first failing point's error is raised."""
    tape = dsl.Tape((tree, dsl.Neg(tree), dsl.Num(2.5)), 2)
    singles = [_floats_outcome(lambda: tape.floats(p)) for p in points]
    got = _floats_outcome(lambda: tape.float_rows(np.array(points).T))
    failures = [s for s in singles if isinstance(s, str)]
    if failures:
        assert got == failures[0]
    else:
        assert got.tobytes() == np.array(singles).T.tobytes()


def test_a_batch_admissibility_verdict_is_per_sample():
    """Predicates that divide by zero, overflow (1e200*1e200) or take the
    log of a negative value fail at one sample only: that sample alone is
    inadmissible, each verdict equals the sample's own, and no
    RuntimeWarning escapes (pytest turns one into an error)."""
    m = dsl.parse_metric("y0^2", 2, domain=("1 / x0", "x1 * 1e200 * 1e200 + 1", "log(y0)"))
    x = np.array([[1.0, 0.0], [0.0, 0.0], [1.0, 1.0], [2.0, 1e-300], [1.0, 0.0]])
    y = np.array([[2.0, 1.0], [2.0, 1.0], [2.0, 1.0], [3.0, 1.0], [-0.5, 1.0]])
    batch = dsl.SampleBatch(x, y)
    verdict = m.admissible(batch)
    assert verdict.tolist() == [m.admissible(v) for v in batch]
    assert verdict.tolist() == [True, False, False, True, False]
    clean = batch[[0, 3]]
    assert m.admissible(clean).tolist() == [True, True]
    assert m.value(clean.x, clean.y).tolist() == [m.value_at(v) for v in clean]
