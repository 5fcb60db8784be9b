"""The compiled expression tape against the recursive jet walk over all 2n
variables that it replaced (tests/expr_reference.py)."""

import ast
import io
import re
import time
import tokenize

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import expr_reference
import solve_reference
from finslab import conformal, connection, dsl, jets, tensors
from finslab.errors import EvaluationDomainError

ORDERS = range(5)
# Bare errors of the tree walk (sin of inf, overflowing powers) that the
# tape raises as EvaluationDomainError instead.
UNTYPED = (ValueError, OverflowError, ZeroDivisionError)


def _definitions():
    """Every builtin metric and factor, the reciprocal of every factor
    (`inverse_factor`), and every factor * metric product that
    `scale_metric` forms from a factor or its reciprocal."""
    builtins = [dsl.builtin_metric(name) for name in dsl.builtin_names()]
    factors = [lam for lam in builtins if lam.degree == 0]
    inverses = [conformal.inverse_factor(lam) for lam in factors]
    products = [conformal.scale_metric(m, lam, sample_budget=1)[0]
                for lam in factors + inverses
                for m in builtins if m.degree == 2 and m.dim == lam.dim]
    return builtins + inverses + products


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
    """The jet products of the one-point kernels compiled from now on (the
    products their writer emits) and of `Jet` integer powers."""
    calls = []
    monkeypatch.setattr(dsl, "_KERNELS", {})
    emit = dsl._KernelWriter.product

    def emitting(self, a, b, plan):
        calls.append(None)
        return emit(self, a, b, plan)

    plain = jets.int_power

    def int_power(c, p, plan, mul=jets.product):
        def counting(a, b, plan):
            calls.append(None)
            return mul(a, b, plan)
        return plain(c, p, plan, counting)

    monkeypatch.setattr(dsl._KernelWriter, "product", emitting)
    monkeypatch.setattr(jets, "int_power", int_power)
    return calls


def test_an_integer_power_squares_its_way_up(monkeypatch):
    """pow(u, 1000) takes a few products by repeated squaring, not 999, in
    the tape's kernel and in `Jet` arithmetic alike."""
    m = dsl.parse_metric("pow(y0, 1000)", 2)
    v = dsl.TangentSample([0.1, 0.2], [1.0, 0.5])
    calls = _counting_products(monkeypatch)
    tape_jet = m.jet(v, 2)
    assert 0 < len(calls) <= 20
    calls.clear()
    y0 = jets.Jet.variable(jets.jet_space(4, 2), 2, 1.0)
    plain_jet = y0 ** 1000
    assert 0 < len(calls) <= 20
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
    assert 0 < len(calls) <= 60
    p = 1e9
    assert jet.value == 1.25
    assert jet.derivative((0, 0, 4, 0)) == pytest.approx(
        p * (p - 1) * (p - 2) * (p - 3), rel=1e-12)


def _counting_compiles(monkeypatch):
    """The source of every one-point kernel compiled from now on."""
    sources = []
    monkeypatch.setattr(dsl, "_KERNELS", {})
    plain = dsl._compile_kernel

    def compiling(source):
        sources.append(source)
        return plain(source)

    monkeypatch.setattr(dsl, "_compile_kernel", compiling)
    return sources


def test_one_kernel_per_program_and_order(monkeypatch):
    """A metric text parsed twice, and a `scale_metric` or `inverse_factor`
    product formed twice, compile one kernel per order; programs that
    differ only in a constant's value, or in the sign of a zero constant,
    get kernels of their own."""
    sources = _counting_compiles(monkeypatch)
    v = dsl.TangentSample([0.3, 0.1], [1.0, 0.5])
    for c in ("0.5", "0.5", "0.25", "0.0", "-0.0", "0.0"):
        m = dsl.parse_metric_file(f"dim=2\n-y0^2 + {c}*x0*y1^2 + y1^2\n")
        for order in ORDERS:
            m.jet(v, order)
    assert len(sources) == 4 * len(ORDERS)
    sources.clear()
    cone, lam = dsl.builtin_metric("minkowski2-cone"), dsl.builtin_metric("bogoslovsky-factor")
    for _ in range(2):
        for m in (conformal.scale_metric(cone, lam, sample_budget=1)[0],
                  conformal.inverse_factor(lam)):
            for order in ORDERS:
                m.jet(v, order)
    assert len(sources) == 2 * len(ORDERS)


# the fixed names and keywords of the lines that `jets.taylor_source` writes
TAYLOR_LINE_NAMES = {"if", "raise", "try", "except", "from", "None", "OverflowError",
                     "ZeroDivisionError", "isinf", "refused", "overflows", "exp", "log",
                     "sin", "cos"}
# the strings of those lines: the names of the elementary functions
TAYLOR_LINE_STRINGS = set(dsl._FUNCTIONS) | {"powr", "reciprocal"}


def test_no_metric_text_reaches_a_kernel_source(monkeypatch, tmp_path):
    """A kernel's source holds local names, indices, float constants, the
    fixed names of the written elementary functions and the strings of the
    fixed function set, never text of the metric: not a name= header with
    quotes and Python code in it, nor a name with newlines given to the
    parser.  A metric named like one of the fixed names (sin) writes the
    source that the same text under another name writes."""
    sources = _counting_compiles(monkeypatch)
    header = """__import__('os').system("echo x") # ''' \"\"\" \\n"""
    path = tmp_path / "evil.metric"
    path.write_text(f"name={header}\ndim=2\nexp(x0) * y0^2 - sin(x1) * y1^2 + 0.3*y0*y1\n")
    named = [dsl.load_metric_file(path),
             dsl.parse_metric("pow(y0, 2.5) / y1", 2, name="a\nb'\"c\nimport sys",
                              domain=("y0", "y1"))]
    assert named[0].name == header.strip()
    text = "dim=2\nlog(x0 + 2) * y0^2 + cos(x1) * sin(y1)^2 * y1^2\n"
    fixed = dsl.parse_metric_file(f"name=sin\n{text}")
    plain = dsl.parse_metric_file(f"name=plain\n{text}")
    v = dsl.TangentSample([0.3, 0.1], [1.0, 0.5])
    for m in named + [fixed]:
        for order in ORDERS:
            m.jet(v, order)
    assert len(sources) == 3 * len(ORDERS)
    for order in ORDERS:
        assert (dsl._KernelWriter(fixed._body, order).source()
                == dsl._KernelWriter(plain._body, order).source())
    allowed = {"def", "kernel", "p", "return", "inf", "nan"} | TAYLOR_LINE_NAMES
    layout = {tokenize.NUMBER, tokenize.OP, tokenize.NEWLINE, tokenize.NL,
              tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
    for source in sources:
        for m in named:
            assert m.name not in source
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.NAME:
                assert tok.string in allowed or re.fullmatch(r"t\d+", tok.string), tok
            elif tok.type == tokenize.STRING:
                assert ast.literal_eval(tok.string) in TAYLOR_LINE_STRINGS, tok
            else:
                assert tok.type in layout, tok


def _float_sources(monkeypatch):
    """The source of every float kernel compiled from now on."""
    sources = []
    monkeypatch.setattr(dsl, "_FLOAT_KERNELS", {})
    plain = dsl._float_source

    def writing(tape):
        sources.append(plain(tape))
        return sources[-1]

    monkeypatch.setattr(dsl, "_float_source", writing)
    return sources


@pytest.mark.parametrize("m", _definitions(), ids=lambda m: m.name)
def test_the_written_float_program_equals_the_closure_program(m):
    """`Tape.floats` of the body and the domain gives the closure program
    of tests/solve_reference.py to the bit, or its error text, at sampled
    points and at points that overflow or leave the domain."""
    rng = np.random.default_rng(5 + len(m.name))
    points = [v.x.tolist() + v.y.tolist() for v in dsl.sample_admissible(m, rng, count=8)]
    points += [[0.0] * (2 * m.dim), [1e200] * (2 * m.dim), [-1.0] * (2 * m.dim),
               rng.uniform(-3, 3, 2 * m.dim).tolist()]
    for tape in (m._body, m._domain):
        for point in points:
            want = _floats_outcome(lambda: solve_reference.floats(tape, point))
            got = _floats_outcome(lambda: tape.floats(point))
            assert repr(got) == repr(want)


@given(_trees(), st.lists(st.one_of(
    st.floats(min_value=-1.5, max_value=1.5), st.sampled_from([0.0, -0.0, 1e200])),
    min_size=4, max_size=4))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_the_written_float_program_equals_the_closure_program_on_random_trees(tree, point):
    tape = dsl.Tape((tree, dsl.Neg(tree), dsl.Num(2.5)), 2)
    want = _floats_outcome(lambda: solve_reference.floats(tape, point))
    assert repr(_floats_outcome(lambda: tape.floats(point))) == repr(want)


def test_one_float_kernel_per_program(monkeypatch):
    """A metric text parsed twice, and a `scale_metric` or `inverse_factor`
    product formed twice, write one float kernel for the body and one for
    the domain; a program that differs only in the sign of a zero constant
    gets its own."""
    sources = _float_sources(monkeypatch)
    v = dsl.TangentSample([0.3, 0.1], [1.0, 0.5])
    for c in ("0.5", "0.5", "0.0", "-0.0"):
        m = dsl.parse_metric_file(f"dim=2\ndomain=y0 + {c}*x0\n-y0^2 + {c}*x0*y1^2 + y1^2\n")
        for _ in range(3):
            m.value_at(v)
            m.admissible(v)
    assert len(sources) == 3 * 2
    sources.clear()
    cone, lam = dsl.builtin_metric("minkowski2-cone"), dsl.builtin_metric("bogoslovsky-factor")
    for _ in range(2):
        for m in (conformal.scale_metric(cone, lam, sample_budget=1)[0],
                  conformal.inverse_factor(lam)):
            m.value_at(v)
            m.admissible(v)
    assert len(sources) == 3      # two bodies, and the cone domain that both have


def test_no_metric_text_reaches_a_float_or_solve_source(monkeypatch, tmp_path):
    """The float kernels hold local names, indices, float constants, the
    names of `dsl._FLOAT_NAMES`, the keywords of the written elementary
    functions and the strings of the fixed function set, never text of the
    metric, and a metric named like a fixed name (sqrt) writes the source of
    the same text under another name; the written solvers and sprays hold
    only the names of their locals and of `tensors._ELIMINATION_NAMES`."""
    sources = _float_sources(monkeypatch)
    header = """__import__('os').system("echo x") # \'\'\' \"\"\" \\n"""
    path = tmp_path / "evil.metric"
    path.write_text(f"name={header}\ndim=2\ndomain=exp(x0) + 1; 2 - sin(x1)\n"
                    "exp(x0) * y0^2 - sin(x1) * y1^2 + 0.3*y0*y1\n")
    named = [dsl.load_metric_file(path),
             dsl.parse_metric("pow(y0, 2.5) / y1", 2, name="a\nb'\"c\nimport sys",
                              domain=("y0", "y1", "1 / y0 - 1e300", "pow(y0, 3) + 2 / x0"))]
    text = "dim=2\ndomain=sqrt(x0 + 2)\nlog(x0 + 2) * y0^2 + cos(x1) * pow(y1, 4)\n"
    fixed = dsl.parse_metric_file(f"name=sqrt\n{text}")
    plain = dsl.parse_metric_file(f"name=plain\n{text}")
    v = dsl.TangentSample([0.3, 0.1], [1.0, 0.5])
    for m in named + [fixed]:
        m.value_at(v)
        m.admissible(v)
    assert len(sources) == 3 * 2
    for tape, twin in ((fixed._body, plain._body), (fixed._domain, plain._domain)):
        assert dsl._float_source(tape) == dsl._float_source(twin)
    float_names = set(dsl._FLOAT_NAMES) | TAYLOR_LINE_NAMES | {
        "def", "floats", "p", "return", "else"}
    for source in sources:
        for m in named:
            assert m.name not in source
        _check_tokens(source, float_names, r"t\d+", TAYLOR_LINE_STRINGS)
    solve_names = set(tensors._ELIMINATION_NAMES) | {
        "def", "solve", "spray", "g", "r", "c", "y", "return", "None", "if", "elif",
        "not", "and", "else", "raise", "abs", "max", "scale", "s", "det", "p", "big", "f"}
    for n in range(1, 5):
        for source in (tensors._solver_source(n), connection._spray_source(n)):
            _check_tokens(source, solve_names, r"[agrzy]\d+(_\d+)?", ())


def _check_tokens(source: str, names: set, local: str, strings) -> None:
    layout = {tokenize.NUMBER, tokenize.OP, tokenize.NEWLINE, tokenize.NL,
              tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.NAME:
            assert tok.string in names or re.fullmatch(local, tok.string), tok
        elif tok.type == tokenize.STRING:
            assert ast.literal_eval(tok.string) in strings, tok
        else:
            assert tok.type in layout, tok


def test_an_overflowing_jet_raises_the_not_finite_error():
    """x0 = 1e200 makes x0^2 overflow to inf: the jet at that point raises
    EvaluationDomainError naming the metric and the sample, at every order,
    and no numpy warning escapes (pytest turns one into an error)."""
    m = dsl.parse_metric("x0^2 * y0^2 + y1^2", 2, name="overflow")
    v = dsl.TangentSample([1e200, 0.0], [1.0, 0.5])
    for order in ORDERS:
        with pytest.raises(EvaluationDomainError) as err:
            m.jet(v, order)
        assert str(err.value) == f"the jet of 'overflow' is not finite at {v!r}"


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
def test_values_and_verdicts_at_arrays_equal_those_point_by_point(tree, points):
    """`MetricDefinition.value` at (S, n) arrays is `value` at each sample
    alone, to the bit, and where a sample fails the first failing sample's
    error is raised; `admissible` at a `SampleBatch` is the verdict of each
    sample alone."""
    m = dsl.MetricDefinition("tree", 2, 2, tree, (tree, dsl.Neg(tree), dsl.Num(2.5)))
    x, y = np.array(points)[:, :2], np.array(points)[:, 2:]
    singles = [_floats_outcome(lambda: m.value(p[:2], p[2:])) for p in points]
    got = _floats_outcome(lambda: m.value(x, y))
    failures = [s for s in singles if isinstance(s, str)]
    if failures:
        assert got == failures[0]
    else:
        assert got.tobytes() == np.array(singles).tobytes()
    rows = y.any(axis=1)
    if rows.any():
        batch = dsl.SampleBatch(x[rows], y[rows])
        domains = [_floats_outcome(lambda: m._domain.floats(v.x.tolist() + v.y.tolist()))
                   for v in batch]
        want = [not isinstance(d, str) and all(p > 0.0 for p in d) for d in domains]
        assert m.admissible(batch).tolist() == [m.admissible(v) for v in batch] == want


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
    clean = dsl.SampleBatch(x[[0, 3]], y[[0, 3]])
    assert m.admissible(clean).tolist() == [True, True]
    assert m.value(clean.x, clean.y).tolist() == [m.value_at(v) for v in clean]


def test_a_batch_domain_check_runs_one_point_program_per_sample(monkeypatch):
    """A `SampleBatch` in which one predicate, 1 / x0, fails at one sample
    (x0 = 0) is checked by exactly one one-point domain program per sample,
    and each verdict is that sample's own."""
    m = dsl.parse_metric("y0^2 + y1^2", 2, domain=("1 / x0", "x1 + 2"))
    rng = np.random.default_rng(5)
    x, y = rng.uniform(0.5, 1.5, (8, 2)), rng.uniform(0.5, 1.5, (8, 2))
    x[3, 0] = 0.0
    batch = dsl.SampleBatch(x, y)
    want = [m.admissible(v) for v in batch]
    assert want == [k != 3 for k in range(8)]
    programs = []
    plain = dsl.Tape.floats
    monkeypatch.setattr(dsl.Tape, "floats", lambda self, point: programs.append(
        self) or plain(self, point))
    assert m.admissible(batch).tolist() == want
    assert len(programs) == len(batch) and all(t is m._domain for t in programs)
