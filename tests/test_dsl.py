"""Expression language: parsing, pretty-printing, admissibility, the
built-in registry and its declared degrees, and metric files."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finslab import dsl
from finslab.errors import ExpressionError, NoAdmissibleSample


def _value(tree, xs, ys) -> float:
    """The value of one expression at chart values xs and fiber values ys,
    by its tape's float program, as a metric's value is taken."""
    return dsl.Tape((tree,), len(ys)).floats([*map(float, xs), *map(float, ys)])[0]


def _expression_trees(depth=3):
    leaves = st.one_of(
        st.floats(min_value=-4, max_value=4, allow_nan=False).map(
            lambda v: dsl.Num(float(v))),
        st.sampled_from([dsl.Var("x", 0), dsl.Var("x", 1),
                         dsl.Var("y", 0), dsl.Var("y", 1)]),
    )

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda ab: dsl.Add(*ab)),
            st.tuples(children, children).map(lambda ab: dsl.Sub(*ab)),
            st.tuples(children, children).map(lambda ab: dsl.Mul(*ab)),
            children.map(dsl.Neg),
            st.tuples(children, st.sampled_from([2.0, 3.0, -1.0])).map(
                lambda bp: dsl.Pow(*bp)),
            st.tuples(st.sampled_from(["sin", "cos", "exp"]), children).map(
                lambda na: dsl.Func(*na)),
        )

    return st.recursive(leaves, extend, max_leaves=12)


def test_parse_quadratic_lightlike_value():
    m = dsl.parse_metric("-y0^2 + y1^2 + y2^2", 3)
    assert m.value([0, 0, 0], [1, 1, 0]) == 0.0


def test_parse_fractional_power_value():
    m = dsl.parse_metric("pow(y0-y1, 1.3) * pow(y0+y1, 0.7)", 2,
                         domain=("y0-y1", "y0+y1"))
    assert m.value([0, 0], [2, 1]) == pytest.approx(3.0 ** 0.7, rel=1e-14)
    assert m.value([0, 0], [2, 1]) == pytest.approx(2.157669279974593, rel=1e-12)


def test_syntax_error_carries_offset():
    with pytest.raises(ExpressionError) as err:
        dsl.parse_expression("y0 + +", 2)
    assert err.value.offset is not None
    assert err.value.offset >= 5


def test_unknown_identifier_and_range():
    with pytest.raises(ExpressionError):
        dsl.parse_expression("z0 + 1", 2)
    with pytest.raises(ExpressionError):
        dsl.parse_expression("y5", 2)
    with pytest.raises(ExpressionError):
        dsl.parse_expression("exp(y0, y1)", 2)
    with pytest.raises(ExpressionError):
        dsl.parse_expression("", 2)


@pytest.mark.parametrize("opening,closing", [
    ("(", ")"), ("sin(", ")"), ("-(", ")"), ("pow(", ", 2)"), ("exp(-", ")")])
def test_nesting_up_to_the_cap_parses(opening, closing):
    """190 levels of parentheses around y0 parse, as do groups, calls and
    unary minus signs nested up to `MAX_NESTING` levels in all."""
    levels = opening.count("(") + opening.count("-")
    for depth in (190, dsl.MAX_NESTING - 1):
        k = depth // levels
        tree = dsl.parse_expression(opening * k + "y0" + closing * k, 1)
        assert dsl.parse_expression(dsl.pretty(tree), 1) == tree


@pytest.mark.parametrize("source", [
    "(" * 200 + "y0" + ")" * 200,
    "sin(" * 200 + "y0" + ")" * 200,
    "-" * 10_000 + "y0",
    "y0^" + "^".join(["1"] * 200),
])
def test_nesting_past_the_cap_is_an_expression_error(source):
    """Nesting past `MAX_NESTING` levels is an ExpressionError, not a
    RecursionError of the recursive descent."""
    with pytest.raises(ExpressionError, match=f"deeper than {dsl.MAX_NESTING} levels"):
        dsl.parse_expression(source, 1)


def test_a_sum_of_a_thousand_terms_prints_and_parses_back():
    """`pretty` walks the tree with an explicit stack: a sum of 1,000 terms
    is a tree 1,000 nodes deep, which the recursive printer could not
    print."""
    source = "sin(x1)" + " + 0*y0*y0" * 1000
    tree = dsl.parse_expression(source, 2)
    text = dsl.pretty(tree)
    assert text == source.replace("0*y0*y0", "0.0 * y0 * y0")
    assert dsl.pretty(dsl.parse_expression(text, 2)) == text


def test_negative_integer_power_of_zero_is_a_domain_error():
    from finslab.errors import EvaluationDomainError

    tree = dsl.parse_expression("y0^-1", 1)
    with pytest.raises(EvaluationDomainError):
        _value(tree, [0.0], [0.0])
    assert _value(tree, [0.0], [2.0]) == pytest.approx(0.5)


def test_exponent_must_be_constant():
    with pytest.raises(ExpressionError):
        dsl.parse_expression("pow(y0, y1)", 2)
    # constant subexpressions fold
    tree = dsl.parse_expression("pow(y0, 1 + 0.3)", 2)
    assert tree.exponent == pytest.approx(1.3)


def test_precedence_unary_minus_vs_power():
    tree = dsl.parse_expression("-y0^2", 1)
    assert _value(tree, [0.0], [3.0]) == -9.0


def test_pretty_print_is_a_fixed_point():
    sources = [
        "-y0^2 + y1^2",
        "pow(y0 - y1, 1.3) * pow(y0 + y1, 0.7)",
        "1 + 0.1*y1^2 / (y0^2 + y1^2 + y2^2)",
        "-exp(0.2*x1)*y0^2 + y1^2 + 0.3*x0*y1*y2 + (1 + 0.5*x0^2)*y2^2",
        "y0 - (y1 - y2)",
        "y0 / (y1 / y2)",
        "sin(x1)^2 * y2^2",
    ]
    for src in sources:
        n = 3
        once = dsl.pretty(dsl.parse_expression(src, n))
        twice = dsl.pretty(dsl.parse_expression(once, n))
        assert once == twice
        # and the reprint evaluates identically
        xs = np.array([0.3, 0.7, -0.2])
        ys = np.array([1.1, 0.4, 0.9])
        a = _value(dsl.parse_expression(src, n), xs, ys)
        b = _value(dsl.parse_expression(once, n), xs, ys)
        assert a == pytest.approx(b, rel=1e-15)


@given(_expression_trees())
@settings(max_examples=200, deadline=None)
def test_random_trees_round_trip_through_the_printer(tree):
    printed = dsl.pretty(tree)
    reparsed = dsl.parse_expression(printed, 2)
    assert dsl.pretty(reparsed) == printed
    xs = np.array([0.37, -0.84])
    ys = np.array([1.21, 0.55])
    try:
        a = _value(tree, xs, ys)
    except Exception:
        return   # domain errors (negative powers at zero etc.) are fine
    b = _value(reparsed, xs, ys)
    assert a == b or abs(a - b) <= 1e-12 * max(1.0, abs(a))


def test_admissibility_of_cone_domain():
    m = dsl.builtin_metric("bogoslovsky2")
    assert m.admissible(dsl.TangentSample([0, 0], [2, 1]))
    assert not m.admissible(dsl.TangentSample([0, 0], [1, 2]))


def test_zero_fiber_vector_is_excluded_at_the_type_level():
    with pytest.raises(ValueError):
        dsl.TangentSample([0, 0], [0, 0])


def test_conic_consistency_of_admissibility():
    m = dsl.builtin_metric("bogoslovsky2")
    rng = np.random.default_rng(4)
    for v in dsl.sample_admissible(m, rng, count=25):
        for s in (0.113, 0.5, 3.0, 17.0):
            assert m.admissible(v.scaled(s))


def test_rejection_sampler_fails_deterministically_on_empty_domain(monkeypatch):
    monkeypatch.setattr(dsl, "MAX_REJECTIONS", 200)
    m = dsl.parse_metric("y0^2", 1, domain=("0 - 1",), name="empty")
    rng = np.random.default_rng(5)
    with pytest.raises(NoAdmissibleSample):
        dsl.sample_admissible(m, rng, count=1)
    # a constant predicate fails at once; this one only after the rejections
    m = dsl.parse_metric("y0^2", 1, domain=("-(y0*y0)",), name="empty")
    with pytest.raises(NoAdmissibleSample, match="200 rejections"):
        dsl.sample_admissible(m, rng, count=1)


def test_registry_members_match_their_reexpression():
    rng = np.random.default_rng(6)
    for name in dsl.builtin_names():
        m = dsl.builtin_metric(name)
        again = dsl.parse_metric(m.pretty(), m.dim, degree=m.degree,
                                 domain=tuple(dsl.pretty(p) for p in m.domain),
                                 sample_box=m.sample_box)
        for v in dsl.sample_admissible(m, rng, count=10):
            assert m.value_at(v) == pytest.approx(again.value_at(v), rel=1e-15, abs=1e-15)


def test_registry_homogeneity_degrees():
    """m(x, s y) = s^degree m(x, y) for s in [0.5, 2] on 40 admissible
    samples of every builtin, to 1e-9 relative to max(1, |m|); a sample
    whose scaled copy leaves the domain is skipped, and some must remain."""
    for name in dsl.builtin_names():
        m = dsl.builtin_metric(name)
        rng = np.random.default_rng(7)
        checked, worst = 0, 0.0
        for v in dsl.sample_admissible(m, rng, count=40):
            s = rng.uniform(0.5, 2.0)
            if not m.admissible(v.scaled(s)):
                continue
            checked += 1
            base, val = m.value_at(v), m.value_at(v.scaled(s))
            worst = max(worst, abs(val - s ** m.degree * base) / max(1.0, abs(val), abs(base)))
        assert checked > 0 and worst <= 1e-9, (name, checked, worst)


def test_metric_file_round_trip(tmp_path):
    m = dsl.builtin_metric("bogoslovsky2-warped")
    path = tmp_path / "warped.metric"
    path.write_text(f"name={m.name}\ndim={m.dim}\ndegree={m.degree}\n"
                    f"domain={'; '.join(dsl.pretty(p) for p in m.domain)}\n{m.pretty()}\n")
    loaded = dsl.load_metric_file(path)
    assert loaded.dim == m.dim
    assert loaded.degree == m.degree
    assert loaded.pretty() == m.pretty()
    v = dsl.TangentSample([0.2, -0.1], [2.0, 0.5])
    assert loaded.value_at(v) == pytest.approx(m.value_at(v), rel=1e-15)


def test_a_metric_compares_hashes_and_prints_without_walking_its_body():
    """A body of 1,000 terms is a tree 1,000 nodes deep, and the generated
    dataclass ==, hash and repr recursed through it to RecursionError.  A
    definition is equal only to itself, and its repr names it."""
    source = "sin(x1)" + " + 0*y0*y0" * 1000
    m, again = (dsl.parse_metric(source, 2, name="long") for _ in range(2))
    assert m == m and m != again
    assert len({m, again, m}) == 2
    assert repr(m) == "MetricDefinition('long', dim=2, degree=2)"


def test_metric_file_requires_dim_and_body(tmp_path):
    with pytest.raises(ExpressionError):
        dsl.parse_metric_file("degree=2\ny0^2")
    with pytest.raises(ExpressionError):
        dsl.parse_metric_file("dim=2\ndegree=2\n")


@pytest.mark.parametrize("body", ["y0^2 + y1^2*1e200*1e200",
                                  "y0^2 + y1^2 + 1e308*1e308 - 1e308*1e308"])
def test_a_non_finite_value_is_a_domain_error(body):
    from finslab.errors import EvaluationDomainError

    m = dsl.parse_metric(body, 2)
    with pytest.raises(EvaluationDomainError, match="not finite"):
        m.value([0.0, 0.0], [1.0, 1.0])


def test_a_predicate_that_evaluates_to_inf_is_not_admissible():
    v = dsl.TangentSample([0.0], [1.0])
    assert dsl.parse_metric("y0^2", 1, domain=("y0*1e200",)).admissible(v)
    assert not dsl.parse_metric("y0^2", 1, domain=("y0*1e200*1e200",)).admissible(v)


def test_metric_file_needs_a_positive_integer_dimension():
    with pytest.raises(ExpressionError, match="integer"):
        dsl.parse_metric_file("dim=two\ny0^2")
    with pytest.raises(ExpressionError, match="at least 1"):
        dsl.parse_metric_file("dim=0\n1")


@pytest.mark.parametrize("dim", [dsl.MAX_DIM + 1, 40, 10**6])
def test_a_dimension_above_the_cap_is_an_expression_error(dim):
    """Frames take order-4 jets over 2n variables, whose size grows as n^4;
    a definition past MAX_DIM is refused before any tape or jet space."""
    with pytest.raises(ExpressionError, match=f"at most {dsl.MAX_DIM}, got {dim}"):
        dsl.parse_metric("y0^2", dim)
    with pytest.raises(ExpressionError, match=f"at most {dsl.MAX_DIM}"):
        dsl.parse_metric_file(f"dim={dim}\ny0^2")
