"""Expression language: parsing, pretty-printing, homogeneity validation,
admissibility, the built-in registry, and metric files."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finslab import dsl
from finslab.errors import ExpressionError, NoAdmissibleSample


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


def test_negative_integer_power_of_zero_is_a_domain_error():
    from finslab.errors import EvaluationDomainError

    tree = dsl.parse_expression("y0^-1", 1)
    with pytest.raises(EvaluationDomainError):
        dsl.evaluate(tree, np.array([]), np.array([0.0]))
    assert dsl.evaluate(tree, np.array([]), np.array([2.0])) == pytest.approx(0.5)


def test_exponent_must_be_constant():
    with pytest.raises(ExpressionError):
        dsl.parse_expression("pow(y0, y1)", 2)
    # constant subexpressions fold
    tree = dsl.parse_expression("pow(y0, 1 + 0.3)", 2)
    assert tree.exponent == pytest.approx(1.3)


def test_precedence_unary_minus_vs_power():
    tree = dsl.parse_expression("-y0^2", 1)
    assert dsl.evaluate(tree, [], [3.0]) == -9.0


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
        a = dsl.evaluate(dsl.parse_expression(src, n), xs, ys)
        b = dsl.evaluate(dsl.parse_expression(once, n), xs, ys)
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
        a = dsl.evaluate(tree, xs, ys)
    except Exception:
        return   # domain errors (negative powers at zero etc.) are fine
    b = dsl.evaluate(reparsed, xs, ys)
    assert a == b or abs(a - b) <= 1e-12 * max(1.0, abs(a))


def test_homogeneity_validation_passes_for_quadratic():
    m = dsl.builtin_metric("minkowski3")
    report = dsl.validate_homogeneity(m, samples=100, seed=1)
    assert report.passed
    assert report.max_relative_error <= 1e-12


def test_homogeneity_validation_constant_factor():
    lam = dsl.builtin_metric("unit-factor")
    assert dsl.validate_homogeneity(lam, samples=20, seed=2).passed


def test_homogeneity_validation_catches_degree_mismatch():
    m = dsl.parse_metric("y0^3", 1, degree=2, name="bad")
    report = dsl.validate_homogeneity(m, samples=50, seed=3)
    assert not report.passed
    assert report.max_relative_error > 1e-3


def test_homogeneity_validation_counts_only_the_samples_it_checked():
    """The shell 0.9 < |y|^2 < 1.1 is not a cone: most scaled copies leave
    it and are skipped.  The report counts the samples actually checked, and
    a run that checks none fails."""
    m = dsl.parse_metric("y0^2 + y1^2", 2, name="shell",
                         domain=("y0^2 + y1^2 - 0.9", "1.1 - y0^2 - y1^2"))
    counts = []
    for seed in range(5):
        rng = np.random.default_rng(seed)
        checked = sum(bool(m.admissible(v.scaled(rng.uniform(0.5, 2.0))))
                      for v in dsl.sample_admissible(m, rng, count=20))
        report = dsl.validate_homogeneity(m, samples=20, seed=seed)
        assert report.samples == checked
        assert report.passed == (checked > 0)
        counts.append(checked)
    assert 0 in counts and any(0 < c < 20 for c in counts), counts


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
    for name in dsl.builtin_names():
        m = dsl.builtin_metric(name)
        assert dsl.validate_homogeneity(m, samples=40, seed=7).passed


def test_metric_file_round_trip(tmp_path):
    m = dsl.builtin_metric("bogoslovsky2-warped")
    path = tmp_path / "warped.metric"
    dsl.dump_metric_file(m, path)
    loaded = dsl.load_metric_file(path)
    assert loaded.dim == m.dim
    assert loaded.degree == m.degree
    assert loaded.pretty() == m.pretty()
    v = dsl.TangentSample([0.2, -0.1], [2.0, 0.5])
    assert loaded.value_at(v) == pytest.approx(m.value_at(v), rel=1e-15)


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
