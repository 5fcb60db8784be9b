"""Jet arithmetic: variables, extraction, exactness, and the finite-difference
cross-check oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finslab import dsl, jets
from finslab.errors import EvaluationDomainError
import expr_reference
import finitediff


def variables(x, y, order):
    """Jet variables for chart values x and fiber values y over all 2n
    variables: x^i is variable i and y^i variable n + i."""
    n = len(x)
    space = jets.jet_space(2 * n, order)
    return ([jets.Jet.variable(space, i, float(x[i])) for i in range(n)],
            [jets.Jet.variable(space, n + i, float(y[i])) for i in range(n)])


def test_seed_identity():
    _, ys = variables([0.0, 0.0], [1.0, 0.0], order=2)
    y0 = ys[0]
    assert y0.value == 1.0
    assert y0.derivative((0, 0, 1, 0)) == 1.0
    for alpha in [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1), (0, 0, 2, 0)]:
        assert y0.derivative(alpha) == 0.0


def test_bilinear_monomial():
    _, ys = variables([0.0, 0.0], [2.0, 3.0], order=2)
    f = ys[0] * ys[1]
    assert f.value == 6.0
    assert f.derivative((0, 0, 1, 1)) == 1.0


def test_quartic_monomial_normalization():
    _, ys = variables([0.0], [1.0], order=4)
    f = ys[0] ** 4
    assert f.derivative((0, 4)) == pytest.approx(24.0, abs=0)


def test_constant_jet_has_zero_derivatives():
    space = jets.jet_space(4, 3)
    c = jets.Jet.constant(space, 7.5)
    assert c.derivative((0, 0, 0, 0)) == 7.5
    assert c.derivative((1, 0, 0, 0)) == 0.0
    assert c.derivative((0, 2, 1, 0)) == 0.0


def test_quadratic_form_second_derivative():
    _, ys = variables([0.0, 0.0], [2.0, 1.0], order=2)
    f = -(ys[0] ** 2) + ys[1] ** 2
    assert f.derivative((0, 0, 2, 0)) == -2.0
    assert f.derivative((0, 0, 0, 2)) == 2.0
    assert f.derivative((0, 0, 1, 1)) == 0.0


def test_seed_accepts_a_tangent_sample():
    """A metric jet seeds each coordinate from the sample's x and y."""
    m = dsl.parse_metric("x0 + y1", 2, degree=1)
    f = m.jet(dsl.TangentSample([0.2, 0.1], [1.5, -0.3]), 2)
    assert f.value == 0.2 + -0.3
    assert f.derivative((1, 0, 0, 0)) == 1.0
    assert f.derivative((0, 0, 0, 1)) == 1.0
    assert f.derivative((0, 1, 0, 0)) == 0.0


def test_seed_validates_order_and_dimensions():
    with pytest.raises(ValueError):
        jets.jet_space(2, 5)
    with pytest.raises(ValueError):
        jets.Jet.variable(jets.jet_space(2, 2), 2, 0.0)
    m = dsl.parse_metric("y0^2", 1)
    with pytest.raises(ValueError):
        m.jet(dsl.TangentSample([0.0], [1.0]), 5)
    with pytest.raises(ValueError):
        m.jet(dsl.TangentSample([0.0, 0.0], [1.0, 0.0]), 2)


def test_extraction_degree_guard():
    _, ys = variables([0.0], [1.0], order=2)
    with pytest.raises(ValueError):
        ys[0].derivative((0, 3))


def test_division_by_zero_value_part():
    _, ys = variables([0.0], [0.5], order=2)
    f = ys[0] - 0.5
    with pytest.raises(Exception):
        (1.0 / f)


def test_fractional_power_requires_positive_base():
    _, ys = variables([0.0], [-1.0], order=2)
    with pytest.raises(Exception):
        jets.powr(ys[0], 1.3)
    assert (ys[0] ** 2).value == 1.0   # integer powers allow negative bases


@given(st.lists(st.floats(min_value=-2, max_value=2), min_size=3, max_size=3),
       st.lists(st.floats(min_value=-2, max_value=2), min_size=3, max_size=3))
@settings(max_examples=60, deadline=None)
def test_polynomial_exactness(coeffs, point):
    """Degree-4 polynomial derivatives come out exactly (no truncation)."""
    a, b, c = coeffs
    x0, y0, y1 = point
    xs, ys = variables([x0, 0.0], [y0, y1], order=4)

    f = a * xs[0] ** 2 * ys[0] ** 2 + b * ys[0] * ys[1] ** 3 + c * xs[0] * ys[1]
    scale = 1 + abs(a) + abs(b) + abs(c)
    assert f.derivative((1, 0, 1, 0)) == pytest.approx(
        4 * a * x0 * y0, rel=0, abs=1e-12 * scale * (1 + abs(x0) + abs(y0)))
    assert f.derivative((0, 0, 1, 3)) == pytest.approx(6 * b, rel=0, abs=1e-12 * scale)
    assert f.derivative((2, 0, 2, 0)) == pytest.approx(4 * a, rel=0, abs=1e-12 * scale)
    assert f.derivative((1, 0, 0, 1)) == pytest.approx(c, rel=0, abs=1e-12 * scale)


def test_arithmetic_is_deterministic():
    def build():
        xs, ys = variables([0.3, -0.2], [1.1, 0.7], order=4)
        return jets.exp(xs[0] * ys[1]) / (1 + ys[0] ** 2) - jets.sin(xs[1]) * ys[0]

    a, b = build(), build()
    assert np.array_equal(a.c, b.c)


FD_STEP = {1: 5e-3, 2: 0.01, 3: 0.02, 4: 0.03}
MARGINS = {"minkowski3": 0.0, "einstein-static": 0.2, "bogoslovsky2": 0.6,
           "bogoslovsky2-warped": 0.6, "warped-quadratic": 0.0}


@pytest.mark.parametrize("name", sorted(MARGINS))
def test_derivatives_match_finite_differences(name):
    """Orders 1-4 agree with the Richardson central-difference oracle."""
    from conftest import margin_sample

    m = dsl.builtin_metric(name)
    n = m.dim
    rng = np.random.default_rng(hash(name) % 2 ** 32)
    for _ in range(20):
        v = margin_sample(m, rng, margin=MARGINS[name], min_norm=0.6)
        jet = m.jet(v, 4)
        point = np.concatenate([v.x, v.y])

        def f(p):
            return m.value(p[:n], p[n:])

        for order in range(1, 5):
            slots = rng.integers(0, 2 * n, size=order)
            alpha = tuple(np.bincount(slots, minlength=2 * n))
            jv = jet.derivative(alpha)
            fv = finitediff.partial_derivative(f, point, alpha, h=FD_STEP[order])
            assert abs(jv - fv) / max(1.0, abs(fv)) < 1e-6


def test_bogoslovsky_second_derivative_against_plain_stencil():
    m = dsl.builtin_metric("bogoslovsky2")
    v = dsl.TangentSample([0.0, 0.0], [2.0, 1.0])
    jet_val = m.jet(v, 2).derivative((0, 0, 2, 0))
    h = 1e-4

    def L(y0):
        return m.value([0.0, 0.0], [y0, 1.0])

    fd = (L(2 + h) - 2 * L(2) + L(2 - h)) / h ** 2
    assert abs(jet_val - fd) / max(1.0, abs(fd)) < 1e-6


def test_truncation_between_orders():
    _, ys = variables([0.0], [0.5], order=4)
    f4 = jets.exp(ys[0])
    f2 = f4.truncated(2)
    assert f2.order == 2
    assert f2.derivative((0, 2)) == pytest.approx(f4.derivative((0, 2)))
    with pytest.raises(ValueError):
        f2.truncated(3)


def test_mixed_order_arithmetic_truncates():
    _, ys = variables([0.0], [0.5], order=4)
    low = ys[0].truncated(2)
    out = low * ys[0]
    assert out.order == 2


@pytest.mark.parametrize("nvars", [2, 4, 6])
def test_partials_table_matches_the_derivative_oracle(nvars):
    rng = np.random.default_rng(nvars)
    for order in range(1, jets.MAX_ORDER + 1):
        space = jets.jet_space(nvars, order)
        jet = jets.Jet(space, rng.standard_normal(space.size))
        for degree in range(1, order + 1):
            table = jet.partials(degree)
            assert table.shape == (nvars,) * degree
            for slot in np.ndindex(*table.shape):
                assert table[slot] == jet.derivative(np.bincount(slot, minlength=nvars))
        with pytest.raises(ValueError):
            jet.partials(order + 1)


@pytest.mark.parametrize("nvars", [2, 4])
def test_partial_jets_match_repeated_differentiation(nvars):
    rng = np.random.default_rng(10 + nvars)
    for order in range(1, jets.MAX_ORDER + 1):
        space = jets.jet_space(nvars, order)
        jet = jets.Jet(space, rng.standard_normal(space.size))
        for degree in range(1, order + 1):
            table = jet.partial_jets(degree)
            lower = jets.jet_space(nvars, order - degree)
            assert table.shape == (nvars,) * degree + (lower.size,)
            for slot in np.ndindex(*table.shape[:-1]):
                ref = jet
                for v in slot:
                    ref = ref.diff(v)
                assert np.allclose(table[slot], ref.c, rtol=1e-15, atol=0)
            assert np.array_equal(jet.partials(degree), table[..., 0])


@pytest.mark.parametrize("nvars,order", [(2, 4), (6, 1), (6, 2), (4, 3)])
def test_batched_product_matches_the_jet_product(nvars, order):
    space = jets.jet_space(nvars, order)
    rng = np.random.default_rng(nvars * 10 + order)
    a = rng.standard_normal((3, 1, space.size))
    b = rng.standard_normal((1, 4, space.size))
    out = space.mul(a, b)
    assert out.shape == (3, 4, space.size)
    for i, j in np.ndindex(3, 4):
        ref = (jets.Jet(space, a[i, 0]) * jets.Jet(space, b[0, j])).c
        assert np.allclose(out[i, j], ref, rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("left,right", [((1,), (0, 2)), ((0, 3), (0, 3)),
                                        ((2,), (0, 1, 2, 3))])
def test_product_over_subsets_of_the_variables_matches_the_full_product(left, right):
    """Factors kept over their own variables multiply to the bits of the
    product over all variables, once lifted back."""
    nvars, rng = 4, np.random.default_rng(len(left) + 10 * len(right))
    for order in range(jets.MAX_ORDER + 1):
        space = jets.jet_space(nvars, order)
        union = tuple(sorted(set(left) | set(right)))

        def padded(positions):
            size = jets.jet_space(len(positions), order).size
            return np.append(rng.standard_normal(size), 0.0)

        def lift(c, positions, into):
            return c[jets.lift_index(tuple(into.index(v) for v in positions),
                                     len(into), order)]

        a, b = padded(left), padded(right)
        plan = jets.product_plan(tuple(union.index(v) for v in left),
                                 tuple(union.index(v) for v in right),
                                 len(union), order, padded=True)
        every = tuple(range(nvars))
        got = lift(jets.product(a, b, plan), union, every)[:-1]
        full = jets.product(lift(a, left, every)[:-1], lift(b, right, every)[:-1],
                            space.product_plan())
        assert got.tobytes() == full.tobytes()


# Every elementary function, and powr at exponents below, between and above
# the orders' factors (and nan), at the edges of the float range (signed
# zeros, a subnormal, exp's overflow and underflow, infinities, nan,
# negatives) and at random values of every magnitude.
ELEMENTARY = [("exp", 0.5), ("log", 0.5), ("sqrt", 0.5), ("sin", 0.5), ("cos", 0.5),
              ("reciprocal", 0.5)] + [("powr", p) for p in (1.3, 0.7, -0.7, 0.5, 2.5, 1e-3,
                                                             math.nan)]


def _arguments() -> list[float]:
    rng = np.random.default_rng(11)
    edges = [0.0, -0.0, 1e-320, -1e-320, 1e-300, -1e-300, 1e300, -1e300, 709.8, 710.0,
             -745.0, -746.0, math.inf, -math.inf, math.nan, -0.5, -2.0, -3e10, 1.0,
             0.5, math.pi, 1.2e154, 1e-160]
    magnitudes = 10.0 ** rng.uniform(-320, 308, 200) * rng.choice([-1.0, 1.0], 200)
    return edges + (magnitudes.tolist() + rng.uniform(-10, 10, 200).tolist()
                    + rng.uniform(-800, 800, 200).tolist())


ARGUMENTS = _arguments()


def _taylor_outcome(fn):
    """The bits of a list of floats, or the type and text of the error."""
    try:
        return np.array(fn(), dtype=float).tobytes()
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name, p", ELEMENTARY)
def test_the_written_taylor_lines_match_the_formulas(name, p):
    """`jets.taylor`, which runs the lines of `jets.taylor_source`, gives the
    textbook formulas of tests/expr_reference.py bit for bit at orders 0-4,
    and where they fail, an error of the same type and text."""
    mismatches = [
        (order, u) for order in range(5) for u in ARGUMENTS
        if _taylor_outcome(lambda: jets.taylor(name, u, order, p))
        != _taylor_outcome(lambda: expr_reference.taylor(name, u, order, p))]
    assert not mismatches, mismatches[:5]


def test_a_taylor_function_compiles_once():
    """`jets.taylor` compiles one function per (name, order, exponent):
    calling it again, with a nan exponent too, compiles nothing more."""
    for p in (1.3, float("nan"), float("nan")):
        jets.taylor("powr", 2.0, 3, p)
    compiled = jets._taylor_function.cache_info().currsize
    for p in (1.3, float("nan"), float("nan"), 0.5):
        jets.taylor("powr", 2.0, 3, p)
        jets.taylor("sin", 2.0, 3, p)
    assert jets._taylor_function.cache_info().currsize <= compiled + 2


def _reference_value(name: str, u: float, p: float) -> list[float]:
    """The float of a function in the float program: the order-0 formula,
    or the float sqrt; a value that is not finite fails as `Tape.floats`
    does."""
    if name == "sqrt":
        v = expr_reference.FUNCTIONS["sqrt"](u)
    else:
        v = expr_reference.taylor(name, u, 0, p)[0]
    if not math.isfinite(v):
        raise EvaluationDomainError(f"value {v!r} is not finite")
    return [v]


@pytest.mark.parametrize("name, p", [(name, p) for name, p in ELEMENTARY
                                     if name != "reciprocal" and math.isfinite(p)])
def test_the_written_float_lines_match_the_formulas(name, p):
    """The float program of f(x0), written inline by `dsl._float_source`,
    gives the order-0 formula (or the float sqrt) bit for bit, and where it
    fails, an error of the same type and text.  (A tape has no reciprocal
    operation, and refuses a non-finite exponent when it is built.)"""
    x0 = dsl.Var("x", 0)
    tree = dsl.Pow(x0, p) if name == "powr" else dsl.Func(name, x0)
    tape = dsl.Tape((tree,), 1)
    mismatches = [u for u in ARGUMENTS
                  if _taylor_outcome(lambda: tape.floats([u, 1.0]))
                  != _taylor_outcome(lambda: _reference_value(name, u, p))]
    assert not mismatches, mismatches[:5]
