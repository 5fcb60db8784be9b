"""The numpy kernels of `finslab.numerics` against scipy, bit for bit.

scipy is a test-only oracle here: every port follows scipy's operation order,
so each comparison is on the bytes of the results, signed zeros included.
"""

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson as scipy_cumulative_simpson
from scipy.integrate import simpson as scipy_simpson
from scipy.interpolate import CubicHermiteSpline, CubicSpline
from scipy.linalg import null_space as scipy_null_space

from finslab import DiscreteCurve
from finslab.curves import spline_derivative
from finslab.numerics import (HermiteSpline, cumulative_simpson, not_a_knot_slopes,
                              null_space, simpson)


def assert_bits(mine, theirs):
    mine, theirs = np.asarray(mine), np.asarray(theirs)
    assert mine.shape == theirs.shape and mine.dtype == theirs.dtype
    assert mine.tobytes() == theirs.tobytes()


def _grid(n, kind, rng):
    if kind == "uniform":
        return 0.5 + 0.01 * np.arange(n)
    if kind == "short-last":      # a curve grid: uniform, the last step cut short
        x = 0.5 + 0.01 * np.arange(n)
        x[-1] = x[-2] + 0.003
        return x
    return np.cumsum(rng.uniform(0.05, 1.0, n)) - 3.0


GRIDS = [(n, kind) for n in (2, 3, 4, 5, 8, 41)
         for kind in ("uniform", "short-last", "random")]


@pytest.mark.parametrize("tail", [(), (3,), (3, 3)], ids=["1d", "N-n", "N-n-n"])
@pytest.mark.parametrize("n,kind", GRIDS)
def test_hermite_spline_matches_scipy(n, kind, tail):
    rng = np.random.default_rng(n)
    x = _grid(n, kind, rng)
    y = rng.normal(size=(n,) + tail)
    dydx = rng.normal(size=(n,) + tail)
    y[0], dydx[-1] = -0.0, -0.0          # signed zeros in the data
    ours, ref = HermiteSpline(x, y, dydx), CubicHermiteSpline(x, y, dydx, axis=0)
    span = x[-1] - x[0]
    # nodes, interior points, and extrapolation on both sides
    t = np.concatenate([x, rng.uniform(x[0], x[-1], 50),
                        [x[0] - 0.4 * span, x[-1] + 0.4 * span]])
    assert_bits(ours(t), ref(t))
    pairs = t[:t.size // 2 * 2].reshape(-1, 2)
    assert_bits(ours(pairs), ref(pairs))
    assert_bits(ours.derivative(t), ref.derivative()(t))
    for point in t[::5]:
        assert_bits(ours(float(point)), ref(float(point)))


def test_curve_acceleration_is_scipys_derivative():
    rng = np.random.default_rng(3)
    grid = _grid(30, "short-last", rng)
    vel, acc = rng.normal(size=(30, 3)), rng.normal(size=(30, 3))
    curve = DiscreteCurve(grid, rng.normal(size=(30, 3)), vel, acc)
    t = np.concatenate([grid, rng.uniform(grid[0], grid[-1], 40)])
    ref = CubicHermiteSpline(grid, vel, acc, axis=0).derivative()
    assert_bits(curve.acceleration(t), ref(t))
    assert_bits(curve.acceleration(float(t[-1])), ref(float(t[-1])))


def test_curve_dense_output_is_two_hermite_splines():
    """A curve's one spline over (x | v) with slopes (v | a) evaluates as a
    position spline over (x, v) and a velocity spline over (v, a) would, at
    nodes, between them and beyond the ends, for a float and an array."""
    rng = np.random.default_rng(4)
    grid = _grid(30, "short-last", rng)
    pos, vel, acc = (rng.normal(size=(30, 3)) for _ in range(3))
    curve = DiscreteCurve(grid, pos, vel, acc)
    pos_spline, vel_spline = HermiteSpline(grid, pos, vel), HermiteSpline(grid, vel, acc)
    span = grid[-1] - grid[0]
    t = np.concatenate([grid, rng.uniform(grid[0], grid[-1], 40),
                        [grid[0] - 0.3 * span, grid[-1] + 0.3 * span]])
    for point in [t, t[:40].reshape(20, 2)] + [float(p) for p in t[::7]]:
        x, v = curve.state(point)
        assert_bits(x, pos_spline(point))
        assert_bits(v, vel_spline(point))
        assert_bits(curve.position(point), pos_spline(point))
        assert_bits(curve.velocity(point), vel_spline(point))
        assert_bits(curve.acceleration(point), vel_spline.derivative(point))


@pytest.mark.parametrize("tail", [(), (4,)], ids=["1d", "N-n"])
@pytest.mark.parametrize("n,kind", GRIDS)
def test_not_a_knot_slopes_match_scipy(n, kind, tail):
    rng = np.random.default_rng(100 + n)
    x = _grid(n, kind, rng)
    y = rng.normal(size=(n,) + tail)
    ref = CubicSpline(x, y, axis=0)
    ours = HermiteSpline(x, y, not_a_knot_slopes(x, y))
    t = np.concatenate([x, (x[1:] + x[:-1]) / 2])
    assert_bits(ours(t), ref(t))
    assert_bits(spline_derivative(x, y), ref.derivative()(x))


@pytest.mark.parametrize("x,swapped", [
    ([0.0, 0.1, 0.2, 1.0, 1.1, 1.2], [1]), ([0.0, 0.1, 0.2, 0.3, 1.3], [2, 3])],
    ids=["interior-row", "last-row"])
def test_not_a_knot_elimination_with_row_interchanges(x, swapped, monkeypatch):
    """A long interval after short ones makes the elimination interchange
    rows, in the interior or at the last row; the slopes keep scipy's bits."""
    from finslab import numerics

    plain = numerics._gtsv
    seen = []

    def spy(d, du, dl, cols):
        last_dl = dl[-1]
        plain(d, du, dl, cols)
        # an interchange leaves a second-superdiagonal entry in dl, or, at
        # the last row, moves that row's subdiagonal entry onto the diagonal
        seen.extend(i for i in range(len(dl) - 1) if dl[i] != 0.0)
        if d[-2] == last_dl:
            seen.append(len(dl) - 1)

    monkeypatch.setattr(numerics, "_gtsv", spy)
    x = np.array(x)
    y = np.stack([np.cos(2 * x) + x, np.sin(3 * x)], axis=1)
    assert_bits(spline_derivative(x, y), CubicSpline(x, y, axis=0).derivative()(x))
    assert seen == swapped


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 41])
@pytest.mark.parametrize("kind", ["uniform", "short-last", "random"])
def test_simpson_matches_scipy(n, kind):
    rng = np.random.default_rng(200 + n)
    for _ in range(25 if kind == "random" else 1):
        x = _grid(n, kind, rng)
        y = rng.normal(size=n)
        assert_bits(simpson(y, x), scipy_simpson(y, x=x))
        assert_bits(cumulative_simpson(y, x), scipy_cumulative_simpson(y, x=x, initial=0.0))


def test_signed_zeros_keep_scipys_bits():
    """Every term -0.0: the reference sums from a +0.0 start, which gives
    +0.0.  Column 0 makes the value at the first node such a sum, column 1
    the derivative there."""
    x = np.array([0.0, 1.0])
    y = np.array([[-0.0, -0.0], [-1.0, -1.0]])
    dydx = np.array([[-0.5, -0.0], [-1.9, -2.5]])
    ours, ref = HermiteSpline(x, y, dydx), CubicHermiteSpline(x, y, dydx, axis=0)
    assert_bits(ours(0.0), ref(0.0))
    assert_bits(ours(x), ref(x))
    assert_bits(ours.derivative(x), ref.derivative()(x))
    # summed without the start these would be -0.0
    assert not np.signbit(ref(0.0)[0]) and not np.signbit(ref.derivative()(0.0)[1])
    for y in ([-0.0, -0.0], [-0.0, -0.0, 0.0]):
        x = np.arange(len(y), dtype=float)
        assert_bits(simpson(y, x), scipy_simpson(y, x=x))
        assert_bits(cumulative_simpson(y, x), scipy_cumulative_simpson(y, x=x, initial=0.0))


@pytest.mark.parametrize("shape,rank", [((1, 3), 1), ((2, 4), 2), ((2, 4), 1),
                                        ((3, 3), 2), ((3, 3), 3), ((4, 6), 3)])
def test_null_space_matches_scipy(shape, rank):
    rng = np.random.default_rng(shape[0] * 10 + rank)
    for _ in range(20):
        a = rng.normal(size=(shape[0], rank)) @ rng.normal(size=(rank, shape[1]))
        assert_bits(null_space(a), scipy_null_space(a))


@pytest.mark.parametrize("x,y", [([0.0], [1.0]), ([0.0, 0.0, 1.0], [1.0, 2.0, 3.0]),
                                 ([0.0, 1.0, np.inf], [1.0, 2.0, 3.0]),
                                 ([0.0, 1.0, 2.0], [1.0, np.nan, 3.0])],
                         ids=["one-node", "repeated-node", "infinite-node", "nan-value"])
def test_splines_reject_what_scipy_rejects(x, y):
    with pytest.raises(ValueError):
        HermiteSpline(x, y, y)
    with pytest.raises(ValueError):
        not_a_knot_slopes(x, y)
