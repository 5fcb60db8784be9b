"""Numerical kernels in numpy: cubic-Hermite dense output, not-a-knot node
slopes, Simpson quadrature and null spaces.

Each routine keeps the operation order of the reference implementation it
reproduces, so results equal the reference bit for bit:
- `HermiteSpline`: `CubicHermiteSpline`, evaluated as a piecewise
  polynomial, and its `derivative()`;
- `not_a_knot_slopes`: the node slopes of a not-a-knot `CubicSpline`, whose
  tridiagonal system is solved by the elimination of LAPACK ``?gtsv``;
- `simpson`, `cumulative_simpson`: composite Simpson quadrature on sample
  points, the cumulative one from a zero initial value;
- `null_space`: the SVD null space with the usual rank cut.
tests/test_numerics.py compares each one with the reference.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

__all__ = ["HermiteSpline", "not_a_knot_slopes", "simpson", "cumulative_simpson",
           "null_space"]


def _check_nodes(x: np.ndarray, *data: np.ndarray) -> None:
    if not (x.ndim == 1 and x.size >= 2 and all(a.shape[:1] == x.shape for a in data)):
        raise ValueError("need two or more nodes, with data along the first axis")
    if not (np.all(np.diff(x) > 0) and all(np.all(np.isfinite(a)) for a in (x, *data))):
        raise ValueError("nodes must be strictly increasing and all data finite")


class HermiteSpline:
    """Piecewise cubic through values y with slopes dydx at nodes x (data
    along axis 0), extrapolated from the end intervals.

    On interval i, with s = t - x[i], the value c3 + c2 s + c1 s^2 + c0 s^3
    is summed from 0.0 in that order.  A float argument takes a scalar path
    in Python floats over the same coefficients.
    """

    def __init__(self, x, y, dydx):
        x, y, dydx = (np.asarray(a, dtype=float) for a in (x, y, dydx))
        _check_nodes(x, y, dydx)
        if y.shape != dydx.shape:
            raise ValueError("values and slopes must share one shape")
        dxr = np.diff(x).reshape((-1,) + (1,) * (y.ndim - 1))
        slope = np.diff(y, axis=0) / dxr
        t = (dydx[:-1] + dydx[1:] - 2 * slope) / dxr
        c = np.stack((t / dxr, (slope - dydx[:-1]) / dxr - t, dydx[:-1], y[:-1]))
        self._x = x
        self._nodes = x.tolist()
        self._tail = y.shape[1:]
        self._c = c.reshape(4, x.size - 1, -1)     # (c0, c1, c2, c3) over flat data
        self._rows: list = [None] * (x.size - 1)   # `floats`' tuples, per interval

    def _locate(self, t):
        """Each point's (c0, c1, c2, c3) and its offset s from its node."""
        t = np.asarray(t, dtype=float)
        # the interior nodes at or below t count the interval, clipped to the ends
        i = np.searchsorted(self._x[1:-1], t, side="right")
        s = (t - self._x[i])[..., None]
        return np.take(self._c, i, axis=1), s, t.shape

    def __call__(self, t):
        if isinstance(t, float):
            return np.array(self.floats(t)).reshape(self._tail)
        (c0, c1, c2, c3), s, shape = self._locate(t)
        value = 0.0 + c3 + c2 * s + c1 * (s * s) + c0 * (s * s * s)
        return value.reshape(shape + self._tail)

    def floats(self, t: float) -> list[float]:
        """The value at one float t as a flat list of Python floats.  Each
        interval's (c0, c1, c2, c3) tuples are read from the coefficient
        array once, on the interval's first call."""
        nodes = self._nodes
        i = bisect_right(nodes, t, 1, len(nodes) - 1) - 1
        rows = self._rows[i]
        if rows is None:
            rows = self._rows[i] = list(zip(*self._c[:, i].tolist()))
        s = float(t) - nodes[i]
        ss = s * s
        sss = ss * s
        return [0.0 + c3 + c2 * s + c1 * ss + c0 * sss for c0, c1, c2, c3 in rows]

    def derivative(self, t):
        """First derivative: c2 + 2 c1 s + 3 c0 s^2, summed from 0.0."""
        (c0, c1, c2, _), s, shape = self._locate(t)
        slope = 0.0 + c2 + (2.0 * c1) * s + (3.0 * c0) * (s * s)
        return slope.reshape(shape + self._tail)


def _gtsv(d: list, du: list, dl: list, cols: list) -> None:
    """Solve the tridiagonal system (subdiagonal dl, diagonal d,
    superdiagonal du) in place for each right-hand side in `cols`, by
    LAPACK ?gtsv's Gaussian elimination: rows are interchanged where the
    subdiagonal entry is the larger, which fills a second superdiagonal
    (kept in dl)."""
    n = len(d)
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            fact = dl[i] / d[i]
            d[i + 1] = d[i + 1] - fact * du[i]
            for b in cols:
                b[i + 1] = b[i + 1] - fact * b[i]
            dl[i] = 0.0
        else:
            fact = d[i] / dl[i]
            d[i] = dl[i]
            temp = d[i + 1]
            d[i + 1] = du[i] - fact * temp
            if i < n - 2:
                dl[i] = du[i + 1]
                du[i + 1] = -fact * dl[i]
            du[i] = temp
            for b in cols:
                b[i], b[i + 1] = b[i + 1], b[i] - fact * b[i + 1]
    for b in cols:
        b[n - 1] = b[n - 1] / d[n - 1]
        b[n - 2] = (b[n - 2] - du[n - 2] * b[n - 1]) / d[n - 2]
        for i in range(n - 3, -1, -1):
            b[i] = (b[i] - du[i] * b[i + 1] - dl[i] * b[i + 2]) / d[i]


def not_a_knot_slopes(x, y) -> np.ndarray:
    """Node slopes of the not-a-knot cubic spline through (x, y), data along
    axis 0.

    Two nodes give the chord slope at both ends and three the parabola
    through them (a dense solve); more nodes give the tridiagonal system of
    continuous second derivatives with not-a-knot end rows.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    _check_nodes(x, y)
    n = x.size
    dx = np.diff(x)
    dxr = dx.reshape((-1,) + (1,) * (y.ndim - 1))
    slope = np.diff(y, axis=0) / dxr
    b = np.empty(y.shape)
    if n == 3:
        A = np.array([[1.0, 1.0, 0.0], [dx[1], 2 * (dx[0] + dx[1]), dx[0]],
                      [0.0, 1.0, 1.0]])
        b[0] = 2 * slope[0]
        b[1] = 3 * (dxr[0] * slope[1] + dxr[1] * slope[0])
        b[2] = 2 * slope[1]
        return np.linalg.solve(A, b.reshape(3, -1)).reshape(b.shape)
    if n == 2:
        d, du, dl = [1.0, 1.0], [0.0], [0.0]
        b[0] = b[1] = slope[0]
    else:
        d = np.concatenate(([dx[1]], 2 * (dx[:-1] + dx[1:]), [dx[-2]])).tolist()
        du = np.concatenate(([x[2] - x[0]], dx[:-1])).tolist()
        dl = np.concatenate((dx[1:], [x[-1] - x[-3]])).tolist()
        b[1:-1] = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
        w = x[2] - x[0]
        b[0] = ((dxr[0] + 2 * w) * dxr[1] * slope[0] + dxr[0] * dxr[0] * slope[1]) / w
        w = x[-1] - x[-3]
        b[-1] = (dxr[-1] * dxr[-1] * slope[-2] + (2 * w + dxr[-1]) * dxr[-2] * slope[-1]) / w
    cols = b.reshape(n, -1).T.tolist()
    _gtsv(d, du, dl, cols)
    return np.array(cols).T.reshape(b.shape)


def _simpson_pairs(y: np.ndarray, h: np.ndarray, stop: int):
    """Simpson's rule for nonuniform spacing on the node pairs that start at
    0, 2, ... below `stop`, summed."""
    h0 = h[0:stop:2]
    h1 = h[1:stop + 1:2]
    hsum = h0 + h1
    h0divh1 = h0 / h1
    return np.sum(hsum / 6.0 * (y[0:stop:2] * (2.0 - 1.0 / h0divh1)
                                + y[1:stop + 1:2] * (hsum * (hsum / (h0 * h1)))
                                + y[2:stop + 2:2] * (2.0 - h0divh1)))


def simpson(y, x) -> float:
    """Composite Simpson integral of samples y at nodes x.

    An odd node count takes Simpson's rule on every pair of intervals; an
    even one on all but the last interval, which gets Cartwright's
    correction.  Two nodes take the trapezoid.
    """
    y, x = np.asarray(y, dtype=float), np.asarray(x, dtype=float)
    n = y.size
    if n == 2:
        return 0.0 + 0.5 * (x[-1] - x[-2]) * (y[-1] + y[-2])
    h = np.diff(x)
    if n % 2:
        return _simpson_pairs(y, h, n - 2)
    result = _simpson_pairs(y, h, n - 3)
    # 0-d arrays, not scalars: a cube of a numpy scalar can round otherwise
    h0, h1 = h[-2:-1].squeeze(0), h[-1:].squeeze(0)
    alpha = (2 * h1 ** 2 + 3 * h0 * h1) / (6 * (h1 + h0))
    beta = (h1 ** 2 + 3.0 * h0 * h1) / (6 * h0)
    eta = h1 ** 3 / (6 * h0 * (h0 + h1))
    return result + (alpha * y[-1] + beta * y[-2] - eta * y[-3])


def _simpson_steps(y: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Simpson integral over the first interval of every node triple."""
    x21, x32 = h[:-1], h[1:]
    x21_x31 = x21 / (x21 + x32)
    x21x21_x31x32 = x21_x31 * (x21 / x32)
    return x21 / 6 * ((3 - x21_x31) * y[:-2] + (3 + x21x21_x31x32 + x21_x31) * y[1:-1]
                      - x21x21_x31x32 * y[2:])


def cumulative_simpson(y, x) -> np.ndarray:
    """Running Simpson integral of samples y at nodes x, from 0.0 at x[0].

    Each interval takes the triple that starts on it, read forward or
    backward, alternately; the last one the backward triple.  Two nodes
    take the trapezoid.
    """
    y, x = np.asarray(y, dtype=float), np.asarray(x, dtype=float)
    h = np.diff(x)
    if y.size < 3:
        steps = h * (y[1:] + y[:-1]) / 2.0
    else:
        forward = _simpson_steps(y, h)
        backward = _simpson_steps(y[::-1], h[::-1])[::-1]
        steps = np.empty(h.size)
        steps[:-1:2] = forward[::2]
        steps[1::2] = backward[::2]
        steps[-1] = backward[-1]
    return np.concatenate(([0.0], np.cumsum(steps) + 0.0))


def null_space(a) -> np.ndarray:
    """Orthonormal basis of the null space of a, as columns: the right
    singular vectors past the numerical rank, whose cut is the largest
    singular value times eps * max(a.shape)."""
    a = np.asarray(a, dtype=float)
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    tol = np.amax(s, initial=0.0) * (np.finfo(s.dtype).eps * max(a.shape))
    return vh[np.sum(s > tol, dtype=int):].T
