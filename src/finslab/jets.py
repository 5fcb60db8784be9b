"""Truncated multivariate Taylor arithmetic ("jets").

A jet stores the Taylor coefficients of a scalar function at a point, for
every multi-index of total degree <= k over a fixed set of variables.  The
stored numbers are *normalized* coefficients c_alpha = (d^alpha f) / alpha!,
so multiplication of jets is plain truncated convolution and the true mixed
partial is recovered by multiplying with alpha! on extraction.

Arithmetic between jets of different truncation orders silently truncates to
the lower order; that is the only order for which the result is meaningful.
All operations are deterministic: the coefficient tables are dense and the
evaluation order is fixed, so identical inputs give bit-identical outputs.

Orders up to 4 are supported, which is enough for fourth derivatives of a
metric (curvature needs them); polynomial inputs of degree <= k are exact.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations_with_replacement

import numpy as np

from .errors import EvaluationDomainError

MAX_ORDER = 4


def _multi_indices(nvars: int, order: int) -> list[tuple[int, ...]]:
    """All multi-indices with total degree <= order, sorted by (degree, lex).

    The ordering makes the table for a lower order a prefix of the table for
    any higher order over the same variables.
    """
    out: list[tuple[int, ...]] = []
    for deg in range(order + 1):
        block = set()
        for combo in combinations_with_replacement(range(nvars), deg):
            alpha = [0] * nvars
            for v in combo:
                alpha[v] += 1
            block.add(tuple(alpha))
        out.extend(sorted(block))
    return out


class JetSpace:
    """Coefficient layout plus precomputed plans for one (nvars, order)."""

    __slots__ = (
        "nvars", "order", "indices", "index_of", "degrees",
        "_sizes_by_degree", "_mul_plan", "_sum_plan", "_diff_plans",
        "_partial_slots",
    )

    def __init__(self, nvars: int, order: int):
        if nvars < 1:
            raise ValueError(f"need at least one variable, got {nvars}")
        if not 0 <= order <= MAX_ORDER:
            raise ValueError(f"truncation order must be in [0, {MAX_ORDER}], got {order}")
        self.nvars = nvars
        self.order = order
        self.indices = _multi_indices(nvars, order)
        self.index_of = {alpha: i for i, alpha in enumerate(self.indices)}
        self.degrees = np.array([sum(a) for a in self.indices], dtype=np.int64)
        sizes = [0] * (order + 2)
        for d in self.degrees:
            sizes[d + 1] += 1
        self._sizes_by_degree = np.cumsum(sizes)
        self._mul_plan = None
        self._sum_plan = None
        self._diff_plans = {}
        self._partial_slots = {}

    @property
    def size(self) -> int:
        return len(self.indices)

    def size_at_order(self, order: int) -> int:
        """Number of coefficients of a jet truncated at the given order."""
        return int(self._sizes_by_degree[order + 1])

    def mul_plan(self):
        if self._mul_plan is None:
            ia, ib, io = [], [], []
            for i, alpha in enumerate(self.indices):
                da = sum(alpha)
                for j, beta in enumerate(self.indices):
                    if da + sum(beta) > self.order:
                        continue
                    gamma = tuple(a + b for a, b in zip(alpha, beta))
                    ia.append(i)
                    ib.append(j)
                    io.append(self.index_of[gamma])
            self._mul_plan = (
                np.array(ia, dtype=np.intp),
                np.array(ib, dtype=np.intp),
                np.array(io, dtype=np.intp),
            )
        return self._mul_plan

    def diff_plan(self, var: int):
        """Arrays (src, dst, factor) realizing d/dx_var into order-1 space."""
        plan = self._diff_plans.get(var)
        if plan is None:
            lower = jet_space(self.nvars, self.order - 1)
            src, factor = [], []
            for alpha in lower.indices:
                shifted = list(alpha)
                shifted[var] += 1
                src.append(self.index_of[tuple(shifted)])
                factor.append(alpha[var] + 1)
            plan = (np.array(src, dtype=np.intp), np.array(factor, dtype=float))
            self._diff_plans[var] = plan
        return plan

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Jet products of coefficient arrays, broadcasting their leading axes.

        Agrees with `Jet.__mul__` up to the order in which terms are summed;
        that stays the path for a single pair, where it is faster.
        """
        if self._sum_plan is None:
            ia, ib, io = self.mul_plan()
            by_out = np.argsort(io, kind="stable")
            starts = np.searchsorted(io[by_out], np.arange(self.size))
            self._sum_plan = (ia[by_out], ib[by_out], starts)
        ia, ib, starts = self._sum_plan
        return np.add.reduceat(a[..., ia] * b[..., ib], starts, axis=-1)

    def partial_slots(self, degree: int):
        """Arrays (index, factor), each of shape (nvars,)*degree + (size of
        the order-(k-degree) space,): entry [v1, ..., vd, beta] holds the
        coefficient index of alpha + beta, where alpha has one count per
        listed variable, and (alpha + beta)!/beta!.  Gathering with them
        yields the coefficients of every degree-d partial.  Built on first use.
        """
        slots = self._partial_slots.get(degree)
        if slots is None:
            if not 1 <= degree <= self.order:
                raise ValueError(
                    f"partial degree must be in [1, {self.order}], got {degree}")
            lower = jet_space(self.nvars, self.order - degree).indices
            shape = (self.nvars,) * degree + (len(lower),)
            index = np.empty(shape, dtype=np.intp)
            factor = np.empty(shape)
            for slot in np.ndindex(*shape[:-1]):
                alpha = [0] * self.nvars
                for v in slot:
                    alpha[v] += 1
                for b, beta in enumerate(lower):
                    gamma = tuple(a + c for a, c in zip(alpha, beta))
                    index[slot + (b,)] = self.index_of[gamma]
                    factor[slot + (b,)] = math.prod(
                        math.factorial(g) // math.factorial(c)
                        for g, c in zip(gamma, beta))
            slots = self._partial_slots[degree] = (index, factor)
        return slots

    def partial_jets(self, c: np.ndarray, degree: int) -> np.ndarray:
        """Every degree-d partial of the coefficient array c (leading axes
        are batch axes) as order-(k-d) coefficients, in one gather: shape
        c.shape[:-1] + (nvars,)*degree + (size of the order-(k-d) space,)."""
        index, factor = self.partial_slots(degree)
        return c[..., index] * factor


@lru_cache(maxsize=None)
def jet_space(nvars: int, order: int) -> JetSpace:
    return JetSpace(nvars, order)


class Jet:
    """A truncated Taylor expansion; immutable by convention."""

    __slots__ = ("space", "c")

    def __init__(self, space: JetSpace, coeffs: np.ndarray):
        self.space = space
        self.c = coeffs

    # construction ---------------------------------------------------------

    @staticmethod
    def constant(space: JetSpace, value: float) -> "Jet":
        c = np.zeros(space.size)
        c[0] = value
        return Jet(space, c)

    @staticmethod
    def variable(space: JetSpace, var: int, value: float) -> "Jet":
        if not 0 <= var < space.nvars:
            raise ValueError(f"variable index {var} out of range for {space.nvars} variables")
        c = np.zeros(space.size)
        c[0] = value
        if space.order >= 1:
            c[space.partial_slots(1)[0][var, 0]] = 1.0
        return Jet(space, c)

    # basic queries --------------------------------------------------------

    @property
    def value(self) -> float:
        return float(self.c[0])

    @property
    def order(self) -> int:
        return self.space.order

    def truncated(self, order: int) -> "Jet":
        if order == self.space.order:
            return self
        if order > self.space.order:
            raise ValueError("cannot extend a jet to a higher order")
        lower = jet_space(self.space.nvars, order)
        return Jet(lower, self.c[: lower.size])

    def derivative(self, alpha) -> float:
        """True mixed partial for the multi-index (factorial-normalized)."""
        alpha = tuple(int(a) for a in alpha)
        if len(alpha) != self.space.nvars:
            raise ValueError(
                f"multi-index has {len(alpha)} entries, expected {self.space.nvars}")
        if sum(alpha) > self.space.order:
            raise ValueError(
                f"multi-index degree {sum(alpha)} exceeds truncation order {self.space.order}")
        fac = 1.0
        for a in alpha:
            fac *= math.factorial(a)
        return float(self.c[self.space.index_of[alpha]]) * fac

    def partial_jets(self, degree: int) -> np.ndarray:
        """The jets of all partials of one total degree, as coefficients of
        shape (nvars,)*degree + (size of the order-(k-degree) space,)."""
        index, factor = self.space.partial_slots(degree)
        return self.c[index] * factor   # plain indexing beats c[..., index] here

    def partials(self, degree: int) -> np.ndarray:
        """All true partials of one total degree as an (nvars,)*degree array:
        entry [v1, ..., vd] is d^d f / dv1 ... dvd."""
        return self.partial_jets(degree)[..., 0]

    def diff(self, var: int) -> "Jet":
        """The jet of the partial derivative d/dx_var, one order lower."""
        if self.space.order == 0:
            raise ValueError("cannot differentiate an order-0 jet")
        src, factor = self.space.diff_plan(var)
        lower = jet_space(self.space.nvars, self.space.order - 1)
        return Jet(lower, self.c[src] * factor)

    # arithmetic -----------------------------------------------------------

    def _align(self, other: "Jet"):
        if self.space is other.space:
            return self, other
        if self.space.nvars != other.space.nvars:
            raise ValueError("jets live over different variable sets")
        k = min(self.space.order, other.space.order)
        return self.truncated(k), other.truncated(k)

    def __add__(self, other):
        if isinstance(other, Jet):
            a, b = self._align(other)
            return Jet(a.space, a.c + b.c)
        c = self.c.copy()
        c[0] += other
        return Jet(self.space, c)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.space, -self.c)

    def __sub__(self, other):
        if isinstance(other, Jet):
            a, b = self._align(other)
            return Jet(a.space, a.c - b.c)
        c = self.c.copy()
        c[0] -= other
        return Jet(self.space, c)

    def __rsub__(self, other):
        c = -self.c
        c[0] += other
        return Jet(self.space, c)

    def __mul__(self, other):
        if isinstance(other, Jet):
            a, b = self._align(other)
            ia, ib, io = a.space.mul_plan()
            out = np.bincount(io, weights=a.c[ia] * b.c[ib], minlength=a.space.size)
            return Jet(a.space, out)
        return Jet(self.space, self.c * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other.reciprocal()
        return Jet(self.space, self.c / other)

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def __pow__(self, p):
        if isinstance(p, Jet):
            raise TypeError("exponent must be a real constant")
        if float(p) == int(p):
            return self._int_pow(int(p))
        return powr(self, float(p))

    def _int_pow(self, p: int) -> "Jet":
        if p == 0:
            return Jet.constant(self.space, 1.0)
        base = self if p > 0 else self.reciprocal()
        out = base
        for _ in range(abs(p) - 1):
            out = out * base
        return out

    def reciprocal(self) -> "Jet":
        u0 = self.value
        if u0 == 0.0:
            raise EvaluationDomainError("division by a jet with zero value part")
        k = self.space.order
        derivs = [(-1.0) ** m / u0 ** (m + 1) for m in range(k + 1)]
        return self._compose(derivs)

    def _compose(self, derivs: list[float]) -> "Jet":
        """Evaluate f(self) given normalized derivatives f^(m)(value)/m!.

        Exact at truncation order because the zero-constant part of the jet is
        nilpotent: powers beyond the order vanish.
        """
        hat = Jet(self.space, self.c.copy())
        hat.c[0] = 0.0
        out = Jet.constant(self.space, derivs[-1])
        for m in range(len(derivs) - 2, -1, -1):
            out = out * hat + derivs[m]
        return out

    def __repr__(self):
        return f"Jet(order={self.space.order}, nvars={self.space.nvars}, value={self.value!r})"


# elementary functions (accept floats or jets) -----------------------------

def _as_derivs(j: Jet, fn) -> Jet:
    return j._compose(fn(j.value, j.space.order))


def exp(u):
    try:
        e = math.exp(u.value if isinstance(u, Jet) else u)
    except OverflowError:
        raise EvaluationDomainError(f"exp overflows at {u!r}") from None
    if not isinstance(u, Jet):
        return e
    return _as_derivs(u, lambda u0, k: [e / math.factorial(m) for m in range(k + 1)])


def log(u):
    if not isinstance(u, Jet):
        if u <= 0.0:
            raise EvaluationDomainError(f"log of non-positive value {u!r}")
        return math.log(u)
    u0 = u.value
    if u0 <= 0.0:
        raise EvaluationDomainError(f"log of jet with non-positive value part {u0!r}")

    def derivs(u0, k):
        out = [math.log(u0)]
        for m in range(1, k + 1):
            out.append((-1.0) ** (m + 1) / (m * u0 ** m))
        return out

    return _as_derivs(u, derivs)


def sqrt(u):
    if not isinstance(u, Jet):
        if u <= 0.0:
            raise EvaluationDomainError(f"sqrt of non-positive value {u!r}")
        return math.sqrt(u)
    return powr(u, 0.5)


def powr(u, p: float):
    """u**p with a real exponent; requires a strictly positive base."""
    if not isinstance(u, Jet):
        if u <= 0.0:
            raise EvaluationDomainError(f"fractional power of non-positive base {u!r}")
        return u ** p
    u0 = u.value
    if u0 <= 0.0:
        raise EvaluationDomainError(f"fractional power of jet with non-positive value part {u0!r}")

    def derivs(u0, k):
        out = [u0 ** p]
        for m in range(1, k + 1):
            out.append(out[-1] * (p - m + 1) / (m * u0))
        return out

    return _as_derivs(u, derivs)


def sin(u):
    if not isinstance(u, Jet):
        return math.sin(u)
    s, c = math.sin(u.value), math.cos(u.value)
    cycle = [s, c, -s, -c]
    return _as_derivs(
        u, lambda u0, k: [cycle[m % 4] / math.factorial(m) for m in range(k + 1)])


def cos(u):
    if not isinstance(u, Jet):
        return math.cos(u)
    s, c = math.sin(u.value), math.cos(u.value)
    cycle = [c, -s, -c, s]
    return _as_derivs(
        u, lambda u0, k: [cycle[m % 4] / math.factorial(m) for m in range(k + 1)])


# seeding ------------------------------------------------------------------

def seed(x, y=None, order: int | None = None) -> tuple[list[Jet], list[Jet]]:
    """Jet variables for chart coordinates x and fiber coordinates y.

    Returns two lists of length n; variable i of the second list is fiber
    coordinate y^i, occupying slot n+i of every multi-index.  Also callable
    as seed(sample, order) with anything exposing .x and .y attributes.
    """
    if order is None and hasattr(x, "x") and hasattr(x, "y"):
        x, y, order = x.x, x.y, int(y)
    if order is None:
        raise TypeError("seed needs (x, y, order) or (sample, order)")
    if not 2 <= order <= MAX_ORDER:
        raise ValueError(f"seed order must be in [2, {MAX_ORDER}], got {order}")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError(f"chart/fiber dimension mismatch: {x.shape} vs {y.shape}")
    n = x.size
    space = jet_space(2 * n, order)
    xs = [Jet.variable(space, i, float(x[i])) for i in range(n)]
    ys = [Jet.variable(space, n + i, float(y[i])) for i in range(n)]
    return xs, ys

