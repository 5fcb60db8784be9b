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

A `Jet` may hold S jets as coefficients of shape (S, size), a leading sample
axis (vector-mode forward differentiation); `Jet.partial_jets` alone states
how the partials of such a batch are gathered.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations_with_replacement, count, groupby
from operator import itemgetter

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
        "nvars", "order", "indices", "index_of", "_mul_plan", "_sum_plan",
        "_diff_plans", "_partial_slots",
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
        self._mul_plan = None
        self._sum_plan = None
        self._diff_plans = {}
        self._partial_slots = {}

    @property
    def size(self) -> int:
        return len(self.indices)

    def mul_plan(self):
        """Arrays (ia, ib, io): coefficient ia of the left factor times
        coefficient ib of the right one adds to coefficient io."""
        return self.product_plan()[:3]

    def product_plan(self):
        """`product_plan` of two jets over all variables of this space."""
        if self._mul_plan is None:
            every = tuple(range(self.nvars))
            self._mul_plan = product_plan(every, every, self.nvars, self.order)
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

        Agrees with `Jet.__mul__` up to the order in which terms are summed.
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
        c.shape[:-1] + (nvars,)*degree + (size of the order-(k-d) space,),
        for a frame's derived arrays (a `Jet` gathers its own partials)."""
        index, factor = self.partial_slots(degree)
        return c[..., index] * factor


@lru_cache(maxsize=None)
def jet_space(nvars: int, order: int) -> JetSpace:
    return JetSpace(nvars, order)


# jets over a subset of the variables ----------------------------------------
#
# A jet that depends on only some variables of a space can be kept over the
# space of those variables alone.  `positions` lists them, increasing, as
# variable numbers of the larger space.  Multi-indices embed into the larger
# space in the same (degree, lex) order, so a product formed from the
# smaller arrays sums its terms in the order of the product over all
# variables, less terms that are zero.  A padded array carries one trailing
# entry: the value that every coefficient outside its variables would take
# in the larger space (+0.0 for a seeded variable; elementwise arithmetic
# updates it like any other coefficient, and a product sets it to +0.0).

def _embedded(positions: tuple[int, ...], nvars: int, order: int) -> list[tuple]:
    out = []
    for alpha in _multi_indices(len(positions), order):
        full = [0] * nvars
        for p, a in zip(positions, alpha):
            full[p] = a
        out.append(tuple(full))
    return out


@lru_cache(maxsize=None)
def lift_index(positions: tuple[int, ...], nvars: int, order: int) -> np.ndarray:
    """Gather index that lifts a padded array over the variables at
    `positions` into a padded array of jet_space(nvars, order): coefficients
    that the smaller space lacks read its trailing entry."""
    space = jet_space(nvars, order)
    own = _embedded(positions, nvars, order)
    index = np.full(space.size + 1, len(own), dtype=np.intp)
    index[[space.index_of[alpha] for alpha in own]] = np.arange(len(own))
    return index


@lru_cache(maxsize=None)
def product_plan(left: tuple[int, ...], right: tuple[int, ...], nvars: int,
                 order: int, padded: bool = False):
    """Arrays (ia, ib, io) and the product's length for the truncated product
    of a jet over the variables at positions `left` with one over those at
    `right`, into jet_space(nvars, order): coefficient ia of the left factor
    times coefficient ib of the right one adds to coefficient io.  Terms run
    in the order of the product over all nvars variables.  A padded product
    has one more entry, +0.0."""
    index_of = jet_space(nvars, order).index_of
    rights = [(j, beta, sum(beta))
              for j, beta in enumerate(_embedded(right, nvars, order))]
    ia, ib, io = [], [], []
    for i, alpha in enumerate(_embedded(left, nvars, order)):
        room = order - sum(alpha)
        for j, beta, degree in rights:
            if degree <= room:
                ia.append(i)
                ib.append(j)
                io.append(index_of[tuple(a + b for a, b in zip(alpha, beta))])
    return (np.array(ia, dtype=np.intp), np.array(ib, dtype=np.intp),
            np.array(io, dtype=np.intp), len(index_of) + (1 if padded else 0))


def product(a: np.ndarray, b: np.ndarray, plan) -> np.ndarray:
    """Truncated product of coefficient arrays through a `product_plan`;
    each coefficient sums its terms in plan order, starting from +0.0."""
    ia, ib, io, length = plan
    return np.bincount(io, weights=a[ia] * b[ib], minlength=length)


def product_rows(a: np.ndarray, b: np.ndarray, plan) -> np.ndarray:
    """`product` of S jets at once, held as the columns of (length, S)
    arrays (a trailing sample axis, so that a coefficient index reads the
    same for one jet and for S).  One `np.bincount` over all S columns sums
    each column's terms in the order `product` sums them, so column s is
    the product of columns s alone, to the bit."""
    ia, ib, io, length = plan
    s = a.shape[1]
    bins = (io[:, None] * s + np.arange(s)).ravel()
    return np.bincount(bins, weights=(a[ia] * b[ib]).ravel(),
                       minlength=length * s).reshape(length, s)


def int_power(c: np.ndarray, p: int, plan, mul=product) -> np.ndarray:
    """Coefficients of u^p for an integer p >= 1 by repeated squaring over
    the bits of p, with products mul through a same-space `product_plan`:
    at most 2 log2(p) products, and u^2 is the single product u*u.  For S
    jets in the columns of c, mul is `product_rows`."""
    out = c
    for bit in bin(p)[3:]:
        out = mul(out, out, plan)
        if bit == "1":
            out = mul(out, c, plan)
    return out


def compose(c: np.ndarray, derivs, plan, mul=product) -> np.ndarray:
    """Coefficients of f(u) from those of u and the normalized derivatives
    derivs[m] = f^(m)(u0)/m!, by Horner's rule, with products mul through
    a same-space `product_plan`.  For S jets in the columns of c, mul is
    `product_rows` and derivs[m] a row of S values (see `taylor_rows`).

    Exact at truncation order because the zero-constant part of u is
    nilpotent: powers beyond the order vanish.
    """
    hat = c.copy()
    hat[0] = 0.0
    out = np.zeros(c.shape)
    out[0] = derivs[-1]
    for d in derivs[-2::-1]:
        out = mul(out, hat, plan)
        out[0] += d
    return out


class Jet:
    """A truncated Taylor expansion, or S of them as coefficients of shape
    (S, size); immutable by convention.  Arithmetic is that of one jet."""

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
        shape (nvars,)*degree + (size of the order-(k-degree) space,), after
        the sample axis of a batch.  `take` along the last axis lays each
        sample's block out C-contiguous, as one jet's partials are, so that
        products and dots with them round alike (`c[..., index]` would put
        the sample axis innermost)."""
        index, factor = self.space.partial_slots(degree)
        return self.c.take(index, axis=-1) * factor

    def partials(self, degree: int) -> np.ndarray:
        """All true partials of one total degree as an (nvars,)*degree array
        after a batch's sample axis: entry [v1, ..., vd] is d^d f/dv1...dvd."""
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
            return Jet(a.space, product(a.c, b.c, a.space.product_plan()))
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
        return Jet(self.space, int_power(base.c, abs(p), self.space.product_plan()))

    def reciprocal(self) -> "Jet":
        return self._compose(taylor("reciprocal", self.value, self.space.order))

    def _compose(self, derivs: list[float]) -> "Jet":
        """f(self) given normalized derivatives f^(m)(value)/m!."""
        return Jet(self.space, compose(self.c, derivs, self.space.product_plan()))

    def __repr__(self):
        return f"Jet(order={self.space.order}, nvars={self.space.nvars}, value={self.value!r})"


# elementary functions -------------------------------------------------------
#
# The normalized derivatives of each elementary function are written once, as
# straight-line float code, by `taylor_source`: `taylor` compiles its lines
# per (name, order, exponent), and the one-point jet and float kernels of
# `dsl` write them inline, so every path runs the same float operations.

_REFUSED = {
    "log": "log of non-positive value {!r}",
    "powr": "fractional power of non-positive base {!r}",
    "sqrt": "fractional power of non-positive base {!r}",
    "sin": "sin of non-finite value {!r}",
    "cos": "cos of non-finite value {!r}",
    "reciprocal": "division by a jet with zero value part",
}


def refused(name: str, u0: float) -> EvaluationDomainError:
    """The error of `taylor` at an argument off the function's domain."""
    return EvaluationDomainError(_REFUSED[name].format(u0))


def overflows(name: str, u0: float) -> EvaluationDomainError:
    """The error of `taylor` where a power of u0 over- or underflows."""
    return EvaluationDomainError(f"{name} overflows at {u0!r}")


# the names that the lines of `taylor_source` load
TAYLOR_GLOBALS = {
    "exp": math.exp, "log": math.log, "sin": math.sin, "cos": math.cos,
    "isinf": math.isinf, "refused": refused, "overflows": overflows,
    "inf": math.inf, "nan": math.nan,
}


def _literal(v) -> str:
    """Source of one operand: a local's name, or a float constant (inf and
    nan are names bound in the namespace of the written code)."""
    if isinstance(v, str):
        return v
    text = "nan" if v != v else repr(abs(v))
    return f"(-{text})" if math.copysign(1.0, v) < 0.0 else text


def _compiled(source: str, names: dict):
    """The one function that `source` defines, compiled with a copy of
    `names` as its globals."""
    namespace = dict(names)
    exec(compile(source, "<finslab kernel>", "exec"), namespace)
    return namespace[source[len("def "):source.index("(")]]


def taylor_source(name: str, u: str, order: int, p: float, fresh
                  ) -> tuple[list[str], list[str]]:
    """The lines that bind the normalized derivatives f^(m)(u)/m!, m =
    0..order, of the elementary function `name` (see `taylor`) at u, the
    source of an argument (a local's name or a float constant), and the
    local names of the derivatives, in order; fresh() gives a new local
    name, and a name may stand for two derivatives.

    The lines are indented relative to their block and load only their own
    locals, u and the names of `TAYLOR_GLOBALS`.  A guard raises `refused`
    off the function's domain, and a `try` around the lines that can over-
    or underflow (an exponential, a power of u) turns OverflowError and
    ZeroDivisionError into `overflows`.  Signs and factorials are folded
    into float constants as Python folds them, and so are the factors
    p - m + 1 of a power, so that each derivative is the float of its
    formula:
    - exp: e^u / m!;
    - log: log u, then (-1)^(m+1) / (m u^m);
    - powr (u^p) and sqrt (p = 0.5): u^p, then the (m-1)-th times
      (p - m + 1) / (m u);
    - sin and cos: the cycle of sin u, cos u, -sin u, -cos u, over m!;
    - reciprocal: (-1)^m / u^(m+1).
    Multiplying or dividing by 1 is left out, which changes no float."""
    body: list[tuple[str, bool]] = []

    def bind(expr: str, checked: bool = False) -> str:
        """A new local for expr; a checked one can over- or underflow."""
        local = fresh()
        body.append((f"{local} = {expr}", checked))
        return local

    guard = None
    if name == "exp":
        e = bind(f"exp({u})", checked=True)
        out = [e, e][:order + 1]
        out += [bind(f"{e} / {_literal(float(math.factorial(m)))}")
                for m in range(2, order + 1)]
    elif name == "log":
        guard = f"{u} <= 0.0"
        out = [bind(f"log({u})")]
        for m in range(1, order + 1):
            power = u if m == 1 else f"({m} * {u} ** {m})"
            out.append(bind(f"{_literal((-1.0) ** (m + 1))} / {power}", checked=m > 1))
    elif name in ("powr", "sqrt"):
        guard = f"{u} <= 0.0"
        out = [bind(f"{u} ** {_literal(p)}", checked=True)]
        for m in range(1, order + 1):
            step = u if m == 1 else f"({m} * {u})"
            out.append(bind(f"{out[-1]} * {_literal(p - m + 1)} / {step}"))
    elif name in ("sin", "cos"):
        guard = f"isinf({u})"
        first, second = ((f"sin({u})", f"cos({u})") if name == "sin"
                         else (f"cos({u})", f"-sin({u})"))
        out = [bind(first)]
        if order >= 1:
            out.append(bind(second))
        for m in range(2, order + 1):
            sign = "-" if m % 4 >= 2 else ""
            out.append(bind(f"{sign}{out[m % 2]} / {_literal(float(math.factorial(m)))}"))
    elif name == "reciprocal":
        guard = f"{u} == 0.0"
        out = [bind(f"1.0 / {u}")]
        out += [bind(f"{_literal((-1.0) ** m)} / {u} ** {m + 1}", checked=True)
                for m in range(1, order + 1)]
    else:
        raise ValueError(f"unknown elementary function {name!r}")
    lines = [] if guard is None else [f"if {guard}:", f"    raise refused({name!r}, {u})"]
    for checked, run in groupby(body, key=itemgetter(1)):
        run = [line for line, _ in run]
        lines += (["try:", *(f"    {line}" for line in run),
                   "except (OverflowError, ZeroDivisionError):",
                   f"    raise overflows({name!r}, {u}) from None"] if checked else run)
    return lines, out


@lru_cache(maxsize=None)
def _taylor_function(name: str, order: int, p: float):
    """`taylor` of one function, order and exponent, compiled from the
    lines of `taylor_source`."""
    names = count()
    lines, out = taylor_source(name, "u", order, p, lambda: f"d{next(names)}")
    body = "".join(f"    {line}\n" for line in lines)
    return _compiled(f"def taylor(u):\n{body}    return [{', '.join(out)}]\n",
                     TAYLOR_GLOBALS)


def taylor(name: str, u0: float, order: int, p: float = 0.5) -> list[float]:
    """Normalized derivatives f^(m)(u0)/m!, m = 0..order, of the elementary
    function `name` at u0: exp, log, sqrt, sin, cos, powr (u**p) or
    reciprocal, by the lines of `taylor_source`.  Raises
    EvaluationDomainError off the function's domain and where a power of u0
    over- or underflows.  A nan argument gives nan coefficients, which the
    finiteness checks of the callers catch."""
    if name not in ("powr", "sqrt"):
        p = 0.5
    elif p != p:
        p = math.nan        # one nan object, which the cache finds again
    return _taylor_function(name, order, p)(u0)


def taylor_rows(name: str, c: np.ndarray, order: int, p: float = 0.5) -> np.ndarray:
    """`taylor` at the value parts of S jets, the columns of c: an
    (order + 1, S) array, evaluated sample by sample in order, so that the
    first failing sample raises."""
    return np.array([taylor(name, u, order, p) for u in c[0].tolist()]).T


def exp(u: Jet) -> Jet:
    return u._compose(taylor("exp", u.value, u.order))


def log(u: Jet) -> Jet:
    return u._compose(taylor("log", u.value, u.order))


def sqrt(u: Jet) -> Jet:
    return powr(u, 0.5)


def powr(u: Jet, p: float) -> Jet:
    """u**p with a real exponent; requires a strictly positive value part."""
    return u._compose(taylor("powr", u.value, u.order, p))


def sin(u: Jet) -> Jet:
    return u._compose(taylor("sin", u.value, u.order))


def cos(u: Jet) -> Jet:
    return u._compose(taylor("cos", u.value, u.order))
