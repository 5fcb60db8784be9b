"""Metric definition language and built-in metric registry.

Metrics are scalar expressions over chart variables x0..x{n-1} and fiber
variables y0..y{n-1} with +, -, *, /, pow(., real), exp, log, sqrt, sin, cos.
A definition carries its conic domain as a list of expressions required to be
strictly positive, and a declared positive-homogeneity degree in the fiber
variables (2 for a metric, 0 for a conformal factor).

Each definition compiles its body and its domain predicates once into a
`Tape`, a flat program that runs over floats or over jets, so the engine
gets exact derivatives of any definition, including products of definitions
formed programmatically.  The tape shares repeated subexpressions, folds
constant ones, and keeps each subexpression's jet only over the variables it
depends on; the coefficients equal those of jet arithmetic over all 2n
variables to the bit.  Float values must be finite.  The float program,
and the jet at one point, run as straight-line Python generated from the
tape, one function per program (and order), with the elementary functions
written inline (`jets.taylor_source`); values and domain checks at
many samples run the float program sample by sample.  The jet also runs
over the S samples of a `SampleBatch` at once, and the batch's jet is a
`jets.Jet` with a leading sample axis.

Grammar (precedence: pow > unary minus > * / > + -)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | power
    power  := atom ('^' factor)?
    atom   := NUMBER | IDENT | IDENT '(' expr (',' expr)* ')' | '(' expr ')'

Nesting (groups, calls, unary minus signs and exponents along one path)
is capped at `MAX_NESTING` levels, and the source of a one-point jet kernel
at `MAX_KERNEL_LINES` lines; input past either cap is an ExpressionError.

`u ^ p` and `pow(u, p)` are the same node; the exponent must fold to a real
constant.  An integer power of a jet runs by repeated squaring.  Fractional
powers evaluate only on a strictly positive base, so domains using them must
list the base as a positivity predicate.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from functools import partial
from itertools import count
from pathlib import Path

import numpy as np

from . import jets
from .errors import (ConfigError, EvaluationDomainError, ExpressionError, InadmissibleSample,
                     NoAdmissibleSample)
from .jets import _compiled, _literal

__all__ = [
    "Expr", "Num", "Var", "Neg", "Add", "Sub", "Mul", "Div", "Pow", "Func",
    "Tape", "TangentSample", "SampleBatch", "MetricDefinition",
    "parse_expression", "parse_metric", "pretty", "sample_admissible",
    "builtin_metric", "builtin_names", "parse_metric_file", "load_metric_file",
]


# --------------------------------------------------------------------------
# expression trees
# --------------------------------------------------------------------------

class Expr:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Num(Expr):
    value: float


@dataclass(frozen=True, slots=True)
class Var(Expr):
    kind: str   # "x" or "y"
    index: int


@dataclass(frozen=True, slots=True)
class Neg(Expr):
    a: Expr


@dataclass(frozen=True, slots=True)
class Add(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True, slots=True)
class Sub(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True, slots=True)
class Mul(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True, slots=True)
class Div(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True, slots=True)
class Pow(Expr):
    base: Expr
    exponent: float


@dataclass(frozen=True, slots=True)
class Func(Expr):
    name: str   # exp | log | sqrt | sin | cos
    arg: Expr


_FUNCTIONS = ("exp", "log", "sqrt", "sin", "cos")


def _children(node: Expr) -> tuple:
    """The operand subtrees of a node, in order."""
    kind = type(node)
    if kind in (Add, Sub, Mul, Div):
        return (node.a, node.b)
    if kind is Neg:
        return (node.a,)
    if kind is Pow:
        return (node.base,)
    if kind is Func:
        return (node.arg,)
    return ()


def _walk(root: Expr, combine):
    """combine(node, *values of its children) at every node of a tree, with
    the children done first and left to right, by an explicit stack, so
    that a long sum needs no deep recursion; the value at the root."""
    todo: list = [root]
    done: list = []          # the value of each finished subtree, in order
    while todo:
        node = todo.pop()
        if type(node) is tuple:              # (node, arity): its children are done
            node, arity = node
            args = done[-arity:]
            del done[-arity:]
            done.append(combine(node, *args))
            continue
        children = _children(node)
        if children:
            todo.append((node, len(children)))
            todo.extend(reversed(children))
        else:
            done.append(combine(node))
    return done[0]


# --------------------------------------------------------------------------
# compiled tapes
# --------------------------------------------------------------------------

def _divide(a: float, b: float) -> float:
    if b == 0.0:
        raise EvaluationDomainError("division by zero")
    return a / b


def _int_power(a: float, p: int) -> float:
    if p < 0 and a == 0.0:
        raise EvaluationDomainError("zero base raised to a negative power")
    try:
        return a ** p
    except OverflowError:
        raise EvaluationDomainError(f"power {p} overflows at {a!r}") from None


def _function(name: str, a: float, p: float = 0.5) -> float:
    """Float value of an elementary function (or of powr, a**p), for
    constants that fold; the float program writes the same lines inline."""
    if name == "sqrt":
        if a <= 0.0:
            raise EvaluationDomainError(f"sqrt of non-positive value {a!r}")
        return math.sqrt(a)
    return jets.taylor(name, a, 0, p)[0]


# the operations on two slots, and their floats, with which constants fold
_SLOT_PAIRS = ("add", "sub", "mul", "div")
_FLOAT_OPS = {"add": operator.add, "sub": operator.sub, "mul": operator.mul, "div": _divide}


# the source of each arithmetic float operation at one point, from its
# operand {a} and its second operand {b} (a slot for the slot pairs, else a
# constant): IEEE arithmetic inline, and a call for each operation that
# checks its operands
_FLOAT_SOURCES = {
    "add": "{a} + {b}", "sub": "{a} - {b}", "mul": "{a} * {b}", "div": "_divide({a}, {b})",
    "neg": "-{a}", "addc": "{a} + {b}", "mulc": "{a} * {b}", "divc": "{a} / {b}",
    "rdivc": "_divide({b}, {a})", "ipow": "_int_power({a}, {b})",
    # the one function that `jets.taylor_source` does not write: the float
    # sqrt, with the check of `_function` where the guard fails
    "func": "sqrt({a}) if {a} > 0.0 else _function('sqrt', {a})",
}


def _float_source(tape: "Tape", positive: bool = False) -> str:
    """The source of `floats(p)`, a tape's float program at one point p of
    2n floats as straight-line code: each slot is a local t{k}, written as
    `_FLOAT_SOURCES` gives it, or, for an elementary function or a
    fractional power, as the order-0 lines of `jets.taylor_source`; the
    outputs are checked finite by `_finite`.  With `positive` it is the
    domain check `positive(p)`: whether every output is in (0, inf), and
    False where a line raises EvaluationDomainError.  The source holds only
    local names, indices, float constants, the names of `_FLOAT_NAMES` and
    the names of the elementary functions as strings."""
    lines = ["def floats(p):"]
    names: list[str] = []         # the local of each slot
    numbers = count(1)

    def fresh() -> str:
        return f"t{next(numbers)}"

    for kind, a, *rest in tape._ops:
        b = rest[0] if rest else None
        if kind == "powr" or (kind == "func" and b != "sqrt"):
            name, exponent = ("powr", b) if kind == "powr" else (b, 0.5)
            body, (value,) = jets.taylor_source(name, names[a], 0, exponent, fresh)
            lines += [f"    {line}" for line in body]
            names.append(value)
            continue
        if kind == "var":
            expr = f"p[{int(a)}]"
        else:
            b = names[b] if kind in _SLOT_PAIRS else _literal(b) if isinstance(b, float) else b
            expr = _FLOAT_SOURCES[kind].format(a=names[a], b=b)
        names.append(fresh())
        lines.append(f"    {names[-1]} = {expr}")
    out = [_literal(o) if isinstance(o, float) else names[o] for o in tape.outputs]
    if not positive:
        return "\n".join([*lines, f"    return _finite([{', '.join(out)}])"]) + "\n"
    inside = " and ".join(f"0.0 < {o} < inf" for o in out) or "True"
    return "\n    ".join(["def positive(p):", "try:", *lines[1:], f"    return {inside}",
                          "except EvaluationDomainError:", "    return False"]) + "\n"


def _finite(values: list[float]) -> list[float]:
    for v in values:
        if not math.isfinite(v):
            raise EvaluationDomainError(f"value {v!r} is not finite")
    return values


def _positions(sub: tuple[int, ...], support: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(support.index(v) for v in sub)


class Tape:
    """Expressions over x0..x{n-1}, y0..y{n-1} compiled into one flat program.

    Variables are numbered 0..n-1 for x and n..2n-1 for y; a point is the
    list of their 2n float values.  Compilation folds constant
    subexpressions to floats, gives a repeated subexpression one slot, and
    records the support of each slot: the sorted variables it depends on.
    The program runs over floats (`floats`) and over jets (`jet`).  A jet
    slot holds a padded array over jet_space(len(support), order) (see
    `jets.lift_index`): a product combines its factors' own arrays through a
    `jets.product_plan`, and a sum lifts an operand into the union of the
    supports.  Every coefficient sums its terms in the order of jet
    arithmetic over all 2n variables, so the coefficients agree with it to
    the bit (structural sparsity, Griewank & Walther, *Evaluating
    Derivatives*, 2nd ed., SIAM 2008, ch. 7).

    The jet program has two forms.  Over a (2n, S) array of S points it is
    a list of numpy closures on coefficient arrays with a trailing sample
    axis, so that a coefficient index reads the same for one point and for
    S, and each column sums its terms as the jet of that point alone does.
    At one point it is one straight-line Python function per order, written
    by `_KernelWriter` on first use (source transformation, Griewank &
    Walther, ch. 6): each padded coefficient is a local float, a lift is a
    renaming, and each coefficient is the same sequence of float operations
    as in a column of the row program, so the two agree to the bit.  The
    kernels live in `_KERNELS`, keyed by the program, so tapes with the same
    program share one.

    The float program has one form, `floats` at one point: one
    straight-line Python function per program, written by `_float_source`
    on first use and shared through `_FLOAT_KERNELS`.  + - * and the
    constant operations are written inline, and so are the elementary
    functions and fractional powers, as the order-0 lines of
    `jets.taylor_source`; division and integer powers call `_divide` and
    `_int_power`, and sqrt checks its argument inline, so each value is
    the float of plain arithmetic with its checks.  A domain check runs its
    `positive_kernel` form.  Values and domain checks at many points run it
    point by point; only the jet keeps a row program, where one numpy pass
    over S points is faster.

    Operations keep the order and the checks of plain arithmetic: integer
    powers are `**` on floats and repeated products on jets, an elementary
    function composes the normalized derivatives of `jets.taylor` (in a
    kernel, its lines written inline) by Horner's rule, and a division by
    zero, a zero base to a negative power, log, sqrt or a fractional power
    of a non-positive value, an overflowing exp or power and sin or cos of
    an infinite value raise EvaluationDomainError.  So does a constant
    subexpression that fails, on every run.
    """

    def __init__(self, exprs, dim: int):
        self.dim = dim
        self.failure: str | None = None
        self._ops: list[tuple] = []
        self._support: list[tuple[int, ...]] = []
        self._slot_of: dict[tuple, int] = {}
        self.outputs = [self._emit(e) for e in exprs]
        del self._slot_of
        self.variables = tuple(sorted(op[1] for op in self._ops if op[0] == "var"))
        self._float_kernel = self._positive_kernel = None
        self._jet_programs: dict[int, tuple] = {}
        self._kernels: dict[int, object] = {}

    # compilation ----------------------------------------------------------

    def _slot(self, op: tuple, support: tuple[int, ...]) -> int:
        key = _key(op)
        slot = self._slot_of.get(key)
        if slot is None:
            slot = self._slot_of[key] = len(self._ops)
            self._ops.append(op)
            self._support.append(support)
        return slot

    def _fold(self, fn, *args) -> float:
        """fn(*args) of constants; a failure is kept for every run."""
        try:
            return fn(*args)
        except EvaluationDomainError as exc:
            if self.failure is None:
                self.failure = str(exc)
            return math.nan

    def _emit(self, root: Expr):
        """Slot of an expression, or its float if it is constant (`_walk`)."""
        return _walk(root, self._node)

    def _node(self, node: Expr, *args):
        """Slot or float of one node from those of its children."""
        if isinstance(node, Num):
            return float(node.value)
        if isinstance(node, Var):
            if not 0 <= node.index < self.dim:
                raise ExpressionError(f"variable {node.kind}{node.index} out of "
                                      f"range for dimension {self.dim}")
            v = node.index + (self.dim if node.kind == "y" else 0)
            return self._slot(("var", v), (v,))
        if isinstance(node, Neg):
            (a,) = args
            if isinstance(a, float):
                return -a
            return self._slot(("neg", a), self._support[a])
        if isinstance(node, (Add, Sub, Mul, Div)):
            return self._binary(type(node), *args)
        if isinstance(node, Pow):
            return self._power(*args, node.exponent)
        if isinstance(node, Func):
            (a,) = args
            if isinstance(a, float):
                return self._fold(_function, node.name, a)
            return self._slot(("func", a, node.name), self._support[a])
        raise TypeError(f"unknown expression node {node!r}")

    def _binary(self, kind, a, b):
        name = {Add: "add", Sub: "sub", Mul: "mul", Div: "div"}[kind]
        if isinstance(a, float) and isinstance(b, float):
            return self._fold(_FLOAT_OPS[name], a, b)
        if isinstance(a, float) or isinstance(b, float):
            if kind is Sub:   # u - c is u + (-c) and c - u is (-u) + c, to the bit
                kind = Add
                if isinstance(a, float):
                    b = self._slot(("neg", b), self._support[b])
                else:
                    b = -b
            const_left = isinstance(a, float)
            j, c = (b, a) if const_left else (a, b)
            if kind is Add:
                op = ("addc", j, c)
            elif kind is Mul:
                op = ("mulc", j, c)
            elif const_left:
                op = ("rdivc", j, c)
            elif c == 0.0:
                return self._fold(_divide, 1.0, 0.0)
            else:
                op = ("divc", j, c)
            return self._slot(op, self._support[j])
        support = tuple(sorted(set(self._support[a]) | set(self._support[b])))
        return self._slot((name, a, b), support)

    def _power(self, a, p: float):
        if not math.isfinite(p):
            return self._fold(_raise, f"exponent {p!r} is not finite")
        if p == int(p):
            if isinstance(a, float):
                return self._fold(_int_power, a, int(p))
            if p == 0:
                return 1.0     # the base still runs, for its checks
            if p == 1:
                return a
            return self._slot(("ipow", a, int(p)), self._support[a])
        if isinstance(a, float):
            return self._fold(_function, "powr", a, p)
        return self._slot(("powr", a, p), self._support[a])

    # float program ----------------------------------------------------------

    def floats(self, point) -> list[float]:
        """Values of the expressions at a point; each must be finite."""
        return (self._float_kernel or self.float_kernel())(point)

    def float_kernel(self):
        """The function that `floats` runs: the compiled program, written by
        `_float_source` on first use and shared through `_FLOAT_KERNELS` by
        every tape with the same program; for a tape whose constant failed,
        `_raise` of the failure."""
        kernel = self._float_kernel
        if kernel is None:
            key = (self.dim, tuple(map(_key, self._ops)), _key(self.outputs))
            kernel = partial(_raise, self.failure) if self.failure else _FLOAT_KERNELS.get(key)
            if kernel is None:
                kernel = _FLOAT_KERNELS[key] = _compiled(_float_source(self), _FLOAT_NAMES)
            self._float_kernel = kernel
        return kernel

    def positive_kernel(self):
        """The domain check at one point (`_float_source` with `positive`),
        shared as `float_kernel` is; where a constant failed, no point
        passes."""
        kernel = self._positive_kernel
        if kernel is None:
            key = (True, self.dim, tuple(map(_key, self._ops)), _key(self.outputs))
            kernel = (lambda point: False) if self.failure else _FLOAT_KERNELS.get(key)
            if kernel is None:
                kernel = _FLOAT_KERNELS[key] = _compiled(_float_source(self, True), _FLOAT_NAMES)
            self._positive_kernel = kernel
        return kernel

    # jet program ----------------------------------------------------------

    def _lift(self, slot: int, support: tuple[int, ...], order: int):
        """Gather index that lifts a slot into a larger support, or None."""
        own = self._support[slot]
        if own == support:
            return None
        return jets.lift_index(_positions(own, support), len(support), order)

    def _plan(self, left: int, right: int, support: tuple[int, ...], order: int):
        return jets.product_plan(_positions(self._support[left], support),
                                 _positions(self._support[right], support),
                                 len(support), order, padded=True)

    def _jet_op(self, order: int, slot: int, kind, a, b=None):
        """The closure of one jet operation over S points (see `jet`)."""
        support = self._support[slot]
        if kind == "var":
            def var(r, p):
                c = np.zeros((order + 2, p.shape[1]))    # one variable, and the padding
                c[0] = p[a]
                if order:
                    c[1] = 1.0
                return c
            return var
        if kind == "neg":
            return lambda r, p: -r[a]
        if kind in ("add", "sub"):
            la, lb = self._lift(a, support, order), self._lift(b, support, order)
            combine = np.add if kind == "add" else np.subtract
            if la is None and lb is None:
                return lambda r, p: combine(r[a], r[b])
            if la is None:
                return lambda r, p: combine(r[a], r[b][lb])
            if lb is None:
                return lambda r, p: combine(r[a][la], r[b])
            return lambda r, p: combine(r[a][la], r[b][lb])
        product = jets.product_rows

        def compose(c, name, exponent, plan):
            return jets.compose(c, jets.taylor_rows(name, c, order, exponent), plan, product)

        if kind == "mul":
            plan = self._plan(a, b, support, order)
            return lambda r, p: product(r[a], r[b], plan)
        if kind == "div":
            plan = self._plan(a, b, support, order)
            inverse = self._plan(b, b, self._support[b], order)
            return lambda r, p: product(r[a], compose(r[b], "reciprocal", 0.5, inverse), plan)
        if kind == "addc":
            def addc(r, p):
                c = r[a].copy()
                c[0] += b
                return c
            return addc
        if kind == "mulc":
            return lambda r, p: r[a] * b
        if kind == "divc":
            return lambda r, p: r[a] / b
        own = self._plan(slot, slot, support, order)
        if kind == "rdivc":
            return lambda r, p: compose(r[a], "reciprocal", 0.5, own) * b
        if kind == "ipow":
            def ipow(r, p):
                base = r[a] if b > 0 else compose(r[a], "reciprocal", 0.5, own)
                return jets.int_power(base, abs(b), own, product)
            return ipow
        name, exponent = ("powr", b) if kind == "powr" else (b, 0.5)
        return lambda r, p: compose(r[a], name, exponent, own)

    def _jet_program(self, order: int):
        program = self._jet_programs.get(order)
        if program is None:
            full = tuple(range(2 * self.dim))
            size = jets.jet_space(len(full), order).size
            out = self.outputs[0]
            final = None if isinstance(out, float) else self._lift(out, full, order)
            final = slice(size) if final is None else final[:size]
            ops = [self._jet_op(order, i, *op) for i, op in enumerate(self._ops)]
            program = self._jet_programs[order] = (ops, size, final)
        return program

    def point_kernel(self, order: int):
        """The function that `point_jet` runs at this order: the compiled
        one-point jet, shared through `_KERNELS` by every tape with the same
        program; for a tape whose constant failed, `_raise` of the failure."""
        kernel = self._kernels.get(order)
        if kernel is None:
            key = (self.dim, order, tuple(map(_key, self._ops)), tuple(self._support),
                   _key(self.outputs))
            kernel = partial(_raise, self.failure) if self.failure else _KERNELS.get(key)
            if kernel is None:
                kernel = _KERNELS[key] = _compile_kernel(_KernelWriter(self, order).source())
            self._kernels[order] = kernel
        return kernel

    def point_jet(self, point, order: int) -> list[float]:
        """`jet` at one point, a sequence of 2n floats, as the compiled
        kernel's list of coefficients; the caller checks that they are
        finite."""
        return self.point_kernel(order)(point)

    def jet(self, point: np.ndarray, order: int) -> np.ndarray:
        """Coefficients over jet_space(2n, order) of the first expression at
        S points, given as a (2n, S) array with one point per column; the
        caller checks that they are finite.  The row program runs once over
        all of them on arrays with a trailing sample axis, and column s of
        the result equals `point_jet` at point s alone, to the bit."""
        if self.failure is not None:
            raise EvaluationDomainError(self.failure)
        ops, size, final = self._jet_program(order)
        r: list = []
        append = r.append
        for op in ops:
            append(op(r, point))
        out = self.outputs[0]
        if isinstance(out, float):
            c = np.zeros((size, point.shape[1]))
            c[0] = out
            return c
        return r[out][final]


def _key(values) -> tuple:
    """Values with each float keyed by value and sign, since 0.0 == -0.0."""
    return tuple((v, math.copysign(1.0, v)) if isinstance(v, float) else v for v in values)


# The float program of each tape program: tapes with the same dimension,
# operations (constants keyed by value and sign) and outputs share one.
_FLOAT_KERNELS: dict[tuple, object] = {}
_FLOAT_NAMES = {**jets.TAYLOR_GLOBALS, "_divide": _divide, "_int_power": _int_power,
                "_function": _function, "_finite": _finite, "sqrt": math.sqrt,
                "EvaluationDomainError": EvaluationDomainError}

# The one-point jet kernel of each (program, order).  Tapes with the same
# dimension, operations (constants keyed by value and sign), supports and
# outputs share one, so a definition formed again on each run compiles once.
_KERNELS: dict[tuple, object] = {}
_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _compile_kernel(source: str):
    return _compiled(source, jets.TAYLOR_GLOBALS)


# The most lines the source of one one-point jet kernel may take.  The
# largest kernel of a builtin metric or of a factor * metric product at
# orders 2 to 4 is 603 lines (bogoslovsky-factor*bogoslovsky2-warped at
# order 4), and of a product with the reciprocal of a factor 782 lines
# (1/(theta-weight)*warped-quadratic at order 4); an integer power such as
# pow(x0 + x1 + y0 + y1, 1e300) writes a line per term of each squaring
# and would take 15,279 lines at order 2.  Compiling costs memory per
# line, so a longer kernel is an ExpressionError, raised while the source
# is written and before anything is compiled.
MAX_KERNEL_LINES = 10_000


class _KernelWriter:
    """The source of `kernel(p)`, the straight-line jet of a tape's first
    expression at one point p of 2n floats, for one order.

    A slot is the list of its padded coefficients (see `Tape`), each the
    name of a local float or a float known while the source is written; a
    lift is a renaming.  Each operation writes the arithmetic that a column
    of the row program performs, in its order: a product writes each
    coefficient as `0.0 + a_i*b_j + ...` in `jets.product_plan` order, the
    order in which `np.bincount` sums from +0.0, and a composition writes
    the lines of `jets.taylor_source`, which `jets.taylor` runs for the row
    program, with their guard and overflow check, then runs Horner's rule
    as `jets.compose` does.  Arithmetic on two known floats is done here,
    as the kernel would round it.  The source holds only local names,
    indices, float constants, the names of `jets.TAYLOR_GLOBALS` and the
    names of the elementary functions as strings."""

    def __init__(self, tape: Tape, order: int):
        self.tape, self.order = tape, order
        self.lines = ["def kernel(p):"]
        self.count = 0

    def source(self) -> str:
        tape, order = self.tape, self.order
        r: list[list] = []
        for slot, op in enumerate(tape._ops):
            r.append(self.op(r, tape._support[slot], *op))
        size = jets.jet_space(2 * tape.dim, order).size
        out = tape.outputs[0]
        final = ([out] + [0.0] * (size - 1) if isinstance(out, float)
                 else self.lifted(r, out, tuple(range(2 * tape.dim))))
        self.lines.append(f"    return [{', '.join(map(_literal, final[:size]))}]")
        return "\n".join(self.lines) + "\n"

    def name(self) -> str:
        self.count += 1
        return f"t{self.count}"

    def write(self, line: str) -> None:
        if len(self.lines) >= MAX_KERNEL_LINES:
            raise ExpressionError(f"the order-{self.order} jet kernel of this expression "
                                  f"passes {MAX_KERNEL_LINES} lines")
        self.lines.append(line)

    def local(self, expr: str) -> str:
        name = self.name()
        self.write(f"    {name} = {expr}")
        return name

    def arith(self, a, op: str, b):
        if isinstance(a, float) and isinstance(b, float):
            return _ARITH[op](a, b)
        return self.local(f"{_literal(a)} {op} {_literal(b)}")

    def lifted(self, r: list, slot: int, support: tuple) -> list:
        index = self.tape._lift(slot, support, self.order)
        return r[slot] if index is None else [r[slot][i] for i in index.tolist()]

    def product(self, a: list, b: list, plan) -> list:
        """The truncated product through a padded `jets.product_plan`."""
        ia, ib, io, length = plan
        terms: list[list] = [[] for _ in range(length)]
        for i, j, o in zip(ia.tolist(), ib.tolist(), io.tolist()):
            terms[o].append((a[i], b[j]))
        return [self.sum_of_products(t) for t in terms]

    def sum_of_products(self, terms: list):
        """0.0 + x*y + ... in order; the known terms before the first
        unknown one are summed here."""
        acc = 0.0
        for k, (x, y) in enumerate(terms):
            if not (isinstance(x, float) and isinstance(y, float)):
                rest = [f"{_literal(x)}*{_literal(y)}" for x, y in terms[k:]]
                return self.local(" + ".join([_literal(acc)] + rest))
            acc += x * y
        return acc

    def compose(self, c: list, name: str, exponent: float, plan) -> list:
        lines, derivs = jets.taylor_source(name, _literal(c[0]), self.order,
                                           float(exponent), self.name)
        for line in lines:
            self.write(f"    {line}")
        hat = [0.0] + c[1:]
        out = [derivs[-1]] + [0.0] * (len(c) - 1)
        for d in derivs[-2::-1]:
            out = self.product(out, hat, plan)
            out[0] = self.arith(out[0], "+", d)
        return out

    def op(self, r: list, support: tuple, kind, a, b=None) -> list:
        """The coefficients of one tape operation on the slots r."""
        tape, order = self.tape, self.order
        if kind == "var":     # one variable, and the padding
            return [self.local(f"p[{int(a)}]")] + ([1.0] + [0.0] * order if order else [0.0])
        if kind == "neg":
            return [-v if isinstance(v, float) else self.local(f"-{v}") for v in r[a]]
        if kind in ("add", "sub"):
            sign = "+" if kind == "add" else "-"
            return [self.arith(u, sign, v) for u, v in zip(self.lifted(r, a, support),
                                                           self.lifted(r, b, support))]
        if kind in ("mul", "div"):
            right = r[b]
            if kind == "div":
                right = self.compose(right, "reciprocal", 0.5,
                                     tape._plan(b, b, tape._support[b], order))
            return self.product(r[a], right, tape._plan(a, b, support, order))
        if kind == "addc":
            return [self.arith(r[a][0], "+", b)] + r[a][1:]
        if kind in ("mulc", "divc"):
            sign = "*" if kind == "mulc" else "/"
            return [self.arith(v, sign, b) for v in r[a]]
        own = tape._plan(a, a, support, order)
        if kind == "rdivc":
            return [self.arith(v, "*", b)
                    for v in self.compose(r[a], "reciprocal", 0.5, own)]
        if kind == "ipow":
            base = r[a] if b > 0 else self.compose(r[a], "reciprocal", 0.5, own)
            out = base
            for bit in bin(abs(b))[3:]:
                out = self.product(out, out, own)
                if bit == "1":
                    out = self.product(out, base, own)
            return out
        name, exponent = ("powr", b) if kind == "powr" else (b, 0.5)
        return self.compose(r[a], name, exponent, own)


def _raise(message: str, *_):
    """EvaluationDomainError(message), whatever point it is called at."""
    raise EvaluationDomainError(message)


# --------------------------------------------------------------------------
# pretty printing (canonical, re-parseable form)
# --------------------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_ATOM = 1, 2, 3, 4


def _pp(node: Expr, *args) -> tuple[str, int]:
    """The text and precedence of a node from those of its children."""
    if isinstance(node, Num):
        return repr(node.value), _PREC_ATOM
    if isinstance(node, Var):
        return f"{node.kind}{node.index}", _PREC_ATOM
    if isinstance(node, Neg):
        ((body, prec),) = args
        if prec < _PREC_NEG:
            body = f"({body})"
        return f"-{body}", _PREC_NEG
    if isinstance(node, (Add, Sub, Mul, Div)):
        (left, lp), (right, rp) = args
        if isinstance(node, (Add, Sub)):
            op, prec = ("+" if isinstance(node, Add) else "-"), _PREC_ADD
        else:
            op, prec = ("*" if isinstance(node, Mul) else "/"), _PREC_MUL
        if lp < prec:
            left = f"({left})"
        if rp <= prec:
            right = f"({right})"
        return f"{left} {op} {right}", prec
    if isinstance(node, Pow):
        ((base, _),) = args
        return f"pow({base}, {node.exponent!r})", _PREC_ATOM
    if isinstance(node, Func):
        ((arg, _),) = args
        return f"{node.name}({arg})", _PREC_ATOM
    raise TypeError(f"unknown expression node {node!r}")


def pretty(node: Expr) -> str:
    """The canonical text of an expression, printed by `_walk`, so a long
    sum prints without deep recursion."""
    return _walk(node, _pp)[0]


# --------------------------------------------------------------------------
# tokenizer / recursive-descent parser
# --------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^(),]))"
)


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            rest = source[pos:]
            if rest.strip() == "":
                break
            raise ExpressionError(f"unexpected character {rest.strip()[0]!r}",
                                  offset=pos + len(rest) - len(rest.lstrip()))
        if m.group("num") is not None:
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.group("ident") is not None:
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(source)))
    return tokens


_VAR_RE = re.compile(r"([xy])(\d+)$")


# The deepest nesting the parser accepts, counted along one path from the
# root: each parenthesized group or call's argument list, each unary minus
# and each exponent opens one level.  A level holds at most four Python
# frames of the recursive descent, so an expression at this cap stays well
# inside Python's default recursion limit of 1,000 frames.
MAX_NESTING = 200


class _Parser:
    def __init__(self, source: str, n: int):
        self.tokens = _tokenize(source)
        self.pos = 0
        self.n = n
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, text, off = self.peek()
        if kind != "op" or text != op:
            raise ExpressionError(f"expected {op!r}, found {text or 'end of input'!r}", offset=off)
        return self.advance()

    def nest(self, off: int) -> None:
        """Open one level of nesting at offset off; past MAX_NESTING, an
        ExpressionError.  The caller closes it with `depth -= 1`."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ExpressionError(f"expression nests deeper than {MAX_NESTING} levels",
                                  offset=off)

    def parse(self) -> Expr:
        node = self.expr()
        kind, text, off = self.peek()
        if kind != "end":
            raise ExpressionError(f"unexpected trailing input {text!r}", offset=off)
        return node

    def expr(self) -> Expr:
        self.nest(self.peek()[2])
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                rhs = self.term()
                node = Add(node, rhs) if text == "+" else Sub(node, rhs)
            else:
                self.depth -= 1
                return node

    def term(self) -> Expr:
        node = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                rhs = self.factor()
                node = Mul(node, rhs) if text == "*" else Div(node, rhs)
            else:
                return node

    def factor(self) -> Expr:
        """factor := '-' factor | power, and power := atom ('^' factor)?,
        in one frame: the leading minus signs are counted, and wrap the
        power in as many Neg nodes."""
        signs = 0
        while self.peek()[:2] == ("op", "-"):
            self.nest(self.advance()[2])
            signs += 1
        node = self.atom()
        kind, text, off = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            self.nest(off)
            node = Pow(node, self._fold_constant(self.factor(), off))
            self.depth -= 1
        for _ in range(signs):
            node = Neg(node)
        self.depth -= signs
        return node

    def atom(self) -> Expr:
        kind, text, off = self.advance()
        if kind == "num":
            return Num(float(text))
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        if kind == "ident":
            if self.peek()[:2] == ("op", "("):
                self.advance()
                args = [self.expr()]
                while self.peek()[:2] == ("op", ","):
                    self.advance()
                    args.append(self.expr())
                self.expect_op(")")
                return self.call(text, args, off)
            m = _VAR_RE.match(text)
            if m is None:
                raise ExpressionError(f"unknown identifier {text!r}", offset=off)
            index = int(m.group(2))
            if index >= self.n:
                raise ExpressionError(
                    f"variable {text!r} out of range for dimension {self.n}", offset=off)
            return Var(m.group(1), index)
        raise ExpressionError(f"expected a value, found {text or 'end of input'!r}", offset=off)

    def call(self, name: str, args: list, off: int) -> Expr:
        if name == "pow":
            if len(args) != 2:
                raise ExpressionError("pow takes exactly two arguments", offset=off)
            return Pow(args[0], self._fold_constant(args[1], off))
        if name in _FUNCTIONS:
            if len(args) != 1:
                raise ExpressionError(f"{name} takes exactly one argument", offset=off)
            return Func(name, args[0])
        raise ExpressionError(f"unknown function {name!r}", offset=off)

    def _fold_constant(self, node: Expr, off: int) -> float:
        tape = Tape((node,), self.n)
        if tape.variables:
            raise ExpressionError("exponent must be a real constant", offset=off)
        if tape.failure is not None:
            raise EvaluationDomainError(tape.failure)
        return _finite(tape.outputs)[0]      # with no variable, every operation folds


def parse_expression(source: str, n: int) -> Expr:
    """Parse one expression over x0..x{n-1}, y0..y{n-1}."""
    if not source.strip():
        raise ExpressionError("empty expression", offset=0)
    return _Parser(source, n).parse()


# --------------------------------------------------------------------------
# samples and metric definitions
# --------------------------------------------------------------------------

class TangentSample:
    """A chart point x with a nonzero fiber vector y attached to it."""

    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = np.array(x, dtype=float)
        self.y = np.array(y, dtype=float)
        if self.x.shape != self.y.shape or self.x.ndim != 1:
            raise ValueError("chart point and fiber vector dimensions differ")
        if not self.y.any():
            raise ValueError("fiber vector must be nonzero")
        self.x.setflags(write=False)
        self.y.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.x.size

    def scaled(self, s: float) -> "TangentSample":
        return TangentSample(self.x, s * self.y)

    def __repr__(self):
        return f"TangentSample(x={self.x.tolist()}, y={self.y.tolist()})"


class SampleBatch:
    """S tangent samples in order: chart points and fiber vectors as the
    rows of two (S, n) arrays.  Row k is the `TangentSample` batch[k]."""

    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = np.array(x, dtype=float)
        self.y = np.array(y, dtype=float)
        if self.x.shape != self.y.shape or self.x.ndim != 2 or not len(self.x):
            raise ValueError("a sample batch needs chart points and fiber "
                             "vectors of one shape (S, n) with S >= 1")
        if not np.any(self.y, axis=1).all():
            raise ValueError("fiber vector must be nonzero")
        self.x.setflags(write=False)
        self.y.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.x.shape[1]

    def __len__(self) -> int:
        return self.x.shape[0]

    def __getitem__(self, k: int) -> TangentSample:
        return TangentSample(self.x[k], self.y[k])


# The largest dimension a definition may have.  Frames take order-4 jets over
# the 2n chart and fiber variables, whose coefficient count grows as n^4: at
# n = 12 it is 20,475, and a 10-step focal-correspondence run took about 10 s
# on a 2-CPU x86 host.
MAX_DIM = 12


@dataclass(frozen=True, eq=False, repr=False)
class MetricDefinition:
    """Evaluable scalar with a conic domain and declared fiber homogeneity.

    Two definitions are equal only when they are the same object, and the
    hash is the object's: comparing, hashing or printing a definition never
    walks its expression trees, which may be thousands of nodes deep."""

    name: str
    dim: int
    degree: int
    body: Expr
    domain: tuple[Expr, ...] = ()
    sample_box: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise ExpressionError(f"dimension must be at least 1, got {self.dim}")
        if self.dim > MAX_DIM:
            raise ExpressionError(f"dimension must be at most {MAX_DIM}, got {self.dim}")
        # frozen: the compiled tapes are set once, here
        object.__setattr__(self, "_body", Tape((self.body,), self.dim))
        object.__setattr__(self, "_domain", Tape(self.domain, self.dim))

    def __repr__(self) -> str:
        return f"MetricDefinition({self.name!r}, dim={self.dim}, degree={self.degree})"

    def _point(self, x, y) -> list[float]:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.shape != (self.dim,) or y.shape != (self.dim,):
            raise ValueError(f"{self.name!r} has dimension {self.dim}; got a "
                             f"point of shape {x.shape} and a vector of shape {y.shape}")
        return x.tolist() + y.tolist()

    def value(self, x, y):
        """The definition at chart point x and fiber vector y; at (S, n)
        arrays, the array of the S values from one walk (`_along`), where
        the first failing sample raises."""
        if getattr(x, "ndim", 1) == 2:
            (values,) = _along(np.asarray(x, dtype=float), np.asarray(y, dtype=float),
                               None, (self, "value"))
            return np.array(values)
        return self._point_value(self._point(x, y))

    def _point_value(self, point) -> float:
        """`value` at one point x + y, given as a sequence of 2n floats."""
        return self._body.floats(point)[0]

    def value_at(self, sample: TangentSample | SampleBatch):
        return self.value(sample.x, sample.y)

    def jet(self, sample: TangentSample | SampleBatch, order: int) -> jets.Jet:
        """Jet of the definition at the sample, over all 2n variables.  At a
        `SampleBatch` the tape runs once over all samples, and the jet's
        coefficients carry a leading sample axis: row k is the jet at
        sample k, to the bit."""
        if isinstance(sample, SampleBatch):
            self._point(sample.x[0], sample.y[0])      # the shape check
            c = self._body.jet(np.vstack((sample.x.T, sample.y.T)), order).T.copy()
            finite = np.isfinite(c).all(axis=1)
            if not finite.all():
                raise self._not_finite(sample[int(np.argmin(finite))])
        else:
            c = np.array(self._point_jet(self._point(sample.x, sample.y), order))
        return jets.Jet(jets.jet_space(2 * self.dim, order), c)

    def _point_jet(self, point, order: int) -> list[float]:
        """The jet coefficients at one point x + y, given as a sequence of 2n
        floats, as a list, or the EvaluationDomainError of a jet that is not
        finite."""
        c = self._body.point_jet(point, order)
        if not all(map(math.isfinite, c)):
            raise self._not_finite(TangentSample(point[:self.dim], point[self.dim:]))
        return c

    def _not_finite(self, sample: TangentSample) -> EvaluationDomainError:
        return EvaluationDomainError(
            f"the jet of {self.name!r} is not finite at {sample!r}")

    def admissible(self, sample: TangentSample | SampleBatch):
        """Whether every domain predicate is positive at the sample (whose
        fiber vector is nonzero by construction).  At a `SampleBatch`, a
        boolean array with one verdict per sample, each from
        `_point_admissible` at that sample alone."""
        if isinstance(sample, SampleBatch):
            if sample.dim != self.dim:
                return np.zeros(len(sample), dtype=bool)
            points = np.hstack((sample.x, sample.y)).tolist()
            return np.array(list(map(self._domain.positive_kernel(), points)), dtype=bool)
        if sample.dim != self.dim:
            return False
        return self._point_admissible(sample.x.tolist() + sample.y.tolist())

    def _point_admissible(self, point) -> bool:
        """`admissible` at one point x + y, given as a sequence of 2n floats."""
        return self._domain.positive_kernel()(point)

    def box(self) -> np.ndarray:
        if self.sample_box is not None:
            return np.asarray(self.sample_box, dtype=float)
        return np.array([(-1.0, 1.0)] * self.dim)

    def pretty(self) -> str:
        return pretty(self.body)


def _inadmissible(m: MetricDefinition, v: TangentSample | None, t=None
                  ) -> InadmissibleSample:
    """The error of a sample v outside m's domain, or of a curve at time t."""
    if t is None:
        return InadmissibleSample(f"sample {v!r} is outside the domain of {m.name!r}")
    return InadmissibleSample(f"curve leaves the domain of {m.name!r} at t={t!r}")


def _along(positions: np.ndarray, velocities: np.ndarray, times, *reads) -> list[list]:
    """One walk over the nodes of a curve, the rows of two (S, n) arrays, as
    points x + y.  Each read (f, what) binds one program of f once: "inside",
    its domain check, which names the node's time in `times` where it fails;
    "value", its value; a function what(c, y) of its order-2 jet
    coefficients c, checked finite, and the fiber vector y.  A check or a jet
    refuses a zero fiber vector, and a value or a jet of another dimension
    than f raises at node 0.  At node k the reads run in order, all before
    node k + 1, so the first failing node decides the error.  Returns one
    list per read."""
    shape = (positions.shape[1], velocities.shape[1])
    outs = [[] for _ in reads]
    steps = [(_read(f, what, shape, times), out.append) for (f, what), out in zip(reads, outs)]
    for k, point in enumerate(np.hstack((positions, velocities)).tolist()):
        for step, append in steps:
            append(step(k, point))
    return outs


def _read(f: MetricDefinition, what, shape: tuple[int, int], times):
    """step(k, point): the read (f, what) of `_along` at node k."""
    n = shape[0]
    if what == "inside":
        inside = f._domain.positive_kernel()

        def step(k, point):
            if not any(point[n:]):
                raise ValueError("fiber vector must be nonzero")
            if not (n == f.dim and inside(point)):
                raise _inadmissible(f, None, times[k])
        return step
    if shape != (f.dim, f.dim):
        return lambda k, point: f._point(point[:n], point[n:])      # raises
    if what == "value":
        floats = f._body.float_kernel()
        return lambda k, point: floats(point)[0]
    jet = f._body.point_kernel(2)

    def step(k, point):
        y = point[n:]
        if not any(y):
            raise ValueError("fiber vector must be nonzero")
        c = jet(point)
        if not all(map(math.isfinite, c)):
            raise f._not_finite(TangentSample(point[:n], y))
        return what(c, y)
    return step


def parse_metric(source: str, n: int, degree: int = 2,
                 domain: tuple[str, ...] = (), name: str = "<inline>",
                 sample_box=None) -> MetricDefinition:
    """Parse a metric (or conformal factor, with degree=0) from source text."""
    body = parse_expression(source, n)
    preds = tuple(parse_expression(p, n) for p in domain)
    return MetricDefinition(name=name, dim=n, degree=degree, body=body,
                            domain=preds, sample_box=sample_box)


# --------------------------------------------------------------------------
# sampling and homogeneity validation
# --------------------------------------------------------------------------

MAX_REJECTIONS = 10_000
_LOG_HALF, _LOG_TWO = math.log(0.5), math.log(2.0)


def sample_admissible(m: MetricDefinition, rng: np.random.Generator,
                      count: int = 1) -> list[TangentSample]:
    """Random admissible samples: x uniform in the metric's box, y uniform on
    the unit sphere then rescaled by a random factor in [0.5, 2].

    One candidate is drawn at a time, on Python floats (`_draws`): x as
    `low + span * u` with u from `rng.random(n)` (the form `rng.uniform`
    takes), then y from `rng.standard_normal(n)` and, unless y is zero, the
    log of its scale factor from `rng.random()`.  A candidate is kept if it
    is admissible; NoAdmissibleSample is raised after MAX_REJECTIONS
    rejected candidates."""
    return [TangentSample(x, y) for x, y in _draws(m, rng, count)]


def _draws(m: MetricDefinition, rng: np.random.Generator, count: int) -> list:
    """The samples of `sample_admissible` as (x, y) pairs of Python float lists."""
    domain = m._domain
    if domain.failure is not None or any(
            isinstance(p, float) and not (math.isfinite(p) and p > 0.0)
            for p in domain.outputs):
        raise NoAdmissibleSample(
            f"the domain of {m.name!r} is empty: a predicate is constant and not positive")
    low, span = (a.tolist() for a in _sampling_box(m))
    inside = domain.positive_kernel()
    out = []
    rejects = 0
    while len(out) < count:
        if rejects >= MAX_REJECTIONS:
            raise NoAdmissibleSample(
                f"no admissible sample for {m.name!r} after {MAX_REJECTIONS} rejections")
        x = [a + b * u for a, b, u in zip(low, span, rng.random(m.dim).tolist())]
        y = rng.standard_normal(m.dim)
        norm = math.sqrt(y @ y)          # the dot product np.linalg.norm takes
        if norm == 0.0:
            rejects += 1
            continue
        scale = math.exp(_LOG_HALF + (_LOG_TWO - _LOG_HALF) * rng.random())
        y = [c / norm * scale for c in y.tolist()]
        if inside(x + y):
            out.append((x, y))
        else:
            rejects += 1
    return out


def _sampling_box(m: MetricDefinition) -> tuple[np.ndarray, np.ndarray]:
    """The low corner and the widths of the metric's box, checked as
    `Generator.uniform` checks its bounds."""
    box = m.box()
    if box.shape != (m.dim, 2):
        raise ValueError("chart point and fiber vector dimensions differ")
    with np.errstate(over="ignore", invalid="ignore"):
        span = box[:, 1] - box[:, 0]
    if not np.isfinite(span).all():
        raise OverflowError("Range exceeds valid bounds")
    if (span < 0.0).any():
        raise ValueError("high - low < 0")
    return box[:, 0], span


# --------------------------------------------------------------------------
# built-in registry
# --------------------------------------------------------------------------

_CONE2_DOMAIN = ("y0 - y1", "y0 + y1")


def _builtins() -> dict[str, MetricDefinition]:
    reg = {}

    def add(name, source, n, degree=2, domain=(), box=None):
        reg[name] = parse_metric(source, n, degree=degree, domain=domain,
                                 name=name, sample_box=box)

    add("minkowski2", "-y0^2 + y1^2", 2)
    add("minkowski3", "-y0^2 + y1^2 + y2^2", 3)
    # Restriction of the 2D quadratic metric to the forward cone, with the
    # overall sign that makes it positive there (same sign component as the
    # Bogoslovsky-type metric on the shared domain).
    add("minkowski2-cone", "y0^2 - y1^2", 2, domain=_CONE2_DOMAIN)
    add("bogoslovsky2", "pow(y0 - y1, 1.3) * pow(y0 + y1, 0.7)", 2,
        domain=_CONE2_DOMAIN)
    add("bogoslovsky2-warped",
        "exp(0.2*x0 + 0.1*x1) * pow(y0 - y1, 1.3) * pow(y0 + y1, 0.7)", 2,
        domain=_CONE2_DOMAIN)
    # Product of a time line with a round unit sphere, chart (t, theta, phi).
    add("einstein-static", "-y0^2 + y1^2 + pow(sin(x1), 2) * y2^2", 3,
        domain=("sin(x1)",),
        box=((-1.0, 1.0), (0.45, math.pi - 0.45), (-3.0, 3.0)))
    add("warped-quadratic",
        "-exp(0.2*x1)*y0^2 + y1^2 + 0.3*x0*y1*y2 + (1 + 0.5*x0^2)*y2^2", 3)
    # conformal factors
    add("unit-factor", "1", 3, degree=0)
    add("bogoslovsky-factor", "pow((y0 - y1) / (y0 + y1), 0.3)", 2, degree=0,
        domain=_CONE2_DOMAIN)
    add("theta-weight", "1 + 0.1*y1^2 / (y0^2 + y1^2 + y2^2)", 3, degree=0)
    return reg


_REGISTRY = _builtins()


def builtin_metric(name: str) -> MetricDefinition:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(f"no built-in metric named {name!r}; "
                       f"known: {', '.join(sorted(_REGISTRY))}") from None


def builtin_names() -> list[str]:
    return sorted(_REGISTRY)


# --------------------------------------------------------------------------
# metric files
# --------------------------------------------------------------------------

def _header_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ExpressionError(
            f"metric file header {key}= needs an integer, got {value.strip()!r}") from None


def parse_metric_file(text: str, name: str = "<file>") -> MetricDefinition:
    """Plain-text format: header lines `dim=`, `degree=`, `domain=` (exprs
    separated by `;`), optional `name=`, then the body expression."""
    dim = degree = None
    domain: tuple[str, ...] = ()
    body_lines = []
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        key = key.strip()
        if sep and key in ("dim", "degree", "domain", "name") and not body_lines:
            if key == "dim":
                dim = _header_int(key, value)
            elif key == "degree":
                degree = _header_int(key, value)
            elif key == "domain":
                domain = tuple(p for p in (s.strip() for s in value.split(";")) if p)
            else:
                name = value.strip()
        else:
            body_lines.append(stripped)
    if dim is None:
        raise ExpressionError("metric file is missing a dim= header")
    if degree is None:
        degree = 2
    if not body_lines:
        raise ExpressionError("metric file has no body expression")
    return parse_metric(" ".join(body_lines), dim, degree=degree,
                        domain=domain, name=name)


def load_metric_file(path) -> MetricDefinition:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: {exc}")
    return parse_metric_file(text, name=path.stem)
