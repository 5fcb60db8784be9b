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
variables to the bit.  Float values must be finite.  A tape also runs over
the S samples of a `SampleBatch` at once, and the batch's jet is a
`jets.Jet` with a leading sample axis.

Grammar (precedence: pow > unary minus > * / > + -)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | power
    power  := atom ('^' factor)?
    atom   := NUMBER | IDENT | IDENT '(' expr (',' expr)* ')' | '(' expr ')'

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
from pathlib import Path

import numpy as np

from . import jets
from .errors import ConfigError, EvaluationDomainError, ExpressionError, NoAdmissibleSample

__all__ = [
    "Expr", "Num", "Var", "Neg", "Add", "Sub", "Mul", "Div", "Pow", "Func",
    "Tape", "TangentSample", "SampleBatch", "MetricDefinition",
    "HomogeneityReport", "parse_expression", "parse_metric", "pretty", "evaluate",
    "validate_homogeneity", "sample_admissible", "builtin_metric",
    "builtin_names", "parse_metric_file", "load_metric_file",
    "dump_metric_file",
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


def evaluate(node: Expr, xs, ys) -> float:
    """Value of an expression at chart values xs and fiber values ys, by a
    tape compiled for this call; a variable that is not given reads nan."""
    xs, ys = [float(v) for v in xs], [float(v) for v in ys]
    n = max(len(xs), len(ys))
    nan = [math.nan]
    return Tape((node,), n).floats(xs + nan * (n - len(xs)) + ys + nan * (n - len(ys)))[0]


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
    """Float value of an elementary function (or of powr, a**p)."""
    if name == "sqrt":
        if a <= 0.0:
            raise EvaluationDomainError(f"sqrt of non-positive value {a!r}")
        return math.sqrt(a)
    return jets.taylor(name, a, 0, p)[0]


# the float of each tape operation from its operand and its second operand
# (a slot for the four slot-pair kinds, else a constant)
_SLOT_PAIRS = ("add", "sub", "mul", "div")
_FLOAT_OPS = {
    "add": operator.add, "sub": operator.sub, "mul": operator.mul, "div": _divide,
    "neg": lambda a, _: -a, "addc": operator.add, "mulc": operator.mul,
    "divc": operator.truediv, "rdivc": lambda a, c: _divide(c, a),
    "ipow": _int_power, "powr": lambda a, p: _function("powr", a, p),
    "func": lambda a, name: _function(name, a),
}


def _divide_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if not np.all(b):
        raise EvaluationDomainError("division by zero")
    return a / b


def _by_value(fn):
    """A row of S values through the scalar fn, value by value."""
    return lambda a, b: np.array([fn(v, b) for v in a.tolist()])


# the row-wise float of each operation: numpy for IEEE arithmetic, which it
# rounds as Python does; powers and functions value by value through
# `_FLOAT_OPS`, since numpy's pow, exp or sin may differ in the last bit
_ROW_OPS = {
    "add": np.add, "sub": np.subtract, "mul": np.multiply, "div": _divide_rows,
    "neg": lambda a, _: -a, "addc": np.add, "mulc": np.multiply,
    "divc": np.true_divide, "rdivc": lambda a, c: _divide_rows(c, a),
    **{kind: _by_value(_FLOAT_OPS[kind]) for kind in ("ipow", "powr", "func")},
}


def _float_op(table, kind, a, b=None):
    """The closure of one float operation through an op table: `_FLOAT_OPS`
    at one point, `_ROW_OPS` over the rows of a (2n, S) array of points."""
    if kind == "var":
        return lambda r, p: p[a]
    fn = table[kind]
    if kind in _SLOT_PAIRS:
        return lambda r, p: fn(r[a], r[b])
    return lambda r, p: fn(r[a], b)


def _positions(sub: tuple[int, ...], support: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(support.index(v) for v in sub)


class Tape:
    """Expressions over x0..x{n-1}, y0..y{n-1} compiled into one flat program.

    Variables are numbered 0..n-1 for x and n..2n-1 for y; a point is the
    list of their 2n float values.  Compilation folds constant
    subexpressions to floats, gives a repeated subexpression one slot, and
    records the support of each slot: the sorted variables it depends on.
    The program runs over floats (`floats`, or `float_rows` over many
    points) and over jets (`jet`).  A jet
    slot holds a padded array over jet_space(len(support), order) (see
    `jets.lift_index`): a product combines its factors' own arrays through a
    `jets.product_plan`, and a sum lifts an operand into the union of the
    supports.  Every coefficient sums its terms in the order of jet
    arithmetic over all 2n variables, so the coefficients agree with it to
    the bit (structural sparsity, Griewank & Walther, *Evaluating
    Derivatives*, 2nd ed., SIAM 2008, ch. 7).

    `jet` also runs over a (2n, S) array of S points, on coefficient arrays
    with a trailing sample axis: a coefficient index then reads the same for
    one point and for S, so the program is the same but for the seeding of
    a variable, the product kernel and the Taylor coefficients of a
    composition, bound once when an operation is compiled; each column sums
    its terms as the jet of that point alone does.

    The two float programs are built by one op builder (`_float_op`) from
    two op tables: `floats` from `_FLOAT_OPS` at one point, and
    `float_rows` from `_ROW_OPS` over a (2n, S) array of points, one row of
    S values per slot.  Arithmetic (+ - * /, negation and the constant
    operations) runs through numpy, whose float64 operations round as
    Python's do; integer and fractional powers and the elementary functions
    run value by value through `_FLOAT_OPS`, since numpy's pow, exp or sin
    may differ from them in the last bit.  So each column equals `floats` at
    its point, to the bit; when any column fails, the columns run through
    `floats` one by one and the first failing one raises its own error.

    Operations keep the order and the checks of plain arithmetic: integer
    powers are `**` on floats and repeated products on jets, an elementary
    function composes `jets.taylor` by Horner's rule, and a division by
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
        self._float_program = [_float_op(_FLOAT_OPS, *op) for op in self._ops]
        self._row_program: list | None = None
        self._jet_programs: dict[tuple[int, bool], tuple] = {}

    # compilation ----------------------------------------------------------

    def _slot(self, op: tuple, support: tuple[int, ...]) -> int:
        key = tuple((v, math.copysign(1.0, v)) if isinstance(v, float) else v
                    for v in op)
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

    def _emit(self, node: Expr):
        """Slot of a node, or its float if it is constant."""
        if isinstance(node, Num):
            return float(node.value)
        if isinstance(node, Var):
            if not 0 <= node.index < self.dim:
                raise ExpressionError(f"variable {node.kind}{node.index} out of "
                                      f"range for dimension {self.dim}")
            v = node.index + (self.dim if node.kind == "y" else 0)
            return self._slot(("var", v), (v,))
        if isinstance(node, Neg):
            a = self._emit(node.a)
            if isinstance(a, float):
                return -a
            return self._slot(("neg", a), self._support[a])
        if isinstance(node, (Add, Sub, Mul, Div)):
            return self._binary(type(node), self._emit(node.a), self._emit(node.b))
        if isinstance(node, Pow):
            return self._power(self._emit(node.base), node.exponent)
        if isinstance(node, Func):
            a = self._emit(node.arg)
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
        if self.failure is not None:
            raise EvaluationDomainError(self.failure)
        r: list = []
        append = r.append
        for op in self._float_program:
            append(op(r, point))
        out = [o if isinstance(o, float) else r[o] for o in self.outputs]
        for v in out:
            if not math.isfinite(v):
                raise EvaluationDomainError(f"value {v!r} is not finite")
        return out

    def float_rows(self, points: np.ndarray) -> np.ndarray:
        """`floats` at each column of a (2n, S) array of points, as an array
        of shape (number of expressions, S); column s equals `floats` at
        point s alone, and a failing column raises the error of the first
        failing point."""
        if self.failure is not None:
            raise EvaluationDomainError(self.failure)
        if self._row_program is None:
            self._row_program = [_float_op(_ROW_OPS, *op) for op in self._ops]
        out = np.empty((len(self.outputs), points.shape[1]))
        try:
            r: list = []
            append = r.append
            with np.errstate(all="ignore"):
                for op in self._row_program:
                    append(op(r, points))
            for i, o in enumerate(self.outputs):
                out[i] = o if isinstance(o, float) else r[o]
            if np.isfinite(out).all():
                return out
        except EvaluationDomainError:
            pass
        for s, point in enumerate(points.T.tolist()):
            out[:, s] = self.floats(point)
        return out

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

    def _jet_op(self, order: int, rows: bool, slot: int, kind, a, b=None):
        """The closure of one jet operation; with rows, over S points at once
        (see `jet`).  Only the seeding of a variable, the product kernel and
        the Taylor coefficients of a composition differ between the two."""
        support = self._support[slot]
        if kind == "var":
            seed = np.zeros(order + 2)    # one variable, and the padding
            if order:
                seed[1] = 1.0

            def var(r, p):
                c = seed.copy()
                c[0] = p[a]
                return c

            def var_rows(r, p):
                c = np.zeros((order + 2, p.shape[1]))
                c[0] = p[a]
                c[1] = seed[1]
                return c
            return var_rows if rows else var
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
        product = jets.product_rows if rows else jets.product
        taylor = ((lambda name, c, p: jets.taylor_rows(name, c, order, p)) if rows
                  else (lambda name, c, p: jets.taylor(name, float(c[0]), order, p)))

        def reciprocal(c, plan):
            return jets.compose(c, taylor("reciprocal", c, 0.5), plan, product)

        if kind == "mul":
            plan = self._plan(a, b, support, order)
            return lambda r, p: product(r[a], r[b], plan)
        if kind == "div":
            plan = self._plan(a, b, support, order)
            inverse = self._plan(b, b, self._support[b], order)
            return lambda r, p: product(r[a], reciprocal(r[b], inverse), plan)
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
            return lambda r, p: reciprocal(r[a], own) * b
        if kind == "ipow":
            def ipow(r, p):
                base = r[a] if b > 0 else reciprocal(r[a], own)
                return jets.int_power(base, abs(b), own, product)
            return ipow
        name, exponent = ("powr", b) if kind == "powr" else (b, 0.5)
        return lambda r, p: jets.compose(r[a], taylor(name, r[a], exponent), own, product)

    def _jet_program(self, order: int, rows: bool):
        program = self._jet_programs.get((order, rows))
        if program is None:
            full = tuple(range(2 * self.dim))
            size = jets.jet_space(len(full), order).size
            out = self.outputs[0]
            final = None if isinstance(out, float) else self._lift(out, full, order)
            final = slice(size) if final is None else final[:size]
            ops = [self._jet_op(order, rows, i, *op) for i, op in enumerate(self._ops)]
            program = self._jet_programs[(order, rows)] = (ops, size, final)
        return program

    def jet(self, point, order: int) -> np.ndarray:
        """Coefficients over jet_space(2n, order) of the first expression at
        a point; the caller checks that they are finite.

        A point given as a (2n, S) array holds S points, one per column; the
        program runs once over all of them on arrays with a trailing sample
        axis, and column s of the result equals the coefficients at point s
        alone, to the bit."""
        if self.failure is not None:
            raise EvaluationDomainError(self.failure)
        rows = isinstance(point, np.ndarray) and point.ndim == 2
        ops, size, final = self._jet_program(order, rows)
        r: list = []
        append = r.append
        for op in ops:
            append(op(r, point))
        out = self.outputs[0]
        if isinstance(out, float):
            c = np.zeros((size, point.shape[1]) if rows else size)
            c[0] = out
            return c
        return r[out][final]


def _raise(message: str):
    raise EvaluationDomainError(message)


# --------------------------------------------------------------------------
# pretty printing (canonical, re-parseable form)
# --------------------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_ATOM = 1, 2, 3, 4


def _pp(node: Expr) -> tuple[str, int]:
    if isinstance(node, Num):
        return repr(node.value), _PREC_ATOM
    if isinstance(node, Var):
        return f"{node.kind}{node.index}", _PREC_ATOM
    if isinstance(node, Neg):
        body, prec = _pp(node.a)
        if prec < _PREC_NEG:
            body = f"({body})"
        return f"-{body}", _PREC_NEG
    if isinstance(node, (Add, Sub)):
        op = "+" if isinstance(node, Add) else "-"
        left, lp = _pp(node.a)
        right, rp = _pp(node.b)
        if lp < _PREC_ADD:
            left = f"({left})"
        if rp <= _PREC_ADD:
            right = f"({right})"
        return f"{left} {op} {right}", _PREC_ADD
    if isinstance(node, (Mul, Div)):
        op = "*" if isinstance(node, Mul) else "/"
        left, lp = _pp(node.a)
        right, rp = _pp(node.b)
        if lp < _PREC_MUL:
            left = f"({left})"
        if rp <= _PREC_MUL:
            right = f"({right})"
        return f"{left} {op} {right}", _PREC_MUL
    if isinstance(node, Pow):
        base, _ = _pp(node.base)
        return f"pow({base}, {node.exponent!r})", _PREC_ATOM
    if isinstance(node, Func):
        arg, _ = _pp(node.arg)
        return f"{node.name}({arg})", _PREC_ATOM
    raise TypeError(f"unknown expression node {node!r}")


def pretty(node: Expr) -> str:
    return _pp(node)[0]


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


class _Parser:
    def __init__(self, source: str, n: int):
        self.tokens = _tokenize(source)
        self.pos = 0
        self.n = n

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

    def parse(self) -> Expr:
        node = self.expr()
        kind, text, off = self.peek()
        if kind != "end":
            raise ExpressionError(f"unexpected trailing input {text!r}", offset=off)
        return node

    def expr(self) -> Expr:
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                rhs = self.term()
                node = Add(node, rhs) if text == "+" else Sub(node, rhs)
            else:
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
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Neg(self.factor())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        kind, text, off = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            exponent = self.factor()
            return Pow(base, self._fold_constant(exponent, off))
        return base

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
                return self.call(text, off)
            m = _VAR_RE.match(text)
            if m is None:
                raise ExpressionError(f"unknown identifier {text!r}", offset=off)
            index = int(m.group(2))
            if index >= self.n:
                raise ExpressionError(
                    f"variable {text!r} out of range for dimension {self.n}", offset=off)
            return Var(m.group(1), index)
        raise ExpressionError(f"expected a value, found {text or 'end of input'!r}", offset=off)

    def call(self, name: str, off: int) -> Expr:
        self.expect_op("(")
        args = [self.expr()]
        while self.peek()[:2] == ("op", ","):
            self.advance()
            args.append(self.expr())
        self.expect_op(")")
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
        return tape.floats([])[0]


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
        self.x = np.asarray(x, dtype=float).copy()
        self.y = np.asarray(y, dtype=float).copy()
        if self.x.shape != self.y.shape or self.x.ndim != 1:
            raise ValueError("chart point and fiber vector dimensions differ")
        if not np.any(self.y):
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
    rows of two (S, n) arrays.  Row k is the `TangentSample` batch[k]; a
    slice or an index array selects a `SampleBatch` of those rows."""

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

    def __getitem__(self, k):
        if isinstance(k, (int, np.integer)):
            return TangentSample(self.x[k], self.y[k])
        return SampleBatch(self.x[k], self.y[k])

    def __iter__(self):
        return (self[k] for k in range(len(self)))


def _outcomes(fn, count: int) -> list:
    """fn(rows) for all `count` rows at once: a list with one entry per row.
    If that raises, fn runs on each row alone (rows = slice(k, k + 1)), in
    order, and a row that raises gets its exception as its entry, so every
    sample meets the outcome a loop over samples would give it."""
    try:
        return fn(slice(None))
    except Exception:
        out = []
        for k in range(count):
            try:
                out.append(fn(slice(k, k + 1))[0])
            except Exception as exc:
                out.append(exc)
        return out


def _columns(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """S samples given as the rows of (S, n) arrays x and y, as the columns
    of the (2n, S) point array that a tape reads."""
    return np.vstack((x.T, y.T))


@dataclass(frozen=True)
class MetricDefinition:
    """Evaluable scalar with a conic domain and declared fiber homogeneity."""

    name: str
    dim: int
    degree: int
    body: Expr
    domain: tuple[Expr, ...] = ()
    sample_box: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise ExpressionError(f"dimension must be at least 1, got {self.dim}")
        # frozen: the compiled tapes are set once, here
        object.__setattr__(self, "_body", Tape((self.body,), self.dim))
        object.__setattr__(self, "_domain", Tape(self.domain, self.dim))

    def _point(self, x, y) -> list[float]:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.shape != (self.dim,) or y.shape != (self.dim,):
            raise ValueError(f"{self.name!r} has dimension {self.dim}; got a "
                             f"point of shape {x.shape} and a vector of shape {y.shape}")
        return x.tolist() + y.tolist()

    def value(self, x, y):
        """The definition at chart point x and fiber vector y.  At (S, n)
        arrays of chart points and fiber vectors, the array of the S values
        from the tape's row-wise program, equal to the values one by one;
        the first failing sample raises."""
        if getattr(x, "ndim", 1) == 2:
            x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
            if len(x):
                self._point(x[0], y[0])                  # the shape check
            return self._body.float_rows(_columns(x, y))[0]
        return self._body.floats(self._point(x, y))[0]

    def value_at(self, sample: TangentSample | SampleBatch):
        return self.value(sample.x, sample.y)

    def jet(self, sample: TangentSample | SampleBatch, order: int) -> jets.Jet:
        """Jet of the definition at the sample, over all 2n variables.  At a
        `SampleBatch` the tape runs once over all samples, and the jet's
        coefficients carry a leading sample axis: row k is the jet at
        sample k, to the bit."""
        if isinstance(sample, SampleBatch):
            self._point(sample.x[0], sample.y[0])      # the shape check
            c = self._body.jet(_columns(sample.x, sample.y), order).T.copy()
            finite = np.isfinite(c).all(axis=1)
            if not finite.all():
                raise self._not_finite(sample[int(np.argmin(finite))])
        else:
            c = self._point_jet(self._point(sample.x, sample.y), order)
        return jets.Jet(jets.jet_space(2 * self.dim, order), c)

    def _point_jet(self, point: list[float], order: int) -> np.ndarray:
        """The jet coefficients at one point x + y, given as a list of 2n
        floats, or the EvaluationDomainError of a jet that is not finite."""
        c = self._body.jet(point, order)
        if not np.isfinite(c).all():
            raise self._not_finite(TangentSample(point[:self.dim], point[self.dim:]))
        return c

    def _not_finite(self, sample: TangentSample) -> EvaluationDomainError:
        return EvaluationDomainError(
            f"the jet of {self.name!r} is not finite at {sample!r}")

    def admissible(self, sample: TangentSample | SampleBatch):
        """Whether every domain predicate is positive at the sample (whose
        fiber vector is nonzero by construction).  At a `SampleBatch`, a
        boolean array with one verdict per sample, from one run of the
        domain's row-wise program; if a predicate fails to evaluate at some
        sample, each sample is checked alone."""
        if isinstance(sample, SampleBatch):
            if sample.dim != self.dim:
                return np.zeros(len(sample), dtype=bool)
            try:
                values = self._domain.float_rows(_columns(sample.x, sample.y))
            except EvaluationDomainError:
                return np.array([self.admissible(s) for s in sample], dtype=bool)
            return (values > 0.0).all(axis=0)
        if sample.dim != self.dim:
            return False
        return self._point_admissible(sample.x.tolist() + sample.y.tolist())

    def _point_admissible(self, point: list[float]) -> bool:
        """`admissible` at one point x + y, given as a list of 2n floats."""
        try:
            values = self._domain.floats(point)
        except EvaluationDomainError:
            return False
        return all(v > 0.0 for v in values)

    def box(self) -> np.ndarray:
        if self.sample_box is not None:
            return np.asarray(self.sample_box, dtype=float)
        return np.array([(-1.0, 1.0)] * self.dim)

    def pretty(self) -> str:
        return pretty(self.body)


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

    The samples, and the state the generator is left in, are those of a loop
    that draws one candidate at a time (x, then y, then the scale factor
    unless y is zero), keeps it if it is admissible and gives up after
    MAX_REJECTIONS rejected candidates.  Candidates are drawn in blocks, the
    first of `count` and each later one sized from the acceptance so far, and
    one batched domain run checks a block.  When the loop would stop inside a
    block, also to raise NoAdmissibleSample, the generator is rewound to the
    start of the block and draws again only the candidates the loop draws."""
    domain = m._domain
    if domain.failure is not None or any(
            isinstance(p, float) and not (math.isfinite(p) and p > 0.0)
            for p in domain.outputs):
        raise NoAdmissibleSample(
            f"the domain of {m.name!r} is empty: a predicate is constant and not positive")
    low, span = _sampling_box(m)
    out: list[TangentSample] = []
    rejects = 0
    while len(out) < count:
        if rejects >= MAX_REJECTIONS:
            raise NoAdmissibleSample(
                f"no admissible sample for {m.name!r} after {MAX_REJECTIONS} rejections")
        need, drawn = count - len(out), len(out) + rejects
        size = -(-need * drawn // max(len(out), 1)) if drawn else need
        size = min(size, need + MAX_REJECTIONS - rejects)
        start = rng.bit_generator.state
        x, y = _candidates(rng, low, span, size)
        ok = y.any(axis=1)               # a zero y is rejected before its scale
        if ok.any():
            ok[ok] = m.admissible(SampleBatch(x[ok], y[ok]))
        kept = np.cumsum(ok)
        ends = np.flatnonzero((kept == need) | (
            np.arange(1, size + 1) - kept + rejects >= MAX_REJECTIONS))
        used = int(ends[0]) + 1 if len(ends) else size
        if used < size:
            rng.bit_generator.state = start
            _candidates(rng, low, span, used)
        out.extend(TangentSample(x[k], y[k]) for k in np.flatnonzero(ok[:used]).tolist())
        rejects += used - int(kept[used - 1])
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


def _candidates(rng: np.random.Generator, low: np.ndarray, span: np.ndarray,
                size: int) -> tuple[np.ndarray, np.ndarray]:
    """The chart points and fiber vectors of `size` candidates, drawn one
    after another as the one-at-a-time loop draws them: x as
    `rng.uniform(low, low + span)`, y as `rng.standard_normal(n)` and, unless
    y is zero, the log of its scale factor as `rng.uniform(log 0.5, log 2)`.
    A zero y stays zero.  Every value equals that of the one-candidate
    formula to the bit: a uniform row is `low + span * rng.random(n)`, the
    norms are stacked matmuls, the dot product `np.linalg.norm` takes, and
    the factors come from `math.exp`."""
    n = low.size
    u, y, t = np.empty((size, n)), np.empty((size, n)), np.zeros(size)
    for k in range(size):
        rng.random(out=u[k])
        if any(rng.standard_normal(out=y[k]).tolist()):
            t[k] = rng.random()
    rows = y.any(axis=1)
    v = y[rows]
    norms = np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])
    factors = [math.exp(_LOG_HALF + (_LOG_TWO - _LOG_HALF) * s) for s in t[rows].tolist()]
    y[rows] = v / norms[:, None] * np.array(factors)[:, None]
    return low + span * u, y


@dataclass(frozen=True)
class HomogeneityReport:
    samples: int            # the samples checked: those whose scaled copy is admissible
    max_relative_error: float
    passed: bool


def validate_homogeneity(m: MetricDefinition, samples: int, seed: int,
                         tol: float = 1e-9) -> HomogeneityReport:
    """Check m(x, s*y) = s^degree * m(x, y) on random admissible samples.
    A sample whose scaled copy leaves the domain is skipped; the check fails
    if every one is."""
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    worst = 0.0
    checked = 0
    for s in sample_admissible(m, rng, count=samples):
        scale = rng.uniform(0.5, 2.0)
        scaled = s.scaled(scale)
        if not m.admissible(scaled):
            continue
        checked += 1
        base = m.value_at(s)
        val = m.value_at(scaled)
        expected = scale ** m.degree * base
        err = abs(val - expected) / max(1.0, abs(val), abs(base))
        worst = max(worst, err)
    return HomogeneityReport(samples=checked, max_relative_error=worst,
                             passed=checked > 0 and worst <= tol)


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


def dump_metric_file(m: MetricDefinition, path) -> None:
    lines = [f"name={m.name}", f"dim={m.dim}", f"degree={m.degree}"]
    if m.domain:
        lines.append("domain=" + "; ".join(pretty(p) for p in m.domain))
    lines.append(m.pretty())
    Path(path).write_text("\n".join(lines) + "\n")
