"""Metric definition language and built-in metric registry.

Metrics are scalar expressions over chart variables x0..x{n-1} and fiber
variables y0..y{n-1} with +, -, *, /, pow(., real), exp, log, sqrt, sin, cos.
A definition carries its conic domain as a list of expressions required to be
strictly positive, and a declared positive-homogeneity degree in the fiber
variables (2 for a metric, 0 for a conformal factor).

Every expression evaluates over plain floats or over jets through the same
tree, so the engine gets exact derivatives of any definition, including
products of definitions formed programmatically.

Grammar (precedence: pow > unary minus > * / > + -)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | power
    power  := atom ('^' factor)?
    atom   := NUMBER | IDENT | IDENT '(' expr (',' expr)* ')' | '(' expr ')'

`u ^ p` and `pow(u, p)` are the same node; the exponent must fold to a real
constant.  Fractional powers evaluate only on a strictly positive base, so
domains using them must list the base as a positivity predicate.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import jets
from .errors import EvaluationDomainError, ExpressionError, NoAdmissibleSample

__all__ = [
    "Expr", "Num", "Var", "Neg", "Add", "Sub", "Mul", "Div", "Pow", "Func",
    "TangentSample", "MetricDefinition", "HomogeneityReport",
    "parse_expression", "parse_metric", "pretty", "evaluate",
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


_FUNCTIONS = {"exp": jets.exp, "log": jets.log, "sqrt": jets.sqrt,
              "sin": jets.sin, "cos": jets.cos}


def evaluate(node: Expr, xs, ys):
    """Evaluate an expression over floats or jets (mixed not recommended)."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return xs[node.index] if node.kind == "x" else ys[node.index]
    if isinstance(node, Neg):
        return -evaluate(node.a, xs, ys)
    if isinstance(node, Add):
        return evaluate(node.a, xs, ys) + evaluate(node.b, xs, ys)
    if isinstance(node, Sub):
        return evaluate(node.a, xs, ys) - evaluate(node.b, xs, ys)
    if isinstance(node, Mul):
        return evaluate(node.a, xs, ys) * evaluate(node.b, xs, ys)
    if isinstance(node, Div):
        den = evaluate(node.b, xs, ys)
        if not isinstance(den, jets.Jet) and den == 0.0:
            raise EvaluationDomainError("division by zero")
        return evaluate(node.a, xs, ys) / den
    if isinstance(node, Pow):
        base = evaluate(node.base, xs, ys)
        p = node.exponent
        if p == int(p):
            if int(p) < 0 and not isinstance(base, jets.Jet) and base == 0.0:
                raise EvaluationDomainError("zero base raised to a negative power")
            return base ** int(p)
        return jets.powr(base, p)
    if isinstance(node, Func):
        return _FUNCTIONS[node.name](evaluate(node.arg, xs, ys))
    raise TypeError(f"unknown expression node {node!r}")


def _variables_of(node: Expr, acc: set) -> set:
    if isinstance(node, Var):
        acc.add((node.kind, node.index))
    elif isinstance(node, Neg):
        _variables_of(node.a, acc)
    elif isinstance(node, (Add, Sub, Mul, Div)):
        _variables_of(node.a, acc)
        _variables_of(node.b, acc)
    elif isinstance(node, Pow):
        _variables_of(node.base, acc)
    elif isinstance(node, Func):
        _variables_of(node.arg, acc)
    return acc


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
        if _variables_of(node, set()):
            raise ExpressionError("exponent must be a real constant", offset=off)
        return float(evaluate(node, [], []))


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
        used = _variables_of(self.body, set())
        for preds in self.domain:
            _variables_of(preds, used)
        for kind, index in used:
            if index >= self.dim:
                raise ExpressionError(
                    f"variable {kind}{index} out of range for dimension {self.dim}")

    def value(self, x, y) -> float:
        return float(evaluate(self.body, np.asarray(x, float), np.asarray(y, float)))

    def value_at(self, sample: TangentSample) -> float:
        return self.value(sample.x, sample.y)

    def jet(self, sample: TangentSample, order: int) -> jets.Jet:
        """Jet of the definition at the sample, over all 2n variables."""
        xs, ys = jets.seed(sample.x, sample.y, order)
        out = evaluate(self.body, xs, ys)
        if not isinstance(out, jets.Jet):
            out = jets.Jet.constant(xs[0].space, float(out))
        if not np.isfinite(out.c).all():
            raise EvaluationDomainError(
                f"the jet of {self.name!r} is not finite at {sample!r}")
        return out

    def admissible(self, sample: TangentSample) -> bool:
        if sample.dim != self.dim or not np.any(sample.y):
            return False
        try:
            return all(float(evaluate(p, sample.x, sample.y)) > 0.0 for p in self.domain)
        except EvaluationDomainError:
            return False

    def box(self) -> np.ndarray:
        if self.sample_box is not None:
            return np.asarray(self.sample_box, dtype=float)
        return np.array([(-1.0, 1.0)] * self.dim)

    def pretty(self) -> str:
        return pretty(self.body)

    def with_domain(self, *predicates: str, name: str | None = None) -> "MetricDefinition":
        """Copy of this definition with extra positivity predicates."""
        extra = tuple(parse_expression(p, self.dim) for p in predicates)
        return MetricDefinition(
            name=name or self.name, dim=self.dim, degree=self.degree,
            body=self.body, domain=self.domain + extra, sample_box=self.sample_box)


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


def sample_admissible(m: MetricDefinition, rng: np.random.Generator,
                      count: int = 1, max_rejections: int = MAX_REJECTIONS
                      ) -> list[TangentSample]:
    """Random admissible samples: x uniform in the metric's box, y uniform on
    the unit sphere then rescaled by a random factor in [0.5, 2]."""
    box = m.box()
    out: list[TangentSample] = []
    rejects = 0
    while len(out) < count:
        if rejects >= max_rejections:
            raise NoAdmissibleSample(
                f"no admissible sample for {m.name!r} after {max_rejections} rejections")
        x = rng.uniform(box[:, 0], box[:, 1])
        y = rng.standard_normal(m.dim)
        norm = np.linalg.norm(y)
        if norm == 0.0:
            rejects += 1
            continue
        y = y / norm * math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
        s = TangentSample(x, y)
        if m.admissible(s):
            out.append(s)
        else:
            rejects += 1
    return out


@dataclass(frozen=True)
class HomogeneityReport:
    samples: int
    max_relative_error: float
    passed: bool


def validate_homogeneity(m: MetricDefinition, samples: int, seed: int,
                         tol: float = 1e-9) -> HomogeneityReport:
    """Check m(x, s*y) = s^degree * m(x, y) on random admissible samples."""
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for s in sample_admissible(m, rng, count=samples):
        scale = rng.uniform(0.5, 2.0)
        scaled = s.scaled(scale)
        if not m.admissible(scaled):
            continue
        base = m.value_at(s)
        val = m.value_at(scaled)
        expected = scale ** m.degree * base
        err = abs(val - expected) / max(1.0, abs(val), abs(base))
        worst = max(worst, err)
    return HomogeneityReport(samples=samples, max_relative_error=worst,
                             passed=worst <= tol)


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
                dim = int(value)
            elif key == "degree":
                degree = int(value)
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
    return parse_metric_file(path.read_text(), name=path.stem)


def dump_metric_file(m: MetricDefinition, path) -> None:
    lines = [f"name={m.name}", f"dim={m.dim}", f"degree={m.degree}"]
    if m.domain:
        lines.append("domain=" + "; ".join(pretty(p) for p in m.domain))
    lines.append(m.pretty())
    Path(path).write_text("\n".join(lines) + "\n")
