"""Reference evaluation of expression trees by a recursive walk over `Jet`
objects in the full 2n-variable jet space.

This is the path the compiled `dsl.Tape` replaced: every variable is seeded
with `Jet.variable` over all 2n variables, constant subtrees evaluate as
floats, and each node applies plain `Jet` (or float) arithmetic.  The
Taylor coefficients of the elementary functions and of a reciprocal are its
own copies of the formulas (`taylor`), not the lines that `jets` writes, so
a slip in those shows up as a disagreement.  It is slow and kept only as an
oracle for the tape.
"""

import math

import numpy as np

from finslab import dsl
from finslab.errors import EvaluationDomainError
from finslab.jets import Jet, jet_space


def taylor(name: str, u0: float, order: int, p: float = 0.5) -> list[float]:
    """Normalized derivatives f^(m)(u0)/m!, m = 0..order, of the elementary
    function `name` at u0, each from its textbook formula: exp, log, powr
    (u**p) and sqrt (p = 0.5), sin and cos, reciprocal.  Off the domain,
    and where a power of u0 over- or underflows, it raises the
    EvaluationDomainError of `jets.taylor`, with the same text."""
    try:
        if name == "exp":
            e = math.exp(u0)
            return [e / math.factorial(m) for m in range(order + 1)]
        if name == "log":
            if u0 <= 0.0:
                raise EvaluationDomainError(f"log of non-positive value {u0!r}")
            return [math.log(u0)] + [(-1.0) ** (m + 1) / (m * u0 ** m)
                                     for m in range(1, order + 1)]
        if name in ("powr", "sqrt"):
            if u0 <= 0.0:
                raise EvaluationDomainError(f"fractional power of non-positive base {u0!r}")
            out = [u0 ** p]
            for m in range(1, order + 1):
                out.append(out[-1] * (p - m + 1) / (m * u0))
            return out
        if name in ("sin", "cos"):
            if math.isinf(u0):
                raise EvaluationDomainError(f"{name} of non-finite value {u0!r}")
            s, c = math.sin(u0), math.cos(u0)
            cycle = [s, c, -s, -c] if name == "sin" else [c, -s, -c, s]
            return [cycle[m % 4] / math.factorial(m) for m in range(order + 1)]
        if name == "reciprocal":
            if u0 == 0.0:
                raise EvaluationDomainError("division by a jet with zero value part")
            return [(-1.0) ** m / u0 ** (m + 1) for m in range(order + 1)]
    except (OverflowError, ZeroDivisionError):
        raise EvaluationDomainError(f"{name} overflows at {u0!r}") from None
    raise ValueError(f"unknown elementary function {name!r}")


def _compose(u, name, p=0.5):
    """f(u) of a jet, from the normalized derivatives of `taylor`."""
    return u._compose(taylor(name, u.value, u.order, p))


def _exp(u):
    if isinstance(u, Jet):
        return _compose(u, "exp")
    try:
        return math.exp(u)
    except OverflowError:
        raise EvaluationDomainError(f"exp overflows at {u!r}") from None


def _log(u):
    if isinstance(u, Jet):
        return _compose(u, "log")
    if u <= 0.0:
        raise EvaluationDomainError(f"log of non-positive value {u!r}")
    return math.log(u)


def _powr(u, p):
    if isinstance(u, Jet):
        return _compose(u, "powr", p)
    if u <= 0.0:
        raise EvaluationDomainError(f"fractional power of non-positive base {u!r}")
    return u ** p


def _sqrt(u):
    if isinstance(u, Jet):
        return _compose(u, "powr", 0.5)
    if u <= 0.0:
        raise EvaluationDomainError(f"sqrt of non-positive value {u!r}")
    return math.sqrt(u)


def _sin(u):
    return _compose(u, "sin") if isinstance(u, Jet) else math.sin(u)


def _cos(u):
    return _compose(u, "cos") if isinstance(u, Jet) else math.cos(u)


FUNCTIONS = {"exp": _exp, "log": _log, "sqrt": _sqrt, "sin": _sin, "cos": _cos}


def _int_pow(u, p):
    """u^p by repeated multiplication, not the library's repeated squaring."""
    if p == 0:
        return Jet.constant(u.space, 1.0)
    base = u if p > 0 else _compose(u, "reciprocal")
    out = base
    for _ in range(abs(p) - 1):
        out = out * base
    return out


def evaluate(node, xs, ys):
    """Evaluate an expression over floats or full-space jets."""
    if isinstance(node, dsl.Num):
        return node.value
    if isinstance(node, dsl.Var):
        return xs[node.index] if node.kind == "x" else ys[node.index]
    if isinstance(node, dsl.Neg):
        return -evaluate(node.a, xs, ys)
    if isinstance(node, dsl.Add):
        return evaluate(node.a, xs, ys) + evaluate(node.b, xs, ys)
    if isinstance(node, dsl.Sub):
        return evaluate(node.a, xs, ys) - evaluate(node.b, xs, ys)
    if isinstance(node, dsl.Mul):
        return evaluate(node.a, xs, ys) * evaluate(node.b, xs, ys)
    if isinstance(node, dsl.Div):
        den = evaluate(node.b, xs, ys)
        if isinstance(den, Jet):
            return evaluate(node.a, xs, ys) * _compose(den, "reciprocal")
        if den == 0.0:
            raise EvaluationDomainError("division by zero")
        return evaluate(node.a, xs, ys) / den
    if isinstance(node, dsl.Pow):
        base = evaluate(node.base, xs, ys)
        p = node.exponent
        if p == int(p):
            if int(p) < 0 and not isinstance(base, Jet) and base == 0.0:
                raise EvaluationDomainError("zero base raised to a negative power")
            if not isinstance(base, Jet):
                return base ** int(p)
            return _int_pow(base, int(p))
        return _powr(base, p)
    if isinstance(node, dsl.Func):
        return FUNCTIONS[node.name](evaluate(node.arg, xs, ys))
    raise TypeError(f"unknown expression node {node!r}")


def reference_jet(node, x, y, order: int) -> np.ndarray:
    """Coefficients of the expression's jet over all 2n variables at (x, y);
    raises EvaluationDomainError where the coefficients are not finite."""
    n = len(x)
    space = jet_space(2 * n, order)
    xs = [Jet.variable(space, i, float(x[i])) for i in range(n)]
    ys = [Jet.variable(space, n + i, float(y[i])) for i in range(n)]
    out = evaluate(node, xs, ys)
    c = out.c if isinstance(out, Jet) else Jet.constant(space, float(out)).c
    if not np.isfinite(c).all():
        raise EvaluationDomainError("the jet is not finite")
    return c
