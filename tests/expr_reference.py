"""Reference evaluation of expression trees by a recursive walk over `Jet`
objects in the full 2n-variable jet space.

This is the path the compiled `dsl.Tape` replaced: every variable is seeded
with `Jet.variable` over all 2n variables, constant subtrees evaluate as
floats, and each node applies plain `Jet` (or float) arithmetic.  The
elementary functions are its own copies, so a slip in `jets.taylor` shows
up as a disagreement.  It is slow and kept only as an oracle for the tape.
"""

import math

import numpy as np

from finslab import dsl
from finslab.errors import EvaluationDomainError
from finslab.jets import Jet, jet_space


def _compose(u, derivs):
    return u._compose(derivs)


def _exp(u):
    try:
        e = math.exp(u.value if isinstance(u, Jet) else u)
    except OverflowError:
        raise EvaluationDomainError(f"exp overflows at {u!r}") from None
    if not isinstance(u, Jet):
        return e
    return _compose(u, [e / math.factorial(m) for m in range(u.order + 1)])


def _log(u):
    u0 = u.value if isinstance(u, Jet) else u
    if u0 <= 0.0:
        raise EvaluationDomainError(f"log of non-positive value {u0!r}")
    if not isinstance(u, Jet):
        return math.log(u)
    return _compose(u, [math.log(u0)] + [(-1.0) ** (m + 1) / (m * u0 ** m)
                                         for m in range(1, u.order + 1)])


def _powr(u, p):
    u0 = u.value if isinstance(u, Jet) else u
    if u0 <= 0.0:
        raise EvaluationDomainError(f"fractional power of non-positive base {u0!r}")
    if not isinstance(u, Jet):
        return u ** p
    out = [u0 ** p]
    for m in range(1, u.order + 1):
        out.append(out[-1] * (p - m + 1) / (m * u0))
    return _compose(u, out)


def _sqrt(u):
    if not isinstance(u, Jet):
        if u <= 0.0:
            raise EvaluationDomainError(f"sqrt of non-positive value {u!r}")
        return math.sqrt(u)
    return _powr(u, 0.5)


def _trig(cycle_of):
    def f(u):
        if not isinstance(u, Jet):
            return cycle_of(u)[0]
        cycle = cycle_of(u.value)
        return _compose(u, [cycle[m % 4] / math.factorial(m) for m in range(u.order + 1)])
    return f


_sin = _trig(lambda u0: [math.sin(u0), math.cos(u0), -math.sin(u0), -math.cos(u0)])
_cos = _trig(lambda u0: [math.cos(u0), -math.sin(u0), -math.cos(u0), math.sin(u0)])
FUNCTIONS = {"exp": _exp, "log": _log, "sqrt": _sqrt, "sin": _sin, "cos": _cos}


def _int_pow(u, p):
    """u^p by repeated multiplication, not the library's repeated squaring."""
    if p == 0:
        return Jet.constant(u.space, 1.0)
    base = u if p > 0 else u.reciprocal()
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
        if not isinstance(den, Jet) and den == 0.0:
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
