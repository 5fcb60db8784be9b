"""Loop forms of the float kernels that finslab writes as straight-line code:
Gaussian elimination with partial pivoting over a list of row lists, the
one-sample spray that reads its data through index lists, and the float
program of a tape as a list of closures over an op table.

These are the implementations the written kernels replaced, kept as
oracles: each performs the same float operations in the same order as its
kernel, so the two must agree to the bit, errors and their texts included.
"""

import math
import operator

from finslab import connection, dsl, tensors
from finslab.errors import EvaluationDomainError


def nondegenerate_solve(g: list, n: int, r: list | None = None):
    """`tensors._nondegenerate_solve` as a loop over the rows of [g | r]."""
    if not all(map(math.isfinite, g)):
        raise EvaluationDomainError(tensors._NON_FINITE)
    scale = max(map(abs, g))
    s = scale if scale > 0.0 else 1.0
    # the rows of [g | r] / scale
    a = [[v / s for v in g[i:i + n]] + [rk / s]
         for i, rk in zip(range(0, n * n, n), r or [0.0] * n)]
    det = 1.0
    for k in range(n):
        p, big = k, abs(a[k][k])
        for i in range(k + 1, n):
            if abs(a[i][k]) > big:
                p, big = i, abs(a[i][k])
        if p != k:
            a[k], a[p] = a[p], a[k]
            det = -det
        top = a[k]
        pivot = top[k]
        det *= pivot
        if pivot == 0.0:
            break
        for row in a[k + 1:]:
            f = row[k] / pivot
            if f:
                for j in range(k + 1, n + 1):
                    row[j] -= f * top[j]
    if abs(det) <= tensors.DEGENERACY_TOL:
        raise tensors._degenerate(det, scale)
    if r is None:
        return None
    z = [0.0] * n
    for i in range(n - 1, -1, -1):
        row = a[i]
        acc = row[n]
        for j in range(i + 1, n):
            acc -= row[j] * z[j]
        z[i] = acc / row[i]
    return z


def spray(c: list, y: list) -> list:
    """`connection._spray` at one sample, reading b, A and g through the
    index lists of `connection._spray_slots`."""
    n = len(y)
    first, mixed, fiber = connection._spray_slots(n)
    r = []
    for b, row in zip(first, mixed):
        acc = 0.0
        for i, yk in zip(row, y):
            acc += c[i] * yk
        r.append(acc - c[b])
    g = [0.5 * (c[i] * f) for i, f in fiber]
    return [0.25 * z for z in nondegenerate_solve(g, n, r)]


# the float of each tape operation from its operand and its second operand
# (a slot for the four slot-pair kinds, else a constant)
_OPS = {
    "add": operator.add, "sub": operator.sub, "mul": operator.mul, "div": dsl._divide,
    "neg": lambda a, _: -a, "addc": operator.add, "mulc": operator.mul,
    "divc": operator.truediv, "rdivc": lambda a, c: dsl._divide(c, a),
    "ipow": dsl._int_power, "powr": lambda a, p: dsl._function("powr", a, p),
    "func": lambda a, name: dsl._function(name, a),
}


def _closure(kind, a, b=None):
    if kind == "var":
        return lambda r, p: p[a]
    fn = _OPS[kind]
    if kind in dsl._SLOT_PAIRS:
        return lambda r, p: fn(r[a], r[b])
    return lambda r, p: fn(r[a], b)


def floats(tape: dsl.Tape, point) -> list:
    """`Tape.floats` as a list of closures run in order."""
    if tape.failure is not None:
        raise EvaluationDomainError(tape.failure)
    r: list = []
    for op in [_closure(*op) for op in tape._ops]:
        r.append(op(r, point))
    out = [o if isinstance(o, float) else r[o] for o in tape.outputs]
    for v in out:
        if not math.isfinite(v):
            raise EvaluationDomainError(f"value {v!r} is not finite")
    return out
