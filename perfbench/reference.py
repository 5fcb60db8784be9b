"""A fixed reference workload that measures the machine's speed.

Wall times on a shared host drift by up to a factor of two within minutes,
so a run's raw pass times say as much about the neighbours as about
finslab.  The worker times this kernel between items, in the same process,
and scales each pass to the speed the kernel would have at REFERENCE_RATE
units per second.  The kernel does the same kind of work as finslab (small
truncated-Taylor products through a bincount plan, a recursive expression
walk, scalar composition) but shares no code with it, so a change to
finslab does not change the scale.  Do not change this file: that would
change the scale of every calibrated metric.
"""

from __future__ import annotations

import math
import time
from itertools import combinations_with_replacement

import numpy as np

# Kernel units per second that a calibrated time is scaled to: about the
# rate of a 2-core Xeon KVM guest when its host is quiet.
REFERENCE_RATE = 2000.0

NVARS = 6


class _Space:
    def __init__(self, order: int):
        indices = []
        for degree in range(order + 1):
            block = set()
            for combo in combinations_with_replacement(range(NVARS), degree):
                alpha = [0] * NVARS
                for v in combo:
                    alpha[v] += 1
                block.add(tuple(alpha))
            indices.extend(sorted(block))
        self.order = order
        self.size = len(indices)
        self.position = {alpha: i for i, alpha in enumerate(indices)}
        ia, ib, io = [], [], []
        for i, a in enumerate(indices):
            for j, b in enumerate(indices):
                if sum(a) + sum(b) <= order:
                    ia.append(i)
                    ib.append(j)
                    io.append(self.position[tuple(x + y for x, y in zip(a, b))])
        self.plan = (np.array(ia), np.array(ib), np.array(io))


class _Series:
    __slots__ = ("space", "c")

    def __init__(self, space, c):
        self.space = space
        self.c = c

    def __add__(self, other):
        return _Series(self.space, self.c + other.c)

    def __mul__(self, other):
        if isinstance(other, _Series):
            ia, ib, io = self.space.plan
            return _Series(self.space, np.bincount(
                io, weights=self.c[ia] * other.c[ib], minlength=self.space.size))
        return _Series(self.space, self.c * other)

    def _compose(self, derivs):
        hat = _Series(self.space, self.c.copy())
        hat.c[0] = 0.0
        out = _Series(self.space, np.zeros(self.space.size))
        out.c[0] = derivs[-1]
        for d in reversed(derivs[:-1]):
            out = out * hat
            out.c[0] += d
        return out

    def sin(self):
        s, c = math.sin(self.c[0]), math.cos(self.c[0])
        cycle = (s, c, -s, -c)
        return self._compose([cycle[m % 4] / math.factorial(m)
                              for m in range(self.space.order + 1)])

    def reciprocal(self):
        u = self.c[0]
        return self._compose([(-1.0) ** m / u ** (m + 1)
                              for m in range(self.space.order + 1)])


# -y0^2 + y1^2 + sin(x1)^2 * y2^2 as a tree
_TREE = ("+", ("+", ("neg", ("*", ("y", 0), ("y", 0))), ("*", ("y", 1), ("y", 1))),
         ("*", ("*", ("sin", ("x", 1)), ("sin", ("x", 1))), ("*", ("y", 2), ("y", 2))))


def _evaluate(node, xs, ys):
    kind = node[0]
    if kind == "x":
        return xs[node[1]]
    if kind == "y":
        return ys[node[1]]
    if kind == "neg":
        return _evaluate(node[1], xs, ys) * -1.0
    if kind == "sin":
        return _evaluate(node[1], xs, ys).sin()
    a, b = _evaluate(node[1], xs, ys), _evaluate(node[2], xs, ys)
    return a + b if kind == "+" else a * b


_SPACES = {order: _Space(order) for order in (2, 4)}


def _variable(space, slot, value):
    c = np.zeros(space.size)
    c[0] = value
    c[space.position[tuple(int(q == slot) for q in range(NVARS))]] = 1.0
    return _Series(space, c)


def unit(k: int = 0) -> float:
    """One unit of reference work: four metric expansions and a pivot."""
    acc = 0.0
    for order in (2, 4, 2, 2):
        space = _SPACES[order]
        xs = [_variable(space, i, 0.5 + 0.1 * i + 1e-3 * (k % 7)) for i in range(3)]
        ys = [_variable(space, 3 + i, 1.0 + 0.1 * i) for i in range(3)]
        L = _evaluate(_TREE, xs, ys)
        pivot = (L * 0.5 + _variable(space, 0, 3.0)).reciprocal()
        acc += float((pivot * L).c[1])
    return acc


def run_for(seconds: float) -> tuple[int, float]:
    """Run whole units until `seconds` have passed (at least one unit);
    returns (units, elapsed seconds)."""
    start = time.perf_counter()
    units = 0
    while True:
        unit(units)
        units += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return units, elapsed
