"""Reference connection quantities computed over lists of `Jet` objects.

This is the scalar path the array-valued `ConnectionFrame` replaced: a
Gauss-Jordan inverse over the jet ring, and loops of single `Jet.diff` calls
and jet products for the spray, the Christoffel symbols and the Jacobi
operator.  It is slow and kept only as an independent oracle for the frame.
"""

import numpy as np

from finslab.errors import SingularMetric
from finslab.jets import Jet, jet_space


def jet_matrix_inverse(A):
    """Gauss-Jordan inverse of a list-of-lists jet matrix, with partial
    pivoting on the value parts."""
    n = len(A)
    space = A[0][0].space
    work = [row[:] for row in A]
    inv = [[Jet.constant(space, 1.0 if i == j else 0.0) for j in range(n)]
           for i in range(n)]
    scale = max(abs(work[i][j].value) for i in range(n) for j in range(n))
    for col in range(n):
        pivot_row = max(range(col, n), key=lambda r: abs(work[r][col].value))
        if abs(work[pivot_row][col].value) <= 1e-12 * max(scale, 1e-300):
            raise SingularMetric("fundamental tensor is degenerate at this sample")
        work[col], work[pivot_row] = work[pivot_row], work[col]
        inv[col], inv[pivot_row] = inv[pivot_row], inv[col]
        piv = work[col][col].reciprocal()
        work[col] = [piv * e for e in work[col]]
        inv[col] = [piv * e for e in inv[col]]
        for row in range(n):
            if row == col:
                continue
            factor = work[row][col]
            work[row] = [a - factor * b for a, b in zip(work[row], work[col])]
            inv[row] = [a - factor * b for a, b in zip(inv[row], inv[col])]
    return inv


def values(table) -> np.ndarray:
    return np.array([[e.value for e in row] for row in table])


class ReferenceFrame:
    """g, g^{-1}, the spray, the Christoffel symbols and the Jacobi operator
    of one metric jet of order k, each jet a separate `Jet`."""

    def __init__(self, m, v, order=4):
        self.n = n = v.dim
        self.order = order
        self.y = np.asarray(v.y, dtype=float)
        self.L = L = m.jet(v, order)
        self.g = [[0.5 * L.diff(n + i).diff(n + j) for j in range(n)]
                  for i in range(n)]
        self.ginv = jet_matrix_inverse(self.g)
        space = jet_space(2 * n, order - 2)
        yvars = [Jet.variable(space, n + k, float(self.y[k])) for k in range(n)]
        rhs = []
        for l in range(n):
            dl = L.diff(n + l)
            acc = -L.diff(l).truncated(order - 2)
            for k in range(n):
                acc = acc + dl.diff(k) * yvars[k]
            rhs.append(acc)
        self.G = []
        for i in range(n):
            acc = Jet.constant(space, 0.0)
            for l in range(n):
                acc = acc + self.ginv[i][l] * rhs[l]
            self.G.append(0.25 * acc)
        self.N = [[self.G[i].diff(n + j) for j in range(n)] for i in range(n)]

    def christoffel(self) -> np.ndarray:
        n = self.n
        delta = np.empty((n, n, n))     # [i, j, k] = delta_k g_ij
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    jet = self.g[i][j]
                    delta[i, j, k] = jet.diff(k).value - sum(
                        self.N[m_][k].value * jet.diff(n + m_).value
                        for m_ in range(n))
        ginv = values(self.ginv)
        gamma = np.empty((n, n, n))
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    gamma[k, i, j] = 0.5 * sum(
                        ginv[k, l] * (delta[l, j, i] + delta[i, l, j] - delta[i, j, l])
                        for l in range(n))
        return gamma

    def jacobi_matrix(self) -> np.ndarray:
        n = self.n
        G = self.G
        Gv = np.array([gj.value for gj in G])
        dGdx = np.array([[G[i].diff(k).value for k in range(n)] for i in range(n)])
        dGdy = np.array([[G[i].diff(n + j).value for j in range(n)] for i in range(n)])
        d2G_xy = np.array([[[G[i].diff(j).diff(n + k).value for k in range(n)]
                            for j in range(n)] for i in range(n)])
        d2G_yy = np.array([[[G[i].diff(n + j).diff(n + k).value for k in range(n)]
                            for j in range(n)] for i in range(n)])
        R = (2.0 * dGdx
             - np.einsum("j,ijk->ik", self.y, d2G_xy)
             + 2.0 * np.einsum("j,ijk->ik", Gv, d2G_yy)
             - dGdy @ dGdy)
        return -R
