"""Reference Jacobi integration with one connection frame per RK stage.

This is the per-stage path the table-driven `integrate_jacobi_basis`
replaced: every stage reads the curve's dense output at its own time and
builds its own order-4 frame, with no cache and no table.  It is slow and
kept only as an oracle for the table path.
"""

import numpy as np

from finslab.connection import ConnectionFrame
from finslab.dsl import TangentSample
from finslab.geodesics import rk4_step


def integrate_jacobi_per_stage(curve, m, J0, K0):
    """(J, K, J_dot) arrays of shape (npts, n, nfields)."""
    grid = curve.grid
    n = curve.dim
    J = np.asarray(J0, dtype=float).reshape(n, -1)
    K = np.asarray(K0, dtype=float).reshape(n, -1)
    shape = (grid.size, n, J.shape[1])
    Js, Ks, Jdots = np.empty(shape), np.empty(shape), np.empty(shape)

    def rhs(t, S):
        J, K = S
        y = curve.velocity(t)
        fr = ConnectionFrame(m, TangentSample(curve.position(t), y), order=4)
        gamma_y = np.einsum("kij,j->ki", fr.christoffel(), y)
        return np.array([K - gamma_y @ J, fr.jacobi_matrix() @ J - gamma_y @ K])

    S = np.array([J, K])
    dS = rhs(grid[0], S)
    Js[0], Ks[0] = S
    Jdots[0] = dS[0]
    for idx in range(grid.size - 1):
        t, h = grid[idx], grid[idx + 1] - grid[idx]
        S = rk4_step(rhs, t, S, h, k1=dS)
        dS = rhs(grid[idx + 1], S)
        Js[idx + 1], Ks[idx + 1] = S
        Jdots[idx + 1] = dS[0]
    return Js, Ks, Jdots
