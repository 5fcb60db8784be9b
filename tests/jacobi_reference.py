"""Reference Jacobi integrations with one connection frame per RK stage.

Every stage reads the curve's dense output at its own time and builds its
own frame, with no cache and no table.  All three are slow and kept only as
oracles for `integrate_jacobi_basis`:

- `integrate_propagated_per_stage` integrates the same formulation as the
  table path, the linearized spray Jdd = -2 dG (J, Jd) on order-3 frames,
  the same way: each step is the matrix that `rk4_step` makes of the
  identity, applied to the state, so the table path must reproduce it bit
  for bit;
- `integrate_linearized_per_stage` steps the state itself under the same
  equation; it differs from the propagators only by rounding;
- `integrate_jacobi_per_stage` is an independent formulation: D^2 J = A J
  on (J, DJ), reading Gamma(y) y and the Jacobi operator A from order-4
  frames.  The two formulations agree up to the RK4 truncation error.
"""

import numpy as np

from finslab.connection import ConnectionFrame
from finslab.dsl import TangentSample
from finslab.geodesics import rk4_step


def _frame(curve, m, t, order):
    return ConnectionFrame(m, TangentSample(curve.position(t), curve.velocity(t)), order)


def integrate_linearized_per_stage(curve, m, J0, K0):
    """(J, K, J_dot) arrays of shape (npts, n, nfields), from (J, Jd) under
    Jdd = -2 dG (J, Jd), started at Jd = K0 - N J0, with K = Jd + N J."""
    grid = curve.grid
    n = curve.dim
    J = np.asarray(J0, dtype=float).reshape(n, -1)
    nf = J.shape[1]

    def rhs(t, S):
        dG = _frame(curve, m, t, 3).spray_gradient()
        return np.array([S[1], -2.0 * (dG @ S.reshape(2 * n, nf))])

    def nonlinear(t):
        return _frame(curve, m, t, 3).spray_gradient()[:, n:]

    S = np.array([J, np.asarray(K0, dtype=float).reshape(n, -1) - nonlinear(grid[0]) @ J])
    Js, Jdots = np.empty((2, grid.size, n, nf))
    Js[0], Jdots[0] = S
    for idx in range(grid.size - 1):
        t, h = grid[idx], grid[idx + 1] - grid[idx]
        S = rk4_step(rhs, t, S, h, k1=rhs(t, S))
        Js[idx + 1], Jdots[idx + 1] = S
    Ks = np.array([Jd + nonlinear(t) @ J for t, J, Jd in zip(grid, Js, Jdots)])
    return Js, Ks, Jdots


def integrate_propagated_per_stage(curve, m, J0, K0):
    """(J, K, J_dot) arrays of shape (npts, n, nfields): S = (J, Jd), started
    at Jd = K0 - N J0, goes S -> P S with P the RK4 step of the identity
    under S' = A S, A = [[0, I], -2 dG], and K = Jd + N J."""
    grid = curve.grid
    n = curve.dim
    J = np.asarray(J0, dtype=float).reshape(n, -1)

    def rhs(t, S):
        dG = _frame(curve, m, t, 3).spray_gradient()
        return np.vstack([np.eye(n, 2 * n, n), -2.0 * dG]) @ S

    def nonlinear(t):
        return _frame(curve, m, t, 3).spray_gradient()[:, n:]

    S = np.vstack([J, np.asarray(K0, dtype=float).reshape(n, -1) - nonlinear(grid[0]) @ J])
    states = [S]
    for idx in range(grid.size - 1):
        t, h, eye = grid[idx], grid[idx + 1] - grid[idx], np.eye(2 * n)
        S = rk4_step(rhs, t, eye, h, k1=rhs(t, eye)) @ S
        states.append(S)
    states = np.array(states)
    Js, Jdots = states[:, :n], states[:, n:]
    Ks = np.array([Jd + nonlinear(t) @ J for t, J, Jd in zip(grid, Js, Jdots)])
    return Js, Ks, Jdots


def integrate_jacobi_per_stage(curve, m, J0, K0):
    """(J, K, J_dot) arrays of shape (npts, n, nfields), from (J, K) under
    D^2 J = A J with DJ = K."""
    grid = curve.grid
    n = curve.dim
    J = np.asarray(J0, dtype=float).reshape(n, -1)
    K = np.asarray(K0, dtype=float).reshape(n, -1)
    shape = (grid.size, n, J.shape[1])
    Js, Ks, Jdots = np.empty(shape), np.empty(shape), np.empty(shape)

    def rhs(t, S):
        J, K = S
        fr = _frame(curve, m, t, 4)
        gamma_y = np.einsum("kij,j->ki", fr.christoffel(), curve.velocity(t))
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
