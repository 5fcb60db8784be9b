"""Discrete trajectories with cubic-Hermite dense output."""

from __future__ import annotations

import numpy as np

from .numerics import HermiteSpline, not_a_knot_slopes


class DiscreteCurve:
    """Strictly increasing time grid with chart positions, velocities and
    accelerations.

    Dense output is one cubic Hermite over the columns (x | v) with node
    slopes (v | a): positions interpolate (x, v) node data and velocities
    (v, a) node data, so both are accurate to the interpolation order of a
    cubic Hermite between nodes and exact at the nodes.
    """

    def __init__(self, grid: np.ndarray, positions: np.ndarray,
                 velocities: np.ndarray, accelerations: np.ndarray):
        self.grid = np.asarray(grid, dtype=float)
        self.positions = np.asarray(positions, dtype=float)
        self.velocities = np.asarray(velocities, dtype=float)
        self.accelerations = np.asarray(accelerations, dtype=float)
        if not (self.grid.ndim == 1 and self.positions.shape
                == self.velocities.shape == self.accelerations.shape
                == (self.grid.size, self.positions.shape[1])):
            raise ValueError("curve arrays must share the shape (len(grid), n)")
        self._dense = HermiteSpline(
            self.grid, np.hstack((self.positions, self.velocities)),
            np.hstack((self.velocities, self.accelerations)))

    # --- basic queries ----------------------------------------------------

    @property
    def dim(self) -> int:
        return self.positions.shape[1]

    @property
    def t0(self) -> float:
        return float(self.grid[0])

    @property
    def t1(self) -> float:
        return float(self.grid[-1])

    def state(self, t):
        """(position, velocity) at t, from one evaluation of the dense output."""
        s = self._dense(t)
        return s[..., :self.dim], s[..., self.dim:]

    def position(self, t):
        return self.state(t)[0]

    def velocity(self, t):
        return self.state(t)[1]

    def acceleration(self, t):
        return self._dense.derivative(t)[..., self.dim:]

    # --- exports -------------------------------------------------------------

    def to_csv(self, path) -> None:
        """Dump `t,x0..x{n-1},y0..y{n-1}` rows at full double precision."""
        n = self.dim
        header = ",".join(["t"] + [f"x{i}" for i in range(n)] + [f"y{i}" for i in range(n)])
        with open(path, "w") as fh:
            fh.write(header + "\n")
            for k in range(self.grid.size):
                row = [self.grid[k], *self.positions[k], *self.velocities[k]]
                fh.write(",".join(repr(float(v)) for v in row) + "\n")


def spline_derivative(grid: np.ndarray, samples: np.ndarray) -> np.ndarray:
    """Node derivatives of sampled data via a not-a-knot cubic spline."""
    return HermiteSpline(grid, samples, not_a_knot_slopes(grid, samples)).derivative(grid)


class Reparametrization:
    """Strictly increasing parameter map with derivative samples."""

    def __init__(self, grid: np.ndarray, phi: np.ndarray, phidot: np.ndarray):
        self.grid = np.asarray(grid, dtype=float)
        self.phi = np.asarray(phi, dtype=float)
        self.phidot = np.asarray(phidot, dtype=float)
        if np.any(np.diff(self.phi) <= 0) or np.any(self.phidot <= 0):
            raise ValueError("reparametrization must be strictly increasing")
        self._spline = HermiteSpline(self.grid, self.phi, self.phidot)
        # phi is strictly monotone, so the inverse interpolates the swapped data
        self._inverse = HermiteSpline(self.phi, self.grid, 1.0 / self.phidot)

    def __call__(self, mu):
        return self._spline(mu)

    def inverse(self, t):
        return self._inverse(t)
