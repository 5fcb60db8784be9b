"""Canonical experiment geometry on the product of a time line with a round
sphere, shared by the command-line harness and the test suite.

The chart is (t, theta, phi) with the sphere embedded in R^3 as
(sin(theta)cos(phi), sin(theta)sin(phi), cos(theta)).  Spatial geodesics are
great circles; their null lifts are lightlike geodesics of the product.
Everything here is built to stay away from the chart poles.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .variational import SubmanifoldPatch

__all__ = ["embed", "chart", "great_circle_patch"]


def embed(theta: float, phi: float) -> np.ndarray:
    return np.array([np.sin(theta) * np.cos(phi),
                     np.sin(theta) * np.sin(phi),
                     np.cos(theta)])


def chart(q: np.ndarray) -> np.ndarray:
    return np.array([np.arccos(np.clip(q[2], -1.0, 1.0)),
                     np.arctan2(q[1], q[0])])


def _spatial_frame(x0, v0) -> tuple[np.ndarray, np.ndarray, float]:
    """Embedded start point, embedded unit tangent, and the spatial speed.
    Data off the chart (t, theta, phi), or with no spatial motion, is a
    ConfigError."""
    if len(x0) != 3 or len(v0) != 3:
        raise ConfigError("the sphere geometry needs the chart (t, theta, phi); "
                          f"got x0 and v0 of dimension {len(x0)} and {len(v0)}")
    theta, phi = float(x0[1]), float(x0[2])
    p = embed(theta, phi)
    d_theta = np.array([np.cos(theta) * np.cos(phi),
                        np.cos(theta) * np.sin(phi),
                        -np.sin(theta)])
    d_phi = np.array([-np.sin(theta) * np.sin(phi),
                      np.sin(theta) * np.cos(phi),
                      0.0])
    tangent = v0[1] * d_theta + v0[2] * d_phi
    speed = float(np.linalg.norm(tangent))
    if not speed > 0.0:
        raise ConfigError("v0 has no spatial direction at x0, so it fixes no great circle")
    return p, tangent / speed, speed


def great_circle_patch(x0, v0, rho: float) -> SubmanifoldPatch:
    """Geodesic circle of radius rho on the sphere factor, centered at the
    point at spatial distance rho ahead of (x0, v0) along its great circle.

    The circle passes through x0's spatial point orthogonally to the track,
    so the null lift of the track leaves it orthogonally and focuses at the
    center after arc rho.  Embedded in the time slice of x0."""
    p, tangent, _ = _spatial_frame(x0, v0)
    t_slice = float(x0[0])
    center = np.cos(rho) * p + np.sin(rho) * tangent
    u = (p - np.cos(rho) * center) / np.sin(rho)
    w = np.cross(center, u)

    def jet(alpha):
        a = float(np.atleast_1d(alpha)[0])
        arc = np.cos(a) * u + np.sin(a) * w
        q = np.cos(rho) * center + np.sin(rho) * arc
        dq = np.sin(rho) * (np.cos(a) * w - np.sin(a) * u)
        ddq = -np.sin(rho) * arc
        th, ph = chart(q)
        # chain rule through theta = arccos(q2) and phi = atan2(q1, q0)
        s = np.sqrt(1.0 - q[2] ** 2)
        r2 = q[0] ** 2 + q[1] ** 2
        turn = q[0] * dq[1] - q[1] * dq[0]
        first = [0.0, -dq[2] / s, turn / r2]
        second = [0.0, -ddq[2] / s - q[2] * dq[2] ** 2 / s ** 3,
                  (q[0] * ddq[1] - q[1] * ddq[0]) / r2
                  - 2.0 * turn * (q[0] * dq[0] + q[1] * dq[1]) / r2 ** 2]
        return (np.array([t_slice, th, ph]), np.array(first)[:, None],
                np.array(second)[:, None, None])

    return SubmanifoldPatch(1, jet, [0.0], name=f"circle(rho={rho:g})")
