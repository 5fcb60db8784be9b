"""Closed-form lightlike data and solutions on the product of a time line
with a round sphere, chart (t, theta, phi): the test data and the exact
oracle of the geodesic tests."""

import numpy as np

from finslab.experiments import _spatial_frame, chart


def tilted_null_data(theta_c: float, speed: float = 1.0
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Lightlike initial data whose spatial track is the great circle through
    colatitude theta_c heading along the chart-east direction."""
    x0 = np.array([0.0, theta_c, 0.0])
    v0 = np.array([speed, 0.0, speed / np.sin(theta_c)])
    return x0, v0


def exact_tilted_circle(x0, v0):
    """Closed-form chart solution of the null lift of a great circle.

    Returns callables t -> position, t -> embedded spatial point."""
    p, tangent, speed = _spatial_frame(x0, v0)
    t0 = float(x0[0])
    yt = float(v0[0])

    def spatial(t):
        s = speed * t
        return np.cos(s) * p + np.sin(s) * tangent

    def position(t):
        th, ph = chart(spatial(t))
        return np.array([t0 + yt * t, th, ph])

    return position, spatial
