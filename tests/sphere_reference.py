"""Closed-form lightlike data and solutions on the product of a time line
with a round sphere, chart (t, theta, phi): the test data and the exact
oracle of the geodesic tests; and the product R x S^(n-1) in hyperspherical
angles, whose null geodesics from a point refocus at a known parameter with
a known multiplicity, the oracle of the focal tests."""

import numpy as np

from finslab import dsl
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


# R x S^(n-1), chart (t, x1, ..., x_{n-1}) with x1, ..., x_{n-2} polar angles:
# the metric body and its domain, where sin of each polar angle is positive
PRODUCT_SPHERES = {
    4: ("-y0^2 + y1^2 + sin(x1)^2*(y2^2 + sin(x2)^2*y3^2)", "sin(x1); sin(x2)"),
    5: ("-y0^2 + y1^2 + sin(x1)^2*(y2^2 + sin(x2)^2*(y3^2 + sin(x3)^2*y4^2))",
        "sin(x1); sin(x2); sin(x3)"),
}


def product_sphere(n: int):
    """The static product R x S^(n-1) of PRODUCT_SPHERES as a definition."""
    body, domain = PRODUCT_SPHERES[n]
    return dsl.parse_metric(body, n, domain=tuple(domain.split("; ")),
                            name=f"r-s{n - 1}")


def equatorial_null_start(n: int) -> tuple[np.ndarray, np.ndarray]:
    """x0 with every polar angle pi/2, and the null direction of unit
    spatial speed along the last angle: the null lift of a great circle.

    The null geodesics from the point x0 refocus after spatial arc pi, at
    the antipode, with multiplicity n - 2.  The Jacobi fields from x0 along
    the n - 2 sphere directions normal to the circle go as sin(s) (the unit
    sphere has curvature 1); those along the velocity and along the time
    line grow linearly and do not vanish."""
    x0 = np.array([0.0] + [np.pi / 2] * (n - 2) + [0.0])
    v0 = np.zeros(n)
    v0[0] = v0[-1] = 1.0
    return x0, v0
