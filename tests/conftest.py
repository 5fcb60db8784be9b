"""Shared fixtures: metric handles, sampling helpers, and the product-sphere
experiment bundles reused by both the module tests and the acceptance suite.

The heavy pipelines (tilted-geodesic transfer, conjugate-point runs) are
session-scoped so each is integrated once per test run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

import finslab
from finslab import dsl, experiments, geodesics, variational
import sphere_reference


def margin_sample(m, rng, margin=0.0, min_norm=0.0, tries=2000):
    """Admissible sample with every domain predicate above a margin (keeps
    finite-difference stencils inside the domain)."""
    for _ in range(tries):
        v = dsl.sample_admissible(m, rng, count=1)[0]
        point = v.x.tolist() + v.y.tolist()
        if margin and not all(dsl.Tape((p,), m.dim).floats(point)[0] > margin
                              for p in m.domain):
            continue
        if np.linalg.norm(v.y) < min_norm:
            continue
        return v
    raise RuntimeError(f"no sample with margin {margin} for {m.name}")


def jacobi_field(curve, m, J0, K0):
    """The Jacobi field along the geodesic `curve` of m with J(t0) = J0 and
    DJ(t0) = K0, as the one column of `integrate_jacobi_basis`."""
    J0, K0 = (np.asarray(a, dtype=float)[:, None] for a in (J0, K0))
    return variational.integrate_jacobi_basis(curve, m, J0, K0)[0]


def lightlike_start(m, x0, v0):
    from finslab.tensors import legendre

    s = dsl.TangentSample(x0, v0)
    ell = legendre(m, s)
    w = np.zeros(s.dim)
    w[int(np.argmax(np.abs(ell)))] = 1.0
    return geodesics.project_to_lightcone(m, s, w)


@pytest.fixture(scope="session")
def minkowski2():
    return dsl.builtin_metric("minkowski2")


@pytest.fixture(scope="session")
def minkowski3():
    return dsl.builtin_metric("minkowski3")


@pytest.fixture(scope="session")
def einstein():
    return dsl.builtin_metric("einstein-static")


@pytest.fixture(scope="session")
def bogoslovsky():
    return dsl.builtin_metric("bogoslovsky2")


@pytest.fixture(scope="session")
def theta_weight():
    return dsl.builtin_metric("theta-weight")


@pytest.fixture(scope="session")
def scaled_einstein(einstein, theta_weight):
    return finslab.scale_metric(einstein, theta_weight, sample_budget=16, seed=0)


@dataclass
class TransferBundle:
    """Everything produced by the tilted-circle conformal transfer pipeline."""
    base: object            # base metric
    factor: object
    scaled: object
    curve: object           # scaled-metric lightlike geodesic on [0, b]
    rep: object             # parameter map mu -> t
    tilde: object           # base-metric reparametrization, spans [0, ~rho]
    patch: object           # geodesic circle orthogonal at the start
    radius: float
    jacobi_tilde: object    # endpoint-constrained Jacobi field along tilde
    jacobi_hat: object      # transferred field along curve
    h: np.ndarray           # velocity-multiple correction samples
    geometry: object        # CurveGeometry of (curve, base, factor)


@pytest.fixture(scope="session")
def tilted_transfer(einstein, theta_weight, scaled_einstein) -> TransferBundle:
    rho = np.pi / 4
    theta_c = np.pi / 2 - 0.6
    x0, v0 = sphere_reference.tilted_null_data(theta_c)
    lam0 = theta_weight.value(x0, v0)
    h = 2e-3
    pilot = geodesics.integrate_geodesic(scaled_einstein, x0, v0 / lam0, (0, 1.0), h)
    rep_pilot, _ = geodesics.reparametrize_conformal(pilot, theta_weight, scaled_einstein)
    b = float(rep_pilot(rho))
    curve = geodesics.integrate_geodesic(scaled_einstein, x0, v0 / lam0, (0, b), h)
    rep, tilde = geodesics.reparametrize_conformal(curve, theta_weight, scaled_einstein)
    patch = experiments.great_circle_patch(x0, v0, rho)

    tangent_unit = np.array([0.0, -1.0, 0.0])
    sff = variational._normal_sff_matrix(patch, tilde.velocities[0], einstein)
    coeff = np.linalg.lstsq(patch.tangent_basis(), tangent_unit, rcond=None)[0]
    jac_tilde = jacobi_field(tilde, einstein, tangent_unit, sff @ coeff)
    geometry = variational.CurveGeometry(curve, einstein, theta_weight)
    jac_hat, h_corr = variational.transfer_jacobi(geometry, jac_tilde, rep)
    return TransferBundle(
        base=einstein, factor=theta_weight, scaled=scaled_einstein,
        curve=curve, rep=rep, tilde=tilde, patch=patch, radius=rho,
        jacobi_tilde=jac_tilde, jacobi_hat=jac_hat, h=h_corr, geometry=geometry)


@dataclass
class ConjugateBundle:
    curve: object
    patch: object
    focal: list


@pytest.fixture(scope="session")
def equatorial_conjugate(einstein) -> ConjugateBundle:
    x0 = np.array([0.0, np.pi / 2, 0.0])
    curve = geodesics.integrate_geodesic(einstein, x0, [1.0, 0.0, 1.0], (0.0, 3.3), 5e-3)
    patch = variational.SubmanifoldPatch.from_point(x0)
    focal = variational.find_focal_points(curve, patch, einstein)
    return ConjugateBundle(curve, patch, focal)


@pytest.fixture(scope="session")
def latitude_focal(einstein) -> ConjugateBundle:
    x0 = np.array([0.0, np.pi / 2, 0.0])
    v0 = np.array([1.0, 0.0, 1.0])
    curve = geodesics.integrate_geodesic(einstein, x0, v0, (0.0, 1.2), 5e-3)
    patch = experiments.great_circle_patch(x0, v0, np.pi / 4)
    focal = variational.find_focal_points(curve, patch, einstein)
    return ConjugateBundle(curve, patch, focal)
