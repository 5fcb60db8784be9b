"""Acceptance suite: every exit criterion as one test, each printing a
single pass/fail line.  Run with `pytest tests/test_acceptance.py -v -s`.

All tolerances are pinned here; the independent oracles are finite
differences of the raw metric scalar, textbook symbols of quadratic
coefficient matrices, closed-form sphere solutions, and Richardson
differentiation of the energy in the variation parameter.
"""

import time

import numpy as np

from finslab import (conformal, connection, dsl, experiments, geodesics, jets,
                     tensors, variational)
import finitediff
import sphere_reference
from conftest import lightlike_start, margin_sample
from test_connection import (compatibility_residual, levi_civita_oracle,
                             warped_quadratic_matrix)

CORE_METRICS = ("minkowski3", "einstein-static", "bogoslovsky2")


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def test_tensor_identities():
    start = time.perf_counter()
    worst = {"pairing": 0.0, "scale": 0.0, "radial": 0.0, "cartan-scale": 0.0}
    for name in CORE_METRICS:
        m = dsl.builtin_metric(name)
        rng = np.random.default_rng(101)
        for v in dsl.sample_admissible(m, rng, count=200):
            g = tensors.fundamental_tensor(m, v)
            L = m.value_at(v)
            worst["pairing"] = max(worst["pairing"],
                                   abs(g.pair(v.y, v.y) - L) / max(1.0, abs(L)))
            g2 = tensors.fundamental_tensor(m, v.scaled(2.0))
            worst["scale"] = max(worst["scale"], float(np.abs(g2.matrix - g.matrix).max()))
            C = tensors.cartan_tensor(m, v).array
            worst["radial"] = max(worst["radial"],
                                  float(np.abs(np.einsum("ijk,i->jk", C, v.y)).max()))
            C2 = tensors.cartan_tensor(m, v.scaled(2.0)).array
            worst["cartan-scale"] = max(worst["cartan-scale"],
                                        float(np.abs(2.0 * C2 - C).max()))
    elapsed = time.perf_counter() - start
    ok = (worst["pairing"] <= 1e-9 and worst["scale"] <= 1e-10
          and worst["radial"] <= 1e-10 and worst["cartan-scale"] <= 1e-10
          and elapsed < 5.0)
    report("tensor-identities", ok,
           f"pairing={worst['pairing']:.2e} scale={worst['scale']:.2e} "
           f"radial={worst['radial']:.2e} cartan={worst['cartan-scale']:.2e} "
           f"runtime={elapsed:.2f}s")


def test_connection_axioms():
    start = time.perf_counter()
    drift = 0.0
    residual = 0.0
    for name in ("minkowski3", "einstein-static", "bogoslovsky2-warped"):
        m = dsl.builtin_metric(name)
        rng = np.random.default_rng(202)
        for _ in range(50):
            residual = max(residual, compatibility_residual(m, rng))
        for v in dsl.sample_admissible(m, rng, count=10):
            gamma = connection.ConnectionFrame(m, v, order=3).christoffel()
            drift = max(drift, float(np.abs(gamma - np.transpose(gamma, (0, 2, 1))).max()))
    elapsed = time.perf_counter() - start
    ok = drift <= 1e-13 and residual <= 1e-6 and elapsed < 10.0
    report("connection-axioms", ok,
           f"torsion-drift={drift:.2e} compatibility={residual:.2e} "
           f"runtime={elapsed:.2f}s")


def test_levi_civita_reduction():
    worst_gamma = 0.0
    worst_cartan = 0.0
    cases = [("warped-quadratic", warped_quadratic_matrix),
             ("einstein-static",
              lambda x: np.diag([-1.0, 1.0, np.sin(x[1]) ** 2]))]
    for name, A_fn in cases:
        m = dsl.builtin_metric(name)
        rng = np.random.default_rng(303)
        for v in dsl.sample_admissible(m, rng, count=25):
            gamma = connection.ConnectionFrame(m, v, order=3).christoffel()
            gamma_lc = levi_civita_oracle(A_fn, v.x)
            worst_gamma = max(worst_gamma, float(np.abs(gamma - gamma_lc).max()))
            worst_cartan = max(worst_cartan,
                               float(np.abs(tensors.cartan_tensor(m, v).array).max()))
    ok = worst_gamma <= 1e-8 and worst_cartan <= 1e-13
    report("levi-civita-reduction", ok,
           f"gamma={worst_gamma:.2e} cartan={worst_cartan:.2e}")


def test_geodesic_conservation_and_order():
    es = dsl.builtin_metric("einstein-static")
    drift = 0.0
    iota = 0.8
    runs = [
        (es, np.array([0.0, np.pi / 2, 0.0]),
         np.array([1.0, -np.sin(iota), np.cos(iota)])),
        (dsl.builtin_metric("bogoslovsky2-warped"), np.array([0.0, 0.0]),
         np.array([2.0, 1.0])),
    ]
    for m, x0, v0 in runs:
        curve = geodesics.integrate_geodesic(m, x0, v0, (0.0, 1.0), 1e-3)
        L0 = m.value(x0, v0)
        drift = max(drift, max(abs(m.value(x, y) - L0)
                               for x, y in zip(curve.positions, curve.velocities)))

    speed = 8.0
    x0 = np.array([0.0, np.pi / 2, 0.0])
    v0 = np.array([speed, -speed * np.sin(iota), speed * np.cos(iota)])
    position, spatial = sphere_reference.exact_tilted_circle(x0, v0)
    errors = []
    steps = [4e-3, 2e-3, 1e-3, 5e-4]
    for h in steps:
        c = geodesics.integrate_geodesic(es, x0, v0, (0.0, 1.0), h)
        q = experiments.embed(c.positions[-1, 1], c.positions[-1, 2])
        errors.append(np.linalg.norm(q - spatial(1.0))
                      + abs(c.positions[-1, 0] - position(1.0)[0]))
    A = np.vstack([np.log(steps), np.ones(len(steps))]).T
    slope = float(np.linalg.lstsq(A, np.log(errors), rcond=None)[0][0])
    ok = drift <= 1e-8 and 3.7 <= slope <= 4.3
    report("geodesic-conservation-order", ok,
           f"drift={drift:.2e} slope={slope:.3f}")


def test_variation_formulas():
    es = dsl.builtin_metric("einstein-static")
    mk = dsl.builtin_metric("minkowski3")
    lam = dsl.builtin_metric("theta-weight")
    setups = [
        ("flat", mk, None, np.zeros(3), np.array([1.0, 0.8, 0.3])),
        ("sphere", es, None, np.array([0.0, np.pi / 2, 0.0]), np.array([1.0, 0.25, 1.0])),
        ("sphere-aniso", es, lam, np.array([0.0, np.pi / 2, 0.0]), np.array([1.0, 0.25, 1.0])),
    ]
    worst1 = worst2 = 0.0
    rng = np.random.default_rng(404)
    for label, m, factor, x0, v0 in setups:
        start = lightlike_start(m, x0, v0)
        metric_for_curve = m
        if factor is not None:
            metric_for_curve = conformal.scale_metric(m, factor, sample_budget=8, seed=1)
        curve = geodesics.integrate_geodesic(metric_for_curve, start.x, start.y,
                                             (0.0, 1.0), 2e-3)
        geom = variational.CurveGeometry(curve, m, factor)
        span = curve.t1 - curve.t0
        for _ in range(3):
            c1, c2 = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)

            def shape(t):
                tau = (t - curve.t0) / span
                return np.sin(np.pi * tau) * c1 + tau * (1 - tau) * c2

            W = variational.VariationField.affine(geom, shape)
            first = variational.first_variation(geom, W)
            second = variational.second_variation(geom, W)
            fd1, fd2 = variational.energy_derivative_fd(curve, W, factor, m)
            worst1 = max(worst1, abs(first - fd1))
            worst2 = max(worst2, abs(second - fd2))
    ok = worst1 <= 1e-6 and worst2 <= 1e-5
    report("variation-formulas", ok, f"first={worst1:.2e} second={worst2:.2e}")


def test_shared_lightcone_factor():
    cone = dsl.builtin_metric("minkowski2-cone")
    bogo = dsl.builtin_metric("bogoslovsky2")
    pair = conformal.ConformalPair(cone, bogo, sample_budget=48, seed=505)
    coincide = conformal.lightcones_coincide(pair)

    rng = np.random.default_rng(606)
    worst_factor = 0.0
    spread = 0.0
    checked = 0
    for v in dsl.sample_admissible(cone, rng, count=120):
        mu = conformal.anisotropy_factor(pair, v)
        closed = ((v.y[0] - v.y[1]) / (v.y[0] + v.y[1])) ** 0.3
        worst_factor = max(worst_factor, abs(mu - closed) / max(1.0, abs(closed)))
        checked += 1
    for exponent in (2, 3, 4, 5, 6):
        for v in dsl.sample_admissible(cone, rng, count=16):
            star = geodesics.project_to_lightcone(cone, v, [1.0, 0.0])
            star = star.scaled(1.0 / np.linalg.norm(star.y))
            off = dsl.TangentSample(star.x,
                                    star.y + 10.0 ** -exponent * np.array([1.0, 0.0]))
            if not cone.admissible(off):
                continue
            mu = conformal.anisotropy_factor(pair, off)
            closed = ((off.y[0] - off.y[1]) / (off.y[0] + off.y[1])) ** 0.3
            worst_factor = max(worst_factor, abs(mu - closed) / max(1.0, abs(closed)))
            checked += 1
    for v in dsl.sample_admissible(cone, rng, count=10):
        values = [conformal.anisotropy_factor(pair, v, w=rng.uniform(-1, 1, 2))
                  for _ in range(10)]
        spread = max(spread, max(values) - min(values))
    ok = (coincide.verdict and coincide.max_violation <= 1e-8
          and checked >= 200 and worst_factor <= 1e-8 and spread <= 1e-9)
    report("shared-lightcone-factor", ok,
           f"violation={coincide.max_violation:.2e} factor={worst_factor:.2e} "
           f"spread={spread:.2e} samples={checked}")


def test_conformal_pregeodesic(einstein, theta_weight, scaled_einstein):
    x0, v0 = sphere_reference.tilted_null_data(np.pi / 2 - 0.6)
    start = lightlike_start(einstein, x0, v0)
    curve = geodesics.integrate_geodesic(scaled_einstein, start.x, start.y,
                                         (0.0, 1.0), 1e-3)
    base_residual = geodesics.pregeodesic_residual(curve, einstein, theta_weight)
    rep, tilde = geodesics.reparametrize_conformal(curve, theta_weight, scaled_einstein)
    tilde_residual = geodesics.pregeodesic_residual(tilde, einstein, None)
    rep_back, _ = geodesics.reparametrize_conformal(
        tilde, conformal.inverse_factor(theta_weight), einstein)
    probe = np.linspace(tilde.t0, tilde.t1 * 0.999, 41)
    round_trip = float(np.abs(rep_back(rep(probe)) - probe).max())
    ok = base_residual <= 1e-6 and tilde_residual <= 1e-6 and round_trip <= 1e-8
    report("conformal-pregeodesic", ok,
           f"scaled-residual={base_residual:.2e} "
           f"reparam-residual={tilde_residual:.2e} round-trip={round_trip:.2e}")


def test_jacobi_transfer(tilted_transfer):
    b = tilted_transfer
    interior = variational.conformal_jacobi_residual(b.geometry, b.jacobi_hat)
    Q = variational.SubmanifoldPatch.from_point(b.curve.positions[-1])
    boundary = variational.boundary_residual(b.geometry, b.jacobi_hat, b.patch, Q)
    ok = (interior <= 1e-5 and boundary <= 1e-6
          and b.h[0] == 0.0 and b.h[-1] == 0.0)
    report("jacobi-transfer", ok,
           f"interior={interior:.2e} boundary={boundary:.2e} "
           f"h-ends=({b.h[0]!r},{b.h[-1]!r})")


def test_focal_correspondence(einstein, theta_weight, scaled_einstein,
                              equatorial_conjugate, latitude_focal):
    # oracle for the conjugate point: the theta-slot solves u'' = -u, so the
    # first zero past the start sits at pi
    base = equatorial_conjugate.focal
    base_ok = (len(base) == 1 and abs(base[0].parameter - np.pi) <= 1e-5
               and base[0].multiplicity == 1)

    x0 = np.array([0.0, np.pi / 2, 0.0])
    start = lightlike_start(einstein, x0, np.array([1.0, 0.0, 1.0]))
    v_scaled = start.y / theta_weight.value_at(start)
    curve = geodesics.integrate_geodesic(scaled_einstein, start.x, v_scaled,
                                         (0.0, 3.3), 5e-3)
    patch = variational.SubmanifoldPatch.from_point(start.x)
    corr = variational.verify_focal_correspondence(
        curve, patch, theta_weight, einstein, scaled=scaled_einstein)
    pair_ok = (corr.matched and len(corr.pairs) == 1
               and corr.pairs[0].pairing_error is not None
               and corr.pairs[0].pairing_error <= 1e-4
               and corr.pairs[0].base_multiplicity == 1
               and corr.pairs[0].scaled_multiplicity == 1)

    # oracle for the circle: u(s) = cos s - cot(rho) sin s vanishes at rho
    lat = latitude_focal.focal
    lat_ok = (len(lat) == 1 and abs(lat[0].parameter - np.pi / 4) <= 1e-5
              and lat[0].multiplicity == 1)
    ok = base_ok and pair_ok and lat_ok
    detail = (f"conjugate={base[0].parameter:.8f} " if base else "conjugate=none ")
    detail += (f"pairing={corr.pairs[0].pairing_error:.2e} "
               if corr.pairs and corr.pairs[0].pairing_error is not None
               else "pairing=none ")
    detail += (f"circle={lat[0].parameter:.8f}" if lat else "circle=none")
    report("focal-correspondence", ok, detail)


def test_jet_engine():
    fd_step = {1: 5e-3, 2: 0.01, 3: 0.02, 4: 0.03}
    margins = {"minkowski3": 0.0, "einstein-static": 0.2, "bogoslovsky2": 0.6,
               "bogoslovsky2-warped": 0.6, "warped-quadratic": 0.0}
    rng = np.random.default_rng(707)
    worst_fd = 0.0
    count = 0
    for name, margin in margins.items():
        m = dsl.builtin_metric(name)
        n = m.dim
        for _ in range(20):
            v = margin_sample(m, rng, margin=margin, min_norm=0.6)
            jet = m.jet(v, 4)
            point = np.concatenate([v.x, v.y])

            def f(p):
                return m.value(p[:n], p[n:])

            for order in range(1, 5):
                slots = rng.integers(0, 2 * n, size=order)
                alpha = tuple(np.bincount(slots, minlength=2 * n))
                jv = jet.derivative(alpha)
                fv = finitediff.partial_derivative(f, point, alpha, h=fd_step[order])
                worst_fd = max(worst_fd, abs(jv - fv) / max(1.0, abs(fv)))
            count += 1

    # polynomial exactness at degree 4
    worst_poly = 0.0
    for _ in range(50):
        a, b, c = rng.uniform(-2, 2, 3)
        x0, x1 = rng.uniform(-1, 1, 2)
        y0, y1 = rng.uniform(-1, 1, 2)
        space = jets.jet_space(4, 4)
        xs = [jets.Jet.variable(space, i, v) for i, v in enumerate((x0, x1))]
        ys = [jets.Jet.variable(space, 2 + i, v) for i, v in enumerate((y0, y1))]
        poly = a * xs[0] ** 2 * ys[0] ** 2 + b * ys[0] * ys[1] ** 3 + c * xs[1] * ys[1]
        worst_poly = max(
            worst_poly,
            abs(poly.derivative((1, 0, 1, 0)) - 4 * a * x0 * y0),
            abs(poly.derivative((0, 0, 1, 3)) - 6 * b),
            abs(poly.derivative((2, 0, 2, 0)) - 4 * a),
            abs(poly.derivative((0, 1, 0, 1)) - c))
    ok = worst_fd <= 1e-6 and worst_poly <= 1e-13 and count == 100
    report("jet-engine", ok,
           f"fd-agreement={worst_fd:.2e} poly-exactness={worst_poly:.2e} "
           f"samples={count}")
