"""Fundamental and Cartan tensors, Legendre map, metric inverse."""

import numpy as np
import pytest

from finslab import dsl, tensors
from finslab.errors import EvaluationDomainError, InadmissibleSample, SingularMetric
import finitediff


def test_minkowski_fundamental_tensor_is_constant(minkowski3):
    rng = np.random.default_rng(0)
    for v in dsl.sample_admissible(minkowski3, rng, count=10):
        g = tensors.fundamental_tensor(minkowski3, v)
        assert np.allclose(g.matrix, np.diag([-1.0, 1.0, 1.0]), atol=0)


@pytest.mark.parametrize("name", ["minkowski3", "einstein-static", "bogoslovsky2"])
def test_pairing_recovers_the_metric_value(name):
    m = dsl.builtin_metric(name)
    rng = np.random.default_rng(1)
    for v in dsl.sample_admissible(m, rng, count=30):
        g = tensors.fundamental_tensor(m, v)
        L = m.value_at(v)
        assert abs(g.pair(v.y, v.y) - L) <= 1e-12 * max(1.0, abs(L))


def test_bogoslovsky_hessian_matches_finite_differences(bogoslovsky):
    v = dsl.TangentSample([0.0, 0.0], [2.0, 1.0])
    g = tensors.fundamental_tensor(bogoslovsky, v).matrix

    def f(p):
        return bogoslovsky.value([0.0, 0.0], p)

    for i in range(2):
        for j in range(2):
            alpha = tuple(np.bincount([i, j], minlength=2))
            fd = 0.5 * finitediff.partial_derivative(f, v.y, alpha, h=0.01)
            assert abs(g[i, j] - fd) / max(1.0, abs(fd)) < 1e-6


def test_cartan_tensor_vanishes_for_quadratic_metrics(minkowski3):
    v = dsl.TangentSample([0.1, 0.2, -0.3], [1.0, 0.4, 0.2])
    C = tensors.cartan_tensor(minkowski3, v)
    assert np.abs(C.array).max() == 0.0


@pytest.mark.parametrize("name", ["einstein-static", "bogoslovsky2"])
def test_cartan_radial_contraction_vanishes(name):
    m = dsl.builtin_metric(name)
    rng = np.random.default_rng(2)
    for v in dsl.sample_admissible(m, rng, count=20):
        C = tensors.cartan_tensor(m, v)
        for axis in range(3):
            contracted = np.tensordot(C.array, v.y, axes=([axis], [0]))
            assert np.abs(contracted).max() <= 1e-10


def test_cartan_inverse_scaling(bogoslovsky):
    rng = np.random.default_rng(3)
    for v in dsl.sample_admissible(bogoslovsky, rng, count=20):
        C = tensors.cartan_tensor(bogoslovsky, v).array
        C2 = tensors.cartan_tensor(bogoslovsky, v.scaled(2.0)).array
        assert np.abs(2.0 * C2 - C).max() <= 1e-10


def test_cartan_total_symmetry_is_structural(bogoslovsky):
    v = dsl.TangentSample([0.0, 0.0], [2.0, 0.7])
    C = tensors.cartan_tensor(bogoslovsky, v).array
    for perm in [(0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]:
        assert np.abs(C - np.transpose(C, perm)).max() <= 1e-13


def test_legendre_examples(minkowski3):
    v = dsl.TangentSample([0, 0, 0], [1.0, 1.0, 0.0])
    ell = tensors.legendre(minkowski3, v)
    assert np.allclose(ell, [-1.0, 1.0, 0.0], atol=0)


@pytest.mark.parametrize("name", ["minkowski3", "einstein-static", "bogoslovsky2"])
def test_legendre_pairs_to_metric_value_and_differential(name):
    m = dsl.builtin_metric(name)
    rng = np.random.default_rng(4)
    for v in dsl.sample_admissible(m, rng, count=15):
        ell = tensors.legendre(m, v)
        L = m.value_at(v)
        assert abs(float(ell @ v.y) - L) <= 1e-12 * max(1.0, abs(L))
        w = rng.uniform(-1.0, 1.0, v.dim)
        slope = finitediff.directional_derivative(
            lambda y: m.value(v.x, y), v.y, w, h=1e-4)
        assert abs(float(ell @ w) - 0.5 * slope) <= 1e-7 * max(1.0, abs(slope))


def test_homogeneity_of_fundamental_tensor(einstein):
    rng = np.random.default_rng(5)
    for v in dsl.sample_admissible(einstein, rng, count=20):
        g = tensors.fundamental_tensor(einstein, v).matrix
        for s in (0.5, 2.0, 7.0):
            gs = tensors.fundamental_tensor(einstein, v.scaled(s)).matrix
            assert np.abs(gs - g).max() <= 1e-10


def test_inverse_metric_diagonal_and_residual():
    g = tensors.FundamentalTensor(np.diag([-1.0, 1.0, 1.0]),
                                  dsl.TangentSample([0, 0, 0], [1, 0, 0]))
    assert np.allclose(tensors.inverse_metric(g), np.diag([-1.0, 1.0, 1.0]), atol=0)
    rng = np.random.default_rng(6)
    for _ in range(20):
        A = rng.standard_normal((4, 4))
        spd = A @ A.T + 0.5 * np.eye(4)
        inv = tensors.inverse_metric(spd)
        assert np.abs(inv @ spd - np.eye(4)).max() <= 1e-10


def test_inverse_metric_raises_on_degenerate_sample():
    m = dsl.parse_metric("y0^2", 2, name="rank-one")
    v = dsl.TangentSample([0, 0], [1.0, 0.5])
    g = tensors.fundamental_tensor(m, v)
    with pytest.raises(SingularMetric):
        tensors.inverse_metric(g)


def test_degeneracy_threshold_sweep():
    """A family g = diag(1, eps) crosses the relative-determinant threshold."""
    v = dsl.TangentSample([0.0], [1.0])
    for eps in (1e-3, 1e-6, 1e-9):
        tensors.inverse_metric(np.diag([1.0, eps]))
    with pytest.raises(SingularMetric):
        tensors.inverse_metric(np.diag([1.0, 1e-14]))


def test_inverse_metric_of_a_huge_diagonal_is_exact():
    """The degeneracy test divides by the scale first, so |det g| = 1e400
    does not overflow."""
    inv = tensors.inverse_metric(np.diag([1e200, -1e200]))
    assert np.array_equal(inv, np.diag([1e-200, -1e-200]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_inverse_metric_rejects_a_non_finite_entry(bad):
    with pytest.raises(EvaluationDomainError):
        tensors.inverse_metric(np.array([[1.0, bad], [bad, -1.0]]))


def test_inadmissible_sample_is_rejected(bogoslovsky):
    v = dsl.TangentSample([0, 0], [1.0, 2.0])
    with pytest.raises(InadmissibleSample):
        tensors.fundamental_tensor(bogoslovsky, v)
