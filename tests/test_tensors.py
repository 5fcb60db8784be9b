"""Fundamental and Cartan tensors, Legendre map, metric inverse."""

import inspect
import textwrap
from fractions import Fraction

import numpy as np
import pytest

import solve_reference
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


def _verdict(mat):
    try:
        tensors._require_nondegenerate(mat)
    except (EvaluationDomainError, SingularMetric) as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("mat,error", [
    ([[-1.0, 0.2, 0.0], [0.2, 1.0, 0.1], [0.0, 0.1, 0.7]], None),
    ([[1.0, np.nan, 0.0], [np.nan, 1.0, 0.0], [0.0, 0.0, 1.0]], EvaluationDomainError),
    ([[1.0, 0.0, 0.0], [0.0, -np.inf, 0.0], [0.0, 0.0, 1.0]], EvaluationDomainError),
    ([[0.0, -0.0, 0.0], [-0.0, 0.0, 0.0], [0.0, 0.0, 0.0]], SingularMetric),
    ([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [3.0, 6.0, 9.5]], SingularMetric),
    ([[1e200, 0.0, 0.0], [0.0, 1e-20, 0.0], [0.0, 0.0, 1e200]], SingularMetric),
], ids=["finite", "nan", "inf", "zero", "degenerate", "degenerate-scaled"])
def test_one_matrix_gets_the_verdict_of_its_row_in_a_stack(mat, error):
    """The one-matrix path of the degeneracy test gives the verdict and the
    message that the same matrix gets as a row of a stack, wherever the
    row stands."""
    mat = np.array(mat)
    one = _verdict(mat)
    assert one == _verdict(mat[None]) == _verdict(np.stack([np.eye(3), mat, mat]))
    assert (one and one[0]) is error


def test_inadmissible_sample_is_rejected(bogoslovsky):
    v = dsl.TangentSample([0, 0], [1.0, 2.0])
    with pytest.raises(InadmissibleSample):
        tensors.fundamental_tensor(bogoslovsky, v)


# --------------------------------------------------------------------------
# the float elimination of the degeneracy test and the spray solve
# --------------------------------------------------------------------------

EPS = np.finfo(float).eps / 2      # the unit round-off u


def _solve_cases():
    """(g, r) with g random, Lorentzian or near-degenerate, 2x2 and 3x3.
    The Lorentzian ones are written in coordinates close to null ones, so
    that the leading diagonal entry is small beside the rest of its column."""
    rng = np.random.default_rng(20)
    cases = []
    for n in (2, 3):
        for _ in range(200):
            a = rng.standard_normal((n, n))
            cases.append(a)                             # general
            cases.append(a + a.T)                       # symmetric
            # Lorentzian, near-null coordinates: g = [[d, 1], [1, c]] (+ space)
            g = np.eye(n)
            g[:2, :2] = [[rng.uniform(1e-12, 1e-8) * rng.choice([-1, 1]), 1.0],
                         [1.0, rng.uniform(-2.0, 2.0)]]
            cases.append(g)
            # Lorentzian, rotated: q^T diag(-s0, s1, ...) q
            q = np.linalg.qr(rng.standard_normal((n, n)))[0]
            signs = np.array([-1.0] + [1.0] * (n - 1))
            cases.append(q.T @ np.diag(signs * np.exp(rng.uniform(-3.0, 3.0, n))) @ q)
            # near-degenerate: the smallest singular value 1e-10 to 1e-7 of
            # the largest, for a general and a symmetric matrix
            u, _, vt = np.linalg.svd(a)
            sigma = np.r_[1.0, rng.uniform(0.1, 1.0, n - 2), rng.uniform(1e-10, 1e-7)]
            cases.append(u @ np.diag(sigma) @ vt)
            cases.append(u @ np.diag(sigma * rng.choice([-1, 1], n)) @ u.T)
    return [(g, rng.standard_normal(len(g))) for g in cases
            if abs(np.linalg.det(g / np.abs(g).max())) > 10 * tensors.DEGENERACY_TOL]


def _backward_error(g: np.ndarray, z: list, r: np.ndarray) -> float:
    """Normwise backward error ||r - g z|| / (||g|| ||z|| + ||r||) in the
    infinity norm (Rigal & Gaches; Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2nd ed., thm. 7.1), with the residual taken
    exactly in rationals."""
    residual = [Fraction(rk) - sum(Fraction(gk) * Fraction(zk) for gk, zk in zip(row, z))
                for row, rk in zip(g.tolist(), r.tolist())]
    norm_g = np.abs(g).sum(axis=1).max()
    return float(max(map(abs, residual))) / (norm_g * max(map(abs, z)) + np.abs(r).max())


def _bound(n: int) -> float:
    """The normwise backward-error bound gamma_{3n} n rho_n of Gaussian
    elimination with partial pivoting, whose growth factor is rho_n <=
    2^(n-1) (Higham, thm. 9.4 and sec. 9.4), with gamma_k taken as k u."""
    return 3 * n * n * 2 ** (n - 1) * EPS


def _backward_error_ratios(solve) -> list[float]:
    """Each case's backward error over its bound; solve takes the entries of
    g row by row, n and r."""
    return [_backward_error(g, solve(g.ravel().tolist(), len(g), r.tolist()), r)
            / _bound(len(g)) for g, r in _solve_cases()]


def test_the_float_solve_is_backward_stable_as_lapack_is():
    """The elimination with partial pivoting of `_solver` meets the
    backward-error bound of Gaussian elimination on random, Lorentzian and
    near-degenerate 2x2 and 3x3 systems, as `np.linalg.solve` (LAPACK
    ?gesv) does on the same systems."""
    ours = _backward_error_ratios(lambda g, n, r: tensors._solver(n)(g, r))
    lapack = _backward_error_ratios(
        lambda g, n, r: np.linalg.solve(np.reshape(g, (n, n)), r).tolist())
    assert len(ours) > 2200
    assert max(lapack) <= 1.0
    assert max(ours) <= 1.0


def test_the_backward_error_check_catches_a_missing_row_swap():
    """The same check fails an elimination that keeps its pivot rows in
    place: on the near-null Lorentzian systems its multipliers grow like
    1/g_00.  That elimination is written by `tensors._elimination` with the
    row swaps switched off."""
    source = textwrap.dedent(inspect.getsource(tensors._elimination))
    assert source.count("p == {i}:") == 1
    namespace = dict(vars(tensors))
    exec(source.replace("p == {i}:", "False:"), namespace)
    exec(textwrap.dedent(inspect.getsource(tensors._solver_source)), namespace)
    solvers = {n: dsl._compiled(namespace["_solver_source"](n), tensors._ELIMINATION_NAMES)
               for n in (2, 3)}
    assert "False:" in namespace["_solver_source"](3)
    assert max(_backward_error_ratios(lambda g, n, r: solvers[n](g, r))) > 1e3


def _matrices(n: int, rng) -> list[np.ndarray]:
    """n x n matrices of every kind the elimination meets: random, symmetric,
    Lorentzian, near-degenerate, with small integer and signed zero entries,
    with a zero pivot, with a zero row, all zero, singular, and with a
    non-finite entry."""
    out = []
    for _ in range(60):
        a = rng.standard_normal((n, n))
        q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        signs = np.array([-1.0] + [1.0] * (n - 1))
        u, _, vt = np.linalg.svd(a)
        sigma = np.r_[1.0, rng.uniform(0.1, 1.0, n - 1)][:n]
        sigma[-1] = 10.0 ** rng.uniform(-14, -9)
        small = rng.integers(-2, 3, (n, n)).astype(float)      # zeros, and
        out += [a, a + a.T, q.T @ np.diag(signs * np.exp(rng.uniform(-3, 3, n))) @ q,
                u @ np.diag(sigma) @ vt, small, -small]             # negative zeros
        zero_row = a.copy()
        zero_row[rng.integers(n)] = 0.0
        pivot = a.copy()
        pivot[:, 0] = 0.0          # a zero first column: the first pivot is zero
        bad = a.copy()
        bad[rng.integers(n), rng.integers(n)] = rng.choice([np.nan, np.inf, -np.inf])
        out += [zero_row, pivot, bad, np.zeros((n, n)), -np.zeros((n, n)),
                np.outer(a[0], a[-1]), a * 1e300, a * 1e-300]
    return out


def _outcome(fn):
    try:
        return fn()
    except (EvaluationDomainError, SingularMetric) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_the_written_elimination_equals_the_loop(n):
    """`_solver` runs the straight-line elimination; on every kind of
    matrix it gives the loop's solution to the bit, its verdict and its
    error text, and the degeneracy test alone (`_require_nondegenerate`,
    no right-hand side) gives the loop's verdict and error text
    (tests/solve_reference.py)."""
    rng = np.random.default_rng(100 + n)
    kinds = set()
    for g in _matrices(n, rng):
        entries = g.ravel().tolist()
        r = rng.standard_normal(n).tolist()
        signed_zeros = (-rng.integers(-1, 2, n).astype(float)).tolist()
        for rhs in (None, r, signed_zeros):
            want = _outcome(lambda: solve_reference.nondegenerate_solve(entries, n, rhs))
            got = _outcome(lambda: tensors._require_nondegenerate(g) if rhs is None
                           else tensors._solver(n)(entries, rhs))
            assert repr(got) == repr(want), (g, rhs)
            kinds.add(want[0] if isinstance(want, tuple) else type(want))
    assert kinds == {type(None), list, EvaluationDomainError, SingularMetric}
