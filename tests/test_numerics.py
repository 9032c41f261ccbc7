import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrlab.adiabatic import spectral_flow
from lrlab.errors import ValidationError
from lrlab.models import ConstantHamiltonian, build_example_ramp
from lrlab.numerics import TimeGrid, lambert_w, operator_norms, running_trapezoid
from lrlab.propagation import _unitary_steps

from _oracles import (
    bisect_lambert,
    operator_norm,
    random_anti_hermitian,
    random_hermitian,
    random_unitary,
    taylor_unitary_exp,
)


# -- TimeGrid -----------------------------------------------------------


def test_grid_validation():
    with pytest.raises(ValidationError):
        TimeGrid([0.0])
    with pytest.raises(ValidationError):
        TimeGrid([1.0, 2.0])
    with pytest.raises(ValidationError):
        TimeGrid([0.0, 2.0, 1.0])
    with pytest.raises(ValidationError):
        TimeGrid.uniform(0.0, 5)
    for t_final in (np.inf, np.nan):
        with pytest.raises(ValidationError, match="must be positive and finite"):
            TimeGrid.uniform(t_final, 5)


def test_grid_keeps_a_read_only_copy_of_its_points():
    """A later write to the caller's array cannot reach the grid, which
    every certificate and propagator built on it reads."""
    pts = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    grid = TimeGrid(pts)
    pts[2] = 0.9
    np.testing.assert_array_equal(grid.points, [0.0, 0.25, 0.5, 0.75, 1.0])
    with pytest.raises(ValueError):
        grid.points[2] = 0.9


def test_grid_uniform():
    g = TimeGrid.uniform(2.0, 5)
    np.testing.assert_allclose(g.points, [0.0, 0.5, 1.0, 1.5, 2.0])
    assert g.t_final == 2.0
    assert len(g) == 5


# -- operator_norm (the tests' oracle) and operator_norms ---------------


def test_operator_norm_identity():
    for n in (1, 3, 8):
        assert operator_norm(np.eye(n)) == pytest.approx(1.0, abs=1e-14)


def test_operator_norm_ladder_diagonal():
    assert operator_norm(np.diag(np.arange(11) * 0.1)) == pytest.approx(
        1.0, abs=1e-14
    )


def test_operator_norm_oracles():
    rng = np.random.default_rng(0)
    M = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    norm = operator_norm(M)
    # sampled unit vectors give a lower bound ...
    vecs = rng.normal(size=(10_000, 8)) + 1j * rng.normal(size=(10_000, 8))
    vecs /= np.linalg.norm(vecs, axis=1)[:, None]
    sampled = np.linalg.norm(vecs @ M.T, axis=1).max()
    assert sampled <= norm + 1e-12
    # ... and power iteration from the best sample converges to the norm
    v = vecs[np.argmax(np.linalg.norm(vecs @ M.T, axis=1))]
    G = M.conj().T @ M
    for _ in range(500):
        v = G @ v
        v /= np.linalg.norm(v)
    assert np.sqrt(np.real(np.vdot(v, G @ v))) == pytest.approx(norm, rel=1e-6)
    # independent eigendecomposition of M^dag M
    assert np.sqrt(np.linalg.eigvalsh(G)[-1]) == pytest.approx(norm, rel=1e-10)


def test_operator_norm_rejects_nonfinite():
    M = np.eye(3)[None].copy()
    M[0, 0, 1] = np.nan
    with pytest.raises(ValidationError):
        operator_norms(M)
    M[0, 0, 1] = np.inf
    with pytest.raises(ValidationError):
        operator_norms(M)


def test_operator_norms_refuses_a_single_matrix():
    with pytest.raises(ValidationError, match="expected a matrix stack, got ndim=2"):
        operator_norms(np.eye(3))


def test_operator_norms_of_a_broadcast_stack():
    """A stack that repeats one matrix with stride 0, as a linear ramp's
    derivative_batch does, takes one SVD; its norms equal those of its
    materialized copy bit for bit, and a NaN in the one matrix is still
    refused."""
    stack = build_example_ramp(5.0).derivative_batch(np.linspace(0.0, 5.0, 50))
    assert stack.strides[0] == 0
    norms = operator_norms(stack)
    assert norms.shape == (50,)
    assert np.array_equal(norms, operator_norms(stack.copy()))
    M = random_hermitian(np.random.default_rng(7), 6)
    assert np.array_equal(
        operator_norms(np.broadcast_to(M, (3, 6, 6))), operator_norms(np.stack([M] * 3))
    )
    bad = M.copy()
    bad[0, 1] = np.nan
    with pytest.raises(ValidationError):
        operator_norms(np.broadcast_to(bad, (50, 6, 6)))


def test_operator_norm_unitary_invariance():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        M = random_hermitian(rng, n)
        U, V = random_unitary(rng, n), random_unitary(rng, n)
        assert operator_norm(U @ M @ V) == pytest.approx(
            operator_norm(M), abs=1e-10
        )


# -- eigensystems: the batched eigh behind spectral_flow ------------------


def flow_eigensystem(M):
    """Eigenvalues and eigenvector columns at t=0, as spectral_flow has them."""
    flow = spectral_flow(ConstantHamiltonian(M), TimeGrid.uniform(1.0, 2))
    return flow.eigenvalues[0], flow.basis[0]


def test_eigensystem_sorted_diagonal():
    vals, vecs = flow_eigensystem(np.diag([3.0, 1.0, 2.0]))
    np.testing.assert_allclose(vals, [1.0, 2.0, 3.0])


def test_eigensystem_ladder():
    H_i = np.diag(0.1 * np.arange(11))
    vals, _ = flow_eigensystem(H_i)
    np.testing.assert_allclose(vals, 0.1 * np.arange(11), atol=1e-14)


def test_eigensystem_pauli_x():
    vals, _ = flow_eigensystem(np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(vals, [-1.0, 1.0], atol=1e-14)


def test_eigensystem_residuals_and_reconstruction():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(2, 16))
        M = random_hermitian(rng, n)
        vals, vecs = flow_eigensystem(M)
        scale = operator_norm(M)
        assert np.all(np.diff(vals) >= -1e-14)
        res = M @ vecs - vecs * vals[None, :]
        assert np.linalg.norm(res, axis=0).max() <= 1e-10 * max(scale, 1e-30)
        assert operator_norm(vecs.conj().T @ vecs - np.eye(n)) <= 1e-10
        recon = (vecs * vals[None, :]) @ vecs.conj().T
        assert operator_norm(recon - M) <= 1e-10 * max(scale, 1e-30)


def test_eigensystem_rejects_non_hermitian():
    with pytest.raises(ValidationError):
        flow_eigensystem(np.array([[0.0, 1.0], [0.0, 0.0]]))


# -- unitary exponential: _unitary_steps, the integrator's kernel --------------


def step_exponential(A):
    """exp(A) for anti-Hermitian A, as one _unitary_steps step: iA is
    Hermitian and A = -i (iA)."""
    return _unitary_steps((1j * np.asarray(A, dtype=complex))[None], np.ones(1))[0]


def test_unitary_exp_zero():
    np.testing.assert_allclose(step_exponential(np.zeros((4, 4))), np.eye(4))


def test_unitary_exp_pauli_rotation():
    X = np.array([[0.0, 1.0], [1.0, 0.0]])
    got = step_exponential(-1j * np.pi / 2 * X)
    want = np.array([[0.0, -1j], [-1j, 0.0]])
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_unitary_exp_matches_taylor_oracle():
    rng = np.random.default_rng(2)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        A = random_anti_hermitian(rng, n)
        got = step_exponential(A)
        want = taylor_unitary_exp(A)
        assert operator_norm(got - want) <= 1e-10


def test_unitary_exp_inverse_property():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(2, 33))
        A = random_anti_hermitian(rng, n)
        U = step_exponential(A) @ step_exponential(-A)
        assert operator_norm(U - np.eye(n)) <= 1e-11


def test_unitary_exp_result_unitary():
    rng = np.random.default_rng(4)
    for _ in range(25):
        n = int(rng.integers(2, 16))
        U = step_exponential(random_anti_hermitian(rng, n, scale=3.0))
        assert operator_norm(U.conj().T @ U - np.eye(n)) <= 1e-12


# -- lambert_w -----------------------------------------------------------


def test_lambert_trivial_points():
    assert lambert_w(0.0) == 0.0
    assert lambert_w(np.e) == pytest.approx(1.0, abs=1e-12)


def test_lambert_against_bisection():
    x = np.exp(2.0)
    assert lambert_w(x) == pytest.approx(bisect_lambert(x), abs=1e-12)
    # frozen from the bisection oracle
    assert lambert_w(x) == pytest.approx(1.5571455989976, abs=1e-12)


def test_lambert_domain_error():
    with pytest.raises(ValidationError):
        lambert_w(-0.5)
    # NaN passes the domain check, and no Newton step can settle on it
    with pytest.raises(ValidationError, match="failed to converge for x = nan"):
        lambert_w(np.nan)


@given(st.floats(min_value=0.0, max_value=50.0))
def test_lambert_defining_equation(x):
    w = lambert_w(x)
    assert w >= 0.0
    assert abs(w * np.exp(w) - x) <= 1e-12 * max(1.0, x)


def test_lambert_monotone():
    xs = np.linspace(0.0, 30.0, 301)
    ws = [lambert_w(x) for x in xs]
    assert np.all(np.diff(ws) > 0)


# -- time average from the running trapezoid ------------------------------


def time_average(samples, grid):
    """The time average over [0, T] as every reader takes it: the running
    trapezoid's last row over T."""
    return running_trapezoid(samples, grid)[-1] / grid.t_final


def test_time_average_constant():
    g = TimeGrid([0.0, 0.3, 1.0, 2.0])
    assert time_average(np.full(4, 2.5), g) == pytest.approx(2.5, abs=1e-15)


def test_time_average_affine_exact():
    g = TimeGrid([0.0, 0.1, 0.45, 0.7, 1.0])
    assert time_average(g.points, g) == pytest.approx(0.5, abs=1e-15)


def test_time_average_quadratic():
    g = TimeGrid.uniform(1.0, 1001)
    assert time_average(g.points**2, g) == pytest.approx(1.0 / 3.0, abs=1e-6)


def test_time_average_window_validation():
    g = TimeGrid.uniform(1.0, 11)
    with pytest.raises(ValidationError):
        time_average(np.ones(10), g)


def test_running_trapezoid_gives_the_integral_at_every_point():
    """Row k is the integral over [0, t_k], exact for affine f at every
    point; each column of a (len(grid), ...) stack is integrated on its
    own, bit for bit as that column alone."""
    g = TimeGrid([0.0, 0.1, 0.45, 0.7, 1.0])
    f = np.stack([3.0 - 2.0 * g.points, g.points**2], axis=1)
    run = running_trapezoid(f, g)
    assert run.shape == (5, 2) and np.all(run[0] == 0.0)
    np.testing.assert_allclose(run[:, 0], 3.0 * g.points - g.points**2, atol=1e-15)
    for j in range(2):
        assert np.array_equal(run[:, j], running_trapezoid(f[:, j], g))
    with pytest.raises(ValidationError):
        running_trapezoid(np.ones((4, 2)), g)
    with pytest.raises(ValidationError):
        running_trapezoid(2.0, g)
