import numpy as np
import pytest

from lrlab.blocks import bandwidth, pairwise_decompose
from lrlab.errors import ValidationError
from lrlab.models import (
    ConstantHamiltonian,
    ExpLocalSpec,
    LinearInterpolationHamiltonian,
    TimeDependentHamiltonian,
    build_example_ramp,
    random_exp_local,
)
from _oracles import operator_norm, random_hermitian


def test_example_ramp_at_start():
    H = build_example_ramp(100.0)
    vals = np.linalg.eigvalsh(H.evaluate(0.0))
    np.testing.assert_allclose(vals, 0.1 * np.arange(11), atol=1e-14)
    assert operator_norm(H.evaluate(0.0)) == pytest.approx(1.0, abs=1e-9)


def test_example_ramp_at_end():
    H = build_example_ramp(100.0)
    end = H.evaluate(100.0)
    offdiag = np.diagonal(end, offset=1)
    np.testing.assert_allclose(offdiag, np.full(10, 0.5), atol=1e-14)
    # frozen from the eigensolver; inside the documented range [1.0, 1.8]
    assert operator_norm(end) == pytest.approx(1.705524401161324, abs=1e-9)
    assert 1.0 <= operator_norm(end) <= 1.8


def test_example_ramp_initial_gap():
    H = build_example_ramp(50.0)
    vals = np.linalg.eigvalsh(H.evaluate(0.0))
    assert vals[1] - vals[0] == pytest.approx(0.1, abs=1e-12)


def test_example_ramp_is_tridiagonal():
    H = build_example_ramp(10.0)
    assert bandwidth(H.evaluate(0.0)) == 0
    assert bandwidth(H.evaluate(10.0)) == 1
    assert bandwidth(H.evaluate(3.7)) == 1


def test_degenerate_interpolation():
    rng = np.random.default_rng(0)
    M = random_hermitian(rng, 5)
    H = LinearInterpolationHamiltonian(M, M, 2.0)
    np.testing.assert_allclose(H.evaluate(1.3), M, atol=1e-14)


def test_constant_derivative_zero():
    H = ConstantHamiltonian(np.diag([1.0, 2.0]))
    assert operator_norm(H.derivative(0.7)) == 0.0


def test_ramp_derivative():
    H = build_example_ramp(100.0)
    D = H.derivative(42.0)
    np.testing.assert_allclose(
        D, (H.h_final - H.h_initial) / 100.0, atol=1e-15
    )
    assert operator_norm(D) == pytest.approx(
        operator_norm(H.h_final - H.h_initial) / 100.0, abs=1e-14
    )


def test_ramp_derivative_matches_finite_difference():
    T = 100.0
    H = build_example_ramp(T)
    h = T * 1e-6
    for t in (h, 0.4 * T, T - h):
        fd = (H.evaluate(t + h) - H.evaluate(t - h)) / (2 * h)
        scale = operator_norm(H.h_final - H.h_initial) / T
        assert operator_norm(H.derivative(t) - fd) <= 1e-8 * scale


def test_time_domain_enforced():
    H = build_example_ramp(10.0)
    with pytest.raises(ValidationError):
        H.evaluate(-0.5)
    with pytest.raises(ValidationError):
        H.evaluate(10.5)
    with pytest.raises(ValidationError):
        H.derivative(11.0)


def test_evaluate_batch_matches_pointwise():
    H = build_example_ramp(5.0)
    ts = np.linspace(0.0, 5.0, 7)
    batch = H.evaluate_batch(ts)
    for k, t in enumerate(ts):
        np.testing.assert_allclose(batch[k], H.evaluate(t), atol=1e-15)


def test_per_time_forms_are_rows_of_the_batch_forms():
    """The bundled models define only the batch forms.  derivative(t) is a
    writable copy of the ramp's read-only batch view, and a subclass that
    defines neither form of a quantity is told so instead of looping."""
    H = build_example_ramp(5.0)
    assert not H.derivative_batch([1.0]).flags.writeable
    D = H.derivative(1.0)
    assert np.array_equal(D, H.derivative_batch([1.0])[0])
    D[0, 0] = 7.0
    assert H.derivative(1.0)[0, 0] != 7.0
    assert np.array_equal(H.evaluate(2.5), H.evaluate_batch([2.5])[0])
    with pytest.raises(NotImplementedError, match="evaluate"):
        TimeDependentHamiltonian().evaluate(0.0)
    with pytest.raises(NotImplementedError, match="derivative"):
        TimeDependentHamiltonian().derivative_batch([0.0])


class _RampWithoutBatchDerivative(TimeDependentHamiltonian):
    """Only the pointwise interface, so the base-class stacking runs."""

    def __init__(self, H):
        self._H = H
        self.dimension = H.dimension

    def evaluate(self, t):
        return self._H.evaluate(t)

    def derivative(self, t):
        return self._H.derivative(t) * (1.0 + t)


@pytest.mark.parametrize(
    "H",
    [
        build_example_ramp(5.0),
        ConstantHamiltonian(random_exp_local(ExpLocalSpec(6, 1.0, 1.0, seed=2))),
        _RampWithoutBatchDerivative(build_example_ramp(5.0)),
    ],
    ids=["linear", "constant", "base"],
)
def test_derivative_batch_matches_pointwise(H):
    ts = np.linspace(0.0, 5.0, 7)
    batch = H.derivative_batch(ts)
    assert batch.shape == (7, H.dimension, H.dimension)
    assert np.array_equal(batch, np.stack([H.derivative(t) for t in ts]))


def test_derivative_batch_enforces_time_domain():
    H = build_example_ramp(10.0)
    with pytest.raises(ValidationError):
        H.derivative_batch(np.array([0.0, 10.5]))


def test_evaluate_affine_in_time():
    H = build_example_ramp(20.0)
    base, slope = H.evaluate(0.0), H.derivative(0.0)
    for t in (0.0, 3.3, 11.0, 20.0):
        np.testing.assert_allclose(H.evaluate(t), base + t * slope, atol=1e-12)


def test_evaluate_hermitian_everywhere():
    H = build_example_ramp(8.0)
    for t in np.linspace(0.0, 8.0, 9):
        M = H.evaluate(t)
        assert operator_norm(M - M.conj().T) <= 1e-12


def test_exp_local_envelope_certain():
    for seed, mu_p in ((0, 1.0), (1, 2.5), (2, 0.3)):
        spec = ExpLocalSpec(dimension=12, amplitude=1.5, decay_rate=mu_p, seed=seed)
        M = random_exp_local(spec)
        assert operator_norm(M - M.conj().T) == 0.0
        idx = np.arange(12)
        envelope = 1.5 * np.exp(-mu_p * np.abs(idx[:, None] - idx[None, :]))
        assert np.all(np.abs(M) <= envelope + 1e-15)


def test_exp_local_strong_decay_is_diagonal():
    spec = ExpLocalSpec(dimension=8, amplitude=1.0, decay_rate=50.0, seed=3)
    M = random_exp_local(spec)
    off = M - np.diag(np.diagonal(M))
    assert np.max(np.abs(off)) < 1e-15


def test_exp_local_deterministic():
    spec = ExpLocalSpec(dimension=10, amplitude=1.0, decay_rate=1.2, seed=42)
    np.testing.assert_array_equal(random_exp_local(spec), random_exp_local(spec))


def test_exp_local_spec_validation():
    with pytest.raises(ValidationError):
        ExpLocalSpec(dimension=1, amplitude=1.0, decay_rate=1.0, seed=0)
    with pytest.raises(ValidationError):
        ExpLocalSpec(dimension=4, amplitude=0.0, decay_rate=1.0, seed=0)
    with pytest.raises(ValidationError):
        ExpLocalSpec(dimension=4, amplitude=1.0, decay_rate=-1.0, seed=0)


def test_interpolation_validation():
    with pytest.raises(ValidationError):
        LinearInterpolationHamiltonian(np.eye(2), np.eye(3), 1.0)
    with pytest.raises(ValidationError):
        LinearInterpolationHamiltonian(np.eye(2), np.eye(2), 0.0)
    with pytest.raises(ValidationError):
        ConstantHamiltonian(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("T", [0.0, -1.0, np.inf, np.nan])
def test_interpolation_refuses_a_total_time_that_is_not_positive_and_finite(T):
    with pytest.raises(
        ValidationError, match=f"total_time must be positive and finite, got {T}"
    ):
        LinearInterpolationHamiltonian(np.eye(2), np.eye(2), T)


def test_validated_matrices_are_read_only_copies():
    """A later write to the caller's array cannot reach a validated
    Hamiltonian, and the validated matrix itself cannot be written."""
    M = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    H = ConstantHamiltonian(M)
    ramp = LinearInterpolationHamiltonian(M, M, 1.0)
    checked = pairwise_decompose(M)
    before = H.evaluate(0.0)
    M[0, 1] = 5
    assert np.array_equal(H.evaluate(0.0), before)
    assert np.array_equal(ramp.evaluate(0.5), before)
    assert checked[0, 1] == 1.0
    for kept in (H.matrix, ramp.h_initial, ramp.h_final, checked):
        assert kept is not M
        with pytest.raises(ValueError):
            kept[0, 1] = 5


def test_real_input_stays_real_and_complex_input_stays_complex():
    """A matrix with no nonzero imaginary part is kept as float64, so the
    bundled ramp evaluates in real arithmetic; the ensemble's complex
    matrices stay complex."""
    ramp = build_example_ramp(5.0)
    ts = np.array([0.0, 2.5])
    for M in (ramp.h_initial, ramp.h_final, ramp.evaluate_batch(ts), ramp.derivative_batch(ts)):
        assert M.dtype == np.float64
    zero_imag = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    assert ConstantHamiltonian(zero_imag).matrix.dtype == np.float64
    M = random_exp_local(ExpLocalSpec(6, 1.0, 1.0, seed=0))
    for H in (ConstantHamiltonian(M), LinearInterpolationHamiltonian(M, np.eye(6), 1.0)):
        assert H.evaluate_batch(ts[:1]).dtype == np.complex128
        assert np.array_equal(H.evaluate(0.0), M)
    assert pairwise_decompose(M).dtype == np.complex128


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_nonfinite_matrices_rejected(bad):
    """Every validated entry point refuses NaN and Inf entries, which the
    Hermiticity comparisons alone would let through."""
    M = np.array([[0.0, bad], [bad, 0.0]])
    builders = (
        ConstantHamiltonian,
        lambda X: LinearInterpolationHamiltonian(X, np.eye(2), 1.0),
        lambda X: LinearInterpolationHamiltonian(np.eye(2), X, 1.0),
        pairwise_decompose,
    )
    for build in builders:
        with pytest.raises(ValidationError):
            build(M)
