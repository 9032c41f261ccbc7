"""Time-dependent Hamiltonian families.

Two schedule variants cover everything in scope: a constant matrix and a
linear interpolation (1 - t/T) H_i + (t/T) H_f.  Both evaluate, with an
analytic time derivative, in batch form only (see
``TimeDependentHamiltonian``).  A seeded generator produces random Hermitian
matrices with entries confined to an exponential decay envelope
|H_ij| <= h exp(-mu' |i - j|).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import _check_hermitian
from .errors import ValidationError
from .numerics import check_positive


class TimeDependentHamiltonian:
    """Common interface: dimension, the stacked forms evaluate_batch(ts) and
    derivative_batch(ts), shape (len(ts), dim, dim), and the per-time forms
    evaluate(t) and derivative(t).

    A subclass defines either form of each quantity and inherits the other:
    the per-time form is the batch form at [t], and the batch form stacks
    the per-time form.  The bundled models define only the batch forms.
    derivative_batch may return a read-only view; derivative(t) returns a
    copy.
    """

    dimension: int

    def evaluate(self, t: float) -> np.ndarray:
        return self.evaluate_batch(np.array([t], dtype=float))[0]

    def derivative(self, t: float) -> np.ndarray:
        return self.derivative_batch(np.array([t], dtype=float))[0].copy()

    def evaluate_batch(self, ts: np.ndarray) -> np.ndarray:
        return self._stacked("evaluate", ts)

    def derivative_batch(self, ts: np.ndarray) -> np.ndarray:
        return self._stacked("derivative", ts)

    def _stacked(self, name: str, ts: np.ndarray) -> np.ndarray:
        """The per-time form `name` stacked over ts; a subclass that defines
        neither form of the quantity gets NotImplementedError, not a loop."""
        if getattr(type(self), name) is getattr(TimeDependentHamiltonian, name):
            raise NotImplementedError(f"{type(self).__name__} defines no {name}")
        return np.stack([getattr(self, name)(t) for t in np.asarray(ts)])


@dataclass(eq=False)
class ConstantHamiltonian(TimeDependentHamiltonian):
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = _check_hermitian(self.matrix)
        self.dimension = self.matrix.shape[0]

    def evaluate_batch(self, ts: np.ndarray) -> np.ndarray:
        n = np.asarray(ts).size
        return np.broadcast_to(self.matrix, (n, *self.matrix.shape)).copy()

    def derivative_batch(self, ts: np.ndarray) -> np.ndarray:
        n = np.asarray(ts).size
        return np.zeros((n, *self.matrix.shape), dtype=self.matrix.dtype)


@dataclass(eq=False)
class LinearInterpolationHamiltonian(TimeDependentHamiltonian):
    """H(t) = (1 - t/T) H_i + (t/T) H_f on t in [0, T]."""

    h_initial: np.ndarray
    h_final: np.ndarray
    total_time: float

    def __post_init__(self):
        self.h_initial = _check_hermitian(self.h_initial)
        self.h_final = _check_hermitian(self.h_final)
        if self.h_initial.shape != self.h_final.shape:
            raise ValidationError("endpoint matrices must share a dimension")
        check_positive("total_time", self.total_time)
        self.dimension = self.h_initial.shape[0]

    def _times(self, ts) -> np.ndarray:
        """ts as a float array, refused unless every time lies in [0, T],
        so a NaN time is refused too."""
        ts = np.asarray(ts, dtype=float)
        if not np.all((0 <= ts) & (ts <= self.total_time * (1 + 1e-12))):
            raise ValidationError(f"t must lie in [0, {self.total_time}], got {ts}")
        return ts

    def evaluate_batch(self, ts: np.ndarray) -> np.ndarray:
        s = (self._times(ts) / self.total_time)[:, None, None]
        return (1.0 - s) * self.h_initial[None] + s * self.h_final[None]

    def derivative_batch(self, ts: np.ndarray) -> np.ndarray:
        slope = (self.h_final - self.h_initial) / self.total_time
        return np.broadcast_to(slope, (self._times(ts).size, *slope.shape))


def build_example_ramp(total_time: float) -> LinearInterpolationHamiltonian:
    """Bundled 11-level demo model.

    Starts from an equally spaced ladder (diagonal 0.0, 0.1, ..., 1.0) and
    linearly switches on a nearest-neighbor hopping of strength 1/2, so the
    final matrix is tridiagonal.  Ground gap at t=0 is exactly 0.1.
    """
    d = 11
    h_i = 0.1 * np.diag(np.arange(d))
    h_f = h_i.copy()
    for k in range(d - 1):
        h_f[k, k + 1] += 0.5
        h_f[k + 1, k] += 0.5
    return LinearInterpolationHamiltonian(h_i, h_f, float(total_time))


@dataclass(frozen=True)
class ExpLocalSpec:
    """Parameters for the exponential-envelope random ensemble."""

    dimension: int
    amplitude: float
    decay_rate: float
    seed: int

    def __post_init__(self):
        if self.dimension < 2:
            raise ValidationError("dimension must be at least 2")
        check_positive("amplitude", self.amplitude)
        check_positive("decay_rate", self.decay_rate)


def random_exp_local(spec: ExpLocalSpec) -> np.ndarray:
    """Random Hermitian matrix with |H_ij| <= h exp(-mu' |i-j|), surely.

    Off-diagonal magnitudes are uniform within the envelope with a uniform
    phase; diagonal entries are real and uniform in [-h, h].  The envelope
    bound holds by construction rather than in probability, so downstream
    locality checks are deterministic.  Reproducible from the seed.
    """
    rng = np.random.default_rng(spec.seed)
    n, h, mu_p = spec.dimension, spec.amplitude, spec.decay_rate
    H = np.zeros((n, n), dtype=complex)
    H[np.diag_indices(n)] = rng.uniform(-h, h, size=n)
    for i in range(n):
        for j in range(i + 1, n):
            mag = rng.uniform(0.0, h * np.exp(-mu_p * (j - i)))
            phase = rng.uniform(0.0, 2.0 * np.pi)
            H[i, j] = mag * np.exp(1j * phase)
            H[j, i] = np.conj(H[i, j])
    return H
