"""Locality certification and Lieb-Robinson speed estimation.

A Hamiltonian written as a sum of block terms H = sum_Z H_Z is "local" in a
given basis ordering when, for every level i,

    sum_{Z containing i} |Z| ||H_Z|| exp(mu diam(Z)) <= a_mu(t),

for some rate mu > 0 and integrable a_mu(t).  The tightest such a_mu(t)
(the max over levels) feeds the LR speed  V_LR = <a_mu>_t / mu, where
<a_mu>_t is the running time average.  For matrices confined to an
exponential envelope |H_ij| <= h exp(-mu' |i-j|) there is a closed-form
bound 4h / (1 - exp(mu - mu')) and an optimal rate w(e^(1+mu')) - 1 in
terms of the product logarithm w.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import STRUCTURAL_ZERO, BlockDecomposition
from .errors import NumericalError, ValidationError
from .models import ConstantHamiltonian, TimeDependentHamiltonian
from .numerics import TimeGrid, lambert_w, time_average

# relative slack when comparing a locality load against a certificate's a_mu;
# guards the exact equality case (a certificate audited against its own H)
# against FP noise
_LOAD_RTOL = 1e-12
# optimize_mu_generic: points of the unimodality pre-scan, and the relative
# width at which the golden-section bracket stops
_SCAN_POINTS = 100
_GOLDEN_RTOL = 1e-6


@dataclass(eq=False)
class LocalityCertificate:
    """Locality data for one Hamiltonian, rate mu, and basis ordering."""

    mu: float
    grid: TimeGrid
    a_mu_samples: np.ndarray
    a_mu_max: float
    a_mu_timeavg: float
    v_lr: float
    v_lr_max: float
    basis_permutation: np.ndarray

    def to_json_dict(self) -> dict:
        return {
            "mu": self.mu,
            "a_mu_max": self.a_mu_max,
            "a_mu_timeavg": self.a_mu_timeavg,
            "v_lr": self.v_lr,
            "v_lr_max": self.v_lr_max,
            "grid": [float(t) for t in self.grid.points],
            "a_mu": [float(a) for a in self.a_mu_samples],
            "basis_permutation": [int(p) for p in self.basis_permutation],
        }


def _abs_offdiag_and_diag(H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    W = np.abs(np.asarray(H))
    W[W <= STRUCTURAL_ZERO] = 0.0
    diag = np.diagonal(W, axis1=-2, axis2=-1).copy()
    idx = np.arange(W.shape[-1])
    W[..., idx, idx] = 0.0
    return diag, W


def _label_distances(labels: np.ndarray) -> np.ndarray:
    labels = np.asarray(labels)
    return np.abs(labels[:, None] - labels[None, :])


def _loads(
    diag: np.ndarray, off: np.ndarray, dist: np.ndarray, mu: float
) -> np.ndarray:
    """Per-level locality loads of a (times, d, d) stack of |H|.

    Pairwise terms contribute 2 |H_ij| e^(mu dist_ij) to both levels of the
    pair and singleton terms |H_ii| to their level, so level i carries
    sum_{Z containing i} |Z| ||H_Z|| e^(mu diam Z).  dist_ij is the label
    distance of levels i and j in the chosen basis ordering.
    """
    return diag + 2.0 * np.einsum("tij,ij->ti", off, np.exp(mu * dist))


def a_mu_pointwise(decomp: BlockDecomposition, mu: float) -> float:
    """Tightest locality constant of a decomposition at rate mu.

    Returns max over levels i of sum_{Z containing i} |Z| ||H_Z|| e^(mu diam Z).
    """
    if mu <= 0:
        raise ValidationError(f"mu must be positive, got {mu}")
    diag, off = _abs_offdiag_and_diag(decomp.matrix[None])
    loads = _loads(diag, off, _label_distances(np.arange(decomp.dimension)), mu)
    return float(loads.max(initial=0.0))


def _abs_stack(
    H: TimeDependentHamiltonian, grid: TimeGrid
) -> tuple[np.ndarray, np.ndarray]:
    """(diag, off) of |H| on the grid, as from ``_abs_offdiag_and_diag``: the
    evaluated (times, d, d) stack, or, for a ConstantHamiltonian, its one
    matrix as a (1, d, d) stack.  Loads taken from it broadcast over the
    grid either way."""
    if isinstance(H, ConstantHamiltonian):
        return _abs_offdiag_and_diag(H.matrix[None])
    return _abs_offdiag_and_diag(H.evaluate_batch(grid.points))


def _a_mu_samples(
    H: TimeDependentHamiltonian,
    mu: float,
    grid: TimeGrid,
    permutation: np.ndarray,
) -> np.ndarray:
    """a_mu(t) over the grid, in the basis where level i sits at label
    permutation[i]: only the diameters |permutation[i] - permutation[j]|
    depend on the ordering, and the max over levels needs no relabeled
    matrices."""
    diag, off = _abs_stack(H, grid)
    loads = _loads(diag, off, _label_distances(permutation), mu).max(axis=1)
    return np.broadcast_to(loads, grid.points.shape).copy()


def certify(
    H: TimeDependentHamiltonian,
    mu: float,
    grid: TimeGrid,
    permutation: np.ndarray | None = None,
) -> LocalityCertificate:
    """Sample a_mu(t) on the grid and assemble the LR-speed certificate."""
    if mu <= 0:
        raise ValidationError(f"mu must be positive, got {mu}")
    if permutation is None:
        permutation = np.arange(H.dimension)
    permutation = np.asarray(permutation, dtype=int)
    samples = _a_mu_samples(H, mu, grid, permutation)
    a_max = float(samples.max())
    a_avg = time_average(samples, grid)
    return LocalityCertificate(
        mu=float(mu),
        grid=grid,
        a_mu_samples=samples,
        a_mu_max=a_max,
        a_mu_timeavg=a_avg,
        v_lr=a_avg / mu,
        v_lr_max=a_max / mu,
        basis_permutation=permutation,
    )


def exp_local_bound(h: float, mu_prime: float, mu: float) -> float:
    """Closed-form locality constant 4h / (1 - e^(mu - mu')) for matrices
    inside the envelope |H_ij| <= h e^(-mu' |i-j|); finite only for mu < mu'."""
    if h <= 0:
        raise ValidationError(f"h must be positive, got {h}")
    if mu < 0:
        raise ValidationError(f"mu must be nonnegative, got {mu}")
    if mu >= mu_prime:
        raise ValidationError(
            f"divergent regime: mu={mu} must be below mu_prime={mu_prime}"
        )
    return 4.0 * h / -np.expm1(mu - mu_prime)


def optimal_mu_exp_local(h: float, mu_prime: float) -> tuple[float, float]:
    """Optimal rate and minimal LR speed for the exponential envelope.

    The minimum of 4h / [mu (1 - e^(mu - mu'))] over mu sits at
    mu = w(e^(1 + mu')) - 1 with w the product logarithm.
    """
    if h <= 0 or mu_prime <= 0:
        raise ValidationError("h and mu_prime must be positive")
    mu_min = lambert_w(np.exp(1.0 + mu_prime)) - 1.0
    v_min = exp_local_bound(h, mu_prime, mu_min) / mu_min
    return float(mu_min), float(v_min)


def optimize_mu_generic(
    H: TimeDependentHamiltonian,
    grid: TimeGrid,
    mu_range: tuple[float, float],
) -> tuple[float, LocalityCertificate]:
    """Minimize v_lr(mu) over [lo, hi] by golden-section search.

    A coarse pre-scan checks that v_lr(mu) is unimodal on the range; if
    several local minima show up the scan minimum is returned instead of
    trusting the bracketing search.
    """
    lo, hi = float(mu_range[0]), float(mu_range[1])
    if not (0.0 < lo < hi):
        raise ValidationError(f"need 0 < lo < hi, got ({lo}, {hi})")

    permutation = np.arange(H.dimension)
    diag, off = _abs_stack(H, grid)
    dist = _label_distances(permutation)

    def v_of_mu(mu: float) -> float:
        # overflow to inf is deliberate; the scan check below rejects it
        with np.errstate(over="ignore"):
            loads = _loads(diag, off, dist, mu).max(axis=1)
            samples = np.broadcast_to(loads, grid.points.shape)
            return time_average(samples, grid) / mu

    scan_mus = np.linspace(lo, hi, _SCAN_POINTS)
    scan_vals = np.array([v_of_mu(m) for m in scan_mus])
    if not np.all(np.isfinite(scan_vals)):
        raise NumericalError(
            "v_lr(mu) is nonfinite on the requested range; "
            "reduce hi or check the Hamiltonian entries"
        )

    # count strict sign changes of the discrete slope from - to +
    slopes = np.sign(np.diff(scan_vals))
    nz = slopes[slopes != 0]
    n_minima = int(np.sum((nz[:-1] < 0) & (nz[1:] > 0))) if nz.size > 1 else 0
    if n_minima > 1:
        mu_best = float(scan_mus[np.argmin(scan_vals)])
        return mu_best, certify(H, mu_best, grid, permutation)

    k = int(np.argmin(scan_vals))
    a = scan_mus[max(k - 1, 0)]
    b = scan_mus[min(k + 1, _SCAN_POINTS - 1)]
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = v_of_mu(c), v_of_mu(d)
    while (b - a) > _GOLDEN_RTOL * max(1.0, abs(b)):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = v_of_mu(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = v_of_mu(d)
    mu_best = float(0.5 * (a + b))
    return mu_best, certify(H, mu_best, grid, permutation)
