"""Locality certification and Lieb-Robinson speed estimation.

A Hamiltonian written as a sum of block terms H = sum_Z H_Z is "local" in a
given basis ordering when, for every level i,

    sum_{Z containing i} |Z| ||H_Z|| exp(mu diam(Z)) <= a_mu(t),

for some rate mu > 0 and integrable a_mu(t).  The tightest such a_mu(t)
(the max over levels) feeds the LR speed  V_LR = <a_mu>_t / mu, where
<a_mu>_t is the time average.  For matrices confined to an
exponential envelope |H_ij| <= h exp(-mu' |i-j|) there is a closed-form
bound 4h / (1 - exp(mu - mu')) and an optimal rate w(e^(1+mu')) - 1 in
terms of the product logarithm w.

``_a_mu`` takes a_mu at one rate from the |H| stack and its level-distance
table, ``_scan_v_lr`` at many rates for ``optimize_mu_generic``;
``numerics.running_trapezoid`` integrates it for the bound's exponent,
<a_mu>_t and every v_lr of the rate search.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .blocks import STRUCTURAL_ZERO, _check_hermitian
from .errors import NumericalError, ValidationError
from .models import ConstantHamiltonian, TimeDependentHamiltonian
from .numerics import TimeGrid, _product_log_of_exp, check_positive, running_trapezoid

# relative slack when comparing a locality load against a certificate's a_mu;
# guards the exact equality case (a certificate audited against its own H)
# against FP noise
_LOAD_RTOL = 1e-12
# optimize_mu_generic: points of the bracketing pre-scan, and the relative
# width at which the golden-section bracket stops
_SCAN_POINTS = 100
_GOLDEN_RTOL = 1e-6


def _check_load(a_mu: np.ndarray, mu: float) -> None:
    """Refuse a_mu samples that are not all finite: a load that overflows
    at mu bounds nothing."""
    if not np.all(np.isfinite(a_mu)):
        raise ValidationError(f"a_mu is not finite at mu={mu}")


@dataclass(frozen=True, eq=False)
class LocalityCertificate:
    """Locality data for one Hamiltonian at rate mu, in its own basis order.

    Built from mu, the grid and the a_mu(t) samples on it; another basis
    order is chosen by relabelling the matrix.  It keeps a read-only copy
    of the samples and derives the rest from them: a_mu_max, growth, the
    running trapezoid integral of a_mu over [0, t], which is the bound's
    exponent, the time average a_mu_timeavg = growth(T) / T, and the speeds
    v_lr and v_lr_max (those over mu).  A copy made by
    ``dataclasses.replace`` with new samples carries their figures.  A rate
    outside 0 < mu < inf and samples that are not all finite are refused.
    """

    mu: float
    grid: TimeGrid
    a_mu_samples: np.ndarray
    a_mu_max: float = field(init=False)
    a_mu_timeavg: float = field(init=False)
    growth: np.ndarray = field(init=False)

    def __post_init__(self):
        check_positive("mu", self.mu)
        samples = np.array(self.a_mu_samples, dtype=float)
        samples.setflags(write=False)
        # one per grid point: running_trapezoid refuses another length
        if samples.ndim != 1:
            raise ValidationError("a_mu_samples must be one value per grid point")
        _check_load(samples, self.mu)
        growth = running_trapezoid(samples, self.grid)
        growth.setflags(write=False)
        object.__setattr__(self, "a_mu_samples", samples)
        object.__setattr__(self, "a_mu_max", float(samples.max()))
        a_avg = float(growth[-1] / self.grid.t_final)
        object.__setattr__(self, "a_mu_timeavg", a_avg)
        object.__setattr__(self, "growth", growth)

    @property
    def v_lr(self) -> float:
        return self.a_mu_timeavg / self.mu

    @property
    def v_lr_max(self) -> float:
        return self.a_mu_max / self.mu

    def understated(self, H: TimeDependentHamiltonian) -> np.ndarray:
        """Grid indices where a_mu falls below H's locality load at mu by
        more than a relative _LOAD_RTOL.  The bound is proved only where
        a_mu bounds that load, so these points fail its hypothesis.  The
        load is H's own, so a certificate made from another H, of any
        dimension, is judged by the H it is checked against.  A load that
        overflows is never bounded, so its points are flagged too."""
        load = _a_mu(_abs_stack(H, self.grid), self.mu)
        return np.nonzero(~(self.a_mu_samples >= load * (1.0 - _LOAD_RTOL)))[0]

    def to_json_dict(self) -> dict:
        return {
            "mu": self.mu,
            "a_mu_max": self.a_mu_max,
            "a_mu_timeavg": self.a_mu_timeavg,
            "v_lr": self.v_lr,
            "v_lr_max": self.v_lr_max,
            "grid": [float(t) for t in self.grid.points],
            "a_mu": [float(a) for a in self.a_mu_samples],
        }


@functools.lru_cache(maxsize=16)
def _level_distances(d: int) -> np.ndarray:
    """The read-only table |i - j| of d levels, built once per dimension:
    ``bound_audit`` takes H's load, and so a new |H| stack, for every
    support pair."""
    idx = np.arange(d)
    dist = np.abs(idx[:, None] - idx)
    dist.setflags(write=False)
    return dist


def _abs_offdiag_and_diag(H: np.ndarray) -> tuple[np.ndarray, ...]:
    """(diag, off, dist) of a (times, d, d) stack of |H|: the diagonal, the
    off-diagonal part and the level distances |i - j|, clipped at the widest
    |i - j| of a nonzero entry anywhere in the stack.  Beyond that the
    weight e^(mu |i - j|) meets only zeros, so the clip changes no finite
    load and keeps 0 * inf = NaN out of a load that is finite."""
    W = np.abs(np.asarray(H))
    W[W <= STRUCTURAL_ZERO] = 0.0
    diag = np.diagonal(W, axis1=-2, axis2=-1).copy()
    idx = np.arange(W.shape[-1])
    W[..., idx, idx] = 0.0
    dist = _level_distances(W.shape[-1])
    return diag, W, np.minimum(dist, dist[W.any(axis=0)].max(initial=0))


def _a_mu(stack, mu: float) -> np.ndarray:
    """a_mu at rate mu for each matrix of a (diag, off, dist) stack of |H|,
    as from ``_abs_offdiag_and_diag``.

    Pairwise terms contribute 2 |H_ij| e^(mu |i - j|) to both levels of the
    pair and singleton terms |H_ii| to their level, so level i carries
    sum_{Z containing i} |Z| ||H_Z|| e^(mu diam Z), and a_mu is the max over
    levels.  A load that overflows reads inf or NaN, with no warning; the
    callers refuse it.
    """
    diag, off, dist = stack
    with np.errstate(over="ignore", invalid="ignore"):
        loads = diag + 2.0 * np.einsum("tij,ij->ti", off, np.exp(mu * dist))
    return loads.max(axis=1, initial=0.0)


def _scan_v_lr(stack, mus, grid: TimeGrid) -> np.ndarray:
    """v_lr at each rate of mus from a (diag, off, dist) stack of |H|, as a
    certificate reads it from ``_a_mu``'s samples: each level's
    (times, len(mus)) load is one product with the weights e^(mu |i - j|)
    at every rate, and a running maximum over levels gives a_mu.  A rate
    whose load overflows reads inf, with no warning."""
    diag, off, dist = stack
    a_mu = np.zeros((off.shape[0], len(mus)))
    loads = np.empty_like(a_mu)
    # overflow to inf (and inf * 0) is deliberate; callers check for it
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(off.shape[-1]):
            np.matmul(off[:, i, :], np.exp(dist[i][:, None] * mus), out=loads)
            loads *= 2.0
            loads += diag[:, i, None]
            np.maximum(a_mu, loads, out=a_mu)
        del loads  # freed before the integral allocates its result
        a_mu = np.broadcast_to(a_mu, (len(grid), len(mus)))
        return running_trapezoid(a_mu, grid)[-1] / grid.t_final / mus


def a_mu_pointwise(H: np.ndarray, mu: float) -> float:
    """Tightest locality constant of a Hermitian matrix at rate mu, from its
    pairwise decomposition: max over levels i of
    sum_{Z containing i} |Z| ||H_Z|| e^(mu diam Z)."""
    check_positive("mu", mu)
    a_mu = _a_mu(_abs_offdiag_and_diag(_check_hermitian(H)[None]), mu)
    _check_load(a_mu, mu)
    return float(a_mu[0])


def _abs_stack(
    H: TimeDependentHamiltonian, grid: TimeGrid
) -> tuple[np.ndarray, ...]:
    """(diag, off, dist) of |H| on the grid, as from ``_abs_offdiag_and_diag``:
    the evaluated (times, d, d) stack, or, for a ConstantHamiltonian, its one
    matrix as a (1, d, d) stack.  a_mu taken from it broadcasts over the
    grid either way."""
    if isinstance(H, ConstantHamiltonian):
        return _abs_offdiag_and_diag(H.matrix[None])
    return _abs_offdiag_and_diag(H.evaluate_batch(grid.points))


def _certificate(stack, mu: float, grid: TimeGrid) -> LocalityCertificate:
    """The certificate at mu from a (diag, off, dist) stack of |H| on the
    grid."""
    samples = np.broadcast_to(_a_mu(stack, mu), grid.points.shape)
    return LocalityCertificate(float(mu), grid, samples)


def certify(
    H: TimeDependentHamiltonian, mu: float, grid: TimeGrid
) -> LocalityCertificate:
    """Sample a_mu(t) on the grid, in H's own basis order, and assemble the
    LR-speed certificate.  The certificate refuses a rate outside
    0 < mu < inf, and one whose load overflows."""
    return _certificate(_abs_stack(H, grid), mu, grid)


def exp_local_bound(h: float, mu_prime: float, mu: float) -> float:
    """Closed-form locality constant 4h / (1 - e^(mu - mu')) for matrices
    inside the envelope |H_ij| <= h e^(-mu' |i-j|); finite only for mu < mu'."""
    check_positive("h", h)
    check_positive("mu_prime", mu_prime)
    if not mu >= 0:
        raise ValidationError(f"mu must be nonnegative, got {mu}")
    if mu >= mu_prime:
        raise ValidationError(
            f"divergent regime: mu={mu} must be below mu_prime={mu_prime}"
        )
    return 4.0 * h / -np.expm1(mu - mu_prime)


def optimal_mu_exp_local(h: float, mu_prime: float) -> tuple[float, float]:
    """Optimal rate and minimal LR speed for the exponential envelope.

    The minimum of 4h / [mu (1 - e^(mu - mu'))] over mu sits at
    mu = w(e^(1 + mu')) - 1 with w the product logarithm, the root of
    w + ln w = 1 + mu', which is solved in log space for every finite mu'.
    """
    # named here, before the product logarithm; exp_local_bound checks h
    check_positive("mu_prime", mu_prime)
    mu_min = _product_log_of_exp(1.0 + mu_prime) - 1.0
    v_min = exp_local_bound(h, mu_prime, mu_min) / mu_min
    return float(mu_min), float(v_min)


def optimize_mu_generic(
    H: TimeDependentHamiltonian,
    grid: TimeGrid,
    mu_range: tuple[float, float],
) -> tuple[float, LocalityCertificate]:
    """Minimize v_lr(mu) over [lo, hi] by golden-section search.

    v_lr(mu) = f(mu) / mu has a single minimum on mu > 0: f, the trapezoid
    time average of the max over levels of diag_i + 2 sum_j |H_ij|
    e^(mu dist_ij), is a non-negative-weighted sum of maxima of convex
    functions, so it is convex and non-negative, and the sublevel sets
    {f(mu) <= c mu} of f / mu are intervals (f / mu is quasiconvex).  A
    coarse scan of _SCAN_POINTS values brackets that minimum between the
    neighbours of the scan's best point, and the golden-section search
    narrows the bracket, one rate at a time; ``_scan_v_lr`` takes both.
    H is evaluated on the grid once: the scan, the search and the returned
    certificate read the same |H| stack.
    """
    lo, hi = float(mu_range[0]), float(mu_range[1])
    if not (0.0 < lo < hi < np.inf):
        raise ValidationError(f"need 0 < lo < hi < inf, got ({lo}, {hi})")

    stack = _abs_stack(H, grid)

    def v_of_mu(mu: float) -> float:
        return _scan_v_lr(stack, [mu], grid)[0]

    scan_mus = np.linspace(lo, hi, _SCAN_POINTS)
    scan_vals = _scan_v_lr(stack, scan_mus, grid)
    if not np.all(np.isfinite(scan_vals)):
        raise NumericalError(
            "v_lr(mu) is nonfinite on the requested range; "
            "reduce hi or check the Hamiltonian entries"
        )

    k = int(np.argmin(scan_vals))
    a = scan_mus[max(k - 1, 0)]
    b = scan_mus[min(k + 1, _SCAN_POINTS - 1)]
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = v_of_mu(c), v_of_mu(d)
    while (b - a) > _GOLDEN_RTOL * b:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = v_of_mu(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = v_of_mu(d)
    mu_best = float(0.5 * (a + b))
    return mu_best, _certificate(stack, mu_best, grid)
