"""Spectral flow, the adiabatic intertwiner, and the adiabatic-condition chain.

For a Hamiltonian whose lowest eigenvalue cluster stays separated by a gap,
the spectral projector G(t) is transported exactly by the unitary generated
by  H_ad(t) = H(t) + i [Gdot(t), G(t)]  (the intertwining property
U_ad G(0) U_ad^dag = G(t)).  The mismatch between the true evolution U and
U_ad is captured by the wave operator Omega = U_ad^dag U, its deviation
delta(t) = ||1 - Omega||, and the final ground-space leakage delta_ad.
Gdot is computed from first-order perturbation theory,

    Gdot = sum_{k outside, g inside} |k><k| Hdot |g><g| / (E_g - E_k) + h.c.,

which is exact for an isolated cluster and avoids finite-difference noise.

In the energy basis everything the layer measures is one block: how the
excited columns V_E(t) of an eigenframe meet the ground columns V_G,

    V_E(t)^dag W V_G,

read by ``_excited_ground``.  With W = Hdot(t) and V_G = V_G(t) it gives
R = Gdot's excited-ground block, and so H - H_ad; with W = U(t) and
V_G = V_G(0) it gives the ground-space leakage delta_ad and the
intertwining defect, since for projectors of equal rank
||P - Q|| = ||(1 - Q) P|| (Kato, Perturbation Theory for Linear Operators,
I 4.6).  No d x d projector is formed.  On the grid the frames
are the flow's; h_ad diagonalizes H itself at times off the grid.

The eigenframes are eigh's as they come: each column is fixed only up to a
phase, and the columns of a degenerate level (the ground cluster, or an
excited level) only up to a unitary rotation inside it.  Everything read
from them is invariant under both: moduli of amplitudes, operator norms of
the block, and Frobenius norms of its rows grouped by level.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import GapClosureError, IllConditionedError, LevelCrossingError
from .locality import LocalityCertificate
from .models import TimeDependentHamiltonian
from .numerics import TimeGrid, _worker_count, check_aligned, operator_norms
from .propagation import Propagator, evolve_on_grid

DEFAULT_CLUSTER_TOL = 1e-8
MIN_DERIVATIVE_GAP = 1e-8


@dataclass(eq=False)
class SpectralFlow:
    """Eigen-data of H(t) along a grid with a tracked ground cluster."""

    grid: TimeGrid
    eigenvalues: np.ndarray  # (times, dim), ascending
    # (times, dim, dim), eigh's eigenvector columns: each fixed only up to a
    # phase, and the columns of a degenerate level up to a rotation inside it
    basis: np.ndarray
    gap: np.ndarray  # (times,)
    gap_min: float
    ground_dim: int
    cluster_tol: float


def _cluster_gap(
    vals: np.ndarray, ts: np.ndarray, gdim: int, cluster_tol: float
) -> np.ndarray:
    """Gap above the ground cluster at each time, after checking that the
    cluster (eigenvalues within cluster_tol of the lowest) spans gdim levels
    at every time.  That forces vals[:, gdim] > vals[:, gdim - 1]."""
    dims = (vals - vals[:, :1] <= cluster_tol).sum(axis=1)
    if np.any(dims != gdim):
        k = int(np.nonzero(dims != gdim)[0][0])
        raise LevelCrossingError(
            f"ground cluster dimension changed from {gdim} to {dims[k]} "
            f"at t={ts[k]}"
        )
    return vals[:, gdim] - vals[:, gdim - 1]


def spectral_flow(
    H: TimeDependentHamiltonian,
    grid: TimeGrid,
    cluster_tol: float = DEFAULT_CLUSTER_TOL,
) -> SpectralFlow:
    """Diagonalize H along the grid and track the ground cluster.

    The cluster is the set of eigenvalues within cluster_tol of the lowest;
    its dimension must stay constant across the grid and the gap to the rest
    of the spectrum must stay positive.
    """
    vals, vecs = np.linalg.eigh(H.evaluate_batch(grid.points))
    gdim = int(np.sum(vals[0] - vals[0, 0] <= cluster_tol))
    if gdim >= H.dimension:
        raise GapClosureError("the ground cluster spans the whole spectrum")
    gap = _cluster_gap(vals, grid.points, gdim, cluster_tol)
    return SpectralFlow(
        grid=grid,
        eigenvalues=vals,
        basis=vecs,
        gap=gap,
        gap_min=float(gap.min()),
        ground_dim=gdim,
        cluster_tol=cluster_tol,
    )


def _check_derivative_gap(gap: np.ndarray, ts: np.ndarray) -> None:
    """Refuse gaps at or below MIN_DERIVATIVE_GAP, where the projector
    derivative's 1/(E_g - E_k) blows up."""
    low = gap <= MIN_DERIVATIVE_GAP
    if np.any(low):
        k = int(np.nonzero(low)[0][0])
        raise IllConditionedError(
            f"gap {gap[k]:.3e} below {MIN_DERIVATIVE_GAP} at t={ts[k]}: "
            "projector derivative is ill-conditioned"
        )


def _excited_ground(V: np.ndarray, W: np.ndarray, VG: np.ndarray) -> np.ndarray:
    """The block V_E^dag W V_G, batched over leading axes: V_G the given
    ground columns, V_E the columns of the frames V past the first |G|."""
    return V[..., VG.shape[-1] :].conj().swapaxes(-1, -2) @ (W @ VG)


def _gdot_eigframe(
    H: TimeDependentHamiltonian,
    ts: np.ndarray,
    vals: np.ndarray,
    vecs: np.ndarray,
    gdim: int,
) -> np.ndarray:
    """Excited-to-ground block R of Gdot in the instantaneous eigenframe:
    R[t, k, g] = <k|Hdot|g> / (E_g - E_k)."""
    W = _excited_ground(vecs, H.derivative_batch(ts), vecs[..., :gdim])
    return W / (vals[:, None, :gdim] - vals[:, gdim:, None])  # E_g - E_k


def h_ad(
    H: TimeDependentHamiltonian, flow: SpectralFlow, ts: np.ndarray
) -> np.ndarray:
    """Adiabatic generator H(t) + i [Gdot(t), G(t)] at each of the times ts,
    shape (len(ts), dim, dim).  The times need not lie on the flow's grid:
    H is diagonalized at each time off it, and the flow's eigen-data, of
    that same H, serve the times on it.  The cluster size and cluster_tol
    are the flow's.

    In the eigenframe i [Gdot, G] has only the excited-ground block i R and
    its adjoint, so it is i (X - X^dag) with X = V_E R V_G^dag.  That is
    added to the evaluated H itself, so the result is exactly Hermitian.
    For a real H the frames, R and X are real, and the result is complex
    only from the factor i on.
    """
    ts = np.asarray(ts, dtype=float)
    gdim = flow.ground_dim
    mats = H.evaluate_batch(ts)
    pts = flow.grid.points
    k = np.minimum(np.searchsorted(pts, ts), len(pts) - 1)
    off = pts[k] != ts
    vals, vecs = flow.eigenvalues[k], flow.basis[k]
    if off.any():
        vals[off], vecs[off] = np.linalg.eigh(mats[off])
    _check_derivative_gap(_cluster_gap(vals, ts, gdim, flow.cluster_tol), ts)
    R = _gdot_eigframe(H, ts, vals, vecs, gdim)
    D = vecs[..., gdim:] @ R @ vecs[..., :gdim].conj().swapaxes(-1, -2)
    del vecs, R  # free the frames, then assemble: this sets the peak
    D -= D.conj().swapaxes(-1, -2)
    D = 1j * D  # out of place: for a real H, D is real up to here
    D += mats
    return D


class _AdiabaticGenerator:
    """Evaluate H_ad(t) batches; plugs into the shared integrator."""

    def __init__(self, H: TimeDependentHamiltonian, flow: SpectralFlow):
        self._H = H
        self._flow = flow
        self.dimension = H.dimension

    def evaluate_batch(self, ts: np.ndarray) -> np.ndarray:
        return h_ad(self._H, self._flow, ts)


def intertwining_defect(U_ad: Propagator, flow: SpectralFlow) -> float:
    """max over checkpoints of || U_ad G(0) U_ad^dag - G(t) ||, read as

        max_t || V_E(t)^dag U_ad(t) V_G(0) ||_2:

    the two projectors have equal rank, so their distance is the norm of
    the transported ground columns' excited part.  The identity assumes a
    unitary U_ad; otherwise it is off by O(unitarity_defect).  It is
    invariant under phases and under rotations inside degenerate levels.
    """
    check_aligned(flow.grid, U_ad.grid)
    ground = flow.basis[0][:, : flow.ground_dim]
    leak = _excited_ground(flow.basis, U_ad.unitaries, ground)
    return float(operator_norms(leak).max())


def evolve_adiabatic(
    H: TimeDependentHamiltonian, flow: SpectralFlow, tol: float = 1e-9
) -> Propagator:
    """Propagator generated by H_ad on the flow's grid."""
    return evolve_on_grid(_AdiabaticGenerator(H, flow), flow.grid, tol)


def adiabatic_error(U: Propagator, flow: SpectralFlow) -> float:
    """Final ground-space leakage of the exact evolution,

        delta_ad = ||V_E(T)^dag U(T, 0) V_G(0)||_F^2 / |G|,

    with V_G(0) the flow's ground columns at t = 0 and V_E(T) its excited
    columns at T: the weight the evolved, maximally mixed initial ground
    state leaves outside G(T).  For |G| = 1 it is 1 - <psi(T)| G(T) |psi(T)>
    with |psi(T)> = U(T, 0) |ground(0)>, but is a sum of non-negative terms
    rather than a difference from 1.  The identity assumes a unitary U;
    otherwise it is off by O(unitarity_defect).  It is invariant under
    phases and under rotations inside degenerate levels.
    """
    check_aligned(flow.grid, U.grid)
    ground = flow.basis[0][:, : flow.ground_dim]
    leak = _excited_ground(flow.basis[-1], U.unitaries[-1], ground)
    return float(np.sum(np.abs(leak) ** 2) / flow.ground_dim)


def wave_operator_errors(
    U: Propagator, U_ad: Propagator, flow: SpectralFlow
) -> tuple[np.ndarray, float]:
    """delta(t) = ||1 - U_ad^dag U|| per checkpoint, plus delta_ad(T)."""
    check_aligned(flow.grid, U.grid, U_ad.grid)
    omega = U_ad.unitaries.conj().transpose(0, 2, 1) @ U.unitaries
    return operator_norms(np.eye(U.dimension) - omega), adiabatic_error(U, flow)


@dataclass(eq=False)
class AdiabaticRun:
    """One complete schedule: flow, both propagators, and error measures."""

    flow: SpectralFlow
    U: Propagator
    U_ad: Propagator
    delta_ad_final: float
    intertwining_defect: float


def run_adiabatic(
    H: TimeDependentHamiltonian, grid: TimeGrid, tol: float = 1e-9
) -> AdiabaticRun:
    """Flow, U and U_ad on the grid, the final leakage delta_ad of U
    (``adiabatic_error``) and the intertwining defect of U_ad.  The
    wave-operator errors delta(t) are not computed: pass the run's U, U_ad
    and flow to ``wave_operator_errors`` for them.

    U needs no flow, so with two or more workers (``LRLAB_THREADS``, else
    the CPU count) it runs on a second thread while this one computes the
    flow and then U_ad; with one, all three run here in that order.  Errors
    come in the serial order either way: the flow's, then U's, then U_ad's.

    Warns when the measured intertwining defect exceeds 10x the integration
    tolerance, which signals insufficient grid resolution.
    """
    if _worker_count(2) == 1:
        flow = spectral_flow(H, grid)
        U = evolve_on_grid(H, grid, tol)
        U_ad = evolve_adiabatic(H, flow, tol)
    else:
        with ThreadPoolExecutor(max_workers=1) as pool:
            future = pool.submit(evolve_on_grid, H, grid, tol)
            flow = spectral_flow(H, grid)
            try:
                U_ad = evolve_adiabatic(H, flow, tol)
            except Exception:
                future.result()  # U's error comes before U_ad's
                raise
            U = future.result()
    delta_ad = adiabatic_error(U, flow)
    defect = intertwining_defect(U_ad, flow)
    if defect > 10.0 * tol:
        warnings.warn(
            f"intertwining defect {defect:.3e} exceeds 10 x tol={tol:.1e}; "
            "consider a finer grid or tighter tolerance",
            RuntimeWarning,
            stacklevel=2,
        )
    return AdiabaticRun(
        flow=flow,
        U=U,
        U_ad=U_ad,
        delta_ad_final=delta_ad,
        intertwining_defect=defect,
    )


@dataclass(eq=False)
class ConditionReport:
    """The slow-driving ratios and the locality-to-adiabaticity chain."""

    hdiff_gap_ratio: float  # max ||H - H_ad|| / gap_min
    hdot_gap_ratio: float  # max ||Hdot|| / gap_min^2
    vlr_gap_ratio: float  # (a_mu_max / mu) / gap_min
    chain_block_term: float  # max_t block_sums / (mu |G| gap_min)
    chain_norm_term: float  # max_t ||H - H_ad|| / (mu |G| gap_min)
    epsilon_scale: float  # |G| mu; converts the chain scale to the plain one
    hdiff_norms: np.ndarray  # per-time ||H - H_ad||
    hdot_norms: np.ndarray  # per-time ||Hdot||
    # per-time sum_K ||R[K, :]||_F over the blocks G + K, K an excited level
    block_sums: np.ndarray
    # per-time sum_K ||R[K, :]||_F e^(mu max K) / |G|
    energy_locality: np.ndarray
    gap_min: float
    ground_dim: int
    mu: float

    def to_json_dict(self) -> dict:
        return {
            "hdiff_gap_ratio": self.hdiff_gap_ratio,
            "hdot_gap_ratio": self.hdot_gap_ratio,
            "vlr_gap_ratio": self.vlr_gap_ratio,
            "chain_block_term": self.chain_block_term,
            "chain_norm_term": self.chain_norm_term,
            "epsilon_scale": self.epsilon_scale,
            "gap_min": self.gap_min,
            "ground_dim": self.ground_dim,
            "mu": self.mu,
        }


def condition_report(
    H: TimeDependentHamiltonian,
    flow: SpectralFlow,
    certificate: LocalityCertificate,
) -> ConditionReport:
    """Evaluate the adiabatic-condition ratios on the flow's grid, from the
    flow's eigenframes.

    In the eigenbasis of H(t), H - H_ad = -i [Gdot, G] has only the
    excited-ground blocks -i R and their adjoint (see ``_gdot_eigframe``).
    So ||H - H_ad|| is the top singular value of R.  Excited levels within
    the flow's cluster_tol of their neighbour form one level K, and each K
    meets the whole ground cluster G in one block G + K, of norm
    ||R[K, :]||_F and diameter max K: ``block_sums`` adds their norms, and
    ``energy_locality`` weights them by e^(mu max K) and divides by |G|.
    These norms are invariant under rotations inside G and inside K, and
    for |G| = 1 and a simple spectrum the blocks are the pairs {0, k}.  The
    chain terms compare the two sides of the triangle inequality
    block_sums >= ||H - H_ad|| (over the row groups of R, as the Frobenius
    norm bounds the operator norm) at the shared scale 1/(mu |G| gap_min).
    """
    pts = flow.grid.points
    gdim = flow.ground_dim
    mu = certificate.mu
    _check_derivative_gap(flow.gap, pts)
    R = _gdot_eigframe(H, pts, flow.eigenvalues, flow.basis, gdim)
    hdiff = operator_norms(R)
    # a level K's block norm goes to its highest column, where max K is:
    # ends marks those columns, and ids count the ends before each column
    splits = np.diff(flow.eigenvalues[:, gdim:], axis=1) > flow.cluster_tol
    ends = np.pad(splits, ((0, 0), (0, 1)), constant_values=True)
    row_sq = np.sum(np.abs(R) ** 2, axis=2)
    blocks = np.zeros_like(row_sq)
    blocks[ends] = np.sqrt(np.bincount(np.cumsum(ends) - ends.ravel(), row_sq.ravel()))
    block_sums = blocks.sum(axis=1)
    energy_locality = blocks @ np.exp(mu * np.arange(gdim, H.dimension)) / gdim
    hdot = operator_norms(H.derivative_batch(pts))

    gap_min = flow.gap_min
    scale = 1.0 / (mu * gdim * gap_min)
    return ConditionReport(
        hdiff_gap_ratio=float(hdiff.max() / gap_min),
        hdot_gap_ratio=float(hdot.max() / gap_min**2),
        vlr_gap_ratio=float(certificate.v_lr_max / gap_min),
        chain_block_term=float(block_sums.max() * scale),
        chain_norm_term=float(hdiff.max() * scale),
        epsilon_scale=float(gdim * mu),
        hdiff_norms=hdiff,
        hdot_norms=hdot,
        block_sums=block_sums,
        energy_locality=energy_locality,
        gap_min=gap_min,
        ground_dim=gdim,
        mu=mu,
    )
