"""Spectral flow, the adiabatic intertwiner, and the adiabatic-condition chain.

A level of H(t) is a run of eigenvalues each at most CLUSTER_TOL above the
one before (``_level_ends``), so the gap above the ground level G exceeds
CLUSTER_TOL.  While G keeps its dimension, its projector G(t) is transported
exactly by the unitary generated by  H_ad(t) = H(t) + i [Gdot(t), G(t)]
(the intertwining property U_ad G(0) U_ad^dag = G(t)).  The mismatch
between the true evolution U and U_ad is captured by the wave operator
Omega = U_ad^dag U, its deviation delta(t) = ||1 - Omega||, and the final
ground-space leakage delta_ad.
Gdot is computed from first-order perturbation theory,

    Gdot = sum_{k outside, g inside} |k><k| Hdot |g><g| / (E_g - E_k) + h.c.,

which is exact for an isolated level and avoids finite-difference noise.

In the energy basis everything the layer measures is one block: how the
excited columns V_E(t) of an eigenframe meet the ground columns V_G,

    V_E(t)^dag W V_G,

read by ``_excited_ground``.  With W = Hdot(t) and V_G = V_G(t) it gives
R = Gdot's excited-ground block, and so H - H_ad; with W = U(t) and
V_G = V_G(0) it gives the ground-space leakage delta_ad and the
intertwining defect, since for projectors of equal rank
||P - Q|| = ||(1 - Q) P|| (Kato, Perturbation Theory for Linear Operators,
I 4.6), and the crossing amplitudes of the empirical LR speed.  No d x d
projector is formed, and ``_excited_ground`` reads the frames in place.
On the grid the frames are the flow's, refused unless they diagonalize
H there (``_check_frames``); h_ad diagonalizes H itself at times off the
grid.

The eigenframes are eigh's as they come: each column is fixed only up to a
phase, and the columns of a level (the ground level, or an excited one)
only up to a unitary rotation inside it.  Everything read from them is
invariant under both: moduli of amplitudes, operator norms of the block,
and Frobenius norms of its rows grouped by level.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import GapClosureError, LevelCrossingError, ValidationError
from .locality import LocalityCertificate
from .models import TimeDependentHamiltonian
from .numerics import TimeGrid, check_aligned, operator_norms, run_tasks
from .propagation import Propagator, _times, evolve_on_grid

CLUSTER_TOL = 1e-8
# relative residual max |H V - V diag(w)| / max(1, max |H|) above which a
# flow's frames are not H's: far above eigh's rounding, and above a rotation
# inside a level a hundred CLUSTER_TOL spacings wide
FRAME_TOL = 1e-6


@dataclass(eq=False)
class SpectralFlow:
    """Eigen-data of H(t) along a grid with a tracked ground level."""

    grid: TimeGrid
    eigenvalues: np.ndarray  # (times, dim), ascending
    # (times, dim, dim), eigh's eigenvector columns: each fixed only up to a
    # phase, and the columns of a level up to a rotation inside it
    basis: np.ndarray
    gap: np.ndarray  # (times,), each above CLUSTER_TOL
    gap_min: float
    ground_dim: int


def _level_ends(vals: np.ndarray) -> np.ndarray:
    """The mask of each level's highest column in ascending eigenvalues vals
    (times, dim): a column ends its level unless the next eigenvalue lies at
    most CLUSTER_TOL above it.  Every reader of levels goes through here."""
    ends = np.ones(vals.shape, dtype=bool)
    ends[:, :-1] = np.diff(vals, axis=1) > CLUSTER_TOL
    return ends


def _ground_gap(vals: np.ndarray, ts: np.ndarray, gdim: int) -> np.ndarray:
    """Gap above the ground level at each time, after checking that the
    level spans gdim columns at every time; so every gap exceeds CLUSTER_TOL."""
    dims = np.argmax(_level_ends(vals), axis=1) + 1
    if np.any(dims != gdim):
        k = int(np.nonzero(dims != gdim)[0][0])
        raise LevelCrossingError(
            f"ground cluster dimension changed from {gdim} to {dims[k]} "
            f"at t={ts[k]}"
        )
    return vals[:, gdim] - vals[:, gdim - 1]


def spectral_flow(H: TimeDependentHamiltonian, grid: TimeGrid) -> SpectralFlow:
    """Diagonalize H along the grid and track the ground level.

    The ground level is the lowest run of eigenvalues each at most
    CLUSTER_TOL above the one before.  Its dimension must stay constant
    across the grid, and a level must lie above it, more than CLUSTER_TOL up.
    """
    vals, vecs = np.linalg.eigh(H.evaluate_batch(grid.points))
    gdim = int(np.argmax(_level_ends(vals[:1])[0])) + 1
    if gdim >= H.dimension:
        raise GapClosureError("the ground cluster spans the whole spectrum")
    gap = _ground_gap(vals, grid.points, gdim)
    return SpectralFlow(
        grid=grid,
        eigenvalues=vals,
        basis=vecs,
        gap=gap,
        gap_min=float(gap.min()),
        ground_dim=gdim,
    )


def _check_frames(mats: np.ndarray, vals: np.ndarray, vecs: np.ndarray) -> None:
    """Refuse eigen-data (vals, vecs) that do not diagonalize the matrices
    mats they are read against, such as a flow of another H: a residual
    max |H V - V diag(w)| above FRAME_TOL max(1, max |H|)."""
    resid = np.abs(mats @ vecs - vecs * vals[:, None, :]).max(initial=0.0)
    if resid > FRAME_TOL * max(1.0, np.abs(mats).max(initial=0.0)):
        raise ValidationError(
            f"the flow's frames are not H's eigenvectors: residual {resid:.3e}"
        )


def _excited_ground(V: np.ndarray, W: np.ndarray, VG: np.ndarray) -> np.ndarray:
    """The block V_E^dag W V_G, batched over leading axes: V_G the given
    ground columns, V_E the columns of the frames V past the first |G|.

    The frames are read in place.  The small S = W V_G comes first; real
    frames then multiply it as the transposed view V_E^T (``_times``), and
    complex frames give (S^dag V_E)^dag, so only arrays of S's size and of
    the result's are conjugated."""
    S = W @ VG
    VE = V[..., VG.shape[-1] :]
    if np.iscomplexobj(V):
        return (S.conj().swapaxes(-1, -2) @ VE).conj().swapaxes(-1, -2)
    return _times(VE.swapaxes(-1, -2), S)


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
    H is diagonalized at each time off it, and the flow's eigen-data are
    gathered for the times on it alone (an integrator batch asks for three
    off-grid times to each one on it) and refused unless they diagonalize
    H there (``_check_frames``).  The ground level must keep the flow's
    dimension at every time, so every gap E_k - E_g exceeds CLUSTER_TOL.

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
    on = pts[k] == ts
    vals = np.empty((len(ts), H.dimension))
    vecs = np.empty((len(ts), H.dimension, H.dimension), flow.basis.dtype)
    vals[on], vecs[on] = flow.eigenvalues[k[on]], flow.basis[k[on]]
    _check_frames(mats[on], vals[on], vecs[on])
    if not on.all():
        vals[~on], vecs[~on] = np.linalg.eigh(mats[~on])
    _ground_gap(vals, ts, gdim)
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

    U needs no flow, so it is one task of ``run_tasks`` and the flow, then
    U_ad, the other: with two or more workers (``LRLAB_THREADS``, else the
    CPU count) they run side by side, and with one, in that order.  Errors
    come in that order either way: U's, then the flow's, then U_ad's.

    Warns when the measured intertwining defect exceeds 10x the integration
    tolerance, which signals insufficient grid resolution.
    """

    def flow_and_u_ad():
        flow = spectral_flow(H, grid)
        return flow, evolve_adiabatic(H, flow, tol)

    U, (flow, U_ad) = run_tasks([lambda: evolve_on_grid(H, grid, tol), flow_and_u_ad])
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
        """The scalar fields by name; the per-time arrays are left out."""
        return {k: v for k, v in vars(self).items() if np.ndim(v) == 0}


def condition_report(
    H: TimeDependentHamiltonian,
    flow: SpectralFlow,
    certificate: LocalityCertificate,
) -> ConditionReport:
    """Evaluate the adiabatic-condition ratios on the flow's grid, from the
    flow's eigenframes, which must diagonalize H there (``_check_frames``).

    In the eigenbasis of H(t), H - H_ad = -i [Gdot, G] has only the
    excited-ground blocks -i R and their adjoint (see ``_gdot_eigframe``).
    So ||H - H_ad|| is the top singular value of R.  The excited columns
    form levels K as ``_level_ends`` groups them (runs spaced at most
    CLUSTER_TOL), and each K meets the whole ground level G, whose gap
    exceeds CLUSTER_TOL, in one block G + K, of norm
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
    _check_frames(H.evaluate_batch(pts), flow.eigenvalues, flow.basis)
    R = _gdot_eigframe(H, pts, flow.eigenvalues, flow.basis, gdim)
    hdiff = operator_norms(R)
    # a level K's block norm goes to its highest column, where max K is:
    # ends marks those columns, and ids count the ends before each column
    ends = _level_ends(flow.eigenvalues[:, gdim:])
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
