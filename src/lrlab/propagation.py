"""Time-ordered propagators and direct verification of the commutator and
propagator-spread bounds.

Each grid interval is cut into m substeps [t, t + h], and each substep
takes two Magnus steps at once (Blanes, Casas & Ros, BIT 40 (2000) 434;
Blanes, Casas, Oteo & Ros, Phys. Rep. 470 (2009) 151), from
A(c) = -i h H(t + c h):

- Omega6, sixth order, from A_1, A_2, A_3 = A(c) at the three
  Gauss-Legendre nodes c = 1/2 - sqrt(15)/10, 1/2, 1/2 + sqrt(15)/10:

      a1 = A_2,  a2 = (sqrt(15)/3)(A_3 - A_1),  a3 = (10/3)(A_3 - 2 A_2 + A_1),
      C1 = [a1, a2],  C2 = -[a1, 2 a3 + C1]/60,
      Omega6 = a1 + a3/12 + [-20 a1 - a3 + C1, a2 + C2]/240.

- Omega4, fourth order, from B_0, B_m, B_1 = A(0), A(1/2), A(1), the
  substep's ends and midpoint (Simpson's nodes):

      Omega4 = (B_0 + 4 B_m + B_1)/6 - [B_0, B_1]/12.

The step kernel takes each generator in its Hermitian form M = i Omega / h,
as exp(-i h M).  With H(c) = H(t + c h), c_lo and c_hi the outer Gauss
nodes, Hm = H(1/2) and a_k = -i h b_k, that is
b2 = (sqrt(15)/3)(H(c_hi) - H(c_lo)) and b3 = (10/3)(H(c_hi) - 2 Hm + H(c_lo)):

      M4 = (H(0) + 4 Hm + H(1))/6 + i (h/12) [H(0), H(1)],
      P = [Hm, b2],  Q = [Hm, b3],  A = 20 Hm + b3,  B = b2 + (h^2/60) [Hm, P],
      M6 = Hm + b3/12 + (i h/240) [A, B] - (h^2/7200) [A, Q]
           - (h^2/240) [P, B] - (i h^3/7200) [P, Q].

H, b2, b3, A and B are Hermitian and P and Q anti-Hermitian, so each
commutator takes one product: [X, Y] = XY - (XY)^dag for two of a kind and
XY + (XY)^dag for one of each.  M6's four are Y + Y^dag with
Y = A ((i h/240) B - (h^2/7200) Q) - P ((h^2/240) B + (i h^3/7200) Q), two
products.  For a real H every product is real: a real matrix takes a
complex one's real and imaginary parts in one real product.

The midpoint is also the middle Gauss node, and neighbouring substeps share
their ends, so a substep evaluates H at four new times.  The chains of
exp(Omega6) and exp(Omega4) steps, U6 and U4, run side by side: U6 is
returned and U4 only checks it.  So a level keeps U6's checkpoints alone;
U4's pass through a buffer of one batch of substeps, where they are
compared with U6's and dropped.  max over checkpoints of ||U4 - U6|| is
about U4's error, O(h^4), so it overstates U6's, O(h^6).  The companion
has a quadrature of its own on purpose.  The fourth-order generator at
the same Gauss nodes, a1 + a3/12 - C1/12, equals Omega6 whenever H(t)
commutes with itself, so for H = cos(w t) A that pair reads 0 whatever
the error.

- Unitary to rounding: M4 and M6 are sums of Hermitian matrices, each a
  real combination of H's or an X + X^dag, so they are Hermitian bit for
  bit and exp(-i h M) is unitary.  It is taken from a
  scaling-and-squaring Taylor series in matrix products alone, cut where a
  rigorous bound on the dropped tail falls below 2^-53 (see
  _unitary_steps).  No step is unitary by construction: the truncation
  bound and a polar re-orthonormalization every 256 grid intervals keep it
  so, and every Propagator measures its unitarity_defect on first read.
- Constant H: the three Gauss nodes agree, so b2 = b3 = 0 exactly, M6 is
  H bit for bit and the returned step is the kernel's exp(-i h H).

A level m is accepted once max ||U4 - U6|| and a rounding floor
sqrt(n_int m) d 2^-53 are both below the tolerance.  The floor stands for
the rounding the two chains share, which their difference cannot see: the
n_int m rounded products of d x d unitaries behind the last checkpoint.
Otherwise m doubles, and the doubling stops with an IntegrationError once
it no longer lowers the level's defect.  A failed level's checkpoints are
freed before the next level's are made, and the accepted ones become the
Propagator's unitaries uncopied.  A batch takes n substeps, the largest
power of two n <= 256 with n d^2 <= 8192, so that one complex (n, d, d)
stack of it stays within 128 KiB: 64 at d = 11, 8 at d = 32.  So
evolve_on_grid peaks near its one (len(grid), d, d) result, not several:
1.44x for the bundled ramp on 2001 points and 1.11x at d = 32 on 1025
(3.45x and 5.75x with batches of 256 substeps).

A ConstantHamiltonian skips the integrator: U(t) = V e^(-i t w) V^dag
from one eigh of H = V diag(w) V^dag serves every checkpoint, with U(0)
set to exactly I.  Its Propagator reports step 0.0 (no substeps) and the
requested tolerance, or the measured unitarity defect where that is larger:
rounding, not truncation, bounds the closed form's error.  Both the defect
and that tolerance are computed on first read, so a run that reads neither
never pays for the Gram matrices.  For constant H the integrator is kept as
a test oracle.

The bound audit reads ||[U^dag P_A U, P_B]|| = ||U[A, B] U[A^c, B]^dag||
from a block of the propagator (|U_ab| ||U[A^c, b]|| for singletons, from
the one column b, which Propagator.columns lays out once per propagator):
with
Q = U^dag P_A U and P = P_B, QP - PQ = QP(1 - Q) - (1 - Q)PQ, two mutually
adjoint off-diagonal blocks of norm ||QP(1 - Q)||.  The identity assumes a
unitary U; otherwise it departs from the commutator of the conjugated
projector by O(unitarity_defect).  ``tests/_oracles.commutator_norm`` keeps
the generic form as the independent check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import HERMITICITY_TOL, Block, block_distance
from .errors import IntegrationError, ValidationError
from .locality import LocalityCertificate
from .models import ConstantHamiltonian
from .numerics import TimeGrid, check_aligned, csv_text, operator_norms

# matrix entries in one (n, d, d) stack of a batch: 128 KiB when complex
_BATCH_ENTRIES = 8192
# running product re-orthonormalized every this many grid intervals
_POLAR_EVERY = 256
# the halving loop also stops once the smallest level defect seen, if below
# this floor, survives two more levels
_STALL_FLOOR = 1e-6
# outer Gauss-Legendre nodes of a substep [t, t + h] at
# t + (1/2 -+ sqrt(15)/10) h (the third is the midpoint), and the weight of
# their difference in Omega6
_GAUSS_LO = 0.5 - np.sqrt(15.0) / 10.0
_GAUSS_HI = 0.5 + np.sqrt(15.0) / 10.0
_GAUSS_SLOPE = np.sqrt(15.0) / 3.0
# the Taylor series of a substep's exponential is cut where its tail bound
# falls below the unit roundoff of double precision
_UNIT_ROUNDOFF = 2.0**-53
# an audit margin below -VIOLATION_THRESHOLD, or NaN, violates the bound
VIOLATION_THRESHOLD = 1e-9


class Propagator:
    """Checkpointed unitary U(t, 0) on a time grid.

    step is the widest substep, 0.0 for the closed form, which takes none.
    unitarity_defect, max over checkpoints of ||U^dag U - I||, is measured
    on first read and cached, unless it was given.  tolerance is the
    contract every checkpoint meets: the requested tol for an integrated
    propagator; for the closed form, whose error rounding bounds, the
    requested tol or the measured unitarity defect, whichever is larger, so
    it too is computed on first read.  columns, the unitaries copied into
    (column, label, time) order for the audit's singleton read-out, is made
    on first read and cached too.  unitaries is a read-only view, so that no
    write through it leaves either cache describing other numbers.
    """

    def __init__(
        self,
        grid: TimeGrid,
        unitaries: np.ndarray,  # (len(grid), d, d)
        step: float,
        tolerance: float,
        unitarity_defect: float | None = None,
    ):
        self.grid = grid
        self.unitaries = unitaries.view()
        self.unitaries.flags.writeable = False
        self.step = step
        self._tol = tolerance
        self._defect = unitarity_defect
        self._columns = None

    # threads that read a cache at once each compute the same value, unlocked
    @property
    def unitarity_defect(self) -> float:
        if self._defect is None:
            self._defect = _unitarity_defect(self.unitaries)
        return self._defect

    @property
    def columns(self) -> np.ndarray:
        """(d, d, len(grid)), read-only: columns[b, k] is U_kb over the grid,
        so each column of U is one contiguous (labels, times) block."""
        if self._columns is None:
            cols = np.ascontiguousarray(self.unitaries.transpose(2, 1, 0))
            cols.flags.writeable = False
            self._columns = cols
        return self._columns

    @property
    def tolerance(self) -> float:
        if self.step > 0.0:
            return self._tol
        return max(self._tol, self.unitarity_defect)

    @property
    def dimension(self) -> int:
        return int(self.unitaries.shape[-1])


def _taylor_plan(x: float) -> tuple[int, int]:
    """Squarings s and Taylor degree p for exp(A) with ||A|| <= x: s is the
    least power with y = x / 2^s <= 1/2, and p the least degree with
    y^(p+1)/(p+1)! e^y <= 2^-53, a bound on the dropped tail of the series
    of exp(A / 2^s)."""
    s, y = 0, x
    while y > 0.5:
        s, y = s + 1, y / 2.0
    p, tail = 0, y * np.exp(y)
    while tail > _UNIT_ROUNDOFF:
        p += 1
        tail *= y / (p + 1)
    return s, p


def _batch_size(d: int) -> int:
    """Substeps (or closed-form checkpoints) per batch at dimension d: the
    largest power of two n <= 256 with n d^2 <= _BATCH_ENTRIES, so that one
    complex (n, d, d) stack of the batch stays within 128 KiB.  A power of
    two, so that a batch holds whole intervals or whole pieces of one."""
    n = min(256, _BATCH_ENTRIES // (d * d))
    return 1 << max(n.bit_length() - 1, 0)


def _unitary_steps(mats: np.ndarray, hs: np.ndarray) -> np.ndarray:
    """Batched exp(-i h M) for stacked Hermitian matrices M, by a
    scaling-and-squaring Taylor series (Moler & Van Loan 2003; Al-Mohy &
    Higham 2009), in matrix products only.

    A = -i h M.  For Hermitian M, ||A||_2 <= ||A||_1, so x, the largest
    ||A||_1 over the batch, bounds every operator norm.  The series of
    exp(A / 2^s) is cut at the degree p that _taylor_plan(x) chooses, so
    that its dropped tail is below 2^-53; it is evaluated by Horner and
    squared s times, in place between two buffers.  A non-finite A is
    rejected before s and p are chosen.
    """
    with np.errstate(invalid="ignore"):  # Inf * 0 is NaN, refused below
        A = mats * (-1j * hs)[:, None, None]
    x = float(np.abs(A).sum(axis=-2).max())
    if not np.isfinite(x):
        raise ValidationError("Hamiltonian contains NaN or Inf entries")
    s, p = _taylor_plan(x)
    A *= 2.0**-s
    diag = np.arange(A.shape[-1])
    # Horner: E = I + A/k E for k = p, ..., 1, starting from E = I
    E = A / p if p else np.zeros_like(A)
    E[:, diag, diag] += 1.0
    F = np.empty_like(E)
    for k in range(p - 1, 0, -1):
        np.matmul(A, E, out=F)
        F *= 1.0 / k
        F[:, diag, diag] += 1.0
        E, F = F, E
    for _ in range(s):
        np.matmul(E, E, out=F)
        E, F = F, E
    return E


def _compose(steps: np.ndarray) -> np.ndarray:
    """Ordered product steps[-1] @ ... @ steps[0] for stacks shaped
    (..., m, d, d), by pairwise tree reduction along the m axis.  m must be
    a power of two, as every substep count of the halving loop is."""
    while steps.shape[-3] > 1:
        steps = steps[..., 1::2, :, :] @ steps[..., 0::2, :, :]
    return steps[..., 0, :, :]


def _reunitarize(U: np.ndarray) -> np.ndarray:
    """Polar projection onto the closest unitary, batched."""
    w, _, vh = np.linalg.svd(U)
    return w @ vh


def _commutator(X: np.ndarray, Y: np.ndarray, mixed: bool = False) -> np.ndarray:
    """[X, Y] from the one product XY, for X and Y each Hermitian or
    anti-Hermitian: YX = -(XY)^dag when one is each (mixed), else
    YX = (XY)^dag."""
    C = X @ Y
    if mixed:
        C += C.conj().swapaxes(-1, -2)
    else:
        C -= C.conj().swapaxes(-1, -2)
    return C


def _times(X: np.ndarray, F: np.ndarray) -> np.ndarray:
    """X @ F, with no complex copy of a real X: a real X meets a complex
    F's real and imaginary parts in one real product, over F's interleaved
    float view (so F's last axis must be contiguous), and a real F is
    passed to @ as it is.  X may be a strided view, such as a transpose."""
    if np.iscomplexobj(X) or not np.iscomplexobj(F):
        return X @ F
    return (X @ F.view(float)).view(complex)


def _magnus_generators(H, bounds: np.ndarray, hs: np.ndarray) -> np.ndarray:
    """Hermitian generators M4 and M6 of the substeps [bounds[k], bounds[k+1]]
    of widths hs, with exp(-i h M) = exp(Omega), written into one
    (2, len(hs), d, d) stack (see the module docstring).  Each commutator
    takes one product, which holds for a Hermitian H alone, so an H that is
    not Hermitian at a substep's midpoint is refused: for it the two chains
    need not agree, and the levels would refine in vain."""
    n, d = len(hs), H.dimension
    starts = bounds[:-1]
    nodes = np.concatenate(
        [bounds, starts + 0.5 * hs, starts + _GAUSS_LO * hs, starts + _GAUSS_HI * hs]
    )
    # a real H stays real: every product below is then real, and the
    # generators turn complex only where i enters
    mats = np.asarray(H.evaluate_batch(nodes))
    Hs, He = mats[:n], mats[1 : n + 1]  # at the substeps' starts and ends
    Hm, Hlo, Hhi = mats[n + 1 :].reshape(3, n, d, d)
    h = hs[:, None, None]
    gens = np.empty((2, n, d, d), dtype=complex)
    M4, M6 = gens
    with np.errstate(invalid="ignore"):  # Inf * 0 is NaN, refused by the kernel
        skew = np.abs(Hm - Hm.conj().swapaxes(-1, -2)).max()
        if skew > HERMITICITY_TOL * max(1.0, np.abs(Hm).max()):
            raise ValidationError(
                f"H(t) is not Hermitian: max |H - H^dag| = {skew:.3e}"
            )
        M4[...] = _commutator(Hs, He) * (1j / 12.0 * h)
        M4 += (Hs + 4.0 * Hm + He) / 6.0
        # for Hlo == Hm == Hhi, b2 and b3, and so every commutator, are 0
        b2 = _GAUSS_SLOPE * (Hhi - Hlo)
        b3 = (10.0 / 3.0) * (Hhi - 2.0 * Hm + Hlo)
        P, Q = _commutator(Hm, b2), _commutator(Hm, b3)
        B = _commutator(Hm, P, mixed=True)
        B *= h**2 / 60.0
        B += b2
        A = 20.0 * Hm + b3
        # the four commutators are Y + Y^dag, two products
        Y = _times(A, B * (1j / 240.0 * h) - Q * (h**2 / 7200.0))
        Y -= _times(P, B * (h**2 / 240.0) + Q * (1j / 7200.0 * h**3))
        np.add(Y, Y.conj().swapaxes(-1, -2), out=M6)
        M6 += Hm + b3 / 12.0
    return gens


def _checkpoints_fixed(
    H, grid: TimeGrid, m: int, tol: float
) -> tuple[np.ndarray, float, np.ndarray]:
    """U6's checkpoints, shape (len(grid), d, d), from m substeps per grid
    interval, with the level's refinement defect, max over checkpoints of
    ||U6 - U4|| as _refinement_defect reads it against tol, and U4's final
    running product (see the module docstring).

    Substep k of interval g is the flat substep s = g m + k, which starts at
    pts[g] + (k/m) widths[g]; it ends where substep s + 1 starts, so the two
    share that evaluation of H.  The substeps are taken in batches of
    n = _batch_size(d), and each batch is composed into factors of
    min(m, n) substeps: whole intervals, or, for m > n, pieces of one.  Both
    are powers of two, so no factor straddles an interval end.  The running
    product (U4, U6) is re-orthonormalized every _POLAR_EVERY interval ends.
    A running product that ends an interval is written straight into a
    per-batch buffer of both chains' checkpoints: U6's are copied into the
    returned array and U4's are only compared with them, so the level holds
    one full set of checkpoints, not two.
    """
    pts = grid.points
    d = H.dimension
    widths = np.diff(pts)
    padded = np.append(widths, 0.0)  # so that the last boundary is pts[-1]
    total = widths.size * m
    batch = _batch_size(d)
    per_factor = min(m, batch)
    out = np.empty((len(pts), d, d), dtype=complex)
    out[0] = np.eye(d)
    U = np.stack([out[0], out[0]])
    defect = 0.0
    for s0 in range(0, total, batch):
        g, k = np.divmod(np.arange(s0, min(total, s0 + batch) + 1), m)
        bounds = pts[g] + (k / m) * padded[g]
        hs = widths[g[:-1]] / m
        gens = _magnus_generators(H, bounds, hs).reshape(-1, d, d)
        steps = _unitary_steps(gens, np.concatenate([hs, hs]))
        factors = _compose(steps.reshape(2, -1, per_factor, d, d)).swapaxes(0, 1)
        # checkpoints g[0] + 1, ..., g[-1] end in this batch, (U4, U6) each
        ends = np.empty((g[-1] - g[0], 2, d, d), dtype=complex)
        for f, factor in enumerate(factors, start=s0 // per_factor + 1):
            end = f * per_factor  # flat index just past the factor
            if end % m:
                U = factor @ U
                continue
            U = np.matmul(factor, U, out=ends[end // m - g[0] - 1])
            if end % (m * _POLAR_EVERY) == 0:
                U[...] = _reunitarize(U)
        # freed before the next batch's generators are made
        del gens, steps, factors, factor
        if g[-1] > g[0]:
            out[g[0] + 1 : g[-1] + 1] = ends[:, 1]
            defect = max(defect, _refinement_defect(ends[:, 1], ends[:, 0], tol))
    return out, defect, U[0]


def _unitarity_defect(unitaries: np.ndarray) -> float:
    """max over checkpoints of ||U^dag U - I||, as the largest |eigenvalue|
    of that Hermitian Gram defect."""
    d = unitaries.shape[-1]
    gram = unitaries.conj().transpose(0, 2, 1) @ unitaries - np.eye(d)
    if not np.all(np.isfinite(gram)):
        raise ValidationError("propagator contains NaN or Inf entries")
    return float(np.abs(np.linalg.eigvalsh(gram)).max())


def _refinement_defect(cur: np.ndarray, prev: np.ndarray, tol: float) -> float:
    """max over checkpoints of ||cur - prev||, exact wherever it reaches tol.

    The Frobenius norm bounds the operator norm from above, so a checkpoint
    whose Frobenius difference is below tol cannot fail the test: it counts
    with that Frobenius norm and skips the SVD.  The result is below tol
    exactly when the operator-norm maximum is, and equals it otherwise.  It
    is a maximum over checkpoints, so a level's defect is the largest of its
    batches'.
    """
    diff = cur - prev
    fro = np.linalg.norm(diff, axis=(1, 2))
    near = ~(fro < tol)  # NaN included, so operator_norms rejects it
    if near.any():
        fro[near] = operator_norms(diff[near])
    return float(fro.max())


def evolve_on_grid(H, grid: TimeGrid, tol: float = 1e-9) -> Propagator:
    """Integrate i dU/dt = H(t) U on the grid, refining until converged.

    A ConstantHamiltonian H = V diag(w) V^dag is served in closed form,
    U(t) = V e^(-i t w) V^dag, from one eigh, with U(0) exactly I, filled
    _batch_size(d) grid points at a time so that no temporary is as large
    as the result.  Its Propagator has step 0.0 (no substeps) and tolerance
    tol, or its unitarity defect where rounding cannot reach a tol that
    small; both are computed on first read.

    Any other H is integrated: each grid interval takes m substeps, each
    the sixth-order Gauss-Legendre Magnus step, checked by the
    fourth-order Simpson-node step (see the module docstring).  From m = 1,
    a level's defect is the larger of max over checkpoints of ||U4 - U6||
    in operator norm and the rounding floor sqrt(n_int m) d 2^-53 that both
    chains share; the first level whose defect is below tol is accepted,
    and its U6 checkpoints, the one (len(grid), d, d) array a level holds,
    become the Propagator's unitaries uncopied.  U4's checkpoints are
    compared with U6's batch by batch and never stored whole, a failed
    level's array is freed before the next is made, and a batch of
    _batch_size(d) substeps keeps each of its (n, d, d) stacks within
    128 KiB, so the call peaks near its result.  step is then the
    widest grid interval over m.  The Simpson companion is what lets the
    check see quadrature error: a companion at the Gauss nodes agrees with
    U6 for any H(t) that commutes with itself, however coarse the step.

    Refinement that stops paying raises IntegrationError, whose defect is
    the smallest level defect reached: after 20 doublings of m, or as soon
    as two successive levels fail to beat that smallest defect while it is
    below 1e-6.  The floor grows with m, so a tol below it fails within a
    few levels, not after 20 doublings of the cost.  The 1e-6 keeps the
    stop out of the pre-asymptotic regime, where the defects of a stiff H
    are O(1) and rise and fall before they converge.
    """
    if not 0.0 < tol < np.inf:
        raise ValidationError(f"tolerance must be positive and finite, got {tol}")
    if isinstance(H, ConstantHamiltonian):
        w, V = np.linalg.eigh(H.matrix)
        phases = np.exp(-1j * np.outer(grid.points, w))
        unitaries = np.empty((len(grid), H.dimension, H.dimension), complex)
        batch = _batch_size(H.dimension)
        for s in range(0, len(grid), batch):
            rows = slice(s, s + batch)
            np.matmul(V * phases[rows, None, :], V.conj().T, out=unitaries[rows])
        # V V^dag is I only to rounding; lhs(0) = 0 = rhs(0) in the audit
        unitaries[0] = np.eye(H.dimension)
        return Propagator(grid=grid, unitaries=unitaries, step=0.0, tolerance=tol)
    n_int = len(grid) - 1
    best, stalls = np.inf, 0
    for halvings in range(21):
        m = 2**halvings
        U, defect, _ = _checkpoints_fixed(H, grid, m, tol)
        floor = np.sqrt(n_int * m) * H.dimension * _UNIT_ROUNDOFF
        defect = max(defect, floor)
        if defect < tol:
            width = float(np.max(np.diff(grid.points)))
            return Propagator(grid=grid, unitaries=U, step=width / m, tolerance=tol)
        # freed before the next level allocates its own
        del U
        best, stalls = (defect, 0) if defect < best else (best, stalls + 1)
        if stalls == 2 and best < _STALL_FLOOR:
            break
    raise IntegrationError(
        f"propagator did not converge to tol {tol:.3e}: the smallest "
        f"refinement defect in {halvings} step halvings was {best:.3e}",
        defect=best,
    )


def lr_bound_rhs(
    supp_a: Block, supp_b: Block, mu: float, growth: float | np.ndarray
) -> float | np.ndarray:
    """Bound 2 min(|A|,|B|) e^(-mu d(A,B)) (e^growth - 1) on
    ||[A(t), B]|| for operators A, B of unit norm supported on supp_a and
    supp_b, such as the projectors onto them.

    growth is the exponent integral of a_mu over [0, t] (<a_mu>_t t), a
    scalar or an array of them.  The bound is formed as
    e^(growth - mu d) (1 - e^(-growth)), so neither e^(-mu d) underflowing
    nor e^growth overflowing meets the other as 0 * inf: it is inf, with no
    numpy warning, only where the bound itself leaves the float range.
    """
    if supp_a.intersects(supp_b):
        raise ValidationError("supports must be disjoint")
    d = block_distance(supp_a, supp_b)
    prefactor = 2.0 * min(supp_a.size, supp_b.size)
    with np.errstate(over="ignore"):
        rhs = np.exp(growth - mu * d)
    rhs *= np.expm1(-growth)  # -(1 - e^(-growth))
    rhs *= -prefactor
    return rhs


def propagator_spread(prop: Propagator, source: int) -> np.ndarray:
    """Amplitudes |<j| U(t,0) |source>| per checkpoint, shape (times, dim)."""
    if not (0 <= source < prop.dimension):
        raise ValidationError(f"source label {source} out of range")
    return np.abs(prop.unitaries[:, :, source])


@dataclass(eq=False)
class AuditReport:
    """Pointwise comparison of a measured commutator against its bound."""

    times: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    margin: np.ndarray  # rhs - lhs
    # grid indices where the certificate's a_mu lies below H's locality load
    understated: np.ndarray

    @property
    def violations(self) -> np.ndarray:
        """Grid indices with a negative or NaN margin or an understated a_mu,
        sorted and each once."""
        flagged = ~(self.margin >= -VIOLATION_THRESHOLD)
        flagged[self.understated] = True
        return np.flatnonzero(flagged)

    @property
    def min_margin(self) -> float:
        """The least margin over t > 0: at t = 0, the grid's first point,
        lhs and rhs are both exactly 0."""
        return float(self.margin[1:].min())

    @property
    def has_violations(self) -> bool:
        return self.violations.size > 0

    def to_csv(self, path) -> None:
        rows = zip(self.times, self.lhs, self.rhs, self.margin)
        with open(path, "w") as fh:
            fh.write(csv_text(("t", "lhs", "rhs", "margin"), rows))

    def to_json_summary(self) -> dict:
        return {
            "violations": int(self.violations.size),
            "min_margin": self.min_margin,
            "tol": VIOLATION_THRESHOLD,
        }


def bound_audit(
    H,
    supp_a: Block,
    supp_b: Block,
    certificate: LocalityCertificate,
    propagator: Propagator,
) -> AuditReport:
    """Measure || [A^t, B] || for projectors A, B on the supports and compare
    against the certified bound at every grid point of the certificate.

    The commutator norm is read from the propagator, which must sit on the
    certificate's grid, as ||U[A, B] U[A^c, B]^dag||: [Q, P] =
    QP(1 - Q) - (1 - Q)PQ for Q = U^dag A U and P = B splits into two
    mutually adjoint off-diagonal blocks of norm ||QP(1 - Q)||.  The
    identity assumes U unitary; otherwise it is off by
    O(propagator.unitarity_defect).  For singletons A = {a}, B = {b} that
    block is a row vector, read from column b of U alone:
    |U_ab| sqrt(sum_{k<a} |U_kb|^2 + sum_{k>a} |U_kb|^2).  Both sums are of
    non-negative terms, so nothing cancels as |U_ab| -> 1, where the
    unitary shortcut 1 - |U_ab|^2 rounds a commutator of 1e-9 to 0.
    Larger supports take the largest eigenvalue of the |A| x |A| Gram
    matrix of the block.

    The bound at time t is the certificate's: its exponent is
    ``certificate.growth``, the integral of a_mu over [0, t], and the
    distance d(A, B) is measured in H's own labels.  A margin below
    -VIOLATION_THRESHOLD, or NaN, flags a violation: either an
    implementation bug or an invalid certificate, since the bound is a
    theorem for valid ones.

    The theorem's hypothesis is checked too: the grid points where the
    certificate's a_mu falls below H's locality load
    (``LocalityCertificate.understated``) are reported as violations
    alongside the margin ones, since the bound is proved only under that
    hypothesis.
    """
    if supp_a.intersects(supp_b):
        raise ValidationError("audit supports must be disjoint")
    d = H.dimension
    if supp_a.labels[-1] >= d or supp_b.labels[-1] >= d:
        raise ValidationError("support labels exceed the Hamiltonian dimension")

    understated = certificate.understated(H)
    if propagator.dimension != d:
        raise ValidationError("propagator and H differ in dimension")
    grid = certificate.grid
    check_aligned(grid, propagator.grid)

    a, b = np.asarray(supp_a.labels), np.asarray(supp_b.labels)
    if a.size == b.size == 1:
        # column b as (labels, times), so each sum adds whole time rows
        i, col = a[0], propagator.columns[b[0]]
        sq = col.real**2 + col.imag**2
        rest = sq[:i].sum(axis=0) + sq[i + 1 :].sum(axis=0)
        lhs = np.abs(col[i]) * np.sqrt(rest)
    else:
        # ||X|| from the |A| x |A| Gram matrix: eigvalsh resolves its
        # largest eigenvalue to relative precision, however small the
        # commutator
        cols = propagator.unitaries[:, :, b]
        X = cols[:, a, :] @ np.delete(cols, a, axis=1).conj().transpose(0, 2, 1)
        gram = X @ X.conj().transpose(0, 2, 1)
        lhs = np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[:, -1], 0.0))

    # the projectors on the supports have norm 1
    rhs = lr_bound_rhs(supp_a, supp_b, certificate.mu, certificate.growth)

    return AuditReport(
        times=grid.points,
        lhs=lhs,
        rhs=rhs,
        margin=rhs - lhs,
        understated=understated,
    )
