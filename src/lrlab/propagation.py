"""Time-ordered propagators and direct verification of the commutator and
propagator-spread bounds.

The integrator takes one fourth-order Magnus step per substep [t, t + h]
(Iserles & Norsett 1999; Blanes, Casas, Oteo & Ros 2009).  With H evaluated
at the two Gauss points H1 = H(t + (1/2 - sqrt(3)/6) h) and
H2 = H(t + (1/2 + sqrt(3)/6) h),

    U(t + h, t) ~ exp(-i h M),  M = (H1 + H2)/2 + i (sqrt(3)/12) h [H1, H2].

- Unitary to rounding: H1, H2 are Hermitian, hence so are (H1 + H2)/2 and
  i[H1, H2], so M is Hermitian and exp(-i h M) is unitary.  It is taken
  from a scaling-and-squaring Taylor series in matrix products alone, cut
  where a rigorous bound on the dropped tail falls below 2^-53 (see
  _unitary_steps).  No step is unitary by construction: the truncation
  bound, the measured unitarity_defect of every Propagator and a polar
  re-orthonormalization every 256 grid intervals keep it so.
- Fourth order: h M is the Magnus series of the substep cut after its
  first commutator term, with both integrals taken by two-point Gauss
  quadrature (exact for cubics).  What is dropped is O(h^5) per substep,
  so the global error is O(h^4).
- Constant H: [H, H] is exactly 0 and (H + H)/2 == H, so M is H bit for
  bit and the step is the kernel's exp(-i h H).

The number of substeps per grid interval doubles until two successive
refinements agree to the requested tolerance at every checkpoint.

A ConstantHamiltonian skips the integrator: U(t) = V e^(-i t w) V^dag
from one eigh of H = V diag(w) V^dag serves every checkpoint, with U(0)
set to exactly I.  Its Propagator reports step 0.0 (no substeps) and the
requested tolerance, or the measured unitarity defect where that is larger:
rounding, not truncation, bounds the closed form's error.  For constant H
the integrator is kept as a test oracle.

The bound audit reads ||[U^dag P_A U, P_B]|| = ||U[A, B] U[A^c, B]^dag||
from a block of the propagator (|U_ab| ||U[A^c, b]|| for singletons): with
Q = U^dag P_A U and P = P_B, QP - PQ = QP(1 - Q) - (1 - Q)PQ, two mutually
adjoint off-diagonal blocks of norm ||QP(1 - Q)||.  The identity assumes a
unitary U; otherwise it departs from the commutator of the conjugated
projector by O(unitarity_defect).  ``tests/_oracles.commutator_norm`` keeps
the generic form as the independent check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import Block, block_distance
from .errors import IntegrationError, ValidationError
from .locality import _LOAD_RTOL, LocalityCertificate, _a_mu_samples
from .models import ConstantHamiltonian
from .numerics import TimeGrid, operator_norms

# substeps processed per vectorized batch (memory/speed tradeoff)
_BATCH_SUBSTEPS = 16384
# running product re-orthonormalized every this many grid intervals
_POLAR_EVERY = 256
# Gauss nodes of a substep [t, t + h] at t + (1/2 -+ sqrt(3)/6) h, and the
# coefficient of the commutator term of the fourth-order Magnus generator
_GAUSS_LO = 0.5 - np.sqrt(3.0) / 6.0
_GAUSS_HI = 0.5 + np.sqrt(3.0) / 6.0
_COMMUTATOR_COEF = np.sqrt(3.0) / 12.0
# the Taylor series of a substep's exponential is cut where its tail bound
# falls below the unit roundoff of double precision
_UNIT_ROUNDOFF = 2.0**-53
# an audit margin below -VIOLATION_THRESHOLD is a violation of the bound
VIOLATION_THRESHOLD = 1e-9


@dataclass(eq=False)
class Propagator:
    """Checkpointed unitary U(t, 0) on a time grid."""

    grid: TimeGrid
    unitaries: np.ndarray  # (len(grid), d, d)
    step: float  # widest substep; 0.0 for the closed form, which takes none
    # the contract every checkpoint meets; for the closed form, the requested
    # tol or the measured unitarity defect, whichever is larger
    tolerance: float
    unitarity_defect: float

    @property
    def dimension(self) -> int:
        return int(self.unitaries.shape[-1])


def _unitary_steps(mats: np.ndarray, hs: np.ndarray) -> np.ndarray:
    """Batched exp(-i h M) for stacked Hermitian matrices M, by a
    scaling-and-squaring Taylor series (Moler & Van Loan 2003; Al-Mohy &
    Higham 2009), in matrix products only.

    A = -i h M.  For Hermitian M, ||A||_2 <= ||A||_1, so x, the largest
    ||A||_1 over the batch, bounds every operator norm.  With s the least
    power with y = x / 2^s <= 1/2, the series of exp(A / 2^s) is cut at the
    least degree p with y^(p+1)/(p+1)! e^y <= 2^-53, a bound on the dropped
    tail; it is evaluated by Horner and squared s times.  A non-finite A is
    rejected before s and p are chosen.
    """
    with np.errstate(invalid="ignore"):  # Inf * 0 is NaN, refused below
        A = mats * (-1j * hs)[:, None, None]
    x = float(np.abs(A).sum(axis=-2).max())
    if not np.isfinite(x):
        raise ValidationError("Hamiltonian contains NaN or Inf entries")
    s, y = 0, x
    while y > 0.5:
        s, y = s + 1, y / 2.0
    p, tail = 0, y * np.exp(y)
    while tail > _UNIT_ROUNDOFF:
        p += 1
        tail *= y / (p + 1)
    A *= 2.0**-s
    diag = np.arange(A.shape[-1])
    # Horner: E = I + A/k E for k = p, ..., 1, starting from E = I
    E = A / p if p else np.zeros_like(A)
    E[:, diag, diag] += 1.0
    for k in range(p - 1, 0, -1):
        E = A @ E
        E *= 1.0 / k
        E[:, diag, diag] += 1.0
    for _ in range(s):
        E = E @ E
    return E


def _compose(steps: np.ndarray) -> np.ndarray:
    """Ordered product steps[-1] @ ... @ steps[0] for stacks shaped
    (..., m, d, d), by pairwise tree reduction along the m axis.  m must be
    a power of two, as every substep count of the halving loop is."""
    while steps.shape[-3] > 1:
        steps = steps[..., 1::2, :, :] @ steps[..., 0::2, :, :]
    return steps[..., 0, :, :]


def _reunitarize(U: np.ndarray) -> np.ndarray:
    """Polar projection onto the closest unitary."""
    w, _, vh = np.linalg.svd(U)
    return w @ vh


def _magnus_steps(H, starts: np.ndarray, hs: np.ndarray) -> np.ndarray:
    """Fourth-order Magnus steps exp(-i h M) over the substeps
    [t, t + h], t in starts, h in hs (see the module docstring)."""
    n = len(starts)
    nodes = np.concatenate([starts + _GAUSS_LO * hs, starts + _GAUSS_HI * hs])
    # complex, so that a real-valued evaluate can take the factor 2j in place
    mats = np.asarray(H.evaluate_batch(nodes), dtype=complex)
    H1, H2 = mats[:n], mats[n:]
    # 2M built in place.  For H1 == H2, H2 @ H1 repeats the arithmetic of
    # H1 @ H2, so [H, H] is exactly 0 whatever the BLAS; M - M^dag would be
    # 0 only where the BLAS happens to round H @ H to a Hermitian matrix.
    M = H1 @ H2
    M -= H2 @ H1
    M *= (2j * _COMMUTATOR_COEF) * hs[:, None, None]
    M += H1
    M += H2
    M *= 0.5
    del mats, H1, H2  # free the node evaluations before the exponential
    return _unitary_steps(M, hs)


def _checkpoints_fixed(H, grid: TimeGrid, m: int) -> np.ndarray:
    """Propagator checkpoints with m fourth-order Magnus substeps per grid
    interval, each the exponential of the Gauss-point generator M."""
    pts = grid.points
    d = H.dimension
    n_int = len(pts) - 1
    out = np.empty((len(pts), d, d), dtype=complex)
    out[0] = np.eye(d)
    U = np.eye(d, dtype=complex)

    # a block is several whole intervals in one chunk of substeps, or, for
    # m > _BATCH_SUBSTEPS, one interval in several chunks
    per_block = max(1, _BATCH_SUBSTEPS // m)
    chunk = min(m, _BATCH_SUBSTEPS)
    for g0 in range(0, n_int, per_block):
        g1 = min(n_int, g0 + per_block)
        widths = pts[g0 + 1 : g1 + 1] - pts[g0:g1]
        chunk_props = []
        for s0 in range(0, m, chunk):
            s1 = min(m, s0 + chunk)
            starts = pts[g0:g1, None] + (np.arange(s0, s1) / m) * widths[:, None]
            hs = np.repeat(widths / m, s1 - s0)
            steps = _magnus_steps(H, starts.ravel(), hs)
            chunk_props.append(_compose(steps.reshape(g1 - g0, s1 - s0, d, d)))
        for k, g in enumerate(range(g0, g1)):
            for props in chunk_props:
                U = props[k] @ U
            if (g + 1) % _POLAR_EVERY == 0:
                U = _reunitarize(U)
            out[g + 1] = U
    return out


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

    The Frobenius norm bounds the operator norm from above, so checkpoints
    whose Frobenius difference is below tol cannot fail the test and skip
    the SVD; if none is left, the largest Frobenius difference is returned.
    """
    diff = cur - prev
    fro = np.linalg.norm(diff, axis=(1, 2))
    near = ~(fro < tol)  # NaN included, so operator_norms rejects it
    if not near.any():
        return float(fro.max())
    return float(operator_norms(diff[near]).max())


def evolve_on_grid(H, grid: TimeGrid, tol: float = 1e-9) -> Propagator:
    """Integrate i dU/dt = H(t) U on the grid, refining until converged.

    A ConstantHamiltonian H = V diag(w) V^dag is served in closed form,
    U(t) = V e^(-i t w) V^dag, from one eigh, with U(0) exactly I.  Its
    Propagator has step 0.0 (no substeps) and tolerance tol, or its
    unitarity defect where rounding cannot reach a tol that small.

    Any other H is integrated: each grid interval takes m fourth-order
    Magnus substeps at the Gauss points (see the module docstring).  m
    doubles from 1 until the checkpoints of two successive refinements
    differ by less than tol in operator norm at every grid point (at most
    20 halvings).  step is then the widest grid interval over the accepted m.
    """
    if tol <= 0:
        raise ValidationError(f"tolerance must be positive, got {tol}")
    if isinstance(H, ConstantHamiltonian):
        w, V = np.linalg.eigh(H.matrix)
        phases = np.exp(-1j * np.outer(grid.points, w))
        unitaries = (V * phases[:, None, :]) @ V.conj().T
        # V V^dag is I only to rounding; lhs(0) = 0 = rhs(0) in the audit
        unitaries[0] = np.eye(H.dimension)
        defect = _unitarity_defect(unitaries)
        return Propagator(
            grid=grid,
            unitaries=unitaries,
            step=0.0,
            tolerance=max(tol, defect),
            unitarity_defect=defect,
        )
    m = 1
    prev = _checkpoints_fixed(H, grid, m)
    diff = np.inf
    for _ in range(20):
        m *= 2
        cur = _checkpoints_fixed(H, grid, m)
        diff = _refinement_defect(cur, prev, tol)
        if diff < tol:
            width = float(np.max(np.diff(grid.points)))
            return Propagator(
                grid=grid,
                unitaries=cur,
                step=width / m,
                tolerance=tol,
                unitarity_defect=_unitarity_defect(cur),
            )
        prev = cur
    raise IntegrationError(
        f"propagator did not converge to {tol} after 20 step halvings "
        f"(last defect {diff:.3e})",
        defect=diff,
    )


def lr_bound_rhs(
    supp_a: Block, supp_b: Block, mu: float, growth: float | np.ndarray
) -> float | np.ndarray:
    """Bound 2 min(|A|,|B|) e^(-mu d(A,B)) (e^growth - 1) on
    ||[A(t), B]|| for operators A, B of unit norm supported on supp_a and
    supp_b, such as the projectors onto them.

    growth is the exponent integral of a_mu over [0, t] (<a_mu>_t t), a
    scalar or an array of them.
    """
    if supp_a.intersects(supp_b):
        raise ValidationError("supports must be disjoint")
    d = block_distance(supp_a, supp_b)
    prefactor = 2.0 * min(supp_a.size, supp_b.size)
    return prefactor * np.exp(-mu * d) * np.expm1(growth)


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
        """Grid indices with a negative margin or an understated a_mu."""
        return np.union1d(
            np.nonzero(self.margin < -VIOLATION_THRESHOLD)[0], self.understated
        )

    @property
    def min_margin(self) -> float:
        return float(self.margin.min())

    @property
    def has_violations(self) -> bool:
        return self.violations.size > 0

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("t,lhs,rhs,margin\n")
            for t, l, r, m in zip(self.times, self.lhs, self.rhs, self.margin):
                fh.write(f"{t:.17g},{l:.17g},{r:.17g},{m:.17g}\n")

    def to_json_summary(self) -> dict:
        return {
            "violations": int(self.violations.size),
            "min_margin": self.min_margin,
            "tol": VIOLATION_THRESHOLD,
        }


def _running_integral(samples: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Cumulative trapezoid of samples against pts, starting at 0."""
    seg = 0.5 * (samples[1:] + samples[:-1]) * np.diff(pts)
    return np.concatenate([[0.0], np.cumsum(seg)])


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
    O(propagator.unitarity_defect).

    The bound at time t uses the running average of a_mu up to t, i.e.
    exp(integral of a_mu over [0, t]) - 1.  A margin below
    -VIOLATION_THRESHOLD flags a violation: either an implementation bug or
    an invalid certificate, since the bound is a theorem for valid ones.

    The theorem's hypothesis is checked too: H's locality load
    max_i sum_{Z containing i} |Z| ||H_Z|| e^(mu diam Z) at the certificate's
    mu, in its basis_permutation, must not exceed a_mu at any grid point.
    Points where a_mu falls short of it by more than a relative 1e-12 are
    reported as violations (``understated``) alongside the margin ones,
    since the bound is proved only under that hypothesis.  The distance
    d(A, B) in the bound is measured in that basis too.
    """
    if supp_a.intersects(supp_b):
        raise ValidationError("audit supports must be disjoint")
    d = H.dimension
    if supp_a.labels[-1] >= d or supp_b.labels[-1] >= d:
        raise ValidationError("support labels exceed the Hamiltonian dimension")

    grid = certificate.grid
    if not np.array_equal(propagator.grid.points, grid.points):
        raise ValidationError("propagator grid does not match the certificate")

    a, b = np.asarray(supp_a.labels), np.asarray(supp_b.labels)
    # ||X|| from the |A| x |A| Gram matrix: eigvalsh resolves its largest
    # eigenvalue to relative precision, however small the commutator
    cols = propagator.unitaries[:, :, b]
    X = cols[:, a, :] @ np.delete(cols, a, axis=1).conj().transpose(0, 2, 1)
    gram = X @ X.conj().transpose(0, 2, 1)
    lhs = np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[:, -1], 0.0))

    mu, permutation = certificate.mu, certificate.basis_permutation
    load = _a_mu_samples(H, mu, grid, permutation)
    understated = np.nonzero(certificate.a_mu_samples < load * (1.0 - _LOAD_RTOL))[0]

    # level i sits at label permutation[i], the basis a_mu is certified in;
    # the projectors on the supports have norm 1
    growth = _running_integral(certificate.a_mu_samples, grid.points)
    rhs = lr_bound_rhs(Block(permutation[a]), Block(permutation[b]), mu, growth)

    return AuditReport(
        times=grid.points.copy(),
        lhs=lhs,
        rhs=rhs,
        margin=rhs - lhs,
        understated=understated,
    )
