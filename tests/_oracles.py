"""Independent oracles shared by the test modules.

Everything here is deliberately written against raw numpy (or the model's
evaluate interface) so that the quantities being checked are computed by a
different code path than the implementation under test.
"""

import functools
from fractions import Fraction

import numpy as np

from lrlab.models import build_example_ramp


def taylor_unitary_exp(A, terms=30, squarings=20):
    """exp(A) by truncated Taylor series with 2^-squarings scaling.

    Runs in extended precision: the repeated squarings amplify roundoff by
    about 2^squarings, which would leave a double-precision oracle barely at
    the 1e-10 level it is supposed to check.
    """
    A = np.asarray(A, dtype=complex).astype(np.complex256)
    S = A / (2.0**squarings)
    out = np.eye(A.shape[0], dtype=np.complex256)
    term = np.eye(A.shape[0], dtype=np.complex256)
    for k in range(1, terms + 1):
        term = term @ S / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out.astype(complex)


def eigh_unitary_exp(mats, hs):
    """Batched exp(-i h M) for stacked Hermitian M as V e^(-i h w) V^dag,
    from one eigh of each M = V diag(w) V^dag."""
    vals, vecs = np.linalg.eigh(mats)
    phases = np.exp(-1j * np.asarray(hs)[:, None] * vals)
    return (vecs * phases[:, None, :]) @ vecs.conj().transpose(0, 2, 1)


# RK4 step count for the oracle of the bundled ramp at T=100: there it is
# within 1.5e-12 of RK4 at half the step.  Fixed on its own, so the oracle
# does not coarsen when the integrator under test takes fewer steps.
RK4_ORACLE_STEPS = 128_000


def rk4_propagator(H, t_final, n_steps, chunk=4096):
    """Classical RK4 on i dU/dt = H(t) U.

    The equation is linear, so an RK4 step maps U to R U, with R the step
    applied to I.  The R of a chunk of steps are formed in one batch and
    multiplied in order, pairwise; the arithmetic is RK4's, associated
    differently.
    """
    d = H.dimension
    U = np.eye(d, dtype=complex)
    h = t_final / n_steps
    for s0 in range(0, n_steps, chunk):
        t0s = np.arange(s0, min(n_steps, s0 + chunk)) * h
        A = -1j * H.evaluate_batch(t0s)
        B = -1j * H.evaluate_batch(t0s + 0.5 * h)
        C = -1j * H.evaluate_batch(np.minimum(t0s + h, t_final))
        k2 = B + (0.5 * h) * (B @ A)
        k3 = B + (0.5 * h) * (B @ k2)
        k4 = C + h * (C @ k3)
        R = (h / 6.0) * (A + 2.0 * k2 + 2.0 * k3 + k4) + np.eye(d)
        while len(R) > 1:
            odd = R[-1:] if len(R) % 2 else R[:0]  # waits for the next level
            R = np.concatenate([R[1::2] @ R[0 : len(R) - 1 : 2], odd])
        U = R[0] @ U
    return U


def gauss2_magnus_propagator(H, points, m):
    """Checkpoints of the fourth-order two-node Gauss Magnus step (Iserles &
    Norsett 1999) with m substeps per interval of the points:
    exp(-i h M) with M = (H1 + H2)/2 + i (sqrt(3)/12) h [H1, H2] and H1, H2
    at t + (1/2 -+ sqrt(3)/6) h, each exponential from one eigh."""
    d = H.dimension
    U = np.eye(d, dtype=complex)
    out = [U]
    for t0, t1 in zip(points[:-1], points[1:]):
        h = (t1 - t0) / m
        starts = t0 + h * np.arange(m)
        H1 = H.evaluate_batch(starts + (0.5 - np.sqrt(3.0) / 6.0) * h)
        H2 = H.evaluate_batch(starts + (0.5 + np.sqrt(3.0) / 6.0) * h)
        M = 0.5 * (H1 + H2) + 1j * (np.sqrt(3.0) / 12.0) * h * (H1 @ H2 - H2 @ H1)
        for W in eigh_unitary_exp(M, np.full(m, h)):
            U = W @ U
        out.append(U)
    return np.stack(out)


def magnus_generators_ak(H, bounds, hs):
    """Hermitian generators M = i Omega / h of the substeps
    [bounds[k], bounds[k] + hs[k]], stacked (2, len(hs), d, d) as (M4, M6),
    one substep at a time from A(c) = -i h H(t + c h).  Omega6 is the a_k
    form of Blanes, Casas, Oteo & Ros, Phys. Rep. 470 (2009) 151, at the
    Gauss nodes c = 1/2 -+ sqrt(15)/10 and 1/2, and Omega4 the Simpson-node
    step; every commutator takes two products."""

    def comm(X, Y):
        return X @ Y - Y @ X

    r = np.sqrt(15.0) / 10.0
    out = []
    for t, h in zip(bounds[:-1], hs):

        def A(c):
            return -1j * h * np.asarray(H.evaluate(t + c * h), dtype=complex)

        a1 = A(0.5)
        a2 = (np.sqrt(15.0) / 3.0) * (A(0.5 + r) - A(0.5 - r))
        a3 = (10.0 / 3.0) * (A(0.5 + r) - 2.0 * a1 + A(0.5 - r))
        C1 = comm(a1, a2)
        C2 = -comm(a1, 2.0 * a3 + C1) / 60.0
        omega6 = a1 + a3 / 12.0 + comm(-20.0 * a1 - a3 + C1, a2 + C2) / 240.0
        omega4 = (A(0.0) + 4.0 * a1 + A(1.0)) / 6.0 - comm(A(0.0), A(1.0)) / 12.0
        out.append([1j * omega4 / h, 1j * omega6 / h])
    return np.array(out).swapaxes(0, 1)


@functools.cache
def ramp_rk4_oracle():
    """U(100, 0) of the bundled ramp at T=100 by RK4 at RK4_ORACLE_STEPS.

    It takes seconds, and two test modules compare against it, so it is
    computed once per session; the shared array is read-only.
    """
    U = rk4_propagator(build_example_ramp(100.0), 100.0, RK4_ORACLE_STEPS)
    U.setflags(write=False)
    return U


def crossing_amplitudes(flow, U, fixed_basis=False):
    """|<E_k| U(t) |G(0)>| for every column k of the flow's frames, shape
    (times, dim): the evolved initial ground state, then an einsum over the
    conjugated frames at each t, or, under fixed_basis, a product with the
    conjugated frames at t = 0."""
    states = U @ flow.basis[0][:, 0]
    if fixed_basis:
        return np.abs(states @ flow.basis[0].conj())
    return np.abs(np.einsum("tji,tj->ti", flow.basis.conj(), states, optimize=True))


def crossings_by_level(amps, pts, threshold):
    """A plain per-level loop over an amplitude table (times, levels).

    Returns {k: t} for every level k >= 1 that exceeds the threshold: t is
    pts[0] where it is above at the first point, else its first crossing
    linearly interpolated between the bracketing points.  And the speeds
    (k1, k2, (k2 - k1) / (t2 - t1)) of every pair k1 < k2 whose times
    differ, from a nested loop.
    """
    crossings = {}
    for k in range(1, amps.shape[1]):
        above = [j for j in range(amps.shape[0]) if amps[j, k] > threshold]
        if not above:
            continue
        j = above[0]
        if j == 0:
            crossings[k] = float(pts[0])
            continue
        a0, a1 = amps[j - 1, k], amps[j, k]
        frac = (threshold - a0) / (a1 - a0)
        crossings[k] = float(pts[j - 1] + frac * (pts[j] - pts[j - 1]))
    levels = sorted(crossings)
    speeds = []
    for i, k1 in enumerate(levels):
        for k2 in levels[i + 1 :]:
            dt = crossings[k2] - crossings[k1]
            if dt != 0:
                speeds.append((k1, k2, (k2 - k1) / dt))
    return crossings, speeds


def operator_norm(M):
    """Largest singular value of a matrix."""
    return float(np.linalg.norm(np.asarray(M), 2))


def heisenberg(A, U):
    """Heisenberg-picture operator U^dag A U; numpy refuses mismatched
    shapes with a ValueError."""
    U = np.asarray(U)
    return U.conj().T @ np.asarray(A) @ U


def commutator_norm(A, B, U):
    """|| [U^dag A U, B] ||, the generic form that the bound audit reads
    from a block of U."""
    At = heisenberg(A, U)
    return float(np.linalg.norm(At @ B - B @ At, 2))


def gram_block_norm(unitaries, a, b):
    """||U[A, B] U[A^c, B]^dag|| per checkpoint for label lists a, b, as the
    square root of the largest eigenvalue of its |A| x |A| Gram matrix: the
    general form of the bound audit's block read-out, for any supports."""
    cols = np.asarray(unitaries)[:, :, b]
    X = cols[:, a, :] @ np.delete(cols, a, axis=1).conj().transpose(0, 2, 1)
    gram = X @ X.conj().transpose(0, 2, 1)
    return np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[:, -1], 0.0))


def bisect_lambert(x, lo=0.0, hi=10.0, tol=1e-13):
    """Solve w e^w = x for w >= 0 by bisection (monotone on w >= 0)."""
    f = lambda w: w * np.exp(w) - x
    assert f(lo) <= 0 <= f(hi)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) <= 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def brute_a_mu(M, mu, zero_tol=1e-14):
    """Direct per-level summation of |Z| ||H_Z|| e^(mu diam) over the
    pairwise blocks, straight from the matrix entries."""
    M = np.asarray(M)
    n = M.shape[0]
    best = 0.0
    for i in range(n):
        total = abs(M[i, i]) if abs(M[i, i]) > zero_tol else 0.0
        for j in range(n):
            if j != i and abs(M[i, j]) > zero_tol:
                total += 2.0 * abs(M[i, j]) * np.exp(mu * abs(i - j))
        best = max(best, total)
    return best


def brute_probe_sum(M, mu, probe_labels, zero_tol=1e-14):
    """Sum of |Z| ||H_Z|| e^(mu diam) over pairwise blocks intersecting the
    probe, enumerated straight from the matrix entries."""
    M = np.asarray(M)
    n = M.shape[0]
    P = set(int(p) for p in probe_labels)
    total = 0.0
    for i in range(n):
        if i in P and abs(M[i, i]) > zero_tol:
            total += abs(M[i, i])
        for j in range(i + 1, n):
            if abs(M[i, j]) > zero_tol and ({i, j} & P):
                total += 2.0 * abs(M[i, j]) * np.exp(mu * (j - i))
    return total


def probe_blocks(dimension, max_size=5, n_random=100, seed=0):
    """Probe label sets: every contiguous interval up to max_size labels,
    then n_random seeded random subsets of up to max_size labels."""
    size_cap = min(max_size, dimension)
    probes = [
        list(range(start, start + size))
        for size in range(1, size_cap + 1)
        for start in range(dimension - size + 1)
    ]
    rng = np.random.default_rng(seed)
    for _ in range(n_random):
        size = int(rng.integers(1, size_cap + 1))
        probes.append(sorted(rng.choice(dimension, size=size, replace=False)))
    return probes


def apply_permutation(H, perm):
    """Relabel basis indices: result[perm[i], perm[j]] = H[i, j]."""
    inv = np.argsort(np.asarray(perm, dtype=int))  # inv[new] = old
    return np.asarray(H)[np.ix_(inv, inv)]


def sturm_count(diag, off, x):
    """Number of eigenvalues below x of the real symmetric tridiagonal matrix
    with the given diagonal and off-diagonal, in exact rational arithmetic.

    Counts sign changes along p_k = det(T_k - x) for the leading k x k blocks
    T_k, p_0 = 1.  A p_k that is exactly zero takes the sign of p_(k-1): for
    k < n its neighbours have opposite signs, so the triple still counts one
    change, and for k = n the eigenvalue at x is not counted, not being below
    x.  The off-diagonal entries must be nonzero.
    """
    x = Fraction(x)
    p_prev, p = Fraction(1), Fraction(diag[0]) - x
    sign_prev, changes = 1, 0
    for k in range(len(diag)):
        if k:
            coupling = Fraction(off[k - 1]) ** 2
            p_prev, p = p, (Fraction(diag[k]) - x) * p - coupling * p_prev
        sign = sign_prev if p == 0 else (1 if p > 0 else -1)
        changes += sign != sign_prev
        sign_prev = sign
    return changes


def tridiagonal_norm(diag, off, tol=Fraction(1, 10**14)):
    """Operator norm (largest |eigenvalue|) of the real symmetric tridiagonal
    matrix, by bisection on the exact Sturm count to within tol."""
    # Gershgorin: every eigenvalue lies strictly inside (-radius, radius)
    radius = 1 + max(abs(Fraction(a)) for a in diag) + 2 * max(
        (abs(Fraction(b)) for b in off), default=0
    )

    def edge(target):
        # the target-th smallest eigenvalue: inf of x with sturm_count >= target
        lo, hi = -radius, radius
        while hi - lo > tol:
            mid = (lo + hi) / 2
            if sturm_count(diag, off, mid) >= target:
                hi = mid
            else:
                lo = mid
        return (lo + hi) / 2

    return float(max(abs(edge(1)), abs(edge(len(diag)))))


def random_hermitian(rng, n, scale=1.0):
    M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * 0.5 * (M + M.conj().T)


def random_unitary(rng, n):
    M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    Q, R = np.linalg.qr(M)
    return Q * (np.diagonal(R) / np.abs(np.diagonal(R)))


def random_anti_hermitian(rng, n, scale=1.0):
    return -1j * random_hermitian(rng, n, scale)


def spearman(x, y):
    """Spearman rank correlation (no ties expected)."""
    rx = np.argsort(np.argsort(np.asarray(x, dtype=float)))
    ry = np.argsort(np.argsort(np.asarray(y, dtype=float)))
    rx = rx - rx.mean()
    ry = ry - ry.mean()
    return float(np.sum(rx * ry) / np.sqrt(np.sum(rx**2) * np.sum(ry**2)))


def ensemble_params(count=50):
    """Seeded parameter list for the random exponential-envelope ensemble:
    dimensions up to 16 and decay rates spanning [1, 3]."""
    params = []
    for seed in range(count):
        n = 8 + seed % 9
        mu_prime = 1.0 + 2.0 * ((seed * 0.37) % 1.0)
        params.append((seed, n, mu_prime))
    return params


def ground_projector(flow):
    """(times, d, d) stack of the ground-cluster projectors V_G V_G^dag,
    built from the flow's ground columns."""
    V = flow.basis[:, :, : flow.ground_dim]
    return V @ V.conj().transpose(0, 2, 1)


def transport_defect(U_ad, flow):
    """max_t ||U_ad(t) G(0) U_ad(t)^dag - G(t)||, the d x d projector
    difference that the intertwining defect reads from a block."""
    G = ground_projector(flow)
    U = U_ad.unitaries
    diff = U @ G[0] @ U.conj().transpose(0, 2, 1) - G
    return float(np.linalg.norm(diff, 2, axis=(1, 2)).max())


def mixed_ground_leakage(U, flow):
    """1 - tr[G(T) U(T) G(0) U(T)^dag] / |G|: the weight the evolved,
    maximally mixed initial ground state leaves outside G(T), subtracted
    from 1."""
    G = ground_projector(flow)
    UT = U.unitaries[-1]
    kept = np.trace(G[-1] @ UT @ G[0] @ UT.conj().T).real
    return 1.0 - kept / flow.ground_dim
