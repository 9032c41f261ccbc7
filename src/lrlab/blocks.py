"""Basis-label bookkeeping: blocks, distances, bandwidth and the one
Hermitian test.

A *block* is a finite set of basis labels (integers giving positions in an
ordered representation basis).  A Hermitian matrix is its own pairwise
decomposition H = sum_Z H_Z: the singleton {i} carries H_ii |i><i| and the
pair {i, j} carries H_ij |i><j| + H_ji |j><i|, of operator norm |H_ij|, so
the locality layer reads every term from |H| and no term list is built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

# entries at or below this magnitude are treated as structural zeros
STRUCTURAL_ZERO = 1e-14
HERMITICITY_TOL = 1e-12


@dataclass(frozen=True)
class Block:
    """A sorted, duplicate-free set of basis labels."""

    labels: tuple[int, ...]

    def __init__(self, labels):
        labs = sorted(set(int(i) for i in labels))
        if not labs:
            raise ValidationError("a block must contain at least one label")
        if labs[0] < 0:
            raise ValidationError(f"labels must be nonnegative, got {labs[0]}")
        object.__setattr__(self, "labels", tuple(labs))

    @property
    def size(self) -> int:
        return len(self.labels)


def block_distance(a: Block, b: Block) -> int:
    """Minimum |j - i| over i in a, j in b; 0 iff the blocks share a label."""
    # compares all pairs, which is cheap for the small blocks used here
    return min(abs(j - i) for i in a.labels for j in b.labels)


def refuse_non_hermitian(H: np.ndarray, what: str) -> None:
    """Refuse a matrix, or a stack of them, whose max |H - H^dag| exceeds
    HERMITICITY_TOL max(1, max |H|), the maxima taken over the whole stack;
    the message starts with `what`.  A NaN entry fails no comparison here,
    so a caller that admits one refuses it elsewhere."""
    defect = np.abs(H - H.conj().swapaxes(-1, -2)).max(initial=0.0)
    if defect > HERMITICITY_TOL * max(1.0, np.abs(H).max(initial=0.0)):
        raise ValidationError(
            f"{what} is not Hermitian: max |H - H^dag| = {defect:.3e}"
        )


def _check_hermitian(H: np.ndarray) -> np.ndarray:
    """A read-only copy of H, once checked square, finite and Hermitian, so
    that later writes to the caller's array cannot reach it.  The copy is
    float64 when no entry has a nonzero imaginary part, so that a real H
    keeps real arithmetic downstream, and complex otherwise."""
    H = np.array(H, dtype=complex)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {H.shape}")
    # NaN fails the Hermitian test's comparisons, so it is refused here
    if not np.all(np.isfinite(H)):
        raise ValidationError("matrix contains NaN or Inf entries")
    refuse_non_hermitian(H, "matrix")
    if not H.imag.any():
        # .real, not astype(float), which warns on every complex input
        H = H.real.copy()
    H.setflags(write=False)
    return H


def pairwise_decompose(H: np.ndarray) -> np.ndarray:
    """H's read-only, checked copy, from ``_check_hermitian``: its entries
    are its pairwise terms.  perfbench's ``ensemble_audit`` workload is its
    last reader, and the perfbench rework in ROADMAP.md deletes it."""
    return _check_hermitian(H)


def bandwidth(H: np.ndarray) -> int:
    """Max |i - j| over entries above the structural-zero threshold."""
    H = np.asarray(H)
    rows, cols = np.nonzero(np.abs(H) > STRUCTURAL_ZERO)
    if rows.size == 0:
        return 0
    return int(np.max(np.abs(rows - cols)))
