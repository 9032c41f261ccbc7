"""Shared numerical kernels: time grids, norms, the product logarithm and
time-grid quadrature; the one thread pool, ``run_tasks``, and its thread
count; the one check of a positive, finite parameter; and the one writer
of each artefact text format, the 17-digit CSV and the sorted,
2-space-indented JSON."""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


def check_positive(name: str, value) -> None:
    """Refuse a value outside 0 < value < inf, naming it; NaN fails the
    comparison too."""
    if not 0.0 < value < np.inf:
        raise ValidationError(f"{name} must be positive and finite, got {value}")


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Strictly increasing, finite time points starting at 0 (hbar = 1
    units), kept as a read-only copy, so that later writes to the caller's
    array cannot reach the grid."""

    points: np.ndarray

    def __init__(self, points):
        pts = np.array(points, dtype=float)
        pts.setflags(write=False)
        if pts.ndim != 1 or pts.size < 2:
            raise ValidationError("a time grid needs at least 2 points")
        if pts[0] != 0.0:
            raise ValidationError(f"time grid must start at 0, got {pts[0]}")
        check_positive("t_final", pts[-1])
        if not np.all(np.diff(pts) > 0):
            raise ValidationError("time grid must be strictly increasing")
        object.__setattr__(self, "points", pts)

    @classmethod
    def uniform(cls, t_final: float, n_points: int) -> "TimeGrid":
        check_positive("t_final", t_final)
        return cls(np.linspace(0.0, float(t_final), int(n_points)))

    @property
    def t_final(self) -> float:
        return float(self.points[-1])

    def __len__(self) -> int:
        return int(self.points.size)


def check_aligned(grid: TimeGrid, *others: TimeGrid) -> None:
    """Refuse any of the other grids whose points are not grid's: quantities
    sampled on different points must not be read against each other."""
    if any(not np.array_equal(g.points, grid.points) for g in others):
        raise ValidationError("time grids do not align")


def _worker_count(n_tasks: int) -> int:
    """Threads for n_tasks independent tasks: LRLAB_THREADS if set, else
    the CPU count, and never more than the tasks.  A LRLAB_THREADS that is
    not an integer is refused."""
    cap = os.environ.get("LRLAB_THREADS")
    if cap is not None:
        try:
            cap = max(1, int(cap))
        except ValueError as exc:
            raise ValidationError("LRLAB_THREADS must be an integer") from exc
    else:
        cap = os.cpu_count() or 1
    return max(1, min(n_tasks, cap))


def run_tasks(tasks) -> list:
    """Call each of the zero-argument tasks on a pool of
    ``_worker_count(len(tasks))`` threads, the only one lrlab makes, and
    return their results in task order.  The first task, in that order,
    that raised re-raises once the running tasks have finished; the tasks
    not yet started are cancelled."""
    pool = ThreadPoolExecutor(max_workers=_worker_count(len(tasks)))
    try:
        futures = [pool.submit(task) for task in tasks]
        return [future.result() for future in futures]
    finally:
        pool.shutdown(cancel_futures=True)


def operator_norms(stack: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix in a (n, rows, cols) stack.  A
    stack that broadcasts one matrix along axis 0 (stride 0), such as a
    linear ramp's derivative_batch, takes one SVD."""
    stack = np.asarray(stack)
    if stack.ndim != 3:
        raise ValidationError(f"expected a matrix stack, got ndim={stack.ndim}")
    if stack.shape[0] > 1 and stack.strides[0] == 0:
        return np.repeat(operator_norms(stack[:1]), stack.shape[0])
    if not np.all(np.isfinite(stack)):
        raise ValidationError("matrix contains NaN or Inf entries")
    return np.linalg.norm(stack, 2, axis=(1, 2))


def _product_log_of_exp(y: float) -> float:
    """The w > 0 with w + ln w = y, that is W(e^y) for the product
    logarithm W, for any finite y >= ln(5e-324), solved in log space so
    that e^y is never formed.  Newton's steps w <- w (1 + y - ln w) / (1 + w)
    start from ln(1 + e^y), above the root, and stay positive; w + ln w is
    concave, so the first lands below the root and the rest climb to it.
    Five reach rounding everywhere (checked against mpmath); six are taken."""
    w = np.logaddexp(0.0, y)
    for _ in range(6):
        w -= (w + np.log(w) - y) * w / (1.0 + w)
    return float(w)


def lambert_w(x: float) -> float:
    """Principal branch of the product logarithm on 0 <= x < inf: the
    w >= 0 with w e^w = x, from ``_product_log_of_exp(ln x)``, so up to the
    float maximum.  The rounding of ln x bounds its relative accuracy at
    about max(1, |ln x|) 2^-52."""
    x = float(x)
    if not 0.0 <= x < np.inf:
        raise ValidationError(f"lambert_w requires 0 <= x < inf, got {x}")
    return _product_log_of_exp(np.log(x)) if x > 0.0 else 0.0


def running_trapezoid(samples, grid: TimeGrid) -> np.ndarray:
    """The trapezoid rule's integral of f over [0, t_k] at each grid point,
    from f's samples along axis 0: row 0 is 0, and the last row over t_final
    is the time average.  Exact for affine f.

    For a constant or linearly ramped H it overstates the integral of a_mu:
    each |H_ij(t)| is then the modulus of an affine function, so each
    level's load, and their maximum, is convex in t, and a chord lies above
    a convex function.  The cut at blocks.STRUCTURAL_ZERO lowers an entry
    by at most 1e-14.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.shape[:1] != grid.points.shape:
        raise ValidationError(
            f"got samples of shape {samples.shape} for a {len(grid)}-point grid"
        )
    # each interval's area, then their running sum, in place after row 0;
    # halving is exact, so this is 0.5 * (f[1:] + f[:-1]) * dt bit for bit
    out = np.zeros(samples.shape)
    seg = np.add(samples[1:], samples[:-1], out=out[1:])
    seg *= 0.5 * np.diff(grid.points).reshape((-1,) + (1,) * (samples.ndim - 1))
    np.cumsum(seg, axis=0, out=seg)
    return out


def csv_text(header, rows) -> str:
    """CSV text: the header's column names, then one line per row, each
    value with 17 significant digits, so that it reads back to the same
    float."""
    lines = [",".join(header)]
    lines += [",".join(f"{v:.17g}" for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def json_text(payload) -> str:
    """JSON text with sorted keys, 2-space indent and a final newline."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
