"""Experiment pipeline: config ingestion, empirical LR-speed extraction from
threshold crossings, the delta_ad sweep over total times, and data export.

The empirical speed follows the level-crossing construction: evolve the
initial ground state, record for each level k the first time the
instantaneous-eigenbasis amplitude |<E_k(t)| U(t,0) |G(0)>| exceeds a
threshold, and fit levels against crossing times.
"""

from __future__ import annotations

import json
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import svgplot
from .adiabatic import SpectralFlow, _check_aligned, adiabatic_error, spectral_flow
from .errors import InsufficientCrossingsError, LrlabError, ValidationError
from .models import (
    ConstantHamiltonian,
    LinearInterpolationHamiltonian,
    TimeDependentHamiltonian,
    build_example_ramp,
)
from .numerics import TimeGrid
from .propagation import Propagator, evolve_on_grid

DEFAULT_THRESHOLD = 6e-4
DEFAULT_T_VALUES = (12.5, 25.0, 50.0, 100.0, 200.0, 400.0)
# expected ranges for the bundled example; runs outside them get a warning
_EXPECTED_GAP_RANGE = (0.095, 0.105)
_EXPECTED_NORM_RANGE = (0.95, 1.85)


def parse_complex_matrix(rows) -> np.ndarray:
    """Row-major nested lists of [re, im] pairs -> complex matrix."""
    try:
        arr = np.asarray(rows, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"malformed matrix data: {exc}") from exc
    if arr.ndim != 3 or arr.shape[2] != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError(
            "inline matrices must be square row-major arrays of [re, im] "
            f"pairs, got shape {arr.shape}"
        )
    return arr[:, :, 0] + 1j * arr[:, :, 1]


@dataclass(eq=False)
class ExperimentConfig:
    """Everything a sweep needs; mirrors the JSON config schema."""

    hamiltonian: str | dict = "paper_example"
    T_values: tuple[float, ...] = DEFAULT_T_VALUES
    threshold: float = DEFAULT_THRESHOLD
    mu: float | None = None
    grid_points: int = 2001
    integrator_tol: float = 1e-9
    output_dir: str = "out"
    fixed_basis: bool = False

    def __post_init__(self):
        self.T_values = tuple(float(T) for T in self.T_values)
        if not self.T_values:
            raise ValidationError("T_values must not be empty")
        if any(T <= 0 for T in self.T_values):
            raise ValidationError("T_values must be positive")
        if not (0.0 < self.threshold < 1.0):
            raise ValidationError(
                f"threshold must lie in (0, 1), got {self.threshold}"
            )
        if self.grid_points < 2:
            raise ValidationError("grid_points must be at least 2")
        if self.integrator_tol <= 0:
            raise ValidationError("integrator_tol must be positive")
        if self.mu is not None and self.mu <= 0:
            raise ValidationError(f"mu must be positive, got {self.mu}")

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ValidationError(f"unknown config fields: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ValidationError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ValidationError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ValidationError("config root must be a JSON object")
        return cls.from_dict(data)

    def build_hamiltonian(self, T: float) -> TimeDependentHamiltonian:
        spec = self.hamiltonian
        if spec == "paper_example":
            return build_example_ramp(T)
        if isinstance(spec, dict):
            if "constant" in spec:
                return ConstantHamiltonian(parse_complex_matrix(spec["constant"]))
            if "h_i" in spec and "h_f" in spec:
                return LinearInterpolationHamiltonian(
                    parse_complex_matrix(spec["h_i"]),
                    parse_complex_matrix(spec["h_f"]),
                    T,
                )
            raise ValidationError(
                "hamiltonian object needs either 'constant' or 'h_i'+'h_f'"
            )
        raise ValidationError(f"unknown hamiltonian spec: {spec!r}")


@dataclass(eq=False)
class EmpiricalSpeed:
    """Crossing-time data and the fitted LR speed."""

    v_lr: float
    crossing_times: dict[int, float]
    pairwise_speeds: list[tuple[int, int, float]]
    threshold: float


def _first_crossings(
    amps: np.ndarray, pts: np.ndarray, threshold: float
) -> dict[int, float]:
    """First threshold crossing per level (k >= 1), linearly interpolated
    between the bracketing grid points."""
    crossings: dict[int, float] = {}
    n_levels = amps.shape[1]
    for k in range(1, n_levels):
        above = np.nonzero(amps[:, k] > threshold)[0]
        if above.size == 0:
            continue
        j = int(above[0])
        if j == 0:
            crossings[k] = float(pts[0])
            continue
        a0, a1 = amps[j - 1, k], amps[j, k]
        frac = (threshold - a0) / (a1 - a0)
        crossings[k] = float(pts[j - 1] + frac * (pts[j] - pts[j - 1]))
    return crossings


def empirical_v_lr(
    H: TimeDependentHamiltonian,
    T: float,
    threshold: float,
    grid: TimeGrid,
    fixed_basis: bool = False,
    *,
    flow: SpectralFlow,
    propagator: Propagator,
) -> EmpiricalSpeed:
    """LR speed from amplitude threshold crossings, read off the flow's
    eigenframes and the propagator, both on the grid.

    For each level k >= 1 the first grid time where the eigenbasis amplitude
    from the initial ground state exceeds the threshold is located; the
    headline speed is the least-squares slope of level index against
    crossing time, and all pairwise speeds (k2 - k1) / (t2 - t1) are
    reported alongside.  The propagator's grid and ``grid`` must both be the
    flow's.
    """
    _check_aligned(flow, propagator.grid, grid)
    if threshold <= 0:
        raise ValidationError(f"threshold must be positive, got {threshold}")
    if flow.ground_dim != 1:
        raise ValidationError(
            "crossing analysis needs a nondegenerate ground state"
        )
    spacings = np.diff(flow.eigenvalues, axis=1)
    if np.min(spacings) <= 1e-12:
        raise ValidationError(
            "spectrum is degenerate along the path; crossing times are "
            "not well-defined"
        )

    g0 = flow.basis[0][:, 0]
    states = propagator.unitaries @ g0  # (times, dim)
    if fixed_basis:
        amps = np.abs(states @ flow.basis[0].conj())
    else:
        amps = np.abs(
            np.einsum("tji,tj->ti", flow.basis.conj(), states, optimize=True)
        )

    crossings = _first_crossings(amps, grid.points, threshold)
    if len(crossings) < 2:
        raise InsufficientCrossingsError(
            f"only {len(crossings)} level(s) crossed the threshold "
            f"{threshold} within [0, {T}]",
            crossings=crossings,
        )

    ks = np.array(sorted(crossings))
    ts = np.array([crossings[k] for k in ks])
    t_var = np.sum((ts - ts.mean()) ** 2)
    if t_var <= 0:
        raise InsufficientCrossingsError(
            "all crossing times coincide; cannot fit a speed",
            crossings=crossings,
        )
    slope = float(np.sum((ts - ts.mean()) * (ks - ks.mean())) / t_var)

    pairwise = []
    for i in range(len(ks)):
        for j in range(i + 1, len(ks)):
            dt = ts[j] - ts[i]
            if dt != 0:
                pairwise.append(
                    (int(ks[i]), int(ks[j]), float((ks[j] - ks[i]) / dt))
                )
    return EmpiricalSpeed(
        v_lr=slope,
        crossing_times={int(k): float(crossings[k]) for k in ks},
        pairwise_speeds=pairwise,
        threshold=threshold,
    )


@dataclass(eq=False)
class Fig1Record:
    """One total-time point of the sweep."""

    T: float
    v_lr_empirical: float
    v_lr_pairwise: list[tuple[int, int, float]]
    delta_ad: float
    gap_min: float
    h_norm_min: float
    h_norm_max: float
    crossing_times: dict[int, float] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)


def _single_run(config: ExperimentConfig, T: float) -> Fig1Record:
    H = config.build_hamiltonian(T)
    grid = TimeGrid.uniform(T, config.grid_points)
    flow = spectral_flow(H, grid)
    prop = evolve_on_grid(H, grid, config.integrator_tol)
    emp = empirical_v_lr(
        H,
        T,
        config.threshold,
        grid,
        fixed_basis=config.fixed_basis,
        flow=flow,
        propagator=prop,
    )
    delta_ad = adiabatic_error(prop, flow)

    norms = np.maximum(
        np.abs(flow.eigenvalues[:, 0]), np.abs(flow.eigenvalues[:, -1])
    )
    h_lo, h_hi = float(norms.min()), float(norms.max())
    notes = []
    if config.hamiltonian == "paper_example":
        if not (_EXPECTED_GAP_RANGE[0] <= flow.gap_min <= _EXPECTED_GAP_RANGE[1]):
            notes.append(
                f"gap_min {flow.gap_min:.6g} outside {_EXPECTED_GAP_RANGE}"
            )
        if h_lo < _EXPECTED_NORM_RANGE[0] or h_hi > _EXPECTED_NORM_RANGE[1]:
            notes.append(
                f"norm range [{h_lo:.6g}, {h_hi:.6g}] outside "
                f"{_EXPECTED_NORM_RANGE}"
            )
    for note in notes:
        warnings.warn(f"T={T:g}: {note}", RuntimeWarning, stacklevel=2)
    return Fig1Record(
        T=T,
        v_lr_empirical=emp.v_lr,
        v_lr_pairwise=emp.pairwise_speeds,
        delta_ad=delta_ad,
        gap_min=flow.gap_min,
        h_norm_min=h_lo,
        h_norm_max=h_hi,
        crossing_times=emp.crossing_times,
        warnings=notes,
    )


def _worker_count(n_tasks: int) -> int:
    cap = os.environ.get("LRLAB_THREADS")
    if cap is not None:
        try:
            cap = max(1, int(cap))
        except ValueError as exc:
            raise ValidationError("LRLAB_THREADS must be an integer") from exc
    else:
        cap = os.cpu_count() or 1
    return max(1, min(n_tasks, cap))


def _write_csv(path, records: list[Fig1Record]) -> None:
    with open(path, "w") as fh:
        fh.write("T,v_lr,delta_ad,gap_min,h_norm_min,h_norm_max\n")
        for r in records:
            row = (
                r.T,
                r.v_lr_empirical,
                r.delta_ad,
                r.gap_min,
                r.h_norm_min,
                r.h_norm_max,
            )
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def run_fig1(
    config: ExperimentConfig,
) -> tuple[list[Fig1Record], dict[float, str], list[Path]]:
    """Run the sweep per total time, then export CSV, JSON, and SVG files.

    Individual total-time failures are recorded and do not stop the sweep.
    Returns (records sorted by T, per-T error strings, written paths).
    """
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    results: dict[float, Fig1Record] = {}
    failures: dict[float, str] = {}

    def task(T: float):
        try:
            return T, _single_run(config, T), None
        except LrlabError as exc:
            return T, None, f"{type(exc).__name__}: {exc}"

    with ThreadPoolExecutor(max_workers=_worker_count(len(config.T_values))) as pool:
        for T, record, error in pool.map(task, config.T_values):
            if error is None:
                results[T] = record
            else:
                failures[T] = error

    records = [results[T] for T in sorted(results)]
    paths: list[Path] = []

    csv_path = out_dir / "fig1.csv"
    _write_csv(csv_path, records)
    paths.append(csv_path)

    for r in records:
        run_path = out_dir / f"fig1_run_T{r.T:g}.json"
        payload = {
            "T": r.T,
            "v_lr": r.v_lr_empirical,
            "delta_ad": r.delta_ad,
            "gap_min": r.gap_min,
            "h_norm_min": r.h_norm_min,
            "h_norm_max": r.h_norm_max,
            "crossing_times": {str(k): v for k, v in r.crossing_times.items()},
            "pairwise_speeds": [list(p) for p in r.v_lr_pairwise],
            "warnings": r.warnings,
        }
        with open(run_path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        paths.append(run_path)
    for T, message in failures.items():
        err_path = out_dir / f"fig1_run_T{T:g}.json"
        with open(err_path, "w") as fh:
            json.dump({"T": T, "error": message}, fh, indent=2, sort_keys=True)
            fh.write("\n")
        paths.append(err_path)

    if len(records) >= 2:
        vs = np.array([r.v_lr_empirical for r in records])
        ds = np.array([r.delta_ad for r in records])
        Ts = np.array([r.T for r in records])
        order = np.argsort(vs)
        svg1 = out_dir / "fig1_dad_vs_vlr.svg"
        svgplot.line_plot(
            svg1,
            [(vs[order], ds[order], "delta_ad")],
            xlabel="V_LR",
            ylabel="delta_ad",
            title="Adiabatic error vs LR speed",
            logx=True,
            logy=True,
        )
        paths.append(svg1)
        svg2 = out_dir / "fig1_vlr_vs_T.svg"
        svgplot.line_plot(
            svg2,
            [(Ts, vs, "V_LR")],
            xlabel="T",
            ylabel="V_LR",
            title="LR speed vs total time",
            logx=True,
            logy=True,
        )
        paths.append(svg2)

    return records, failures, paths
