"""Experiment pipeline: config ingestion, empirical LR-speed extraction from
threshold crossings, the delta_ad sweep over total times, and its export as
fig1.csv, one JSON file per total time and two SVG plots.  The CSV and JSON
text comes from the numerics writers, so it matches every other artefact.

The empirical speed follows the level-crossing construction: evolve the
initial ground state, record for each level k the first time the
instantaneous-eigenbasis amplitude |<E_k(t)| U(t,0) |G(0)>| exceeds a
threshold, and fit levels against crossing times.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import svgplot
from .adiabatic import SpectralFlow, _level_ends, adiabatic_error, spectral_flow
from .errors import InsufficientCrossingsError, LrlabError, ValidationError
from .models import (
    ConstantHamiltonian,
    LinearInterpolationHamiltonian,
    TimeDependentHamiltonian,
    build_example_ramp,
)
from .numerics import TimeGrid, _worker_count, check_aligned, csv_text, json_text
from .propagation import Propagator, evolve_on_grid

DEFAULT_THRESHOLD = 6e-4
DEFAULT_T_VALUES = (12.5, 25.0, 50.0, 100.0, 200.0, 400.0)


def _number(value) -> bool:
    """A finite real number, numpy scalars included; a bool is not one."""
    return (
        isinstance(value, numbers.Real)
        and not isinstance(value, (bool, np.bool_))
        and math.isfinite(value)
    )


# each config field's test, and what a refusal says the field must be
_FIELD_RULES = {
    "T_values": (
        lambda v: isinstance(v, (list, tuple, np.ndarray))
        and len(v) > 0
        and all(_number(T) and T > 0 for T in v),
        "a non-empty list of positive finite numbers",
    ),
    "threshold": (lambda v: _number(v) and 0 < v < 1, "a number in (0, 1)"),
    "mu": (
        lambda v: v is None or _number(v) and v > 0,
        "a positive finite number or null",
    ),
    "grid_points": (
        lambda v: _number(v) and isinstance(v, numbers.Integral) and v >= 2,
        "an integer of at least 2",
    ),
    "integrator_tol": (lambda v: _number(v) and v > 0, "a positive finite number"),
    "output_dir": (lambda v: isinstance(v, (str, os.PathLike)), "a path"),
    "fixed_basis": (lambda v: isinstance(v, (bool, np.bool_)), "true or false"),
}


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


def read_config(path) -> dict:
    """The JSON object in the config file at path, its fields unchecked."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError("config root must be a JSON object")
    return data


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
        for name, (valid, what) in _FIELD_RULES.items():
            value = getattr(self, name)
            if not valid(value):
                raise ValidationError(f"{name} must be {what}, got {value!r}")
        self.T_values = tuple(float(T) for T in self.T_values)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ValidationError(f"unknown config fields: {sorted(unknown)}")
        return cls(**data)

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
    flow's.  Every eigenvalue must be a level of its own at every grid time:
    a spectrum with two eigenvalues spaced at most CLUSTER_TOL anywhere,
    which the flow counts as one level, is refused.
    """
    check_aligned(flow.grid, propagator.grid, grid)
    if threshold <= 0:
        raise ValidationError(f"threshold must be positive, got {threshold}")
    if flow.ground_dim != 1:
        raise ValidationError(
            "crossing analysis needs a nondegenerate ground state"
        )
    # a level of two or more columns has per-column amplitudes that depend
    # on the basis eigh picks inside it
    if not _level_ends(flow.eigenvalues).all():
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
            f"{threshold} within [0, {T}]"
        )

    ks = np.array(sorted(crossings))
    ts = np.array([crossings[k] for k in ks])
    t_var = np.sum((ts - ts.mean()) ** 2)
    if t_var <= 0:
        raise InsufficientCrossingsError(
            "all crossing times coincide; cannot fit a speed"
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
    return Fig1Record(
        T=T,
        v_lr_empirical=emp.v_lr,
        v_lr_pairwise=emp.pairwise_speeds,
        delta_ad=delta_ad,
        gap_min=flow.gap_min,
        h_norm_min=float(norms.min()),
        h_norm_max=float(norms.max()),
        crossing_times=emp.crossing_times,
    )


def run_fig1(
    config: ExperimentConfig,
) -> tuple[list[Fig1Record], dict[float, str], list[Path]]:
    """Run the sweep per total time, then export CSV, JSON, and SVG files.

    Individual total-time failures are recorded and do not stop the sweep.
    The fig1 artefacts of an earlier sweep that this one did not rewrite
    (its other fig1_run_T*.json files, its SVGs when this sweep draws none)
    are removed, so that the directory describes one sweep; no other file
    is touched.  Returns (records sorted by T, per-T error strings, written
    paths).
    """
    # a refused LRLAB_THREADS leaves no output directory behind
    workers = _worker_count(len(config.T_values))
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    results: dict[float, Fig1Record] = {}
    failures: dict[float, str] = {}

    def task(T: float):
        try:
            return T, _single_run(config, T), None
        except LrlabError as exc:
            return T, None, f"{type(exc).__name__}: {exc}"

    with ThreadPoolExecutor(max_workers=workers) as pool:
        for T, record, error in pool.map(task, config.T_values):
            if error is None:
                results[T] = record
            else:
                failures[T] = error

    records = [results[T] for T in sorted(results)]
    paths: list[Path] = []

    # fig1.csv's columns, which each per-run JSON file also holds by name
    header = ("T", "v_lr", "delta_ad", "gap_min", "h_norm_min", "h_norm_max")
    rows = [
        (r.T, r.v_lr_empirical, r.delta_ad, r.gap_min, r.h_norm_min, r.h_norm_max)
        for r in records
    ]
    csv_path = out_dir / "fig1.csv"
    csv_path.write_text(csv_text(header, rows))
    paths.append(csv_path)

    summaries = [
        {
            **dict(zip(header, row)),
            "crossing_times": {str(k): v for k, v in r.crossing_times.items()},
            "pairwise_speeds": [list(p) for p in r.v_lr_pairwise],
        }
        for r, row in zip(records, rows)
    ] + [{"T": T, "error": message} for T, message in failures.items()]
    for summary in summaries:
        run_path = out_dir / f"fig1_run_T{summary['T']:g}.json"
        run_path.write_text(json_text(summary))
        paths.append(run_path)

    svg1 = out_dir / "fig1_dad_vs_vlr.svg"
    svg2 = out_dir / "fig1_vlr_vs_T.svg"
    if len(records) >= 2:
        vs = np.array([r.v_lr_empirical for r in records])
        ds = np.array([r.delta_ad for r in records])
        Ts = np.array([r.T for r in records])
        order = np.argsort(vs)
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

    for stale in [*out_dir.glob("fig1_run_T*.json"), svg1, svg2]:
        if stale not in paths:
            stale.unlink(missing_ok=True)
    return records, failures, paths
