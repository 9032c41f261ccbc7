"""Experiment pipeline: config ingestion, empirical LR-speed extraction from
threshold crossings, the delta_ad sweep over total times, and its export as
fig1.csv, one JSON file per total time and two SVG plots.  The CSV and JSON
text comes from the numerics writers, so it matches every other artefact.

The empirical speed follows the level-crossing construction: evolve the
initial ground state, record for each level k the first time the
instantaneous-eigenbasis amplitude |<E_k(t)| U(t,0) |G(0)>| exceeds a
threshold, interpolated between grid points, and fit levels against
crossing times.  Those amplitudes are the moduli of the adiabatic layer's
excited-ground block V_E(t)^dag U(t, 0) V_G(0), with V_G(0) the ground
column, read by its one kernel ``_excited_ground`` with the frames in
place.  The crossings stay two arrays, the levels and their times, from
the read-out to the fit and the pairwise speeds.  Each total time of the
sweep has one outcome: its record, or the error that stopped it.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import adiabatic, svgplot
from .errors import InsufficientCrossingsError, LrlabError, ValidationError
from .models import (
    ConstantHamiltonian,
    LinearInterpolationHamiltonian,
    TimeDependentHamiltonian,
    build_example_ramp,
)
from .numerics import TimeGrid, check_aligned, csv_text, json_text, run_tasks
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
    # each T names its fig1_run_T{T:g}.json, so no two may share a name
    "T_values": (
        lambda v: isinstance(v, (list, tuple, np.ndarray))
        and len(v) > 0
        and all(_number(T) and T > 0 for T in v)
        and len({f"{T:g}" for T in v}) == len(v),
        "a non-empty list of positive finite numbers, distinct to 6 digits (%g)",
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


def _check_field(name: str, value) -> None:
    """Refuse a config field's value that fails its rule, by name."""
    valid, what = _FIELD_RULES[name]
    if not valid(value):
        raise ValidationError(f"{name} must be {what}, got {value!r}")


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
        for name in _FIELD_RULES:
            _check_field(name, getattr(self, name))
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
) -> tuple[np.ndarray, np.ndarray]:
    """From the excited levels' amplitudes (times, levels), column k - 1
    for level k >= 1: the levels whose amplitude exceeds the threshold at
    some grid point, in ascending order, and the time of each one's first
    crossing, linearly interpolated between the bracketing grid points.  A
    level above the threshold at the first point crosses at pts[0]."""
    above = amps > threshold
    cols = np.flatnonzero(above.any(axis=0))
    j = above[:, cols].argmax(axis=0)  # first point above, per level
    ts = pts[j]  # a copy; a level above at the first point keeps pts[0]
    later = j > 0
    j, c = j[later], cols[later]
    a0, a1 = amps[j - 1, c], amps[j, c]
    ts[later] = pts[j - 1] + (threshold - a0) / (a1 - a0) * (pts[j] - pts[j - 1])
    return cols + 1, ts


def _pairwise_speeds(ks: np.ndarray, ts: np.ndarray) -> list[tuple[int, int, float]]:
    """(k1, k2, (k2 - k1) / (t2 - t1)) for every pair of crossings k1 < k2
    whose times differ, in the order of k1, then k2."""
    i, j = np.triu_indices(ks.size, 1)
    keep = ts[j] != ts[i]
    i, j = i[keep], j[keep]
    speeds = (ks[j] - ks[i]) / (ts[j] - ts[i])
    return [(int(a), int(b), float(v)) for a, b, v in zip(ks[i], ks[j], speeds)]


def empirical_v_lr(
    H: TimeDependentHamiltonian,
    T: float,
    threshold: float,
    grid: TimeGrid,
    fixed_basis: bool = False,
    *,
    flow: adiabatic.SpectralFlow,
    propagator: Propagator,
) -> EmpiricalSpeed:
    """LR speed from amplitude threshold crossings, read off the flow's
    eigenframes and the propagator, both on the grid.

    The amplitudes are |<E_k(t)| U(t, 0) |G(0)>| for the excited levels
    k >= 1, read by ``_excited_ground`` with the frames at each t, or with
    the frames at t = 0 alone under fixed_basis.  For each level the first
    time its amplitude exceeds the threshold is read by _first_crossings;
    the headline speed is the least-squares slope of level index against
    crossing time, and every pairwise speed (k2 - k1) / (t2 - t1) of two
    distinct crossing times is reported alongside.  H is not read: the
    flow and the propagator carry it.  The propagator's grid and ``grid``
    must both be the flow's.  Every eigenvalue must be a level of its own
    at every grid time: a spectrum with two eigenvalues spaced at most
    CLUSTER_TOL anywhere, which the flow counts as one level, is refused,
    and so is a threshold outside (0, 1), as the config refuses it.
    """
    check_aligned(flow.grid, propagator.grid, grid)
    _check_field("threshold", threshold)
    if flow.ground_dim != 1:
        raise ValidationError("crossing analysis needs a nondegenerate ground state")
    # a level of two or more columns has per-column amplitudes that depend
    # on the basis eigh picks inside it
    if not adiabatic._level_ends(flow.eigenvalues).all():
        raise ValidationError(
            "spectrum is degenerate along the path; crossing times are "
            "not well-defined"
        )

    frames = flow.basis[:1] if fixed_basis else flow.basis
    leak = adiabatic._excited_ground(frames, propagator.unitaries, flow.basis[0][:, :1])
    ks, ts = _first_crossings(np.abs(leak[..., 0]), grid.points, threshold)
    if ks.size < 2:
        raise InsufficientCrossingsError(
            f"only {ks.size} level(s) crossed the threshold "
            f"{threshold} within [0, {T}]"
        )
    t_var = np.sum((ts - ts.mean()) ** 2)
    if t_var <= 0:
        raise InsufficientCrossingsError(
            "all crossing times coincide; cannot fit a speed"
        )
    return EmpiricalSpeed(
        v_lr=float(np.sum((ts - ts.mean()) * (ks - ks.mean())) / t_var),
        crossing_times={int(k): float(t) for k, t in zip(ks, ts)},
        pairwise_speeds=_pairwise_speeds(ks, ts),
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
    crossing_times: dict[int, float]


def _single_run(
    config: ExperimentConfig, T: float, H: TimeDependentHamiltonian
) -> Fig1Record:
    grid = TimeGrid.uniform(T, config.grid_points)
    flow = adiabatic.spectral_flow(H, grid)
    prop = evolve_on_grid(H, grid, config.integrator_tol)
    emp = empirical_v_lr(
        H, T, config.threshold, grid, config.fixed_basis, flow=flow, propagator=prop
    )
    delta_ad = adiabatic.adiabatic_error(prop, flow)

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
    The two log-log SVGs plot the records with positive v_lr and delta_ad,
    and are drawn only when there are at least two.  The fig1 artefacts of
    an earlier sweep that this one did not rewrite (its other
    fig1_run_T*.json files, its SVGs when this sweep draws none) are
    removed, so that the directory describes one sweep; no other file is
    touched.  Returns (records sorted by T, per-T error strings, written
    paths).  A Hamiltonian spec that cannot be built is refused before any
    work, and the output directory is made only after the sweep, so a
    refusal, of the spec or of LRLAB_THREADS, leaves none behind.
    """
    Hs = {T: config.build_hamiltonian(T) for T in config.T_values}

    def task(T: float) -> Fig1Record | str:
        try:
            return _single_run(config, T, Hs[T])
        except LrlabError as exc:
            return f"{type(exc).__name__}: {exc}"

    runs = run_tasks([functools.partial(task, T) for T in config.T_values])
    outcomes = dict(zip(config.T_values, runs))
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    failures = {T: o for T, o in outcomes.items() if isinstance(o, str)}
    records = [outcomes[T] for T in sorted(outcomes) if T not in failures]
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

    svgs = [out_dir / "fig1_dad_vs_vlr.svg", out_dir / "fig1_vlr_vs_T.svg"]
    # both plots are log-log, so they draw only positive v_lr and delta_ad
    plotted = [row[:3] for row in rows if row[1] > 0 and row[2] > 0]
    if len(plotted) >= 2:
        Ts, vs, ds = np.array(plotted).T  # T, v_lr and delta_ad
        order = np.argsort(vs)
        # each plot's points, its series label (also its y label), x label
        # and title
        plots = [
            (vs[order], ds[order], "delta_ad", "V_LR", "Adiabatic error vs LR speed"),
            (Ts, vs, "V_LR", "T", "LR speed vs total time"),
        ]
        for path, (xs, ys, label, xlabel, title) in zip(svgs, plots):
            svgplot.line_plot(
                path,
                [(xs, ys, label)],
                xlabel=xlabel,
                ylabel=label,
                title=title,
                logx=True,
                logy=True,
            )
            paths.append(path)

    for stale in [*out_dir.glob("fig1_run_T*.json"), *svgs]:
        if stale not in paths:
            stale.unlink(missing_ok=True)
    return records, failures, paths
