"""Command-line front end.

Subcommands: decompose, locality, bound-check, spread, adiabatic, fig1.
Exit codes: 0 success, 1 validation/usage error, 2 numerical failure,
3 bound violation detected.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import svgplot
from .adiabatic import condition_report, run_adiabatic
from .blocks import Block, bandwidth, pairwise_decompose
from .errors import NumericalError, ValidationError
from .experiment import ExperimentConfig, run_fig1
from .locality import certify, optimize_mu_generic
from .numerics import TimeGrid
from .propagation import bound_audit, evolve_on_grid, propagator_spread

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_VIOLATION = 3

DEFAULT_MU_RANGE = (0.05, 5.0)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lrlab",
        description="Locality certification, LR-bound audits, and adiabatic "
        "sweeps for banded Hermitian matrix families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", type=str, default=None, help="JSON config")
        p.add_argument("--out", type=str, default=None, help="output directory")
        p.add_argument("--mu", type=float, default=None)
        p.add_argument("--optimize", action="store_true")
        p.add_argument("--threshold", type=float, default=None)
        p.add_argument("--grid", type=int, default=None)
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--fixed-basis", action="store_true")

    for name, desc in (
        ("decompose", "print block decomposition stats"),
        ("locality", "emit a locality certificate as JSON"),
        ("bound-check", "audit the commutator bound for two supports"),
        ("spread", "propagator spread amplitudes (CSV + SVG)"),
        ("adiabatic", "single total-time run summary (JSON)"),
        ("fig1", "full sweep: CSV, per-run JSON, and SVG plots"),
    ):
        p = sub.add_parser(name, help=desc)
        common(p)
        if name == "bound-check":
            p.add_argument("--supp-a", type=str, required=True,
                           help="comma-separated labels, e.g. 0,1")
            p.add_argument("--supp-b", type=str, required=True)
        if name == "spread":
            p.add_argument("--supp-a", type=str, default="0",
                           help="source label (first entry used)")
    return parser


def _load_config(args) -> ExperimentConfig:
    if args.config is not None:
        config = ExperimentConfig.from_file(args.config)
    else:
        config = ExperimentConfig()
    overrides = {
        "output_dir": args.out,
        "mu": args.mu,
        "threshold": args.threshold,
        "grid_points": args.grid,
        "integrator_tol": args.tol,
        "fixed_basis": True if args.fixed_basis else None,
    }
    # replace() re-runs __post_init__, which validates the overridden values
    return dataclasses.replace(
        config, **{k: v for k, v in overrides.items() if v is not None}
    )


def _parse_block(text: str) -> Block:
    try:
        labels = [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ValidationError(f"bad label list {text!r}") from exc
    return Block(labels)


def _certificate_for(config, H, grid):
    if config.mu is not None:
        return config.mu, certify(H, config.mu, grid)
    return optimize_mu_generic(H, grid, DEFAULT_MU_RANGE)


def _cmd_decompose(args) -> int:
    config = _load_config(args)
    T = config.T_values[0]
    H = config.build_hamiltonian(T)
    for label, t in (("t = 0", 0.0), (f"t = T = {T:g}", T)):
        mat = H.evaluate(t)
        decomp = pairwise_decompose(mat)
        singles = sum(1 for b, _ in decomp.terms if b.size == 1)
        pairs = sum(1 for b, _ in decomp.terms if b.size == 2)
        norms = [n for _, n in decomp.term_norms()]
        print(f"[{label}] dimension {decomp.dimension}")
        print(f"  terms: {len(decomp.terms)} ({singles} singletons, {pairs} pairs)")
        print(f"  max term norm: {max(norms) if norms else 0.0:.6g}")
        print(f"  bandwidth: {bandwidth(mat)}")
    return EXIT_OK


def _cmd_locality(args) -> int:
    config = _load_config(args)
    T = config.T_values[0]
    H = config.build_hamiltonian(T)
    grid = TimeGrid.uniform(T, config.grid_points)
    if args.optimize or config.mu is None:
        mu, cert = optimize_mu_generic(H, grid, DEFAULT_MU_RANGE)
    else:
        mu, cert = config.mu, certify(H, config.mu, grid)
    payload = json.dumps(cert.to_json_dict(), indent=2, sort_keys=True)
    print(payload)
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "locality.json").write_text(payload + "\n")
    return EXIT_OK


def _cmd_bound_check(args) -> int:
    config = _load_config(args)
    supp_a = _parse_block(args.supp_a)
    supp_b = _parse_block(args.supp_b)
    T = config.T_values[0]
    H = config.build_hamiltonian(T)
    grid = TimeGrid.uniform(T, config.grid_points)
    _, cert = _certificate_for(config, H, grid)
    tol = args.tol if args.tol is not None else 1e-11
    report = bound_audit(H, supp_a, supp_b, cert, integrator_tol=tol)
    summary = report.to_json_summary()
    print(json.dumps(summary, indent=2, sort_keys=True))
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        report.to_csv(out / "bound_check.csv")
        (out / "bound_check.json").write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n"
        )
    return EXIT_VIOLATION if report.has_violations else EXIT_OK


def _cmd_spread(args) -> int:
    config = _load_config(args)
    source = _parse_block(args.supp_a).labels[0]
    T = config.T_values[0]
    H = config.build_hamiltonian(T)
    grid = TimeGrid.uniform(T, config.grid_points)
    prop = evolve_on_grid(H, grid, config.integrator_tol)
    amps = propagator_spread(prop, source)
    out = Path(args.out if args.out is not None else config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "spread.csv"
    with open(csv_path, "w") as fh:
        fh.write("t," + ",".join(f"amp_{j}" for j in range(H.dimension)) + "\n")
        for t, row in zip(grid.points, amps):
            fh.write(f"{t:.17g}," + ",".join(f"{a:.17g}" for a in row) + "\n")
    labels = np.arange(H.dimension)
    final = np.maximum(amps[-1], 1e-300)
    svgplot.line_plot(
        out / "spread.svg",
        [(labels.astype(float), final, f"|U(T)| from {source}")],
        xlabel="level",
        ylabel="amplitude",
        title=f"Propagator spread at T={T:g}",
        logy=True,
    )
    print(f"wrote {csv_path}")
    return EXIT_OK


def _cmd_adiabatic(args) -> int:
    config = _load_config(args)
    T = config.T_values[0]
    H = config.build_hamiltonian(T)
    grid = TimeGrid.uniform(T, config.grid_points)
    run = run_adiabatic(H, grid, tol=config.integrator_tol)
    _, cert = _certificate_for(config, H, grid)
    report = condition_report(H, run.flow, cert)
    summary = {
        "T": T,
        "delta_ad": run.delta_ad_final,
        "gap_min": run.flow.gap_min,
        "intertwining_defect": run.intertwining_defect,
        **report.to_json_dict(),
    }
    payload = json.dumps(summary, indent=2, sort_keys=True)
    print(payload)
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "adiabatic.json").write_text(payload + "\n")
    return EXIT_OK


def _cmd_fig1(args) -> int:
    config = _load_config(args)
    records, failures, paths = run_fig1(config)
    for r in records:
        print(
            f"T={r.T:<8g} v_lr={r.v_lr_empirical:.6g} "
            f"delta_ad={r.delta_ad:.6g} gap_min={r.gap_min:.6g}"
        )
    for T, message in sorted(failures.items()):
        print(f"T={T:<8g} FAILED: {message}", file=sys.stderr)
    for p in paths:
        print(f"wrote {p}")
    return EXIT_NUMERICAL if failures else EXIT_OK


_COMMANDS = {
    "decompose": _cmd_decompose,
    "locality": _cmd_locality,
    "bound-check": _cmd_bound_check,
    "spread": _cmd_spread,
    "adiabatic": _cmd_adiabatic,
    "fig1": _cmd_fig1,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; report bad usage as exit 1
        return EXIT_OK if exc.code == 0 else EXIT_VALIDATION
    try:
        return _COMMANDS[args.command](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
