"""Command-line front end.

Subcommands: decompose, locality, bound-check, spread, adiabatic, fig1.
Exit codes: 0 success, 1 validation/usage error, 2 numerical failure,
3 bound violation detected.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import svgplot
from .adiabatic import condition_report, run_adiabatic
from .blocks import STRUCTURAL_ZERO, Block, bandwidth
from .errors import NumericalError, ValidationError
from .experiment import ExperimentConfig, read_config, run_fig1
from .locality import certify, optimize_mu_generic
from .numerics import TimeGrid, csv_text, json_text
from .propagation import bound_audit, evolve_on_grid, propagator_spread

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_VIOLATION = 3

DEFAULT_MU_RANGE = (0.05, 5.0)
# bound-check judges margins near 1e-9, so it integrates below the usual 1e-9
_COMMAND_DEFAULTS = {"bound-check": {"integrator_tol": 1e-11}}


# Every flag of the front end; _SUBCOMMANDS, below the handlers, names the
# ones each subcommand reads.  A flag that sets a config field has that
# field as its dest, so _load_config finds the override by name.
_FLAGS = {
    "--config": dict(help="JSON config"),
    "--out": dict(dest="output_dir", help="output directory"),
    "--mu": dict(type=float),
    "--threshold": dict(type=float),
    "--grid": dict(dest="grid_points", type=int),
    "--tol": dict(dest="integrator_tol", type=float),
    "--fixed-basis": dict(action="store_true", default=None),
    "--T": dict(dest="T_values", type=float, nargs="+"),
    "--supp-a": dict(required=True, help="comma-separated labels, e.g. 0,1"),
    "--supp-b": dict(required=True, help="comma-separated labels"),
}
_SPREAD_SOURCE = dict(default="0", help="the one source label")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lrlab",
        description="Locality certification, LR-bound audits, and adiabatic "
        "sweeps for banded Hermitian matrix families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, desc, flags) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=desc)
        for flag in flags.split():
            spread_source = (name, flag) == ("spread", "--supp-a")
            p.add_argument(flag, **(_SPREAD_SOURCE if spread_source else _FLAGS[flag]))
    return parser


def _load_config(args) -> ExperimentConfig:
    """The subcommand's config: its _COMMAND_DEFAULTS, then the --config
    file's fields, then the flags given, each layer over the last."""
    data = dict(_COMMAND_DEFAULTS.get(args.command, {}))
    if args.config is not None:
        data.update(read_config(args.config))
    fields = ExperimentConfig.__dataclass_fields__
    data.update((k, v) for k, v in vars(args).items() if k in fields and v is not None)
    return ExperimentConfig.from_dict(data)


def _parse_block(text: str) -> Block:
    try:
        labels = [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ValidationError(f"bad label list {text!r}") from exc
    return Block(labels)


def _first_run(config):
    """The config's first total time T, H over [0, T] and its grid."""
    T = config.T_values[0]
    return T, config.build_hamiltonian(T), TimeGrid.uniform(T, config.grid_points)


def _certificate_for(config, H, grid):
    """A certificate at the config's mu, or, with no mu, at the optimal one."""
    if config.mu is not None:
        return certify(H, config.mu, grid)
    return optimize_mu_generic(H, grid, DEFAULT_MU_RANGE)[1]


def _emit(args, name: str, payload: dict) -> None:
    """Print the payload as JSON and, with --out, write the same text to
    <out>/<name>.json."""
    text = json_text(payload)
    print(text, end="")
    if args.output_dir is not None:
        out = Path(args.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{name}.json").write_text(text)


def _cmd_decompose(args) -> int:
    """The pairwise decomposition's counts at t = 0 and T: a singleton per
    diagonal entry and a pair per unordered off-diagonal pair above
    STRUCTURAL_ZERO, each term of norm |H_ij|."""
    config = _load_config(args)
    T, H, _ = _first_run(config)
    for label, t in (("t = 0", 0.0), (f"t = T = {T:g}", T)):
        W = np.abs(H.evaluate(t))
        nonzero = W > STRUCTURAL_ZERO
        nonzero |= nonzero.T
        singles = np.count_nonzero(np.diagonal(nonzero))
        pairs = np.count_nonzero(np.triu(nonzero, 1))
        print(f"[{label}] dimension {len(W)}")
        print(f"  terms: {singles + pairs} ({singles} singletons, {pairs} pairs)")
        print(f"  max term norm: {W[np.triu(nonzero)].max(initial=0.0):.6g}")
        print(f"  bandwidth: {bandwidth(W)}")
    return EXIT_OK


def _cmd_locality(args) -> int:
    config = _load_config(args)
    _, H, grid = _first_run(config)
    _emit(args, "locality", _certificate_for(config, H, grid).to_json_dict())
    return EXIT_OK


def _cmd_bound_check(args) -> int:
    config = _load_config(args)
    supp_a = _parse_block(args.supp_a)
    supp_b = _parse_block(args.supp_b)
    _, H, grid = _first_run(config)
    cert = _certificate_for(config, H, grid)
    prop = evolve_on_grid(H, grid, config.integrator_tol)
    report = bound_audit(H, supp_a, supp_b, cert, prop)
    _emit(args, "bound_check", report.to_json_summary())
    if args.output_dir is not None:
        report.to_csv(Path(args.output_dir) / "bound_check.csv")
    return EXIT_VIOLATION if report.has_violations else EXIT_OK


def _cmd_spread(args) -> int:
    config = _load_config(args)
    block = _parse_block(args.supp_a)
    if block.size != 1:
        raise ValidationError(f"spread takes one source label, got {args.supp_a!r}")
    (source,) = block.labels
    T, H, grid = _first_run(config)
    prop = evolve_on_grid(H, grid, config.integrator_tol)
    amps = propagator_spread(prop, source)
    header = ["t", *(f"amp_{j}" for j in range(H.dimension))]
    csv = csv_text(header, ((t, *row) for t, row in zip(grid.points, amps)))
    if args.output_dir is None:
        print(csv, end="")
        return EXIT_OK
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "spread.csv"
    csv_path.write_text(csv)
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
    T, H, grid = _first_run(config)
    run = run_adiabatic(H, grid, tol=config.integrator_tol)
    cert = _certificate_for(config, H, grid)
    report = condition_report(H, run.flow, cert)
    summary = {
        "T": T,
        "delta_ad": run.delta_ad_final,
        "gap_min": run.flow.gap_min,
        "intertwining_defect": run.intertwining_defect,
        **report.to_json_dict(),
    }
    _emit(args, "adiabatic", summary)
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


# Each subcommand: its handler, its help, and exactly the flags it reads.
_SUBCOMMANDS = {
    "decompose": (_cmd_decompose, "print block decomposition stats", "--config"),
    "locality": (
        _cmd_locality,
        "emit a locality certificate as JSON",
        "--config --out --mu --grid",
    ),
    "bound-check": (
        _cmd_bound_check,
        "audit the commutator bound for two supports",
        "--config --out --mu --grid --tol --supp-a --supp-b",
    ),
    "spread": (
        _cmd_spread,
        "propagator spread amplitudes (CSV; with --out, CSV + SVG)",
        "--config --out --grid --tol --supp-a",
    ),
    "adiabatic": (
        _cmd_adiabatic,
        "single total-time run summary (JSON)",
        "--config --out --mu --grid --tol",
    ),
    "fig1": (
        _cmd_fig1,
        "full sweep: CSV, per-run JSON, and SVG plots",
        "--config --out --threshold --grid --tol --fixed-basis --T",
    ),
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; report bad usage as exit 1
        return EXIT_OK if exc.code == 0 else EXIT_VALIDATION
    try:
        return _SUBCOMMANDS[args.command][0](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
