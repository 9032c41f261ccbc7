#!/usr/bin/env python3
"""Run the adiabatic-error / LR-speed sweep on the bundled 11-level model.

Writes fig1.csv, per-run JSON summaries, and two log-log SVG plots into the
output directory.  All outputs are byte-reproducible for a fixed config.
"""

import argparse

from lrlab.experiment import ExperimentConfig, run_fig1


def main() -> int:
    # a flag that is not given sets nothing, so ExperimentConfig's default holds
    ap = argparse.ArgumentParser(
        description=__doc__, argument_default=argparse.SUPPRESS
    )
    ap.add_argument("--out", dest="output_dir", metavar="OUT", default="out/fig1",
                    help="output directory (default: out/fig1)")
    ap.add_argument("--grid", dest="grid_points", metavar="GRID", type=int,
                    help="grid points per run")
    ap.add_argument("--tol", dest="integrator_tol", metavar="TOL", type=float,
                    help="integrator tolerance")
    ap.add_argument("--threshold", type=float,
                    help="amplitude threshold for crossing detection")
    ap.add_argument("--T", dest="T_values", metavar="T", type=float, nargs="+",
                    help="total evolution times")
    config = ExperimentConfig(**vars(ap.parse_args()))
    records, failures, paths = run_fig1(config)

    print(f"{'T':>8}  {'v_lr':>12}  {'delta_ad':>12}  {'gap_min':>9}")
    for r in records:
        print(
            f"{r.T:>8g}  {r.v_lr_empirical:>12.6g}  {r.delta_ad:>12.6g}  "
            f"{r.gap_min:>9.6g}"
        )
    for T, message in sorted(failures.items()):
        print(f"{T:>8g}  FAILED: {message}")
    print()
    for p in paths:
        print(f"wrote {p}")
    return 0 if not failures else 2


if __name__ == "__main__":
    raise SystemExit(main())
