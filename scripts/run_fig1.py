#!/usr/bin/env python3
"""Run the adiabatic-error / LR-speed sweep on the bundled 11-level model.

This is `lrlab fig1 --out out/fig1`: it takes every flag of `lrlab fig1`
(a later --out wins) and writes fig1.csv, per-run JSON summaries, and two
log-log SVG plots into the output directory.  All outputs are
byte-reproducible for a fixed config.
"""

import sys

import lrlab.cli


def main() -> int:
    return lrlab.cli.main(["fig1", "--out", "out/fig1", *sys.argv[1:]])


if __name__ == "__main__":
    raise SystemExit(main())
