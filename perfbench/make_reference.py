#!/usr/bin/env python3
"""Regenerate perfbench/reference.json, the stored answers err_vs_ref and
the output checks compare against.

    python3 perfbench/make_reference.py                  # every entry
    python3 perfbench/make_reference.py fig1_sweep ...   # only these

The entries are fig1_sweep and adiabatic_single, the two parts of the
ramp_session workload, and ensemble_audit.  Each runs once, with the same
inputs and calls as in the benchmark, at an integrator tolerance 100x tighter than its own.  The
ensemble Hamiltonians are constant, so their reference propagator is the
closed form exp(-iHt) from one eigendecomposition, with no integrator
error at all; the step-halving integrator cannot reach 1e-13 on them
because its step-doubling defect stalls at rounding level (~1e-12).
Only scalars and per-pair summaries are stored.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import workloads
from workloads import REFERENCE_PATH, REFERENCED, ROOT

import numpy as np
from lrlab.propagation import Propagator

REFERENCE_TOL = {"fig1_sweep": 1e-10, "ensemble_audit": 0.0, "adiabatic_single": 1e-9}


def exact_propagator(H, grid) -> Propagator:
    """U(t) = V exp(-i diag(w) t) V^dag for a constant Hamiltonian."""
    w, V = np.linalg.eigh(H.matrix)
    phases = np.exp(-1j * np.outer(grid.points, w))
    U = np.einsum("ik,tk,jk->tij", V, phases, V.conj())
    gram = U.conj().transpose(0, 2, 1) @ U - np.eye(len(w))
    defect = float(np.linalg.svd(gram, compute_uv=False)[:, 0].max())
    return Propagator(grid=grid, unitaries=U, step=0.0, tolerance=0.0, unitarity_defect=defect)


def git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def reference_for(name: str, workdir: Path) -> dict:
    cls = REFERENCED[name]
    w = cls(0, workdir)
    tol = REFERENCE_TOL[name]
    if name == "fig1_sweep":
        w.config.integrator_tol = tol
        method = f"run_fig1 at integrator_tol {tol:g}"
    elif name == "ensemble_audit":
        w.propagate = exact_propagator
        method = "bound_audit on the closed-form propagator exp(-iHt)"
    else:
        w.tol = tol
        method = f"run_adiabatic at tol {tol:g}, optimize_mu_generic, condition_report"
    outputs = w.run()
    ops = {}
    for key in sorted(outputs):
        vals = outputs[key]
        if "error" in vals or vals.get("violations", 0):
            raise SystemExit(f"{name}: reference run failed at {key}: {vals}")
        ops[key] = {q: vals[q] for q in cls.CHECK_TOL}
    return {
        "regenerate": f"python3 perfbench/make_reference.py {name}",
        "method": method,
        "workload_tol": cls.TOL,
        "reference_tol": tol,
        "lrlab_commit": git_commit(),
        "ops": ops,
    }


def main() -> int:
    names = sys.argv[1:] or list(REFERENCED)
    unknown = set(names) - set(REFERENCED)
    if unknown:
        print(f"unknown workloads: {sorted(unknown)}", file=sys.stderr)
        return 2
    data = json.loads(REFERENCE_PATH.read_text()) if REFERENCE_PATH.exists() else {}
    # the workloads load their reference while setting up; here it is
    # being made, so hand them an empty one
    workloads.load_reference = lambda name: {"ops": {}}
    work = ROOT / ".bench_build" / "perfbench"
    work.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        for name in names:
            data[name] = reference_for(name, Path(tmp))
            print(f"{name}: {len(data[name]['ops'])} operations", flush=True)
    REFERENCE_PATH.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
