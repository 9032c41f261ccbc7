"""The benchmark workloads, built only from lrlab's public functions.

Each workload builds its inputs in __init__ (the timed set-up), runs one
pass with `run(tracer)` and returns its scientific outputs keyed by
operation.  The benchmark runs two workloads: `ramp_session` (the fig1
sweep, then the adiabatic run, on the bundled ramp) and `ensemble_audit`.
Each of the three computations keeps its own entry in the reference.  `check` compares a pass against the stored reference.  With a
NullTracer a pass makes exactly the calls a user of lrlab makes; with a
Tracer it makes the same calls one public function at a time, each inside
a span named after the lrlab module that owns it.

Why these workloads, and which layer each one stresses, is written down
in README.md next to this file.
"""

from __future__ import annotations

import json
import math
import os
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import lrlab  # noqa: E402

# Never measure an lrlab installed elsewhere: the benchmark is about the
# source tree it ships with.
if Path(lrlab.__file__).resolve().parent != SRC / "lrlab":
    raise ImportError(f"lrlab imported from {lrlab.__file__}, not from {SRC}")

from lrlab import svgplot  # noqa: E402
from lrlab.adiabatic import (  # noqa: E402
    adiabatic_error,
    condition_report,
    evolve_adiabatic,
    intertwining_defect,
    run_adiabatic,
    spectral_flow,
    wave_operator_errors,
)
from lrlab.blocks import Block, pairwise_decompose  # noqa: E402
from lrlab.cli import DEFAULT_MU_RANGE  # noqa: E402
from lrlab.errors import LrlabError  # noqa: E402
from lrlab.experiment import ExperimentConfig, empirical_v_lr, run_fig1  # noqa: E402
from lrlab.locality import a_mu_pointwise, certify, optimize_mu_generic  # noqa: E402
from lrlab.models import (  # noqa: E402
    ConstantHamiltonian,
    ExpLocalSpec,
    build_example_ramp,
    random_exp_local,
)
from lrlab.numerics import TimeGrid  # noqa: E402
from lrlab.propagation import bound_audit, evolve_on_grid  # noqa: E402

from spans import NullTracer  # noqa: E402

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
NULL_TRACER = NullTracer()


def load_reference(name: str) -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)[name]


def integrator_counts(prop) -> dict:
    """Work done by evolve_on_grid, recomputed from its result.

    The step-halving loop runs m = 1, 2, 4, ..., m_final substeps per grid
    interval, so it makes n_int (2 m_final - 1) midpoint steps in all, of
    which the n_int m_final of the accepted level are kept.
    """
    pts = prop.grid.points
    n_int = len(pts) - 1
    m = int(round(float(np.max(np.diff(pts))) / prop.step))
    return {
        "substeps": n_int * (2 * m - 1),
        "useful": n_int * m,
        "halvings": int(round(math.log2(m))),
        "unitarity_defect": float(prop.unitarity_defect),
    }


def check(outputs: dict, reference: dict, check_tol: dict) -> dict:
    """Compare one pass with the reference.

    Every reference operation counts as attempted.  It fails when it is
    missing, raised, flagged a bound violation, or deviates from the
    reference by more than check_tol on any quantity.  err is the largest
    absolute deviation over all quantities.
    """
    failed, err, problems = 0, 0.0, []
    for key, ref_vals in reference["ops"].items():
        got = outputs.get(key)
        if got is None or "error" in got:
            failed += 1
            problems.append(f"{key}: {got.get('error') if got else 'missing'}")
            continue
        bad = got.get("violations", 0) > 0
        if bad:
            problems.append(f"{key}: {got['violations']} bound violations")
        for q, rv in ref_vals.items():
            dev = abs(got[q] - rv)
            err = max(err, dev)
            if not dev <= check_tol[q]:
                bad = True
                problems.append(f"{key}: {q} off by {dev:.3e} (limit {check_tol[q]:.1e})")
        failed += bad
    return {
        "attempted": len(reference["ops"]),
        "failed": failed,
        "err": err,
        "problems": problems,
    }


class Workload:
    """Set-up in __init__, one pass in run(tracer), checked by check()."""

    name: str
    TOL: float
    CHECK_TOL: dict
    reference: dict

    def check(self, outputs: dict) -> dict:
        return check(outputs, self.reference, self.CHECK_TOL)

    @classmethod
    def n_ops(cls) -> int:
        return len(load_reference(cls.name)["ops"])


def _traced_evolve(tracer, H, grid, tol):
    with tracer.span("propagation.evolve_on_grid") as sp:
        prop = evolve_on_grid(H, grid, tol)
    sp.attrs.update(integrator_counts(prop))
    return prop


def sweep_workers(n_tasks: int) -> int:
    """Thread count run_fig1 uses: LRLAB_THREADS, else the CPU count,
    capped by the number of total times."""
    cap = os.environ.get("LRLAB_THREADS")
    cap = max(1, int(cap)) if cap is not None else (os.cpu_count() or 1)
    return max(1, min(n_tasks, cap))


class Fig1Sweep(Workload):
    """run_fig1 on the bundled ramp at the two shortest default total times.

    The seed orders the total times handed to the sweep.
    """

    name = "fig1_sweep"
    T_VALUES = (12.5, 25.0)
    GRID = 2001
    TOL = 1e-8
    # delta_ad and the crossing amplitudes behind v_lr carry the propagator
    # error (~tol); gap_min does not depend on the integrator
    CHECK_TOL = {"v_lr": 100 * TOL, "delta_ad": 100 * TOL, "gap_min": 1e-12}

    def __init__(self, seed: int, workdir: Path, tracer=NULL_TRACER):
        T_values = list(self.T_VALUES)
        random.Random(seed).shuffle(T_values)
        self.workdir = workdir
        self.config = ExperimentConfig(
            T_values=tuple(T_values),
            grid_points=self.GRID,
            integrator_tol=self.TOL,
            output_dir=str(workdir / "fig1"),
        )
        self.reference = load_reference(self.name)

    def run(self, tracer=NULL_TRACER) -> dict:
        if isinstance(tracer, NullTracer):
            return self._run_sweep()
        return self._replay(tracer)

    def _run_sweep(self) -> dict:
        records, failures, paths = run_fig1(self.config)
        out = {f"T={T:g}": {"error": msg} for T, msg in failures.items()}
        written = {p.name for p in paths}
        for r in records:
            if f"fig1_run_T{r.T:g}.json" not in written:
                out[f"T={r.T:g}"] = {"error": "per-run JSON not written"}
                continue
            out[f"T={r.T:g}"] = {
                "v_lr": r.v_lr_empirical,
                "delta_ad": r.delta_ad,
                "gap_min": r.gap_min,
            }
        return out

    def _replay(self, tracer) -> dict:
        """The per-T work of run_fig1, one public call per span, on the
        same number of worker threads, then the two plots."""
        cfg = self.config
        workers = sweep_workers(len(cfg.T_values))

        def one_T(T, parent):
            with tracer.span("experiment.run_T", parent=parent) as sp:
                sp.attrs["T"] = T
                try:
                    with tracer.span("models.build_hamiltonian"):
                        H = cfg.build_hamiltonian(T)
                    grid = TimeGrid.uniform(T, cfg.grid_points)
                    with tracer.span("adiabatic.spectral_flow"):
                        flow = spectral_flow(H, grid)
                    prop = _traced_evolve(tracer, H, grid, cfg.integrator_tol)
                    with tracer.span("experiment.empirical_v_lr"):
                        emp = empirical_v_lr(
                            H, T, cfg.threshold, grid,
                            fixed_basis=cfg.fixed_basis, flow=flow, propagator=prop,
                        )
                    with tracer.span("adiabatic.adiabatic_error"):
                        delta_ad = adiabatic_error(prop, flow)
                except LrlabError as exc:
                    return T, {"error": f"{type(exc).__name__}: {exc}"}
            return T, {"v_lr": emp.v_lr, "delta_ad": delta_ad, "gap_min": flow.gap_min}

        with tracer.span("experiment.sweep") as sweep:
            sweep.attrs["workers"] = workers
            with ThreadPoolExecutor(max_workers=workers) as pool:
                results = dict(pool.map(lambda T: one_T(T, sweep.id), cfg.T_values))

        ok = sorted(T for T, r in results.items() if "error" not in r)
        if len(ok) >= 2:
            out_dir = self.workdir / "fig1_traced"
            out_dir.mkdir(parents=True, exist_ok=True)
            vs = np.array([results[T]["v_lr"] for T in ok])
            ds = np.array([results[T]["delta_ad"] for T in ok])
            order = np.argsort(vs)
            with tracer.span("svgplot.line_plot"):
                svgplot.line_plot(
                    out_dir / "fig1_dad_vs_vlr.svg",
                    [(vs[order], ds[order], "delta_ad")],
                    xlabel="V_LR", ylabel="delta_ad",
                    title="Adiabatic error vs LR speed", logx=True, logy=True,
                )
            with tracer.span("svgplot.line_plot"):
                svgplot.line_plot(
                    out_dir / "fig1_vlr_vs_T.svg",
                    [(np.array(ok), vs, "V_LR")],
                    xlabel="T", ylabel="V_LR",
                    title="LR speed vs total time", logx=True, logy=True,
                )
        return {f"T={T:g}": r for T, r in results.items()}


class EnsembleAudit(Workload):
    """The bound audit of scripts/run_ensemble_audit.py on a fixed subset of
    its seeded ensemble: every singleton pair at distance >= 2.

    The matrices come from the script's own per-case seeds, so the stored
    reference applies to every run; the benchmark seed orders the pairs.
    """

    name = "ensemble_audit"
    CASES = (0, 4)  # script seeds: n = 8 and n = 12
    GRID = 1001
    TOL = 1e-11
    # the audit's own violation threshold
    CHECK_TOL = {"lhs_max": 1e-9, "lhs_mean": 1e-9, "min_margin": 1e-9}

    def __init__(self, seed: int, workdir: Path, tracer=NULL_TRACER):
        rng = random.Random(seed)
        self.cases = []
        for case_seed in self.CASES:
            n = 8 + case_seed % 9
            mu_prime = 1.0 + 2.0 * ((case_seed * 0.37) % 1.0)
            spec = ExpLocalSpec(
                dimension=n, amplitude=1.0, decay_rate=mu_prime, seed=case_seed
            )
            with tracer.span("models.random_exp_local"):
                M = random_exp_local(spec)
            with tracer.span("models.ConstantHamiltonian"):
                H = ConstantHamiltonian(M)
            pairs = [(i, j) for i in range(n) for j in range(i + 2, n)]
            rng.shuffle(pairs)
            self.cases.append((case_seed, mu_prime / 2.0, M, H, pairs))
        self.reference = load_reference(self.name)
        self.propagate = lambda H, grid: evolve_on_grid(H, grid, self.TOL)

    def run(self, tracer=NULL_TRACER) -> dict:
        out = {}
        for case_seed, mu, M, H, pairs in self.cases:
            with tracer.span("blocks.pairwise_decompose"):
                decomp = pairwise_decompose(M)
            with tracer.span("locality.a_mu_pointwise"):
                a = a_mu_pointwise(decomp, mu)
            grid = TimeGrid.uniform(5.0 / a, self.GRID)
            with tracer.span("locality.certify"):
                cert = certify(H, mu, grid)
            with tracer.span("propagation.evolve_on_grid") as sp:
                prop = self.propagate(H, grid)
            if prop.step > 0:  # the closed-form reference has no steps
                sp.attrs.update(integrator_counts(prop))
            for i, j in pairs:
                with tracer.span("propagation.bound_audit"):
                    rep = bound_audit(H, Block([i]), Block([j]), cert, propagator=prop)
                later = rep.times > 0
                out[f"case{case_seed}:{i}-{j}"] = {
                    "lhs_max": float(rep.lhs[later].max()),
                    "lhs_mean": float(rep.lhs.mean()),
                    # AuditReport.min_margin is 0 for every pair: lhs and
                    # rhs both vanish at t = 0
                    "min_margin": float(rep.margin[later].min()),
                    "violations": int(rep.violations.size),
                }
        return out


class AdiabaticSingle(Workload):
    """What `lrlab adiabatic` computes for the bundled ramp at one total time:
    run_adiabatic, optimize_mu_generic, condition_report.

    The bundled ramp has no random input; the seed is not used.
    """

    name = "adiabatic_single"
    T = 12.5
    GRID = 2001
    TOL = 1e-7
    CHECK_TOL = {
        "delta_ad": 100 * TOL,
        "intertwining_defect": 100 * TOL,
        "gap_min": 1e-12,
        "mu": 1e-9,
        "hdiff_gap_ratio": 1e-9,
        "vlr_gap_ratio": 1e-9,
        "chain_block_term": 1e-9,
    }

    def __init__(self, seed: int, workdir: Path, tracer=NULL_TRACER):
        with tracer.span("models.build_example_ramp"):
            self.H = build_example_ramp(self.T)
        self.grid = TimeGrid.uniform(self.T, self.GRID)
        self.tol = self.TOL
        self.reference = load_reference(self.name)

    def run(self, tracer=NULL_TRACER) -> dict:
        H, grid, tol = self.H, self.grid, self.tol
        if isinstance(tracer, NullTracer):
            run = run_adiabatic(H, grid, tol=tol)
            flow, defect, delta_ad = run.flow, run.intertwining_defect, run.delta_ad_final
        else:
            # run_adiabatic's body, one public call per span
            with tracer.span("adiabatic.spectral_flow"):
                flow = spectral_flow(H, grid)
            U = _traced_evolve(tracer, H, grid, tol)
            with tracer.span("adiabatic.evolve_adiabatic") as sp:
                U_ad = evolve_adiabatic(H, flow, tol)
            sp.attrs.update(integrator_counts(U_ad))
            with tracer.span("adiabatic.wave_operator_errors"):
                _, delta_ad = wave_operator_errors(U, U_ad, flow)
            with tracer.span("adiabatic.intertwining_defect") as sp:
                defect = intertwining_defect(U_ad, flow)
            sp.attrs["intertwining_defect"] = defect
        with tracer.span("locality.optimize_mu_generic"):
            mu, cert = optimize_mu_generic(H, grid, DEFAULT_MU_RANGE)
        with tracer.span("adiabatic.condition_report"):
            report = condition_report(H, flow, cert)
        return {
            f"T={self.T:g}": {
                "delta_ad": delta_ad,
                "intertwining_defect": defect,
                "gap_min": flow.gap_min,
                "mu": mu,
                "hdiff_gap_ratio": report.hdiff_gap_ratio,
                "vlr_gap_ratio": report.vlr_gap_ratio,
                "chain_block_term": report.chain_block_term,
            }
        }


class RampSession(Workload):
    """`lrlab fig1` and then `lrlab adiabatic` on the bundled ramp, as one
    pass: the Fig1Sweep and AdiabaticSingle parts above, one after the
    other.  Each part is checked against its own reference entry, and its
    outputs are keyed "<part>/<operation>".
    """

    name = "ramp_session"
    PARTS = (Fig1Sweep, AdiabaticSingle)

    def __init__(self, seed: int, workdir: Path, tracer=NULL_TRACER):
        self.parts = [cls(seed, workdir, tracer) for cls in self.PARTS]

    @classmethod
    def n_ops(cls) -> int:
        return sum(part.n_ops() for part in cls.PARTS)

    def run(self, tracer=NULL_TRACER) -> dict:
        return {
            f"{part.name}/{key}": out
            for part in self.parts
            for key, out in part.run(tracer).items()
        }

    def check(self, outputs: dict) -> dict:
        results = []
        for part in self.parts:
            prefix = f"{part.name}/"
            mine = {k[len(prefix):]: v for k, v in outputs.items() if k.startswith(prefix)}
            results.append((part.name, part.check(mine)))
        return {
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "err": max(r["err"] for _, r in results),
            "problems": [f"{name}/{p}" for name, r in results for p in r["problems"]],
        }


# the computations with a stored reference, by reference.json key
REFERENCED = {w.name: w for w in (Fig1Sweep, EnsembleAudit, AdiabaticSingle)}
# the workloads run.py runs
WORKLOADS = {w.name: w for w in (RampSession, EnsembleAudit)}
