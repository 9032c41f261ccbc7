#!/usr/bin/env python3
"""lrlab benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload ramp_session --seed 1 --seconds 60 --trace 0

Runs from the root of a source checkout and measures the lrlab under src/.
Each pass runs in a fresh process (child.py), one after another, as a user
runs `lrlab` once per result.  Passes repeat until --seconds is used up,
and at least one always runs.  Each pass is checked against
perfbench/reference.json.  The last line printed is one JSON object with
the keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, each the
median over the passes: setup_s, run_s and peak_rss_mb.  It also reports
err_vs_ref, the largest deviation from the reference over all passes.
fail_frac = failed / attempted is printed above the JSON line.  That
line's "failed" and "attempted" fields carry it.

--trace 1 alternates untraced and traced passes.  It reports the median
per-layer metrics of the traced passes, which come from spans the
benchmark records around each public lrlab call.  trace.overhead_s is the
median traced pass minus the median untraced pass.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "perfbench"
# a pass that takes longer is stopped and counted as failed
PASS_TIMEOUT_S = 150


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            )
            if done.returncode == 0:
                commit = done.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "openblas_config": blas.get("openblas configuration"),
        "LRLAB_THREADS": os.environ.get("LRLAB_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": commit,
    }


def run_pass(args, workdir: Path, traced: bool, n_ops: int) -> dict:
    """One pass in a fresh process.  A pass that crashes or times out
    counts every one of its operations as failed."""
    cmd = [sys.executable, str(HERE / "child.py"), args.workload, str(args.seed),
           str(workdir), "1" if traced else "0"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"crashed": f"pass exceeded {PASS_TIMEOUT_S} s", "attempted": n_ops, "failed": n_ops}
    if done.returncode != 0:
        tail = done.stderr.strip().splitlines()[-1:] or ["no message"]
        return {"crashed": f"exit {done.returncode}: {tail[0]}", "attempted": n_ops, "failed": n_ops}
    return json.loads(done.stdout.strip().splitlines()[-1])


def median_layers(samples: list[dict]) -> dict:
    return {
        name: {"value": statistics.median(s[name][0] for s in samples), "unit": unit}
        for name, (_, unit) in samples[0].items()
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import workloads
    except ImportError as exc:
        print(f"error: cannot load lrlab from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    n_ops = workloads.WORKLOADS[args.workload].n_ops()

    print("env " + json.dumps(environment(), sort_keys=True), flush=True)
    WORK.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        passes = measure(args, workdir, n_ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return report(args, passes)


def measure(args, workdir: Path, n_ops: int) -> list[tuple[bool, dict]]:
    """Closed loop: start the next pass when the last one has ended, until
    the next would likely overrun --seconds."""
    passes: list[tuple[bool, dict]] = []
    start = time.perf_counter()
    longest = 0.0
    while True:
        n_untraced = sum(1 for traced, _ in passes if not traced)
        traced = bool(args.trace) and len(passes) - n_untraced < n_untraced
        t0 = time.perf_counter()
        result = run_pass(args, workdir, traced, n_ops)
        longest = max(longest, time.perf_counter() - t0)
        passes.append((traced, result))
        if "crashed" in result:
            break
        kinds = {t for t, _ in passes}
        have_all = kinds == ({False, True} if args.trace else {False})
        if have_all and time.perf_counter() - start + longest > args.seconds:
            break
    return passes


def report(args, passes: list[tuple[bool, dict]]) -> int:
    attempted = sum(r["attempted"] for _, r in passes)
    failed = sum(r["failed"] for _, r in passes)
    untraced = [r for t, r in passes if not t and "crashed" not in r]
    traced = [r for t, r in passes if t and "crashed" not in r]
    for _, r in passes:
        if "crashed" in r:
            print(f"pass crashed: {r['crashed']}", file=sys.stderr)
        for p in r.get("problems", [])[:10]:
            print(f"check failed: {p}", file=sys.stderr)
    if not untraced or (args.trace and not traced):
        print("error: no pass completed; no result", file=sys.stderr)
        return 1

    print(f"workload {args.workload} seed {args.seed}: "
          f"{len(untraced)} untraced and {len(traced)} traced passes")
    for key in ("setup_s", "run_s", "peak_rss_mb"):
        print(f"  untraced {key}: " + " ".join(f"{r[key]:.4g}" for r in untraced))
    if traced:
        print("  traced run_s: " + " ".join(f"{r['run_s']:.4g}" for r in traced))
        print(f"  spans of the last traced pass: {traced[-1]['spans_path']}")
    print(f"  {'fail_frac':<30} {failed / attempted:.6g} 1   ({failed} of {attempted} operations)")

    run_s = statistics.median(r["run_s"] for r in untraced)
    if args.trace:
        metrics = median_layers([r["layers"] for r in traced])
        overhead = statistics.median(r["run_s"] for r in traced) - run_s
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(r["setup_s"] for r in untraced), "unit": "s"},
            "run_s": {"value": run_s, "unit": "s"},
            "peak_rss_mb": {
                "value": statistics.median(r["peak_rss_mb"] for r in untraced), "unit": "MiB"
            },
            "err_vs_ref": {"value": max(r["err"] for r in untraced), "unit": "1"},
        }
    for name, mv in metrics.items():
        print(f"  {name:<30} {mv['value']:.6g} {mv['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
