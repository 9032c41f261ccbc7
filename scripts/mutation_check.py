#!/usr/bin/env python3
"""Mutation check of lrlab's fast paths: do the Tier-1 tests bite?

Each row of ROWS names a file, an exact text in it, the text that replaces
it and what the change breaks.  For each row the script copies the source
checkout into a temporary directory, applies the row to the copy, runs the
Tier-1 suite there with -x under a TIMEOUT of 600 s, and prints KILLED (a
test failed), SURVIVED (the suite passed) or TIMEOUT.  The checkout itself
is never written.

Every row's old text must occur exactly once in its file; otherwise the
script stops before any suite runs, so a refactor that moves the text cannot
skip the row in silence.  A surviving row wants a test that fails on the
mutated copy and passes on the checkout.

    python3 scripts/mutation_check.py

Run it from anywhere; it finds the checkout from its own path.  It exits 0
when every row is killed, 1 when one survives or times out, and 2 when a row
does not match.  It is not part of Tier-1: a surviving row costs a full
suite run (about 15-20 s on a 2-vCPU VM).
"""

import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PROP = "src/lrlab/propagation.py"
ADIA = "src/lrlab/adiabatic.py"
LOC = "src/lrlab/locality.py"
TIMEOUT = 600.0  # seconds per row

# (file, exact old text, new text, what the change breaks)
ROWS = [
    (
        PROP,
        "_refinement_defect(ends[:, 1], ends[:, 0], tol)",
        "_refinement_defect(ends[:, 1], ends[:, 1], tol)",
        "the streamed level defect compares U6 with itself",
    ),
    (
        PROP,
        "            defect = max(defect, _refinement_defect(",
        "            if s0 + batch < total:\n"
        "                defect = max(defect, _refinement_defect(",
        "the last batch's checkpoints are stored but never checked",
    ),
    (
        PROP,
        "                U[...] = _reunitarize(U)\n",
        "                pass\n",
        "the polar re-orthonormalization of the running product is dropped",
    ),
    (
        PROP,
        "return 1 << max(n.bit_length() - 1, 0)",
        "return max(n, 1)",
        "the batch is no longer a power of two, so factors straddle intervals",
    ),
    (
        PROP,
        "        C += C.conj().swapaxes(-1, -2)",
        "        C -= C.conj().swapaxes(-1, -2)",
        "a commutator of a Hermitian and an anti-Hermitian matrix takes the "
        "wrong sign",
    ),
    (
        PROP,
        " + Q * (1j / 7200.0 * h**3)",
        "",
        "M6 drops its h^3 [P, Q] term",
    ),
    (
        PROP,
        "tail *= y / (p + 1)",
        "tail *= y / (p + 3)",
        "the Taylor tail bound falls too fast, so the degree is too low",
    ),
    (
        PROP,
        "prefactor = 2.0 * min(supp_a.size, supp_b.size)",
        "prefactor = 2.0 * max(supp_a.size, supp_b.size)",
        "the bound's prefactor takes the larger support",
    ),
    (
        PROP,
        "if mu * d > 700.0:",
        "if mu * d > 800.0:",
        "the bound reads 0 * inf = NaN where e^(-mu d) underflows",
    ),
    (
        PROP,
        "return float(self.margin[1:].min())",
        "return float(self.margin.min())",
        "min_margin reads t = 0, where every passing audit's margin is 0",
    ),
    (
        PROP,
        "phases = np.exp(-1j * np.outer(grid.points, w))",
        "phases = np.exp(1j * np.outer(grid.points, w))",
        "the closed form evolves by e^(+iHt), backwards in time",
    ),
    (
        PROP,
        "rest = sq[:i].sum(axis=0) + sq[i + 1 :].sum(axis=0)",
        "rest = sq[:i].sum(axis=0) + sq[i + 2 :].sum(axis=0)",
        "the singleton audit read-out skips the label after the source",
    ),
    (
        LOC,
        "_LOAD_RTOL = 1e-12",
        "_LOAD_RTOL = 1e-3",
        "an a_mu understated by up to 0.1% is not flagged",
    ),
    (
        LOC,
        "        _check_load(samples, self.mu)\n",
        "",
        "a certificate of NaN or infinite a_mu samples is built",
    ),
    (
        "src/lrlab/cli.py",
        "np.triu(nonzero, 1)",
        "np.triu(nonzero, 0)",
        "decompose counts each nonzero diagonal entry as a pair too",
    ),
    (
        LOC,
        "np.minimum(dist, dist[W.any(axis=0)].max(initial=0))",
        "dist",
        "a zero entry meets an infinite weight, so a banded load reads NaN",
    ),
    (
        LOC,
        "while (b - a) > _GOLDEN_RTOL * b:",
        "while (b - a) > _GOLDEN_RTOL * max(1.0, b):",
        "the rate search stops at an absolute width below mu = 1",
    ),
    (
        LOC,
        "loads = diag + 2.0 * np.einsum(",
        "loads = diag + 1.0 * np.einsum(",
        "a pair term loads each of its levels once, not twice",
    ),
    (
        LOC,
        "np.maximum(a_mu, loads, out=a_mu)",
        "np.minimum(a_mu, loads, out=a_mu)",
        "the rate scan takes the least load over levels, not the greatest",
    ),
    (
        "src/lrlab/numerics.py",
        "seg *= 0.5 * np.diff(",
        "seg *= np.diff(",
        "the running trapezoid drops its 0.5 weight",
    ),
    (
        "src/lrlab/svgplot.py",
        "if hi - lo < 1e-12:",
        "if hi - lo < 0.0:",
        "a flat axis is not widened, so a lone point divides by zero",
    ),
    (
        "src/lrlab/experiment.py",
        "crossings[k] = float(pts[j - 1] + frac * (pts[j] - pts[j - 1]))",
        "crossings[k] = float(pts[j])",
        "a threshold crossing is read at the grid point, not interpolated",
    ),
    (
        ADIA,
        "np.diff(vals, axis=1) > CLUSTER_TOL",
        "np.diff(vals, axis=1) > 10 * CLUSTER_TOL",
        "the level kernel chains eigenvalues up to 1e-7 apart into one level",
    ),
    (
        ADIA,
        "ends = _level_ends(flow.eigenvalues[:, gdim:])",
        "ends = np.ones_like(flow.eigenvalues[:, gdim:], dtype=bool)",
        "condition_report counts every excited column a level of its own",
    ),
    (
        ADIA,
        "VG.shape[-1] :].conj().swapaxes(-1, -2) @ (W @ VG)",
        "VG.shape[-1] :].swapaxes(-1, -2) @ (W @ VG)",
        "the excited-ground block takes V_E^T, not V_E^dag, for a complex frame",
    ),
    (
        ADIA,
        "W / (vals[:, None, :gdim] - vals[:, gdim:, None])",
        "W / (vals[:, gdim:, None] - vals[:, None, :gdim])",
        "Gdot's perturbation formula divides by E_k - E_g, not E_g - E_k",
    ),
    (
        ADIA,
        "    D -= D.conj().swapaxes(-1, -2)",
        "    D += D.conj().swapaxes(-1, -2)",
        "H_ad adds i (X + X^dag), which is not Hermitian, for i (X - X^dag)",
    ),
    (
        ADIA,
        "np.sum(np.abs(leak) ** 2) / flow.ground_dim)",
        "np.sum(np.abs(leak) ** 2))",
        "delta_ad of a degenerate ground level is not divided by |G|",
    ),
    (
        "src/lrlab/numerics.py",
        "if stack.shape[0] > 1 and stack.strides[0] == 0:",
        "if stack.shape[0] > 1:",
        "every stack takes its first matrix's norm, not only a broadcast one",
    ),
]

TIER1 = [
    sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
    "--continue-on-collection-errors",
]
IGNORE = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_build", "out"
)


def check_rows(root: Path, rows=ROWS) -> None:
    """Raise ValueError naming every row whose old text does not occur
    exactly once in its file under root."""
    bad = []
    for path, old, _, breaks in rows:
        count = (root / path).read_text().count(old)
        if count != 1:
            bad.append(f"{path}: {breaks}: old text found {count} times")
    if bad:
        raise ValueError("rows that do not match:\n  " + "\n  ".join(bad))


def run_row(row) -> str:
    """Apply one row to a fresh copy of the checkout and run Tier-1 there."""
    path, old, new, _ = row
    with tempfile.TemporaryDirectory(prefix="lrlab-mutation-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=IGNORE)
        check_rows(copy, [row])  # the checkout may have changed since
        target = copy / path
        target.write_text(target.read_text().replace(old, new, 1))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        proc = subprocess.Popen(
            TIER1, cwd=copy, env=env, start_new_session=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            code = proc.wait(timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return "TIMEOUT"
    return "SURVIVED" if code == 0 else "KILLED"


def main() -> int:
    results = []
    try:
        check_rows(ROOT)
        for row in ROWS:
            results.append(run_row(row))
            print(f"{results[-1]:8}  {row[0]}: {row[3]}", flush=True)
    except ValueError as err:
        print(err, file=sys.stderr)
        return 2
    return 0 if all(r == "KILLED" for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
