"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with:  pytest tests/test_acceptance.py -v -s

Notes on two criteria:
  * criterion 1 compares H(T) of the bundled ramp entry by entry with the
    documented matrix (diagonal 0.0, 0.1, ..., 1.0 plus nearest-neighbour
    hopping 1/2) and ||H(T)|| with an exact Sturm-count bisection on that
    tridiagonal matrix (1.70552440116...);
  * criterion 3's negative control (mu doubled, a_mu unchanged) breaks the
    locality hypothesis at every grid point, which bound_audit reports as a
    violation even where the weakened bound still dominates the measured
    commutator.
"""

from fractions import Fraction

import numpy as np
import pytest

from lrlab.adiabatic import (
    condition_report,
    h_ad,
    run_adiabatic,
    spectral_flow,
    wave_operator_errors,
)
from lrlab.blocks import Block
from lrlab.locality import (
    LocalityCertificate,
    a_mu_pointwise,
    certify,
    exp_local_bound,
    optimal_mu_exp_local,
)
from lrlab.experiment import ExperimentConfig, run_fig1
from lrlab.models import (
    ConstantHamiltonian,
    ExpLocalSpec,
    build_example_ramp,
    random_exp_local,
)
from lrlab.numerics import TimeGrid, lambert_w, operator_norms
from lrlab.propagation import (
    _unitary_steps,
    bound_audit,
    evolve_on_grid,
    propagator_spread,
)

from _oracles import (
    brute_probe_sum,
    ensemble_params,
    ground_projector,
    operator_norm,
    probe_blocks,
    ramp_rk4_oracle,
    random_anti_hermitian,
    spearman,
    taylor_unitary_exp,
    tridiagonal_norm,
)


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"\nACCEPTANCE {number} ({name}): {status}{suffix}")


# ---------------------------------------------------------------------------
# shared fixtures
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def ensemble():
    """The seeded random ensemble with valid certificates, propagators, and
    both audit passes (valid mu and the doubled-mu negative control)."""
    cases = []
    for seed, n, mu_prime in ensemble_params(50):
        M = random_exp_local(
            ExpLocalSpec(dimension=n, amplitude=1.0, decay_rate=mu_prime, seed=seed)
        )
        H = ConstantHamiltonian(M)
        mu = mu_prime / 2.0
        a = a_mu_pointwise(M, mu)
        t_final = 5.0 / a
        grid = TimeGrid.uniform(t_final, 1001)
        cert = certify(H, mu, grid)
        prop = evolve_on_grid(H, grid, 1e-11)
        doubled = LocalityCertificate(
            mu=2.0 * mu,
            grid=grid,
            a_mu_samples=cert.a_mu_samples,
        )
        pairs = [
            (Block([i]), Block([j]))
            for i in range(n)
            for j in range(i + 2, n)
        ]
        valid_min_margin = np.inf
        control_violated = False
        for A, B in pairs:
            rep = bound_audit(H, A, B, cert, propagator=prop)
            valid_min_margin = min(valid_min_margin, rep.min_margin)
            rep_bad = bound_audit(H, A, B, doubled, propagator=prop)
            if rep_bad.has_violations:
                control_violated = True
        cases.append(
            {
                "seed": seed,
                "n": n,
                "mu_prime": mu_prime,
                "mu": mu,
                "matrix": M,
                "H": H,
                "grid": grid,
                "cert": cert,
                "prop": prop,
                "valid_min_margin": valid_min_margin,
                "control_violated": control_violated,
            }
        )
    return cases


@pytest.fixture(scope="module")
def adiabatic_runs():
    runs = {}
    for T in (25.0, 100.0):
        H = build_example_ramp(T)
        grid = TimeGrid.uniform(T, 2001)
        runs[T] = (H, run_adiabatic(H, grid, tol=1e-9))
    return runs


@pytest.fixture(scope="module")
def fig1_records(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig1_acceptance")
    config = ExperimentConfig(output_dir=str(out))
    records, failures, _ = run_fig1(config)
    return records, failures


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_1_example_constants():
    """Spectral constants of the bundled 11-level ramp."""
    T = 100.0
    H = build_example_ramp(T)
    flow = spectral_flow(H, TimeGrid.uniform(T, 2001))
    gap0 = flow.gap[0]
    norm0 = operator_norm(H.evaluate(0.0))
    normT = operator_norm(H.evaluate(T))

    # the documented final matrix: ladder 0.0, 0.1, ..., 1.0, hopping 1/2
    d = 11
    H_T = np.diag(0.1 * np.arange(d)) + 0.5 * (np.eye(d, k=1) + np.eye(d, k=-1))
    entry_err = float(np.max(np.abs(H.evaluate(T) - H_T)))
    normT_ref = tridiagonal_norm(
        [Fraction(k, 10) for k in range(d)], [Fraction(1, 2)] * (d - 1)
    )
    ok = (
        abs(gap0 - 0.1) <= 1e-9
        and 0.095 <= flow.gap_min <= 0.105
        and abs(norm0 - 1.0) <= 1e-9
        and entry_err <= 1e-15
        and abs(normT - normT_ref) <= 1e-9
    )
    report(
        1,
        "example constants",
        ok,
        f"gap(0)={gap0:.9f}, gap_min={flow.gap_min:.6f}, "
        f"|H(0)|={norm0:.9f}, |H(T)|={normT:.9f} (Sturm oracle "
        f"{normT_ref:.9f}), max |H(T) entry error|={entry_err:.1e}",
    )
    assert abs(gap0 - 0.1) <= 1e-9
    assert 0.095 <= flow.gap_min <= 0.105
    assert abs(norm0 - 1.0) <= 1e-9
    assert entry_err <= 1e-15
    assert abs(normT - normT_ref) <= 1e-9


def test_criterion_2_bound_holds_on_ensemble(ensemble):
    """Commutator and spread bounds hold across the seeded ensemble."""
    worst_margin = min(case["valid_min_margin"] for case in ensemble)
    commutator_ok = worst_margin >= -1e-9

    spread_ok = True
    worst_spread = np.inf
    for case in ensemble:
        cert, prop = case["cert"], case["prop"]
        pts = cert.grid.points
        growth = np.concatenate(
            [
                [0.0],
                np.cumsum(
                    0.5
                    * (cert.a_mu_samples[1:] + cert.a_mu_samples[:-1])
                    * np.diff(pts)
                ),
            ]
        )
        envelope = np.expm1(growth)
        n = case["n"]
        for source in range(n):
            amps = propagator_spread(prop, source)
            for j in range(n):
                if j == source:
                    continue
                slack = np.exp(-cert.mu * abs(j - source)) * envelope - amps[:, j]
                worst_spread = min(worst_spread, float(slack.min()))
        if worst_spread < -1e-9:
            spread_ok = False
    ok = commutator_ok and spread_ok
    report(
        2,
        "bound audit on ensemble",
        ok,
        f"min commutator margin {worst_margin:.3e}, "
        f"min spread slack {worst_spread:.3e} over 50 cases",
    )
    assert commutator_ok
    assert spread_ok


def test_criterion_3_negative_control(ensemble):
    """Doubled-rate certificates with unchanged a_mu must get flagged."""
    flagged = sum(1 for case in ensemble if case["control_violated"])
    fraction = flagged / len(ensemble)
    ok = fraction >= 0.9
    report(
        3,
        "negative control",
        ok,
        f"{flagged}/{len(ensemble)} cases flagged; a_mu kept from mu falls "
        "below the locality load at 2 mu",
    )
    assert fraction >= 0.9


def test_criterion_4_closed_forms(ensemble):
    lambert_ok = abs(lambert_w(np.e) - 1.0) <= 1e-12

    mu_min, v_min = optimal_mu_exp_local(1.0, 1.0)
    mus = np.linspace(1e-4, 1.0 - 1e-4, 10_000)
    vals = np.array([exp_local_bound(1.0, 1.0, m) / m for m in mus])
    k = int(vals.argmin())
    grid_ok = abs(mu_min - mus[k]) <= 1e-4 and abs(v_min - vals[k]) <= 1e-8

    envelope_violations = 0
    for case in ensemble:
        mu_prime = case["mu_prime"]
        for frac in (0.25, 0.5, 0.75):
            mu = frac * mu_prime
            a = a_mu_pointwise(case["matrix"], mu)
            if a > exp_local_bound(1.0, mu_prime, mu) + 1e-12:
                envelope_violations += 1
    ok = lambert_ok and grid_ok and envelope_violations == 0
    report(
        4,
        "closed forms",
        ok,
        f"w(e)-1={lambert_w(np.e) - 1.0:.2e}, mu_min offset "
        f"{abs(mu_min - mus[k]):.2e}, envelope violations {envelope_violations}",
    )
    assert lambert_ok
    assert grid_ok
    assert envelope_violations == 0


def test_criterion_5_adiabatic_identities(adiabatic_runs):
    details = []
    ok = True
    for T, (H, run) in adiabatic_runs.items():
        flow = run.flow
        pts = flow.grid.points
        defect_ok = run.intertwining_defect <= 1e-7

        D = h_ad(H, flow, pts) - H.evaluate_batch(pts)
        hdiff = operator_norms(D)
        mids = 0.5 * (pts[:-1] + pts[1:])
        hdiff_mid = operator_norms(h_ad(H, flow, mids) - H.evaluate_batch(mids))
        cumint = np.concatenate(
            [
                [0.0],
                np.cumsum(
                    np.diff(pts) / 6.0 * (hdiff[:-1] + 4.0 * hdiff_mid + hdiff[1:])
                ),
            ]
        )
        delta_t, _ = wave_operator_errors(run.U, run.U_ad, flow)
        delta_ok = bool(np.all(delta_t <= cumint + 1e-9))

        hdot = operator_norm(H.derivative(0.0))
        slope_ok = bool(np.all(hdiff <= hdot / flow.gap_min + 1e-9))

        sample = slice(None, None, len(pts) // 8)
        G = ground_projector(flow)[sample]
        Gp = np.eye(11) - G
        Ds = D[sample]
        block_ok = bool(
            operator_norms(G @ Ds @ G).max() <= 1e-9
            and operator_norms(Gp @ Ds @ Gp).max() <= 1e-9
        )
        ok = ok and defect_ok and delta_ok and slope_ok and block_ok
        details.append(
            f"T={T:g}: defect={run.intertwining_defect:.2e}, "
            f"delta chain {'ok' if delta_ok else 'BROKEN'}, "
            f"slope bound {'ok' if slope_ok else 'BROKEN'}, "
            f"block zeros {'ok' if block_ok else 'BROKEN'}"
        )
        assert defect_ok
        assert delta_ok
        assert slope_ok
        assert block_ok
    report(5, "adiabatic identities", ok, "; ".join(details))


def test_criterion_6_figure_trends(fig1_records):
    records, failures = fig1_records
    assert failures == {}, f"sweep failures: {failures}"
    assert len(records) == 6
    Ts = np.array([r.T for r in records])
    vs = np.array([r.v_lr_empirical for r in records])
    ds = np.array([r.delta_ad for r in records])

    d_decreasing = bool(np.all(np.diff(ds) < 0))
    v_decreasing = bool(np.all(np.diff(vs) < 0))
    rho_T_v = spearman(Ts, vs)
    rho_v_d = spearman(vs, ds)
    ok = (
        d_decreasing
        and v_decreasing
        and abs(rho_T_v + 1.0) < 1e-12
        and abs(rho_v_d - 1.0) < 1e-12
    )
    report(
        6,
        "figure trends",
        ok,
        f"delta_ad={np.array2string(ds, precision=3)}, "
        f"v_lr={np.array2string(vs, precision=3)}, "
        f"spearman(T,v)={rho_T_v:+.1f}, spearman(v,d)={rho_v_d:+.1f}",
    )
    assert d_decreasing
    assert v_decreasing
    assert abs(rho_T_v + 1.0) < 1e-12
    assert abs(rho_v_d - 1.0) < 1e-12


def test_criterion_7_numerical_kernels(ensemble, adiabatic_runs):
    # propagator against an independent 4th-order integrator at a fixed
    # fine step, converged on its own
    tol = 1e-6
    H = build_example_ramp(100.0)
    prop = evolve_on_grid(H, TimeGrid.uniform(100.0, 101), tol)
    U_rk4 = ramp_rk4_oracle()
    rk4_err = operator_norm(prop.unitaries[-1] - U_rk4)
    rk4_ok = rk4_err <= 10 * tol

    # the integrator's exponential kernel, one step exp(A) = exp(-i (iA)),
    # against the extended-precision Taylor oracle
    rng = np.random.default_rng(123)
    taylor_worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 7))
        A = random_anti_hermitian(rng, n)
        step = _unitary_steps((1j * A)[None], np.ones(1))[0]
        err = operator_norm(step - taylor_unitary_exp(A))
        taylor_worst = max(taylor_worst, err)
    taylor_ok = taylor_worst <= 1e-10

    # unitarity of every propagator produced in this suite
    defects = [case["prop"].unitarity_defect for case in ensemble]
    defects.append(prop.unitarity_defect)
    for _, run in adiabatic_runs.values():
        defects.extend([run.U.unitarity_defect, run.U_ad.unitarity_defect])
    defect_worst = max(defects)
    defect_ok = defect_worst <= 1e-10

    ok = rk4_ok and taylor_ok and defect_ok
    report(
        7,
        "numerical kernels",
        ok,
        f"rk4 diff {rk4_err:.2e} (tol {10 * tol:.0e}), taylor worst "
        f"{taylor_worst:.2e}, unitarity worst {defect_worst:.2e}",
    )
    assert rk4_ok
    assert taylor_ok
    assert defect_ok


def test_criterion_8_locality_equivalence(ensemble, adiabatic_runs):
    # probe-block form of the locality condition with the tightest constant
    probe_violations = 0
    for case in ensemble[:10]:
        M, mu, n = case["matrix"], case["mu"], case["n"]
        a = a_mu_pointwise(M, mu)
        for probe in probe_blocks(n, max_size=5, n_random=100, seed=case["seed"]):
            if brute_probe_sum(M, mu, probe) > len(probe) * a * (1 + 1e-12):
                probe_violations += 1

    # chain ordering on the example ramp: ground-touching block-norm sums
    # dominate ||H - H_ad|| at every grid point
    H, run = adiabatic_runs[100.0]
    cert = certify(H, 0.5, run.flow.grid)
    rep = condition_report(H, run.flow, cert)
    chain_ok = bool(np.all(rep.block_sums >= rep.hdiff_norms - 1e-12))

    ok = probe_violations == 0 and chain_ok
    report(
        8,
        "locality equivalence",
        ok,
        f"probe violations {probe_violations}, chain ordering "
        f"{'ok' if chain_ok else 'BROKEN'}",
    )
    assert probe_violations == 0
    assert chain_ok
