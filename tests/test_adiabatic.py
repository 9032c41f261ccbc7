import dataclasses

import numpy as np
import pytest

from lrlab import adiabatic
from lrlab.adiabatic import (
    MIN_DERIVATIVE_GAP,
    adiabatic_error,
    condition_report,
    evolve_adiabatic,
    h_ad,
    intertwining_defect,
    run_adiabatic,
    spectral_flow,
    wave_operator_errors,
)
from lrlab.errors import IllConditionedError, LevelCrossingError, ValidationError
from lrlab.experiment import empirical_v_lr
from lrlab.locality import certify
from lrlab.models import (
    ConstantHamiltonian,
    LinearInterpolationHamiltonian,
    build_example_ramp,
)
from lrlab.numerics import TimeGrid, operator_norms
from lrlab.propagation import evolve_on_grid

from _oracles import (
    ground_projector,
    mixed_ground_leakage,
    operator_norm,
    random_hermitian,
    transport_defect,
)


@pytest.fixture(scope="module")
def ramp_run():
    """Example ramp at T=25: flow, U and U_ad at tol 1e-9 on 501 points."""
    T = 25.0
    H = build_example_ramp(T)
    grid = TimeGrid.uniform(T, 501)
    return H, run_adiabatic(H, grid, tol=1e-9)


@pytest.fixture(scope="module")
def doubled_run():
    """The doubled ramp (|G| = 2): flow, U and U_ad at tol 1e-10 on 51
    points."""
    H = doubled_ramp()
    grid = TimeGrid.uniform(5.0, 51)
    flow = spectral_flow(H, grid)
    return H, flow, evolve_on_grid(H, grid, 1e-10), evolve_adiabatic(H, flow, 1e-10)


# -- spectral flow ------------------------------------------------------------


def test_flow_example_constants(ramp_run):
    _, run = ramp_run
    flow = run.flow
    assert flow.ground_dim == 1
    assert flow.gap[0] == pytest.approx(0.1, abs=1e-12)
    assert 0.095 <= flow.gap_min <= 0.105


def test_flow_projector_invariants(ramp_run):
    _, run = ramp_run
    G = ground_projector(run.flow)
    idem = G @ G - G
    herm = G - G.conj().transpose(0, 2, 1)
    assert np.linalg.svd(idem, compute_uv=False)[:, 0].max() <= 1e-10
    assert np.linalg.svd(herm, compute_uv=False)[:, 0].max() <= 1e-10
    traces = np.einsum("tii->t", G).real
    np.testing.assert_allclose(traces, np.ones(len(traces)), atol=1e-10)


def test_flow_eigenvector_continuity(ramp_run):
    _, run = ramp_run
    basis = run.flow.basis
    overlaps = np.abs(np.sum(basis[:-1].conj() * basis[1:], axis=1))
    assert overlaps.min() >= 0.99


def test_flow_constant_hamiltonian():
    rng = np.random.default_rng(0)
    M = random_hermitian(rng, 6)
    flow = spectral_flow(ConstantHamiltonian(M), TimeGrid.uniform(2.0, 21))
    assert np.ptp(flow.gap) <= 1e-12
    G = ground_projector(flow)
    dev = G - G[0]
    assert np.abs(dev).max() <= 1e-10


def test_flow_level_crossing_detected():
    H = LinearInterpolationHamiltonian(
        np.diag([0.0, 1.0]), np.diag([1.0, 0.0]), 1.0
    )
    with pytest.raises(LevelCrossingError):
        spectral_flow(H, TimeGrid.uniform(1.0, 21))


def test_h_ad_path_checks_cluster_and_derivative_gap():
    """spectral_flow and the H_ad path share the cluster check; only the
    H_ad path refuses gaps at or below the 1e-8 derivative floor."""
    H = LinearInterpolationHamiltonian(
        np.diag([0.0, 1.0]), np.diag([1.0, 0.0]), 1.0
    )
    t_near = 0.5 - 2.5e-9  # gap 5e-9
    flow = spectral_flow(H, TimeGrid([0.0, t_near]), cluster_tol=1e-12)
    assert flow.gap[-1] == pytest.approx(5e-9, rel=1e-6)
    with pytest.raises(IllConditionedError):
        h_ad(H, flow, [t_near])
    with pytest.raises(LevelCrossingError):
        h_ad(H, flow, [0.5])  # degenerate: the cluster spans both levels


# -- projector derivative ------------------------------------------------------


def gdot_from_h_ad(H, flow, t, G):
    """Gdot(t) = -i [H_ad - H, G]: with H_ad - H = i [Gdot, G] and
    G Gdot G = 0, [[Gdot, G], G] = Gdot G + G Gdot = Gdot."""
    D = h_ad(H, flow, [t])[0] - H.evaluate(t)
    return -1j * (D @ G - G @ D)


def test_gdot_constant_is_zero():
    rng = np.random.default_rng(1)
    M = random_hermitian(rng, 5)
    H = ConstantHamiltonian(M)
    flow = spectral_flow(H, TimeGrid.uniform(1.0, 11))
    gdot = gdot_from_h_ad(H, flow, 0.5, ground_projector(flow)[5])
    assert operator_norm(gdot) <= 1e-12


def test_gdot_matches_finite_difference(ramp_run):
    H, run = ramp_run
    flow = run.flow
    T = 25.0
    h = T * 1e-6

    def projector(t):
        vals, vecs = np.linalg.eigh(H.evaluate(t))
        v = vecs[:, :1]
        return v @ v.conj().T

    # interior point: central difference
    t = 0.4 * T
    fd = (projector(t + h) - projector(t - h)) / (2 * h)
    gdot = gdot_from_h_ad(H, flow, t, projector(t))
    assert operator_norm(gdot - fd) <= 1e-6 * operator_norm(gdot)
    # start point: forward difference (first-order accurate)
    fd0 = (projector(h) - projector(0.0)) / h
    gdot0 = gdot_from_h_ad(H, flow, 0.0, projector(0.0))
    assert operator_norm(gdot0 - fd0) <= 1e-4 * operator_norm(gdot0)


def test_gdot_idempotency_derivative(ramp_run):
    """Gdot is Hermitian and off-block-diagonal (the derivative of G^2 = G),
    which its commutator form gives by construction, and it solves the
    derivative of [H, G] = 0, [H, Gdot] = -[Hdot, G], which checks H_ad."""
    H, run = ramp_run
    flow = run.flow
    for t in (0.0, 7.3, 21.1):
        vals, vecs = np.linalg.eigh(H.evaluate(t))
        G = vecs[:, :1] @ vecs[:, :1].conj().T
        gdot = gdot_from_h_ad(H, flow, t, G)
        assert operator_norm(gdot - gdot.conj().T) <= 1e-10
        assert operator_norm(gdot @ G + G @ gdot - gdot) <= 1e-8
        assert operator_norm(G @ gdot @ G) <= 1e-9
        Ht, Hdot = H.evaluate(t), H.derivative(t)
        eom = Ht @ gdot - gdot @ Ht + Hdot @ G - G @ Hdot
        assert operator_norm(eom) <= 1e-10


# -- adiabatic generator ---------------------------------------------------------


def test_h_ad_constant_equals_h():
    rng = np.random.default_rng(2)
    M = random_hermitian(rng, 5)
    H = ConstantHamiltonian(M)
    flow = spectral_flow(H, TimeGrid.uniform(1.0, 11))
    assert operator_norm(h_ad(H, flow, [0.3])[0] - M) <= 1e-12


def test_h_ad_hermitian_and_block_structure(ramp_run):
    H, run = ramp_run
    flow = run.flow
    ts = [0.0, 5.0, 24.9]
    for t, HA in zip(ts, h_ad(H, flow, ts)):
        assert operator_norm(HA - HA.conj().T) <= 1e-10
        D = HA - H.evaluate(t)
        vals, vecs = np.linalg.eigh(H.evaluate(t))
        G = vecs[:, :1] @ vecs[:, :1].conj().T
        Gp = np.eye(11) - G
        assert operator_norm(G @ D @ G) <= 1e-9
        assert operator_norm(Gp @ D @ Gp) <= 1e-9


def test_h_ad_is_exactly_hermitian(ramp_run):
    """H_ad is the evaluated H plus i (X - X^dag): Hermitian bit for bit,
    not only to rounding."""
    H, run = ramp_run
    ts = np.random.default_rng(11).uniform(0.0, 25.0, 1000)
    HA = h_ad(H, run.flow, ts)
    assert np.array_equal(HA, HA.conj().transpose(0, 2, 1))


def test_h_ad_correction_scales_as_one_over_T():
    s_values = (0.25, 0.5, 0.75)
    norms = {}
    for T in (30.0, 60.0):
        H = build_example_ramp(T)
        flow = spectral_flow(H, TimeGrid.uniform(T, 201))
        ts = T * np.asarray(s_values)
        norms[T] = operator_norms(h_ad(H, flow, ts) - H.evaluate_batch(ts))
    for a, b in zip(norms[30.0], norms[60.0]):
        assert a / b == pytest.approx(2.0, rel=0.05)


# -- intertwiner ------------------------------------------------------------------


def test_intertwining_defect_small(ramp_run):
    _, run = ramp_run
    assert run.intertwining_defect <= 1e-7


def test_constant_adiabatic_propagator_trivial():
    rng = np.random.default_rng(3)
    M = random_hermitian(rng, 4)
    H = ConstantHamiltonian(M)
    grid = TimeGrid.uniform(1.5, 31)
    flow = spectral_flow(H, grid)
    U_ad = evolve_adiabatic(H, flow, tol=1e-10)
    U = evolve_on_grid(H, grid, tol=1e-10)
    dev = U_ad.unitaries - U.unitaries
    assert np.linalg.svd(dev, compute_uv=False)[:, 0].max() <= 1e-9
    assert intertwining_defect(U_ad, flow) <= 1e-10


def test_transported_projector_trace(ramp_run):
    _, run = ramp_run
    UT = run.U_ad.unitaries[-1]
    G = ground_projector(run.flow)
    G0, GT = G[0], G[-1]
    transported = UT @ G0 @ UT.conj().T
    assert abs(np.trace(transported - GT)) <= 1e-8


def test_block_readers_match_projector_forms(ramp_run, doubled_run):
    """The intertwining defect and delta_ad read from the excited-ground
    block agree with their d x d projector forms, for |G| = 1 and 2."""
    _, run = ramp_run
    _, flow2, U2, U2_ad = doubled_run
    for flow, U, U_ad in ((run.flow, run.U, run.U_ad), (flow2, U2, U2_ad)):
        assert intertwining_defect(U_ad, flow) == pytest.approx(
            transport_defect(U_ad, flow), abs=1e-12
        )
        assert adiabatic_error(U, flow) == pytest.approx(
            mixed_ground_leakage(U, flow), abs=1e-12
        )
    assert adiabatic_error(U2, flow2) > 1e-6


# -- wave-operator errors -----------------------------------------------------------


def test_wave_errors_trivial_for_constant():
    rng = np.random.default_rng(5)
    M = random_hermitian(rng, 4)
    H = ConstantHamiltonian(M)
    grid = TimeGrid.uniform(2.0, 21)
    flow = spectral_flow(H, grid)
    U = evolve_on_grid(H, grid, tol=1e-10)
    U_ad = evolve_adiabatic(H, flow, tol=1e-10)
    delta_t, delta_ad = wave_operator_errors(U, U_ad, flow)
    assert delta_t.max() <= 1e-8
    assert delta_ad <= 1e-10


def simpson_cumulative(f_nodes, f_mids, pts):
    """Composite Simpson cumulative integral: the bound is nearly saturated
    at early times, so the integral oracle must beat trapezoid accuracy."""
    widths = np.diff(pts)
    segments = widths / 6.0 * (f_nodes[:-1] + 4.0 * f_mids + f_nodes[1:])
    return np.concatenate([[0.0], np.cumsum(segments)])


def test_delta_bounded_by_kernel_integral(ramp_run):
    """delta(t) never exceeds the accumulated ||H - H_ad||."""
    H, run = ramp_run
    pts = run.flow.grid.points
    mids = 0.5 * (pts[:-1] + pts[1:])
    hdiff = operator_norms(H.evaluate_batch(pts) - h_ad(H, run.flow, pts))
    hdiff_mid = operator_norms(H.evaluate_batch(mids) - h_ad(H, run.flow, mids))
    cumint = simpson_cumulative(hdiff, hdiff_mid, pts)
    assert np.all(run.delta_t <= cumint + 1e-9)
    assert run.delta_t[0] == 0.0
    # and the coarser chain link: the integral never exceeds t * max ||..||
    assert np.all(cumint <= pts * hdiff.max() + 1e-9)


def test_run_invariants(ramp_run):
    _, run = ramp_run
    assert 0.0 <= run.delta_ad_final <= 1.0
    assert run.intertwining_defect <= 10 * run.U_ad.tolerance


def test_run_warns_on_a_large_intertwining_defect(monkeypatch):
    """run_adiabatic measures the defect once and warns above 10 x tol."""
    monkeypatch.setattr(adiabatic, "intertwining_defect", lambda U_ad, flow: 1.0)
    H = ConstantHamiltonian(random_hermitian(np.random.default_rng(3), 4))
    with pytest.warns(RuntimeWarning, match="intertwining defect 1.000e"):
        run = run_adiabatic(H, TimeGrid.uniform(1.0, 11), tol=1e-9)
    assert run.intertwining_defect == 1.0


def test_slower_driving_reduces_error():
    errors = {}
    for T in (12.5, 25.0):
        H = build_example_ramp(T)
        grid = TimeGrid.uniform(T, 401)
        flow = spectral_flow(H, grid)
        U = evolve_on_grid(H, grid, tol=1e-8)
        errors[T] = adiabatic_error(U, flow)
    assert errors[25.0] < errors[12.5]


def test_grid_alignment_enforced(ramp_run):
    H, run = ramp_run
    other = evolve_on_grid(H, TimeGrid.uniform(25.0, 11), tol=1e-8)
    with pytest.raises(ValidationError):
        wave_operator_errors(other, run.U_ad, run.flow)


# -- condition report -----------------------------------------------------------------


def test_condition_report_constant_all_zero():
    rng = np.random.default_rng(6)
    M = random_hermitian(rng, 5)
    H = ConstantHamiltonian(M)
    grid = TimeGrid.uniform(1.0, 11)
    flow = spectral_flow(H, grid)
    cert = certify(H, 0.5, grid)
    report = condition_report(H, flow, cert)
    assert report.hdiff_gap_ratio == pytest.approx(0.0, abs=1e-12)
    assert report.hdot_gap_ratio == 0.0
    assert report.vlr_gap_ratio > 0


def test_condition_report_ramp_ratios(ramp_run):
    H, run = ramp_run
    T = 25.0
    cert = certify(H, 0.5, run.flow.grid)
    report = condition_report(H, run.flow, cert)
    hdot_direct = operator_norm(H.h_final - H.h_initial) / T
    assert report.hdot_gap_ratio == pytest.approx(
        hdot_direct / run.flow.gap_min**2, rel=1e-10
    )
    assert report.vlr_gap_ratio == pytest.approx(
        cert.v_lr_max / run.flow.gap_min, rel=1e-12
    )
    assert report.epsilon_scale == pytest.approx(0.5 * 1, rel=1e-12)
    assert np.isfinite(report.hdiff_gap_ratio) and report.hdiff_gap_ratio >= 0


def test_condition_chain_ordering(ramp_run):
    """Sum of ground-touching block norms dominates ||H - H_ad|| pointwise."""
    H, run = ramp_run
    cert = certify(H, 0.5, run.flow.grid)
    report = condition_report(H, run.flow, cert)
    assert np.all(report.block_sums >= report.hdiff_norms - 1e-12)
    assert report.chain_block_term >= report.chain_norm_term


def test_hdiff_bounded_by_hdot_over_gap(ramp_run):
    H, run = ramp_run
    cert = certify(H, 0.5, run.flow.grid)
    report = condition_report(H, run.flow, cert)
    assert np.all(
        report.hdiff_norms <= report.hdot_norms / run.flow.gap_min + 1e-9
    )


def test_condition_report_checks_the_derivative_gap():
    """condition_report reads the flow's gaps and refuses any at or below
    the derivative floor, as the H_ad path does."""
    H = LinearInterpolationHamiltonian(
        np.diag([0.0, 1.0]), np.diag([1.0, 0.0]), 1.0
    )
    grid = TimeGrid([0.0, 0.5 - 2.5e-9])  # gap 5e-9
    flow = spectral_flow(H, grid, cluster_tol=1e-12)
    with pytest.raises(IllConditionedError):
        condition_report(H, flow, certify(H, 0.5, grid))
    # a gap exactly at the floor is refused too
    H = ConstantHamiltonian(np.diag([0.0, MIN_DERIVATIVE_GAP]))
    flow = spectral_flow(H, grid, cluster_tol=1e-12)
    assert flow.gap_min == MIN_DERIVATIVE_GAP
    with pytest.raises(IllConditionedError):
        condition_report(H, flow, certify(H, 0.5, grid))


# -- energy-basis locality ------------------------------------------------------------


def test_instantaneous_locality_constant_zero():
    rng = np.random.default_rng(7)
    M = random_hermitian(rng, 5)
    H = ConstantHamiltonian(M)
    grid = TimeGrid.uniform(1.0, 11)
    flow = spectral_flow(H, grid)
    report = condition_report(H, flow, certify(H, 0.5, grid))
    assert report.energy_locality.shape == grid.points.shape
    assert np.abs(report.energy_locality).max() <= 1e-12


def test_instantaneous_locality_matches_block_path(ramp_run):
    """energy_locality against the blocks of H - H_ad meeting the ground
    cluster, built from the batched h_ad and written in the flow's
    eigenframes: the pairs {0, k} on the ramp, and one block G + K on two
    uncoupled copies of a two-level ramp, whose ground cluster G and excited
    level K have two columns each."""
    H, run = ramp_run
    doubled = doubled_ramp()
    doubled_flow = spectral_flow(doubled, TimeGrid.uniform(5.0, 51))
    assert doubled_flow.ground_dim == 2
    cases = [(H, run.flow), (doubled, doubled_flow)]
    mu = 0.5
    for H, flow in cases:
        pts = flow.grid.points
        gdim, d = flow.ground_dim, H.dimension
        report = condition_report(H, flow, certify(H, mu, flow.grid))
        D = H.evaluate_batch(pts) - h_ad(H, flow, pts)
        V = flow.basis
        D_eig = V.conj().transpose(0, 2, 1) @ D @ V
        excited_ground = D_eig[:, gdim:, :gdim]
        if gdim == 1:
            # ground level g meets level k >= gdim in a block of diameter k - g
            diam = np.arange(gdim, d)[:, None] - np.arange(gdim)[None, :]
            blocks = np.abs(excited_ground) * np.exp(mu * diam)
            oracle = blocks.sum(axis=(1, 2)) / gdim
        else:
            # the excited pair is one level at every time: it meets the
            # whole cluster in one block of diameter 3
            assert np.ptp(flow.eigenvalues[:, 2:], axis=1).max() <= 1e-12
            block = np.linalg.norm(excited_ground, axis=(1, 2))
            oracle = block * np.exp(mu * 3) / gdim
        np.testing.assert_allclose(
            report.energy_locality, oracle, rtol=1e-10, atol=1e-14
        )


def test_instantaneous_locality_scales_as_one_over_T():
    mu = 0.5
    vals = {}
    for T in (30.0, 60.0):
        H = build_example_ramp(T)
        grid = TimeGrid.uniform(T, 201)
        flow = spectral_flow(H, grid)
        report = condition_report(H, flow, certify(H, mu, grid))
        vals[T] = report.energy_locality[100]  # t = T / 2
    assert vals[30.0] / vals[60.0] == pytest.approx(2.0, rel=0.05)


# -- gauge invariance ------------------------------------------------------------------


def doubled_ramp():
    """Two uncoupled copies of a two-level ramp over T = 5: d = 4, |G| = 2."""
    pair = np.array([[0.0, 0.3], [0.3, 1.0]])
    return LinearInterpolationHamiltonian(
        np.kron(np.eye(2), np.diag([0.0, 1.0])), np.kron(np.eye(2), pair), 5.0
    )


def three_level_ramp():
    """diag(0, 1, 1) to a coupling of level 0 to both upper levels over
    T = 5: the excited levels are degenerate at t = 0 only."""
    coupled = np.array([[0.0, 0.2, 0.2], [0.2, 1.0, 0.0], [0.2, 0.0, 1.0]])
    return LinearInterpolationHamiltonian(np.diag([0.0, 1.0, 1.0]), coupled, 5.0)


def regauged(flow, seed, turns=()):
    """The flow with a random phase on every eigenvector column at every
    time, and each column pair (c, c + 1) of turns rotated by its angle
    wherever the two levels are degenerate."""
    rng = np.random.default_rng(seed)
    times, d, _ = flow.basis.shape
    basis = flow.basis * np.exp(2j * np.pi * rng.random((times, 1, d)))
    for c, angle in turns:
        at = flow.eigenvalues[:, c + 1] - flow.eigenvalues[:, c] <= flow.cluster_tol
        assert at.any()
        cos, sin = np.cos(angle), np.sin(angle)
        turn = np.array([[cos, -sin], [sin, cos]])
        basis[at, :, c : c + 2] = basis[at, :, c : c + 2] @ turn
    return dataclasses.replace(flow, basis=basis)


def condition_outputs(H, flow, cert):
    report = condition_report(H, flow, cert)
    scalars = [
        report.hdiff_gap_ratio,
        report.chain_block_term,
        report.chain_norm_term,
    ]
    return np.concatenate(
        [scalars, report.hdiff_norms, report.block_sums, report.energy_locality]
    )


def assert_same_readings(H, U, U_ad, flow, moved):
    """condition_report, adiabatic_error and intertwining_defect agree to
    1e-12 on the flow and on its regauged copy."""
    cert = certify(H, 0.5, flow.grid)
    np.testing.assert_allclose(
        condition_outputs(H, moved, cert),
        condition_outputs(H, flow, cert),
        rtol=1e-12,
        atol=1e-12,
    )
    for reader, prop in ((adiabatic_error, U), (intertwining_defect, U_ad)):
        assert reader(prop, moved) == pytest.approx(
            reader(prop, flow), rel=1e-12, abs=1e-12
        )


def test_flow_readers_are_gauge_invariant(ramp_run, doubled_run):
    """Every reader of flow.basis gives the same outputs, to 1e-12, when the
    eigenframes change by a phase per column and, inside a degenerate
    level (the ground cluster or an excited level), by a rotation."""
    H, run = ramp_run
    flow = run.flow
    moved = regauged(flow, seed=21)
    assert_same_readings(H, run.U, run.U_ad, flow, moved)
    args = (H, 25.0, 6e-4, flow.grid)
    speed = empirical_v_lr(*args, flow=flow, propagator=run.U)
    moved_speed = empirical_v_lr(*args, flow=moved, propagator=run.U)
    assert moved_speed.v_lr == pytest.approx(speed.v_lr, rel=1e-12)
    assert moved_speed.crossing_times.keys() == speed.crossing_times.keys()
    np.testing.assert_allclose(
        list(moved_speed.crossing_times.values()),
        list(speed.crossing_times.values()),
        rtol=1e-12,
    )

    # |G| = 2 and a doubled excited level, both degenerate at every time
    H2, flow2, U2, U2_ad = doubled_run
    grid = flow2.grid
    moved2 = regauged(flow2, seed=22, turns=[(0, 0.3), (2, 0.5)])
    before = condition_report(H2, flow2, certify(H2, 0.5, grid))
    assert np.all(before.block_sums >= before.hdiff_norms - 1e-12)
    assert_same_readings(H2, U2, U2_ad, flow2, moved2)
    # a degenerate cluster has no crossing analysis, in any gauge
    for f in (flow2, moved2):
        with pytest.raises(ValidationError):
            empirical_v_lr(H2, 5.0, 6e-4, grid, flow=f, propagator=U2)

    # |G| = 1, with the excited pair degenerate at t = 0 only
    H3 = three_level_ramp()
    flow3 = spectral_flow(H3, grid)
    moved3 = regauged(flow3, seed=23, turns=[(1, 0.3)])
    U3_ad = evolve_adiabatic(H3, flow3, tol=1e-10)
    U3 = evolve_on_grid(H3, grid, tol=1e-10)
    assert_same_readings(H3, U3, U3_ad, flow3, moved3)
    # the block G + {1, 2} at t = 0: |<k|Hdot|0> / (E_0 - E_k)| = 0.04 each
    report = condition_report(H3, moved3, certify(H3, 0.5, grid))
    assert report.block_sums[0] == pytest.approx(0.04 * np.sqrt(2), rel=1e-12)
