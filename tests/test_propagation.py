import dataclasses
import math
import tracemalloc
import warnings
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lrlab.propagation as propagation
from lrlab.adiabatic import evolve_adiabatic, run_adiabatic, spectral_flow
from lrlab.blocks import Block
from lrlab.errors import IntegrationError, ValidationError
from lrlab.locality import LocalityCertificate, certify
from lrlab.models import (
    ConstantHamiltonian,
    ExpLocalSpec,
    LinearInterpolationHamiltonian,
    TimeDependentHamiltonian,
    build_example_ramp,
    random_exp_local,
)
from lrlab.numerics import TimeGrid, operator_norms
from lrlab.propagation import (
    AuditReport,
    Propagator,
    _checkpoints_fixed,
    _magnus_generators,
    _refinement_defect,
    _taylor_plan,
    _unitarity_defect,
    _unitary_steps,
    bound_audit,
    evolve_on_grid,
    lr_bound_rhs,
    propagator_spread,
)

from _oracles import (
    commutator_norm,
    eigh_unitary_exp,
    ensemble_params,
    gauss2_magnus_propagator,
    gram_block_norm,
    heisenberg,
    magnus_generators_ak,
    operator_norm,
    ramp_rk4_oracle,
    random_hermitian,
    random_unitary,
    rk4_propagator,
    taylor_unitary_exp,
)


@pytest.fixture(scope="module")
def ramp_prop():
    """Example ramp at T=100, converged to 1e-6 on a 101-point grid."""
    H = build_example_ramp(100.0)
    return H, evolve_on_grid(H, TimeGrid.uniform(100.0, 101), 1e-6)


def test_constant_hamiltonian_matches_direct_exponential():
    rng = np.random.default_rng(0)
    M = random_hermitian(rng, 6)
    H = ConstantHamiltonian(M)
    prop = evolve_on_grid(H, TimeGrid.uniform(2.0, 21), 1e-9)
    for k in (5, 13, 20):
        t = prop.grid.points[k]
        direct = taylor_unitary_exp(-1j * t * M)
        assert operator_norm(prop.unitaries[k] - direct) <= 1e-9


def test_zero_hamiltonian_identity():
    H = ConstantHamiltonian(np.zeros((4, 4)))
    prop = evolve_on_grid(H, TimeGrid.uniform(3.0, 7), 1e-10)
    for U in prop.unitaries:
        np.testing.assert_allclose(U, np.eye(4), atol=1e-14)


def test_ramp_matches_rk4_oracle(ramp_prop):
    """Independent 4th-order integration at a fixed fine step."""
    _, prop = ramp_prop
    U_rk4 = ramp_rk4_oracle()
    assert operator_norm(prop.unitaries[-1] - U_rk4) <= 10 * prop.tolerance


def test_unitarity_defect_small(ramp_prop):
    _, prop = ramp_prop
    assert prop.unitarity_defect <= 1e-10
    assert np.allclose(prop.unitaries[0], np.eye(11))


def test_fourth_order_convergence():
    """Halving the substep cuts the final-time error of the Simpson-node
    check chain by about 16 and of the returned Gauss chain by about 64.
    The reference is the two-node Gauss Magnus oracle at 256 substeps."""
    H = build_example_ramp(10.0)
    grid = TimeGrid.uniform(10.0, 11)
    ref = gauss2_magnus_propagator(H, grid.points, 256)[-1]
    errs = []
    for m in (1, 2, 4):
        U6, _, U4_final = _checkpoints_fixed(H, grid, m, 1e-9)
        errs.append([operator_norm(U4_final - ref), operator_norm(U6[-1] - ref)])
    errs = np.array(errs)  # columns: U4, U6
    ratios = errs[:-1] / errs[1:]
    np.testing.assert_allclose(ratios[:, 0], 16.0, rtol=0.2)
    np.testing.assert_allclose(ratios[:, 1], 64.0, rtol=0.2)


def test_constant_hamiltonian_steps_are_exact_exponentials():
    """For constant H the three Gauss nodes agree, so a2 = a3 = 0 and
    Omega6 = -i h H: its Hermitian form M6 is H bit for bit, and each step
    is the kernel's exp(-i h H)."""
    M = random_exp_local(ExpLocalSpec(9, 1.0, 1.0, seed=3))
    bounds = np.linspace(0.0, 2.0, 41)
    M6 = _magnus_generators(ConstantHamiltonian(M), bounds, np.diff(bounds))[1]
    assert np.array_equal(M6, np.broadcast_to(M, M6.shape))


class _Quadratic(TimeDependentHamiltonian):
    """H(t) = H0 + t H1 + t^2 H2; real for real coefficients."""

    def __init__(self, H0, H1, H2):
        self.coeffs = (H0, H1, H2)
        self.dimension = H0.shape[0]

    def evaluate_batch(self, ts):
        t = np.asarray(ts, dtype=float)[:, None, None]
        H0, H1, H2 = self.coeffs
        return H0 + t * (H1 + t * H2)


@pytest.mark.parametrize("real", [True, False])
def test_generators_match_the_two_product_form(real):
    """The one-product Hermitian M4 and M6 agree with the a_k form, taken
    one substep at a time with two products per commutator, to 1e-14
    relative, on a real and on a complex H quadratic in t.  Its
    coefficients do not commute and substeps of about 1 make every term
    count: H2 makes b3, and so Q = [Hm, b3], nonzero, which a linear ramp
    cannot, and the h^3 [P, Q] term alone is 3e-5 to 1.4e-3 of M6 (the
    measured error is below 1.2e-15).  M4 and M6 are Hermitian bit for
    bit."""
    rng = np.random.default_rng(11)
    coeffs = [random_hermitian(rng, 6) for _ in range(3)]
    if real:
        coeffs = [c.real for c in coeffs]
    H = _Quadratic(*coeffs)
    bounds = np.array([0.0, 0.7, 1.5, 2.0, 3.2])
    got = _magnus_generators(H, bounds, np.diff(bounds))
    want = magnus_generators_ak(H, bounds, np.diff(bounds))
    scale = operator_norms(want.reshape(-1, 6, 6))
    err = operator_norms((got - want).reshape(-1, 6, 6))
    assert np.all(err <= 1e-14 * scale)
    assert np.array_equal(got, got.conj().swapaxes(-1, -2))


def test_batch_size_keeps_one_stack_within_128_kib():
    """A batch is the largest power of two n <= 256 with n d^2 <= 8192."""
    sizes = [propagation._batch_size(d) for d in (1, 5, 6, 11, 12, 32, 90, 91)]
    assert sizes == [256, 256, 128, 64, 32, 8, 1, 1]


def test_constant_hamiltonian_closed_form_matches_oracles():
    """evolve_on_grid serves a constant H as V e^(-i t w) V^dag; it agrees
    with the extended-precision Taylor exponential and with the integrator
    at every checkpoint."""
    M = random_exp_local(ExpLocalSpec(9, 1.0, 1.0, seed=3))
    H = ConstantHamiltonian(M)
    grid = TimeGrid.uniform(2.0, 41)
    tol = 1e-11
    prop = evolve_on_grid(H, grid, tol)
    taylor = np.stack([taylor_unitary_exp(-1j * t * M) for t in grid.points])
    assert operator_norms(prop.unitaries - taylor).max() <= 1e-12
    magnus = _checkpoints_fixed(H, grid, 1, tol)[0]
    assert operator_norms(prop.unitaries - magnus).max() <= 1e-11
    assert np.array_equal(prop.unitaries[0], np.eye(9))
    assert prop.step == 0.0
    assert prop.tolerance == tol
    assert prop.unitarity_defect < 1e-13
    # a tol below rounding is not claimed: the measured defect is reported
    fine = evolve_on_grid(H, grid, 1e-25)
    assert fine.tolerance == fine.unitarity_defect > 1e-25
    with pytest.raises(ValidationError):
        evolve_on_grid(H, grid, 0.0)


def _traced_peak(run):
    """The propagator run() returns and the peak of memory traced meanwhile."""
    tracemalloc.start()
    try:
        prop = run()
        return prop, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_closed_form_fills_its_result_in_slices(monkeypatch):
    """A constant H's propagator is filled a slice of _batch_size(d) = 32
    grid points at a time, with no temporary as large as the result.  A
    12-level H on 20,001 points (a 43.9 MiB result) peaks at 1.10x the
    result; the whole-stack product peaked at 2.08x.  Every slice, the last
    partial one too, holds V e^(-i t w) V^dag, bit for bit whatever the
    slice size."""
    H = ConstantHamiltonian(random_hermitian(np.random.default_rng(8), 12))
    grid = TimeGrid.uniform(10.0, 20001)
    prop, peak = _traced_peak(lambda: evolve_on_grid(H, grid))
    assert peak <= 1.3 * prop.unitaries.nbytes
    w, V = np.linalg.eigh(H.matrix)
    rows = [1, 31, 32, 33, 19999, 20000]
    direct = (V * np.exp(-1j * np.outer(grid.points[rows], w))[:, None, :]) @ (
        V.conj().T
    )
    assert np.abs(prop.unitaries[rows] - direct).max() <= 1e-14
    monkeypatch.setattr(propagation, "_BATCH_ENTRIES", 256 * 12**2)
    whole = evolve_on_grid(H, TimeGrid(grid.points[:1001]))
    assert np.array_equal(whole.unitaries, prop.unitaries[:1001])
    assert prop.unitarity_defect < 1e-12


@pytest.mark.parametrize("norm", [1e-6, 1e-3, 6e-3, 0.5, 3.0, 50.0])
def test_unitary_steps_match_eigh_and_taylor_oracles(norm):
    """The Taylor kernel agrees with V e^(-i h w) V^dag and with the
    extended-precision Taylor oracle to 1e-12 in operator norm, for
    ||h M||_1 from 1e-6 to 50 (3 and 50 take 3 and 7 squarings) and d from
    2 to 16.  Worst cases measured: 2.2e-14 against eigh (at 50) and
    1.1e-13 against Taylor (at 3), most of it the oracle's own 2^20
    squarings."""
    rng = np.random.default_rng(31)
    for d in range(2, 17):
        M = np.stack([random_hermitian(rng, d) for _ in range(3)])
        hs = rng.uniform(0.5, 1.0, size=3)
        M *= (norm / hs / np.abs(M).sum(axis=-2).max(axis=-1))[:, None, None]
        got = _unitary_steps(M, hs)
        taylor = np.stack([taylor_unitary_exp(-1j * h * m) for h, m in zip(hs, M)])
        assert operator_norms(got - eigh_unitary_exp(M, hs)).max() <= 1e-12
        assert operator_norms(got - taylor).max() <= 1e-12


def test_unitary_steps_of_a_zero_stack_are_exactly_identity():
    got = _unitary_steps(np.zeros((3, 5, 5)), np.ones(3))
    assert np.array_equal(got, np.broadcast_to(np.eye(5), (3, 5, 5)))


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_unitary_steps_reject_a_nonfinite_generator(bad):
    mats = np.stack([np.eye(3), np.eye(3)]).astype(complex)
    mats[1, 0, 2] = bad
    with pytest.raises(ValidationError):
        _unitary_steps(mats, np.full(2, 0.1))


def test_taylor_plan_takes_the_least_degree_that_meets_the_tail_bound():
    """Against exact rational arithmetic: s is the least power with
    y = x / 2^s <= 1/2, and p the least degree with
    y^(p+1)/(p+1)! e^y <= 2^-53.  y is a float, so exact as a Fraction;
    e^y is bracketed by its Taylor sum to degree 30, below, and that sum
    plus twice its next term, above (the remainder's bound for y <= 1/2).
    The sample reaches every degree from 0 to 14."""
    unit = Fraction(1, 2**53)
    xs = [0.0, 5e-324, 1e-17, 0.5, np.nextafter(0.5, 1.0), 3.0, 50.0]
    xs += list(np.geomspace(1e-12, 64.0, 401))
    degrees = set()
    for x in xs:
        s, p = _taylor_plan(float(x))
        y = Fraction(float(x)) / 2**s
        assert y <= Fraction(1, 2) and (s == 0 or 2 * y > Fraction(1, 2))
        terms = [y**k / math.factorial(k) for k in range(32)]
        exp_lo = sum(terms[:31])
        exp_hi = exp_lo + 2 * terms[31]
        assert terms[p + 1] * exp_hi <= unit
        assert p == 0 or terms[p] * exp_lo > unit
        degrees.add(p)
    assert degrees == set(range(15))


class _BlowUp(TimeDependentHamiltonian):
    """A 2-level H whose entries turn infinite after t = 0.5."""

    dimension = 2
    M = np.array([[1.0, 0.5], [0.5, -1.0]], dtype=complex)

    def evaluate(self, t):
        if t <= 0.5:
            return self.M
        with np.errstate(invalid="ignore"):  # Inf * 0 is NaN, as intended
            return self.M * np.inf


def test_evolve_rejects_a_generator_that_turns_nonfinite():
    with pytest.raises(ValidationError):
        evolve_on_grid(_BlowUp(), TimeGrid.uniform(1.0, 11))


class _RealRamp(TimeDependentHamiltonian):
    """A 2-level linear ramp whose evaluate returns matrices of the given
    dtype: real ones carry no imaginary part for the integrator to take."""

    dimension = 2

    def __init__(self, dtype):
        self.dtype = dtype

    def evaluate(self, t):
        return np.array([[1.0 - t, 0.5 * t], [0.5 * t, t - 1.0]], dtype=self.dtype)


def test_evolve_accepts_a_real_valued_evaluate():
    """A real evaluate integrates to the checkpoints of the same ramp given
    as complex matrices, bit for bit."""
    grid = TimeGrid.uniform(2.0, 21)
    real = evolve_on_grid(_RealRamp(float), grid, 1e-10)
    cplx = evolve_on_grid(_RealRamp(complex), grid, 1e-10)
    assert real.step == cplx.step > 0
    np.testing.assert_array_equal(real.unitaries, cplx.unitaries)


def test_integrator_takes_no_eigh(monkeypatch):
    """The step exponential is the Taylor kernel alone: with eigh made to
    raise, the kernel and the integrator still run (the unitarity defect
    takes eigvalsh)."""
    H = build_example_ramp(12.5)
    rng = np.random.default_rng(8)
    mats = np.stack([random_hermitian(rng, 4) for _ in range(3)])

    def no_eigh(*args, **kwargs):
        raise AssertionError("numpy.linalg.eigh called")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    steps = _unitary_steps(mats, np.full(3, 0.1))
    assert _unitarity_defect(steps) < 1e-14
    prop = evolve_on_grid(H, TimeGrid.uniform(12.5, 201))
    assert prop.unitarity_defect < 1e-12


def test_unitarity_defect_is_the_gram_norm():
    """The eigvalsh form equals the largest singular value of U^dag U - I,
    and a non-finite propagator is rejected."""
    rng = np.random.default_rng(12)
    U = np.stack([random_unitary(rng, 6) for _ in range(40)])
    U += 1e-6 * rng.standard_normal(U.shape) * np.logspace(-6, 0, 40)[:, None, None]
    gram = U.conj().transpose(0, 2, 1) @ U - np.eye(6)
    want = np.linalg.svd(gram, compute_uv=False)[:, 0].max()
    assert _unitarity_defect(U) == pytest.approx(want, rel=1e-9)
    U[3, 1, 2] = np.nan
    with pytest.raises(ValidationError):
        _unitarity_defect(U)


def test_unitarity_defect_is_computed_only_when_read(monkeypatch):
    """Evolving (closed form and integrator), run_adiabatic and a
    closed-form audit compute no unitarity defect; the first read computes
    it once, later reads and the closed form's tolerance use the cache."""
    calls = []

    def counted(unitaries):
        calls.append(len(unitaries))
        return _unitarity_defect(unitaries)

    monkeypatch.setattr(propagation, "_unitarity_defect", counted)
    M = random_exp_local(ExpLocalSpec(9, 1.0, 1.0, seed=3))
    H = ConstantHamiltonian(M)
    grid = TimeGrid.uniform(2.0, 41)
    closed = evolve_on_grid(H, grid, 1e-11)
    bound_audit(H, Block([0]), Block([4]), certify(H, 0.5, grid), closed)
    ramp = build_example_ramp(5.0)
    ramp_grid = TimeGrid.uniform(5.0, 101)
    integrated = evolve_on_grid(ramp, ramp_grid, 1e-8)
    run_adiabatic(ramp, ramp_grid, 1e-8)
    assert calls == []
    first = closed.unitarity_defect
    assert closed.unitarity_defect == first < 1e-13
    assert closed.tolerance == 1e-11
    assert calls == [41]
    assert integrated.unitarity_defect < 1e-12
    assert integrated.tolerance == 1e-8
    assert calls == [41, 101]


def test_refinement_defect_is_exact_where_it_reaches_tol():
    rng = np.random.default_rng(11)
    X = rng.standard_normal((50, 4, 4)) + 1j * rng.standard_normal((50, 4, 4))
    diff = X * np.logspace(-14, -8, 50)[:, None, None]
    exact = np.linalg.svd(diff, compute_uv=False)[:, 0].max()
    zero = np.zeros_like(diff)
    for tol in (1e-13, 1e-10, exact, exact * (1 + 1e-9), 1e-6):
        got = _refinement_defect(diff, zero, tol)
        assert (got < tol) == (exact < tol)
        if exact >= tol:
            assert got == pytest.approx(exact, rel=1e-12)


class _OddPulse(TimeDependentHamiltonian):
    """H(t) = 10 (t - 1)^5 A on [0, 2], odd about t = 1: the step errors of
    the two halves cancel, so U(2) = 1 at every step size while U(1) still
    depends on it."""

    def __init__(self, A):
        self.A = A
        self.dimension = A.shape[0]

    def evaluate(self, t):
        return 10.0 * (t - 1.0) ** 5 * self.A


def test_convergence_is_checked_at_every_checkpoint():
    A = random_hermitian(np.random.default_rng(7), 3)
    grid = TimeGrid(np.array([0.0, 1.0, 2.0]))
    prop = evolve_on_grid(_OddPulse(A), grid, tol=1e-10)
    # U(1) = exp(-i A int_0^1 10 (t - 1)^5 dt) = exp(i (5/3) A)
    exact = taylor_unitary_exp(1j * (5.0 / 3.0) * A)
    assert operator_norm(prop.unitaries[1] - exact) <= 10 * prop.tolerance


def test_composition_property(ramp_prop):
    """U(t2,0) = U(t2,t1) U(t1,0), with the middle leg integrated on its own
    shifted schedule."""
    H, prop = ramp_prop
    t1, t2 = 40.0, 70.0  # grid points 40 and 70
    U1, U2 = prop.unitaries[40], prop.unitaries[70]
    slice_H = LinearInterpolationHamiltonian(
        H.evaluate(t1), H.evaluate(t2), t2 - t1
    )
    mid = evolve_on_grid(slice_H, TimeGrid.uniform(t2 - t1, 31), 1e-8)
    U_mid = mid.unitaries[-1]
    assert operator_norm(U2 - U_mid @ U1) <= 20 * prop.tolerance


def test_nonconvergence_raises():
    H = LinearInterpolationHamiltonian(
        np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([[1.0, 0.0], [0.0, -1.0]]), 0.1
    )
    with pytest.raises(IntegrationError) as err:
        evolve_on_grid(H, TimeGrid.uniform(0.1, 2), 1e-25)
    assert err.value.defect is not None


def test_nonconvergence_stops_once_refinement_stalls(monkeypatch):
    """Below the rounding floor the defects stop falling; the ladder stops
    two levels after its smallest defect, not after 20 halvings."""
    calls = []

    def counted(H, grid, m, tol):
        calls.append(m)
        return _checkpoints_fixed(H, grid, m, tol)

    monkeypatch.setattr(propagation, "_checkpoints_fixed", counted)
    H = LinearInterpolationHamiltonian(
        np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([[1.0, 0.0], [0.0, -1.0]]), 0.1
    )
    with pytest.raises(IntegrationError):
        evolve_on_grid(H, TimeGrid.uniform(0.1, 2), 1e-25)
    assert len(calls) <= 14


def test_stalled_refinement_names_its_floor_and_the_tol():
    """tol 1e-14 on the bundled ramp sits below the rounding floor
    sqrt(n_int m) d 2^-53: the level defects are that floor, 5.46e-14,
    7.7e-14 and 1.1e-13 at m = 1, 2, 4 (the pair itself reads 1.5e-14,
    8.0e-15 and 7.1e-15), so after 2 halvings the error names the
    smallest, 5.462e-14, next to the tol asked for."""
    with pytest.raises(IntegrationError) as err:
        evolve_on_grid(build_example_ramp(12.5), TimeGrid.uniform(12.5, 2001), 1e-14)
    defect = err.value.defect
    assert 1e-14 < defect < 1e-13
    assert "1.000e-14" in str(err.value)
    assert f"{defect:.3e}" in str(err.value)


@pytest.mark.parametrize("tol", [0.0, -1e-9, np.inf, np.nan])
def test_evolve_refuses_a_tolerance_that_is_not_positive_and_finite(tol):
    """A NaN tol would run the halvings to a convergence failure, and an
    infinite one would accept the first level; both are refused by name
    before any step."""
    H, grid = build_example_ramp(12.5), TimeGrid.uniform(12.5, 101)
    message = f"tolerance must be positive and finite, got {tol}"
    with pytest.raises(ValidationError, match=message):
        evolve_on_grid(H, grid, tol)


@pytest.mark.parametrize("scale, m", [(20.0, 1024), (200.0, 4096), (2000.0, 32768)])
def test_stiff_refinement_is_not_taken_for_a_stall(scale, m):
    """Before the asymptotic regime the defects are O(1) and not monotone
    (1.4, 1.4, 0.99, 1.5, 0.68, 0.47, 0.0051, ... at scale 200); above its
    floor the stall stop does not act, and these converge.  At scale 2000,
    m exceeds a batch, so intervals are split.  RK4 at 250 x scale steps,
    at most about 2e-9 from the exact U(1), checks the accepted U(1)."""
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    sz = np.array([[1.0, 0.0], [0.0, -1.0]])
    H = LinearInterpolationHamiltonian(scale * sx, scale * sz, 1.0)
    tol = 1e-9
    prop = evolve_on_grid(H, TimeGrid.uniform(1.0, 2), tol)
    assert prop.step == 1.0 / m
    rk4 = rk4_propagator(H, 1.0, int(250 * scale))
    assert operator_norm(prop.unitaries[-1] - rk4) <= 10 * tol


@pytest.mark.parametrize("T", [12.5, 400.0])
def test_fig1_ladder_accepts_one_substep(T):
    """U and U_ad at the shortest and longest total times of the default
    sweep settle at m = 1 on the default grid and tol."""
    H = build_example_ramp(T)
    grid = TimeGrid.uniform(T, 2001)
    prop = evolve_on_grid(H, grid, 1e-9)
    assert prop.step == pytest.approx(T / 2000, rel=1e-12)
    U_ad = evolve_adiabatic(H, spectral_flow(H, grid), 1e-9)
    assert U_ad.step == pytest.approx(T / 2000, rel=1e-12)


def test_intervals_split_across_batches_match_whole_ones(monkeypatch):
    """With a _BATCH_ENTRIES budget that holds 2 substeps of the 11-level
    ramp, below m, each interval's product is composed from several
    batches, and only every fourth batch reaches a checkpoint.
    U6's checkpoints, U4's final product and the level defect, read exactly
    (tol 1e-12) or from Frobenius norms (tol 1e-6), agree with
    whole-interval batches to rounding (each batch picks its own Taylor
    degree), with the polar re-orthonormalization landing on the same
    interval ends."""
    H = build_example_ramp(2.0)
    grid = TimeGrid.uniform(2.0, 6)
    monkeypatch.setattr(propagation, "_POLAR_EVERY", 2)
    for tol in (1e-12, 1e-6):
        monkeypatch.setattr(propagation, "_BATCH_ENTRIES", 256 * 11**2)
        whole = _checkpoints_fixed(H, grid, 8, tol)
        monkeypatch.setattr(propagation, "_BATCH_ENTRIES", 2 * 11**2)
        assert propagation._batch_size(11) == 2
        split = _checkpoints_fixed(H, grid, 8, tol)
        assert operator_norms(split[0] - whole[0]).max() <= 1e-13
        assert operator_norm(split[2] - whole[2]) <= 1e-13
        assert abs(split[1] - whole[1]) <= 1e-13
        assert whole[1] > 1e-10  # a defect the chains' rounding cannot hide


@pytest.fixture(scope="module")
def long_small_run():
    """A real 4-level linear ramp on 20,001 points (m = 1), evolved under
    tracemalloc: the propagator and the peak of traced memory."""
    rng = np.random.default_rng(5)
    Hi, Hf = rng.standard_normal((2, 4, 4))
    H = LinearInterpolationHamiltonian(Hi + Hi.T, Hf + Hf.T, 20.0)
    grid = TimeGrid.uniform(20.0, 20001)
    return _traced_peak(lambda: evolve_on_grid(H, grid, 1e-9))


def test_evolve_holds_one_set_of_checkpoints(long_small_run):
    """The level keeps U6's checkpoints alone and returns them uncopied;
    U4's are compared batch by batch.  Measured: 1.32x the result, against
    4.0x when both chains' checkpoints, their difference and a copy were
    held."""
    prop, peak = long_small_run
    assert prop.step == pytest.approx(20.0 / 20000, rel=1e-12)
    assert peak <= 1.5 * prop.unitaries.nbytes


def test_a_batch_is_small_beside_the_result():
    """A batch's temporaries are cache-sized (_batch_size), so evolve_on_grid
    peaks near its one (len(grid), d, d) result.  Measured: 1.44x for the
    bundled ramp (T=12.5, 2001 points, tol 1e-8), 1.59x for its U_ad
    (tol 1e-7) and 1.11x for a real 32-level ramp on 1025 points, against
    3.45x, 3.83x and 5.75x with batches of 256 substeps."""
    H = build_example_ramp(12.5)
    grid = TimeGrid.uniform(12.5, 2001)
    prop, peak = _traced_peak(lambda: evolve_on_grid(H, grid, 1e-8))
    assert peak <= 1.6 * prop.unitaries.nbytes
    flow = spectral_flow(H, grid)
    prop, peak = _traced_peak(lambda: evolve_adiabatic(H, flow, 1e-7))
    assert peak <= 1.8 * prop.unitaries.nbytes
    Hi, Hf = np.random.default_rng(32).standard_normal((2, 32, 32))
    H = LinearInterpolationHamiltonian(Hi + Hi.T, Hf + Hf.T, 2.0)
    grid = TimeGrid.uniform(2.0, 1025)
    prop, peak = _traced_peak(lambda: evolve_on_grid(H, grid, 1e-8))
    assert prop.step == 2.0 / 1024
    assert peak <= 1.3 * prop.unitaries.nbytes


def test_polar_step_keeps_a_long_run_unitary(long_small_run, monkeypatch):
    """The running product is projected onto the unitaries at every
    _POLAR_EVERY-th interval end, and that projection is the checkpoint
    stored there.  Over 20,000 intervals it holds the unitarity defect at
    6.9e-15; with the projection never taken it reads 1.2e-13."""
    prop, _ = long_small_run
    assert prop.unitarity_defect <= 3e-14
    reunitarize, projected = propagation._reunitarize, []

    def spy(U):
        projected.append(reunitarize(U))
        return projected[-1]

    monkeypatch.setattr(propagation, "_reunitarize", spy)
    U6, _, _ = _checkpoints_fixed(
        build_example_ramp(12.5), TimeGrid.uniform(12.5, 1025), 1, 1e-9
    )
    assert len(projected) == 1024 // propagation._POLAR_EVERY == 4
    for j, W in enumerate(projected, start=1):
        assert np.array_equal(U6[j * propagation._POLAR_EVERY], W[1])


def test_a_failed_level_is_freed_before_the_next_is_made(monkeypatch):
    """Each level's checkpoint array is gone by the time the next level
    starts, so a refined run holds one level's checkpoints at a time."""
    alive, levels = [], []

    def tracked(H, grid, m, tol):
        alive.extend(ref() is not None for ref in levels)
        got = _checkpoints_fixed(H, grid, m, tol)
        levels.append(weakref.ref(got[0]))
        return got

    monkeypatch.setattr(propagation, "_checkpoints_fixed", tracked)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    sz = np.array([[1.0, 0.0], [0.0, -1.0]])
    H = LinearInterpolationHamiltonian(20.0 * sx, 20.0 * sz, 1.0)
    prop = evolve_on_grid(H, TimeGrid.uniform(1.0, 5), 1e-9)
    assert len(levels) > 3 and prop.step < 1.0 / 4
    assert not any(alive)


class _CosPulse(TimeDependentHamiltonian):
    """H(t) = cos(w t) A commutes with itself at all times, so
    U(t) = exp(-i A sin(w t)/w)."""

    def __init__(self, A, w):
        self.A, self.w = A, w
        self.dimension = A.shape[0]

    def evaluate_batch(self, ts):
        return np.cos(self.w * np.asarray(ts))[:, None, None] * self.A


@pytest.mark.parametrize("w", [3.0, 10.0])
@pytest.mark.parametrize("points", [2, 5])
def test_self_commuting_hamiltonian_is_checked_by_its_own_quadrature(w, points):
    """For an H(t) that commutes with itself every commutator of the step
    vanishes, and a fourth-order companion at the three Gauss nodes equals
    the sixth-order step: that pair reads 0 at any m and accepts m = 1
    whatever its error (1.04 for w = 10 on 2 points, 2.4e-6 for w = 3 on
    5 points).  The Simpson-node companion errs with its own quadrature,
    so the returned checkpoints meet the closed form."""
    A = random_hermitian(np.random.default_rng(7), 3)
    grid = TimeGrid.uniform(2.0, points)
    tol = 1e-9
    prop = evolve_on_grid(_CosPulse(A, w), grid, tol)
    exact = np.stack(
        [taylor_unitary_exp(-1j * A * np.sin(w * t) / w) for t in grid.points]
    )
    assert operator_norms(prop.unitaries - exact).max() <= 10 * tol


class _SinDrive(TimeDependentHamiltonian):
    """H(t) = A + sin(w t) B, which does not commute with itself."""

    def __init__(self, A, B, w):
        self.A, self.B, self.w = A, B, w
        self.dimension = A.shape[0]

    def evaluate_batch(self, ts):
        return self.A + np.sin(self.w * np.asarray(ts))[:, None, None] * self.B


def _converged_gauss2(H, points, tol):
    """The two-node Gauss Magnus oracle at the first m = 2^k whose
    Richardson estimate of its own error, ||U_(m/2) - U_m|| / 15 for a
    fourth-order step, is below tol / 100."""
    coarse, m = gauss2_magnus_propagator(H, points, 1), 2
    while True:
        fine = gauss2_magnus_propagator(H, points, m)
        if operator_norms(coarse - fine).max() / 15.0 < tol / 100.0:
            return fine
        coarse, m = fine, 2 * m


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(2, 4),
    n_points=st.integers(2, 5),
    log_tol=st.floats(-8.0, -5.0),
    affine=st.booleans(),
    real=st.booleans(),
    T=st.floats(0.5, 5.0),
    w=st.floats(0.1, 6.0),
)
def test_every_checkpoint_meets_the_tolerance(
    seed, d, n_points, log_tol, affine, real, T, w
):
    """The contract Propagator states: every checkpoint lies within its
    tolerance of an independent oracle, for affine ramps and for a drive
    A + sin(w t) B, real and complex."""
    rng = np.random.default_rng(seed)
    A, B = random_hermitian(rng, d), random_hermitian(rng, d)
    if real:
        A, B = A.real, B.real
    H = LinearInterpolationHamiltonian(A, B, T) if affine else _SinDrive(A, B, w)
    grid = TimeGrid.uniform(T, n_points)
    tol = 10.0**log_tol
    prop = evolve_on_grid(H, grid, tol)
    oracle = _converged_gauss2(H, grid.points, tol)
    assert operator_norms(prop.unitaries - oracle).max() <= prop.tolerance


def test_integrator_refuses_an_h_that_is_not_hermitian():
    """Each commutator of the step takes one product, which holds for a
    Hermitian H alone.  Unrefused, this H, skewed by 0.1 in B, ran through
    all 20 halvings of its two intervals (2^20 substeps each) before the
    integrator gave up; an H skewed by i 1e-6 I passed with no word."""
    rng = np.random.default_rng(3)
    A = random_hermitian(rng, 3)
    B = random_hermitian(rng, 3) + 0.1 * rng.normal(size=(3, 3))
    with pytest.raises(ValidationError, match="not Hermitian: max \\|H - H\\^dag\\|"):
        evolve_on_grid(_SinDrive(A, B, 1.0), TimeGrid.uniform(1.0, 3))


# -- heisenberg / commutator ------------------------------------------------


def test_heisenberg_identity_cases():
    rng = np.random.default_rng(1)
    A = random_hermitian(rng, 5)
    U = random_unitary(rng, 5)
    np.testing.assert_allclose(heisenberg(A, np.eye(5)), A, atol=1e-15)
    np.testing.assert_allclose(heisenberg(np.eye(5), U), np.eye(5), atol=1e-13)


def test_heisenberg_norm_preservation():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(2, 10))
        A, U = random_hermitian(rng, n), random_unitary(rng, n)
        assert operator_norm(heisenberg(A, U)) == pytest.approx(
            operator_norm(A), abs=1e-10
        )


def test_heisenberg_shape_mismatch():
    with pytest.raises(ValueError):
        heisenberg(np.eye(3), np.eye(4))


def test_commutator_norm_trivial_cases():
    rng = np.random.default_rng(3)
    U = random_unitary(rng, 6)
    A = np.diag([1.0, 0, 0, 0, 0, 0]).astype(complex)
    B = np.diag([0, 0, 0, 1.0, 0, 0]).astype(complex)
    assert commutator_norm(A, B, np.eye(6)) == pytest.approx(0.0, abs=1e-15)
    assert commutator_norm(np.eye(6), np.eye(6), U) == pytest.approx(0.0, abs=1e-13)


def test_commutator_norm_role_swap_symmetry():
    rng = np.random.default_rng(4)
    for _ in range(10):
        n = int(rng.integers(3, 9))
        A, B = random_hermitian(rng, n), random_hermitian(rng, n)
        U = random_unitary(rng, n)
        # ||[U A U^dag, B]|| = ||[U^dag B U, A]||
        lhs = commutator_norm(A, B, U.conj().T)
        rhs = commutator_norm(B, A, U)
        assert lhs == pytest.approx(rhs, abs=1e-10)


# -- bound pieces ------------------------------------------------------------


def test_lr_bound_rhs_zero_at_t0():
    assert lr_bound_rhs(Block([0]), Block([5]), 0.5, 2.0 * 0.0) == 0.0


def test_lr_bound_rhs_distance_falloff():
    args = dict(mu=0.7, growth=2.0 * 1.5)
    near = lr_bound_rhs(Block([0]), Block([2]), **args)
    far = lr_bound_rhs(Block([0]), Block([4]), **args)
    assert far == pytest.approx(near * np.exp(-0.7 * 2), rel=1e-12)


def test_lr_bound_rhs_prefactor_is_the_smaller_support():
    """The prefactor is 2 min(|A|, |B|), whichever support is the smaller:
    a larger prefactor loosens the bound and hides violations."""
    mu, growth = 0.5, 1.5
    tail = np.exp(-mu * 4) * np.expm1(growth)
    assert lr_bound_rhs(Block([0]), Block([4, 5]), mu, growth) == 2.0 * tail
    assert lr_bound_rhs(Block([5, 6, 7]), Block([0, 1]), mu, growth) == 4.0 * tail


def test_lr_bound_rhs_past_the_underflow_of_its_weight():
    """At mu d = 750, e^(-mu d) underflows to 0 and e^growth overflows, so
    their product would read NaN; the bound is e^(growth - mu d), and inf
    past the float range, with no warning."""
    growth = np.array([0.0, 760.0, 800.0, 1e300])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rhs = lr_bound_rhs(Block([0]), Block([5]), 150.0, growth)
    assert rhs[0] == 0.0
    np.testing.assert_allclose(rhs[1:3], 2.0 * np.exp([10.0, 50.0]), rtol=1e-14)
    assert rhs[3] == np.inf


def test_lr_bound_rhs_overlap_rejected():
    with pytest.raises(ValidationError):
        lr_bound_rhs(Block([0, 1]), Block([1, 2]), 0.5, 1.0 * 1.0)


def test_lr_bound_rhs_takes_interleaved_supports():
    """Supports that share no label are disjoint even when they interleave:
    {0, 2} and {1, 3} lie at distance 1."""
    rhs = lr_bound_rhs(Block([0, 2]), Block([1, 3]), 0.5, 1.5)
    assert rhs == lr_bound_rhs(Block([0, 1]), Block([2, 3]), 0.5, 1.5)
    assert rhs == pytest.approx(4.0 * np.exp(-0.5) * np.expm1(1.5), rel=1e-15)


def test_spread_identity_at_t0(ramp_prop):
    _, prop = ramp_prop
    amps = propagator_spread(prop, 4)
    np.testing.assert_allclose(amps[0], np.eye(11)[4], atol=1e-14)
    # unitarity: each checkpoint column is a unit vector
    np.testing.assert_allclose(
        np.linalg.norm(amps, axis=1), np.ones(len(prop.grid)), atol=1e-10
    )


def test_spread_constant_diagonal_stays_put():
    H = ConstantHamiltonian(np.diag([0.1, 0.5, 0.9]))
    prop = evolve_on_grid(H, TimeGrid.uniform(5.0, 11), 1e-10)
    amps = propagator_spread(prop, 1)
    np.testing.assert_allclose(amps, np.tile(np.eye(3)[1], (11, 1)), atol=1e-12)


def test_spread_bound_on_example_ramp():
    """Off-source amplitudes stay below e^(-mu |j-i|) (e^(int a) - 1)."""
    T = 20.0
    H = build_example_ramp(T)
    grid = TimeGrid.uniform(T, 401)
    cert = certify(H, 0.5, grid)
    prop = evolve_on_grid(H, grid, 1e-9)
    growth = np.concatenate(
        [
            [0.0],
            np.cumsum(
                0.5
                * (cert.a_mu_samples[1:] + cert.a_mu_samples[:-1])
                * np.diff(grid.points)
            ),
        ]
    )
    for source in (0, 5, 10):
        amps = propagator_spread(prop, source)
        for j in range(11):
            if j == source:
                continue
            rhs = np.exp(-0.5 * abs(j - source)) * np.expm1(growth)
            assert np.all(amps[:, j] <= rhs + 1e-9)


def test_spread_source_validation(ramp_prop):
    _, prop = ramp_prop
    with pytest.raises(ValidationError):
        propagator_spread(prop, 11)


# -- bound audit --------------------------------------------------------------


def test_audit_example_ramp_no_violations():
    T = 20.0
    H = build_example_ramp(T)
    grid = TimeGrid.uniform(T, 401)
    cert = certify(H, 0.5, grid)
    prop = evolve_on_grid(H, grid, 1e-10)
    report = bound_audit(H, Block([0]), Block([5]), cert, prop)
    assert not report.has_violations
    assert report.min_margin >= -1e-9
    assert report.lhs[0] == pytest.approx(0.0, abs=1e-12)
    assert report.rhs[0] == 0.0


def test_audit_flags_grossly_understated_certificate():
    """Machinery check: an a_mu understated by a large factor must be caught."""
    M = random_exp_local(ExpLocalSpec(10, 1.0, 1.0, seed=0))
    H = ConstantHamiltonian(M)
    grid = TimeGrid.uniform(2.0, 401)
    cert = certify(H, 0.5, grid)
    weak = LocalityCertificate(
        mu=cert.mu,
        grid=grid,
        a_mu_samples=cert.a_mu_samples / 500.0,
    )
    report = bound_audit(
        H, Block([2]), Block([4]), weak, evolve_on_grid(H, grid, 1e-10)
    )
    assert report.has_violations
    assert report.min_margin < -1e-9


def test_audit_checks_the_locality_hypothesis():
    """An a_mu below H's locality load is flagged even where the bound built
    on it still holds."""
    M = random_exp_local(ExpLocalSpec(10, 1.0, 1.0, seed=0))
    grid = TimeGrid.uniform(2.0, 401)
    A, B = Block([3]), Block([6])

    # understated at two grid points, at 200 by 1% and at 100 by one part in
    # 10^6 (the comparison's slack is rounding, not a tolerance), every
    # margin still positive
    H = ConstantHamiltonian(M)
    cert = certify(H, 0.5, grid)
    assert cert.understated(H).size == 0
    samples = cert.a_mu_samples.copy()
    samples[200] *= 0.99
    samples[100] *= 1.0 - 1e-6
    dipped = dataclasses.replace(cert, a_mu_samples=samples)
    report = bound_audit(H, A, B, dipped, evolve_on_grid(H, grid, 1e-10))
    assert report.margin[1:].min() > 0.0
    assert report.violations.tolist() == [100, 200]
    assert report.to_json_summary()["violations"] == 2

    # margin violations at 3 and 7, understated at 7 and 9: each index once
    margin = np.zeros(12)
    margin[[3, 7]] = -1.0
    overlap = AuditReport(
        times=np.arange(12.0),
        lhs=-margin,
        rhs=np.zeros(12),
        margin=margin,
        understated=np.array([7, 9]),
    )
    assert overlap.violations.tolist() == [3, 7, 9]


def test_a_nan_margin_is_a_violation():
    """A NaN margin shows nothing about the bound, so it is flagged rather
    than passed."""
    margin = np.zeros(5)
    margin[[1, 3]] = np.nan
    report = AuditReport(
        times=np.arange(5.0),
        lhs=np.zeros(5),
        rhs=margin,
        margin=margin,
        understated=np.array([], dtype=int),
    )
    assert report.violations.tolist() == [1, 3]
    assert report.has_violations


def test_audit_judges_a_certificate_of_another_h_by_the_audited_load():
    """A certificate holds mu, the grid and a_mu(t), nothing of the H it was
    made from: audited against another H, of any dimension, it is flagged
    where its a_mu falls below that H's load and passes where it does not."""
    grid = TimeGrid.uniform(2.0, 21)
    small = ConstantHamiltonian(random_exp_local(ExpLocalSpec(8, 1.0, 1.0, seed=0)))
    large = ConstantHamiltonian(random_exp_local(ExpLocalSpec(10, 1.0, 1.0, seed=0)))
    A, B = Block([0]), Block([4])
    for made, audited in ((small, large), (large, small)):
        cert = certify(made, 0.5, grid)
        # the audited H's load is a_mu at 0.5, which scales with H
        ratio = cert.a_mu_max / certify(audited, 0.5, grid).a_mu_max
        for scale, flagged in ((2.0 * ratio, True), (0.5 * ratio, False)):
            H = ConstantHamiltonian(scale * audited.matrix)
            report = bound_audit(H, A, B, cert, evolve_on_grid(H, grid))
            assert report.understated.size == (21 if flagged else 0)
            assert report.has_violations == flagged


def test_audit_refuses_a_propagator_of_another_dimension():
    grid = TimeGrid.uniform(2.0, 21)
    small = ConstantHamiltonian(random_exp_local(ExpLocalSpec(8, 1.0, 1.0, seed=0)))
    large = ConstantHamiltonian(random_exp_local(ExpLocalSpec(10, 1.0, 1.0, seed=0)))
    with pytest.raises(ValidationError, match="dimension"):
        bound_audit(
            large,
            Block([0]),
            Block([4]),
            certify(large, 0.5, grid),
            evolve_on_grid(small, grid),
        )


@pytest.mark.parametrize(
    "supp_a, supp_b",
    [
        ([0], [4]),
        ([6], [1]),
        ([0, 1, 2], [5, 6]),  # |A| > |B|
        ([3], [0, 1, 5, 6]),  # |A| < |B|, B not contiguous
        ([0, 2, 5], [1, 6]),  # interleaved supports
    ],
)
def test_audit_lhs_matches_commutator_oracle(supp_a, supp_b):
    """The block read-out of the audit equals the generic commutator norm."""
    d = 7
    H = ConstantHamiltonian(random_hermitian(np.random.default_rng(5), d))
    grid = TimeGrid.uniform(3.0, 31)
    prop = evolve_on_grid(H, grid, 1e-10)
    report = bound_audit(
        H, Block(supp_a), Block(supp_b), certify(H, 0.5, grid), propagator=prop
    )
    A = np.diag(np.isin(np.arange(d), supp_a)).astype(complex)
    B = np.diag(np.isin(np.arange(d), supp_b)).astype(complex)
    oracle = [commutator_norm(A, B, U) for U in prop.unitaries]
    np.testing.assert_allclose(report.lhs, oracle, rtol=0.0, atol=1e-12)


def test_singleton_audit_matches_the_gram_form():
    """The singleton read-out from one column of U equals the Gram form to
    1e-13 relative, for every singleton pair of the ensemble's n=12 case at
    every t > 0."""
    seed, n, mu_prime = ensemble_params(5)[4]
    assert n == 12
    H = ConstantHamiltonian(
        random_exp_local(ExpLocalSpec(n, 1.0, mu_prime, seed=seed))
    )
    grid = TimeGrid.uniform(3.0, 201)
    cert = certify(H, mu_prime / 2.0, grid)
    prop = evolve_on_grid(H, grid)
    later = grid.points > 0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            lhs = bound_audit(H, Block([i]), Block([j]), cert, prop).lhs
            want = gram_block_norm(prop.unitaries, [i], [j])
            assert np.all(want[later] > 0)
            np.testing.assert_allclose(lhs[later], want[later], rtol=1e-13, atol=0.0)


def test_unitaries_are_a_read_only_view():
    """No write reaches a propagator's checkpoints, closed form or
    integrated, so its cached defect and column layout stay its own."""
    grid = TimeGrid.uniform(2.0, 21)
    H = ConstantHamiltonian(random_exp_local(ExpLocalSpec(6, 1.0, 1.0, seed=0)))
    for prop in (evolve_on_grid(H, grid), evolve_on_grid(build_example_ramp(2.0), grid)):
        with pytest.raises(ValueError, match="read-only"):
            prop.unitaries[1, 0, 0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            prop.unitaries *= 2.0


def test_audits_share_one_column_layout():
    """The first singleton audit of a propagator lays its columns out once;
    a second audit reuses that copy, and both lhs equal the per-call read
    of column b bit for bit."""
    n = 9
    H = ConstantHamiltonian(random_exp_local(ExpLocalSpec(n, 1.0, 1.0, seed=2)))
    grid = TimeGrid.uniform(2.0, 101)
    cert = certify(H, 0.5, grid)
    prop = evolve_on_grid(H, grid)
    assert prop._columns is None  # nothing is laid out before an audit
    layouts = []
    for i, j in ((1, 6), (7, 2)):
        lhs = bound_audit(H, Block([i]), Block([j]), cert, prop).lhs
        layouts.append(prop._columns)
        col = np.ascontiguousarray(prop.unitaries[:, :, j].T)
        sq = col.real**2 + col.imag**2
        want = np.abs(col[i]) * np.sqrt(sq[:i].sum(axis=0) + sq[i + 1 :].sum(axis=0))
        assert np.array_equal(lhs, want)
    assert layouts[0] is layouts[1] is prop.columns
    assert layouts[0].shape == (n, n, len(grid))
    assert not layouts[0].flags.writeable


def test_audit_lhs_resolves_near_full_transfer():
    """Levels 0 and 1 swap fully at t = pi/2; just before, the commutator is
    |sin t cos t| ~ 1e-9, which sqrt(p (1 - p)) with p = |U_01|^2 rounds to 0."""
    M = np.zeros((4, 4))
    M[0, 1] = M[1, 0] = 1.0  # levels 2 and 3 are decoupled
    H = ConstantHamiltonian(M)
    grid = TimeGrid.uniform(np.pi / 2 - 1e-9, 5)
    t = grid.points
    U = np.zeros((len(t), 4, 4), dtype=complex)
    U[:, 0, 0] = U[:, 1, 1] = np.cos(t)  # exp(-i t sigma_x) on levels 0, 1
    U[:, 0, 1] = U[:, 1, 0] = -1j * np.sin(t)
    U[:, 2, 2] = U[:, 3, 3] = 1.0
    prop = Propagator(
        grid=grid, unitaries=U, step=t[1], tolerance=1e-15, unitarity_defect=0.0
    )
    report = bound_audit(
        H, Block([0]), Block([1]), certify(H, 0.5, grid), propagator=prop
    )
    np.testing.assert_allclose(
        report.lhs, np.abs(np.sin(t) * np.cos(t)), rtol=1e-6, atol=0.0
    )


def test_audit_rhs_is_lr_bound_rhs_in_the_certified_basis():
    """bound_audit's rhs is lr_bound_rhs on the supports in H's own labels,
    the basis a_mu is certified in, with the running integral of a_mu as
    growth: the certificate's growth, bit for bit."""
    H = ConstantHamiltonian(random_exp_local(ExpLocalSpec(10, 1.0, 1.0, seed=0)))
    grid = TimeGrid.uniform(2.0, 101)
    cert = certify(H, 0.5, grid)
    prop = evolve_on_grid(H, grid, 1e-10)
    report = bound_audit(H, Block([9]), Block([7]), cert, prop)
    a, t = cert.a_mu_samples, grid.points
    growth = np.concatenate([[0.0], np.cumsum(0.5 * (a[1:] + a[:-1]) * np.diff(t))])
    want = lr_bound_rhs(Block([9]), Block([7]), 0.5, growth)
    np.testing.assert_allclose(report.rhs, want, rtol=1e-14, atol=0.0)
    assert np.array_equal(
        report.rhs, lr_bound_rhs(Block([9]), Block([7]), 0.5, cert.growth)
    )
    assert want[-1] == pytest.approx(2.0 * np.exp(-1.0) * np.expm1(growth[-1]))


def test_audit_identical_supports_rejected():
    H = build_example_ramp(5.0)
    grid = TimeGrid.uniform(5.0, 11)
    cert = certify(H, 0.5, grid)
    prop = evolve_on_grid(H, grid)
    with pytest.raises(ValidationError):
        bound_audit(H, Block([2]), Block([2]), cert, prop)
    with pytest.raises(ValidationError):
        bound_audit(H, Block([1, 2]), Block([2, 3]), cert, prop)
    with pytest.raises(ValidationError, match="support labels exceed"):
        bound_audit(H, Block([11]), Block([2]), cert, prop)


def test_min_margin_reads_the_times_after_0():
    """At t = 0 lhs and rhs are both exactly 0, so a margin read there would
    make every passing audit report 0."""
    H = build_example_ramp(12.5)
    grid = TimeGrid.uniform(12.5, 401)
    cert = certify(H, 1.257, grid)
    report = bound_audit(
        H, Block([0]), Block([5, 6]), cert, evolve_on_grid(H, grid, 1e-11)
    )
    assert report.margin[0] == 0.0
    assert report.min_margin == report.margin[1:].min()
    assert report.min_margin > 1e-5


def test_audit_report_serialization(tmp_path):
    H = build_example_ramp(5.0)
    grid = TimeGrid.uniform(5.0, 51)
    cert = certify(H, 0.5, grid)
    report = bound_audit(H, Block([0]), Block([4]), cert, evolve_on_grid(H, grid))
    csv_path = tmp_path / "audit.csv"
    report.to_csv(csv_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "t,lhs,rhs,margin"
    assert len(lines) == 52
    summary = report.to_json_summary()
    assert set(summary) == {"violations", "min_margin", "tol"}
    assert summary["violations"] == 0
