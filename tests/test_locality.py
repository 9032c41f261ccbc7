import dataclasses
import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrlab.errors import NumericalError, ValidationError
from lrlab.locality import (
    LocalityCertificate,
    _a_mu,
    _abs_offdiag_and_diag,
    _abs_stack,
    _scan_v_lr,
    a_mu_pointwise,
    certify,
    exp_local_bound,
    optimal_mu_exp_local,
    optimize_mu_generic,
)
from lrlab.models import (
    ConstantHamiltonian,
    ExpLocalSpec,
    LinearInterpolationHamiltonian,
    TimeDependentHamiltonian,
    build_example_ramp,
    random_exp_local,
)
from lrlab.numerics import TimeGrid

from _oracles import (
    apply_permutation,
    bisect_lambert,
    brute_a_mu,
    brute_probe_sum,
    ensemble_params,
    probe_blocks,
    random_hermitian,
)

E_HALF = np.exp(0.5)


# -- a_mu_pointwise -------------------------------------------------------


def test_a_mu_diagonal():
    assert a_mu_pointwise(np.diag([0.2, -0.9, 0.5]), 1.3) == pytest.approx(
        0.9, abs=1e-14
    )


def test_a_mu_zero_matrix():
    assert a_mu_pointwise(np.zeros((4, 4)), 0.7) == 0.0


def test_a_mu_example_ramp_endpoint():
    # brute-force oracle: the max load sits at level 9 (two neighbors), not
    # at level 10, giving 0.9 + 2 e^{1/2}
    H_f = build_example_ramp(1.0).h_final
    got = a_mu_pointwise(H_f, 0.5)
    assert got == pytest.approx(brute_a_mu(H_f, 0.5), abs=1e-12)
    assert got == pytest.approx(0.9 + 2 * E_HALF, abs=1e-12)


def test_a_mu_matches_brute_force_on_random():
    rng = np.random.default_rng(9)
    for seed in range(10):
        spec = ExpLocalSpec(dimension=9, amplitude=1.0, decay_rate=1.5, seed=seed)
        M = random_exp_local(spec)
        mu = float(rng.uniform(0.1, 1.0))
        assert a_mu_pointwise(M, mu) == pytest.approx(
            brute_a_mu(M, mu), rel=1e-12
        )


def test_a_mu_monotone_in_mu():
    M = random_exp_local(ExpLocalSpec(8, 1.0, 2.0, seed=1))
    vals = [a_mu_pointwise(M, mu) for mu in np.linspace(0.1, 1.5, 20)]
    assert np.all(np.diff(vals) >= 0)


def test_a_mu_requires_positive_mu():
    with pytest.raises(ValidationError):
        a_mu_pointwise(np.eye(2), 0.0)


def test_a_mu_of_dense_matrix_stays_small_in_memory():
    """The load is read from the d x d matrix alone, so a dense d=200 matrix
    (20 100 terms) stays far below the 12.7 GB that one dense d x d matrix
    per term would take."""
    M = random_hermitian(np.random.default_rng(1), 200)
    tracemalloc.start()
    try:
        a = a_mu_pointwise(M, 0.1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert a == pytest.approx(brute_a_mu(M, 0.1), rel=1e-12)


# -- probe condition ------------------------------------------------------


def test_singleton_probes_always_pass():
    M = random_exp_local(ExpLocalSpec(10, 1.0, 1.0, seed=4))
    a = a_mu_pointwise(M, 0.5)
    for i in range(10):
        assert brute_probe_sum(M, 0.5, [i]) <= a * (1 + 1e-12)


def test_contiguous_probes_pass_and_match_enumeration():
    M = random_exp_local(ExpLocalSpec(8, 1.0, 1.7, seed=5))
    mu = 0.6
    a = a_mu_pointwise(M, mu)
    probes = [
        range(start, start + size)
        for size in range(1, 5)
        for start in range(8 - size + 1)
    ]
    for probe in probes:
        assert brute_probe_sum(M, mu, probe) <= len(probe) * a * (1 + 1e-12)


def test_zero_bound_fails_on_nonzero_matrix():
    """Any a below the tightest constant fails a probe: a = 0 fails both
    singletons, and a just below a_mu fails the arg-max level."""
    M = np.diag([1.0, 2.0])
    a = a_mu_pointwise(M, 0.5)
    assert a == 2.0
    assert all(brute_probe_sum(M, 0.5, [i]) > 0.0 for i in (0, 1))
    assert brute_probe_sum(M, 0.5, [1]) > a * (1 - 1e-12)


def test_probe_equivalence_exhaustive():
    """With a = the tightest per-level constant, every probe block satisfies
    the summed condition (subadditivity of the block sums)."""
    for seed, n in ((0, 8), (1, 12), (2, 16)):
        M = random_exp_local(ExpLocalSpec(n, 1.0, 1.3, seed=seed))
        mu = 0.65
        a = a_mu_pointwise(M, mu)
        for probe in probe_blocks(n, max_size=5, n_random=100, seed=seed):
            assert brute_probe_sum(M, mu, probe) <= len(probe) * a * (1 + 1e-12)


# -- certify --------------------------------------------------------------


def test_certify_constant_diagonal():
    H = ConstantHamiltonian(np.diag([0.3, 1.1, 0.7]))
    grid = TimeGrid.uniform(2.0, 21)
    cert = certify(H, 0.8, grid)
    np.testing.assert_allclose(cert.a_mu_samples, np.full(21, 1.1), atol=1e-14)
    assert cert.v_lr == pytest.approx(1.1 / 0.8, abs=1e-12)
    assert cert.a_mu_timeavg <= cert.a_mu_max + 1e-15


def test_certify_example_ramp_closed_form():
    """The ramp's a_mu(t) is the max of two affine functions of t; its exact
    time average follows by integrating the two pieces around the kink."""
    H = build_example_ramp(100.0)
    grid = TimeGrid.uniform(100.0, 1001)
    cert = certify(H, 0.5, grid)

    s = grid.points / 100.0
    level9 = 0.9 + 2 * s * E_HALF
    level10 = 1.0 + s * E_HALF
    analytic_samples = np.maximum(level9, level10)
    np.testing.assert_allclose(cert.a_mu_samples, analytic_samples, atol=1e-12)
    assert cert.a_mu_timeavg == pytest.approx(
        np.trapezoid(analytic_samples, grid.points) / 100.0, abs=1e-9
    )

    s_star = 0.1 / E_HALF  # kink: level 10 hands over to level 9
    exact_avg = 0.9 + E_HALF + 0.1 * s_star - E_HALF * s_star**2 / 2
    # the trapezoid rule crosses the kink inside one grid cell, which caps
    # the achievable agreement near (slope jump) * h^2 / 8 ~ 2e-7
    assert cert.a_mu_timeavg == pytest.approx(exact_avg, abs=5e-7)
    assert cert.a_mu_max == pytest.approx(0.9 + 2 * E_HALF, abs=1e-12)
    assert cert.v_lr == pytest.approx(cert.a_mu_timeavg / 0.5, abs=1e-12)


def test_certify_scaling_homogeneity():
    M = random_exp_local(ExpLocalSpec(9, 1.0, 2.0, seed=8))
    grid = TimeGrid.uniform(1.0, 11)
    base = certify(ConstantHamiltonian(M), 0.7, grid)
    scaled = certify(ConstantHamiltonian(3.0 * M), 0.7, grid)
    assert scaled.a_mu_max == pytest.approx(3.0 * base.a_mu_max, rel=1e-12)
    assert scaled.a_mu_timeavg == pytest.approx(3.0 * base.a_mu_timeavg, rel=1e-12)
    assert scaled.v_lr == pytest.approx(3.0 * base.v_lr, rel=1e-12)


def test_certify_time_independent_flat_samples():
    M = random_exp_local(ExpLocalSpec(7, 1.0, 1.1, seed=12))
    cert = certify(ConstantHamiltonian(M), 0.4, TimeGrid.uniform(3.0, 31))
    assert np.ptp(cert.a_mu_samples) <= 1e-12


def test_certify_samples_match_pointwise_op():
    H = build_example_ramp(10.0)
    grid = TimeGrid.uniform(10.0, 6)
    cert = certify(H, 0.5, grid)
    for k, t in enumerate(grid.points):
        direct = a_mu_pointwise(H.evaluate(t), 0.5)
        assert cert.a_mu_samples[k] == pytest.approx(direct, rel=1e-12)


def test_pointwise_and_certified_loads_share_one_kernel():
    """For constant H every certified sample is the pointwise constant,
    bit for bit."""
    grid = TimeGrid.uniform(1.0, 7)
    for seed in range(5):
        M = random_exp_local(ExpLocalSpec(6 + seed, 1.0, 1.2, seed=seed))
        cert = certify(ConstantHamiltonian(M), 0.4, grid)
        a = a_mu_pointwise(M, 0.4)
        assert np.all(cert.a_mu_samples == a)


def test_constant_load_is_the_batched_load_repeated():
    """certify takes a constant H's load once; it equals the load of the
    evaluated stack at every grid point, in any basis ordering."""
    M = random_exp_local(ExpLocalSpec(10, 1.0, 1.0, seed=0))
    grid = TimeGrid.uniform(2.0, 401)
    swap = np.arange(10)
    swap[[0, 9]] = [9, 0]
    for perm in (np.arange(10), swap):
        H = ConstantHamiltonian(apply_permutation(M, perm))
        batched = _a_mu(_abs_offdiag_and_diag(H.evaluate_batch(grid.points)), 0.5)
        got = certify(H, 0.5, grid).a_mu_samples
        assert got.shape == grid.points.shape
        assert np.array_equal(got, batched)


def test_certificate_json_round_trip_keys():
    """The JSON holds mu, the grid, the a_mu samples and the figures derived
    from them, and nothing else."""
    cert = certify(build_example_ramp(5.0), 0.5, TimeGrid.uniform(5.0, 11))
    payload = cert.to_json_dict()
    assert set(payload) == {
        "mu", "a_mu_max", "a_mu_timeavg", "v_lr", "v_lr_max", "grid", "a_mu"
    }
    assert len(payload["grid"]) == len(payload["a_mu"]) == 11


def test_certificate_needs_a_permutation_and_serializes():
    """A certificate needs mu, the grid and the a_mu samples and no basis
    permutation: one is refused as an unknown field. Its JSON reads back
    unchanged, and a certificate rebuilt from the three fields gives it."""
    grid = TimeGrid.uniform(5.0, 11)
    cert = certify(build_example_ramp(5.0), 0.5, grid)
    with pytest.raises(TypeError, match="basis_permutation"):
        LocalityCertificate(
            mu=cert.mu,
            grid=grid,
            a_mu_samples=cert.a_mu_samples,
            basis_permutation=np.arange(11),
        )
    payload = json.loads(json.dumps(cert.to_json_dict()))
    assert payload == cert.to_json_dict()
    assert payload["a_mu"] == cert.a_mu_samples.tolist()
    rebuilt = LocalityCertificate(cert.mu, grid, cert.a_mu_samples)
    assert rebuilt.to_json_dict() == payload


def test_certificate_derives_its_figures_from_its_samples():
    """A certificate built with other samples carries their figures; twice
    the samples give exactly twice each figure, since doubling is exact in
    binary floating point."""
    grid = TimeGrid.uniform(5.0, 51)
    cert = certify(build_example_ramp(5.0), 0.5, grid)
    doubled = dataclasses.replace(cert, a_mu_samples=2.0 * cert.a_mu_samples)
    assert doubled.a_mu_max == 2.0 * cert.a_mu_max
    assert doubled.a_mu_timeavg == 2.0 * cert.a_mu_timeavg
    assert doubled.v_lr == 2.0 * cert.v_lr
    assert doubled.v_lr_max == 2.0 * cert.v_lr_max
    assert np.array_equal(doubled.growth, 2.0 * cert.growth)
    assert cert.growth[0] == 0.0
    assert cert.growth[-1] == pytest.approx(cert.a_mu_timeavg * 5.0, rel=1e-12)


def test_time_average_is_the_growth_at_t_final():
    """One integral gives the exponent and the average: every certificate's
    a_mu_timeavg is growth(T) / T and its v_lr that over mu, bit for bit,
    whether certified, optimized or replaced."""
    grid = TimeGrid.uniform(12.5, 2001)
    H = build_example_ramp(12.5)
    M = random_exp_local(ExpLocalSpec(12, 1.0, 1.0, seed=1))
    certs = [
        certify(H, 0.5, grid),
        certify(ConstantHamiltonian(M), 0.5, grid),
        optimize_mu_generic(H, grid, (0.05, 5.0))[1],
    ]
    root = np.sqrt(certs[0].a_mu_samples)
    certs.append(dataclasses.replace(certs[0], a_mu_samples=root))
    for cert in certs:
        assert cert.a_mu_timeavg == cert.growth[-1] / grid.t_final
        assert cert.v_lr == cert.a_mu_timeavg / cert.mu


def _random_endpoint(rng, d, complex_entries):
    """A random Hermitian d x d matrix, real or complex, with about a third
    of its off-diagonal pairs zero."""
    A = rng.normal(size=(d, d))
    if complex_entries:
        A = A + 1j * rng.normal(size=(d, d))
    A = A + A.conj().T
    keep = np.triu(rng.random((d, d)) < 0.67, 1)
    return np.where(keep | keep.T | np.eye(d, dtype=bool), A, 0.0)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 8),
    st.integers(2, 15),
    st.floats(0.05, 2.0),
    st.floats(0.1, 50.0),
    st.booleans(),
)
def test_growth_overstates_the_integral_on_linear_ramps(
    seed, d, n, mu, T, complex_entries
):
    """On a linear ramp each |H_ij(t)| is the modulus of an affine function,
    so a_mu is convex in t and its chords lie above it: the growth at T is
    at least its value on a grid 64x finer, and a_mu at each interval's
    midpoint is at most the chord, both to 1e-12 relative."""
    rng = np.random.default_rng(seed)
    H = LinearInterpolationHamiltonian(
        _random_endpoint(rng, d, complex_entries),
        _random_endpoint(rng, d, complex_entries),
        T,
    )
    grid = TimeGrid.uniform(T, n)
    coarse = certify(H, mu, grid).growth[-1]
    fine = certify(H, mu, TimeGrid.uniform(T, 64 * (n - 1) + 1)).growth[-1]
    assert coarse >= fine * (1.0 - 1e-12)
    pts = grid.points
    both = TimeGrid(np.sort(np.concatenate([pts, 0.5 * (pts[1:] + pts[:-1])])))
    a = certify(H, mu, both).a_mu_samples
    chord = 0.5 * (a[:-2:2] + a[2::2])
    assert np.all(a[1::2] <= chord * (1.0 + 1e-12))


def test_certificate_samples_are_a_read_only_copy():
    grid = TimeGrid.uniform(1.0, 11)
    samples = np.ones(11)
    cert = LocalityCertificate(mu=0.5, grid=grid, a_mu_samples=samples)
    samples[0] = 5.0
    assert cert.a_mu_samples[0] == 1.0 and cert.a_mu_max == 1.0
    with pytest.raises(ValueError):
        cert.a_mu_samples[0] = 5.0
    with pytest.raises(ValueError):
        cert.growth[-1] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        cert.a_mu_samples = samples
    with pytest.raises(ValidationError):
        dataclasses.replace(cert, a_mu_samples=np.ones(10))
    with pytest.raises(ValidationError, match="one value per grid point"):
        dataclasses.replace(cert, a_mu_samples=np.ones((11, 1)))


@pytest.mark.parametrize("mu", [0.0, -0.5, np.inf, np.nan])
def test_certify_refuses_a_rate_that_is_not_positive_and_finite(mu):
    """An infinite rate would give a certificate of NaN samples."""
    H = ConstantHamiltonian(np.eye(3))
    with pytest.raises(ValidationError, match="mu must be positive and finite"):
        certify(H, mu, TimeGrid.uniform(1.0, 5))
    with pytest.raises(ValidationError, match="mu must be positive and finite"):
        a_mu_pointwise(H.matrix, mu)
    with pytest.raises(ValidationError, match="mu must be positive and finite"):
        LocalityCertificate(mu, TimeGrid.uniform(1.0, 5), np.ones(5))


def test_certificate_refuses_samples_that_are_not_finite():
    """A NaN or infinite a_mu bounds nothing: its growth and speeds would be
    NaN or inf, and understated could not flag it."""
    grid = TimeGrid.uniform(1.0, 5)
    for bad in (np.nan, np.inf):
        samples = np.ones(5)
        samples[2] = bad
        with pytest.raises(ValidationError, match="a_mu is not finite at mu=0.5"):
            LocalityCertificate(0.5, grid, samples)


def test_a_rate_whose_load_overflows_is_refused_by_name():
    """At mu = 200 a 12-level envelope matrix's e^(mu |i - j|) overflows:
    certify and a_mu_pointwise refuse the rate with no numpy warning."""
    M = random_exp_local(ExpLocalSpec(12, 1.0, 1.0, seed=0))
    grid = TimeGrid.uniform(1.0, 11)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="a_mu is not finite at mu=200.0"):
            certify(ConstantHamiltonian(M), 200.0, grid)
        with pytest.raises(ValidationError, match="a_mu is not finite at mu=200.0"):
            a_mu_pointwise(M, 200.0)
        # the largest weight, e^(mu 11), stays finite just below the edge
        assert np.isfinite(certify(ConstantHamiltonian(M), 64.0, grid).a_mu_max)


def test_understated_flags_a_load_that_overflows():
    """A certificate of a 2-level H at mu = 100 is finite, and so is the load
    of the 12-level identity, but a dense 12-level H's load overflows there:
    every grid point is flagged, with no warning."""
    grid = TimeGrid.uniform(1.0, 6)
    cert = certify(ConstantHamiltonian(np.eye(2)), 100.0, grid)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cert.understated(ConstantHamiltonian(np.eye(12))).tolist() == []
        M = random_exp_local(ExpLocalSpec(12, 1.0, 1.0, seed=0))
        assert cert.understated(ConstantHamiltonian(M)).tolist() == list(range(6))


def test_a_banded_load_is_finite_where_its_own_weights_are():
    """The distance table is clipped at the widest nonzero entry, so a zero
    entry never meets an infinite weight: at mu = 100 the 12-level identity
    loads 1 and a tridiagonal H loads 2 |h| e^100 plus its diagonal, where
    e^(100 * 11) overflows.  Without the clip both read NaN and are refused."""
    grid = TimeGrid.uniform(1.0, 6)
    tri = np.diag(np.full(11, 0.5), 1)
    tri = tri + tri.T + np.diag(np.linspace(0.0, 1.0, 12))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert certify(ConstantHamiltonian(np.eye(12)), 100.0, grid).a_mu_max == 1.0
        assert a_mu_pointwise(tri, 100.0) == pytest.approx(
            brute_a_mu(tri, 100.0), rel=1e-14
        )
        _, _, dist = _abs_offdiag_and_diag(tri[None])
        assert dist.max() == 1


# -- closed forms ----------------------------------------------------------


def test_exp_local_bound_values():
    want = 4.0 / (1.0 - np.exp(-1.0))  # ~6.3279 by direct arithmetic
    assert exp_local_bound(1.0, 2.0, 1.0) == pytest.approx(want, rel=1e-14)
    assert exp_local_bound(1.0, 2.0, 1.0) == pytest.approx(6.32791, abs=1e-4)
    assert exp_local_bound(1.0, 1.0, 1e-12) == pytest.approx(want, rel=1e-9)


def test_exp_local_bound_divergent_regime():
    with pytest.raises(ValidationError, match="divergent regime"):
        exp_local_bound(1.0, 1.0, 1.0)
    with pytest.raises(ValidationError, match="divergent regime"):
        exp_local_bound(1.0, 1.0, 1.5)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: exp_local_bound(0.0, 1.0, 0.5), "h must be positive"),
        (lambda: exp_local_bound(1.0, 1.0, -0.5), "mu must be nonnegative"),
        (lambda: optimal_mu_exp_local(-1.0, 1.0), "h and mu_prime must be positive"),
        (lambda: optimal_mu_exp_local(1.0, 0.0), "h and mu_prime must be positive"),
    ],
    ids=["h=0", "mu<0", "optimal h<0", "optimal mu'=0"],
)
def test_envelope_closed_forms_refuse_bad_parameters(call, message):
    with pytest.raises(ValidationError, match=message):
        call()


def test_exp_local_bound_dominates_actual_loads():
    for seed in range(12):
        mu_p = 1.0 + 0.2 * seed
        M = random_exp_local(ExpLocalSpec(10, 1.0, mu_p, seed=seed))
        for mu in np.linspace(0.05, mu_p * 0.95, 8):
            assert a_mu_pointwise(M, mu) <= exp_local_bound(1.0, mu_p, mu) + 1e-12


def test_optimal_mu_closed_form():
    mu_min, v_min = optimal_mu_exp_local(1.0, 1.0)
    assert mu_min == pytest.approx(bisect_lambert(np.exp(2.0)) - 1.0, abs=1e-10)
    mus = np.linspace(1e-4, 1.0 - 1e-4, 10_000)
    vals = np.array([exp_local_bound(1.0, 1.0, m) / m for m in mus])
    k = int(vals.argmin())
    assert abs(mu_min - mus[k]) <= 1e-4
    assert v_min <= vals[k] + 1e-8


def test_optimal_mu_linear_in_amplitude():
    mu1, v1 = optimal_mu_exp_local(1.0, 1.5)
    mu2, v2 = optimal_mu_exp_local(2.0, 1.5)
    assert mu1 == pytest.approx(mu2, abs=1e-14)
    assert v2 == pytest.approx(2.0 * v1, rel=1e-12)


# -- generic mu optimization ------------------------------------------------


def test_optimizer_below_envelope_optimum():
    """Actual entries sit inside the envelope, so the generic optimum can
    only undercut the closed-form envelope speed."""
    for seed in (0, 1, 2):
        mu_p = 1.5
        M = random_exp_local(ExpLocalSpec(10, 1.0, mu_p, seed=seed))
        H = ConstantHamiltonian(M)
        grid = TimeGrid.uniform(1.0, 11)
        _, v_env = optimal_mu_exp_local(1.0, mu_p)
        _, cert = optimize_mu_generic(H, grid, (0.05, mu_p * 0.999))
        assert cert.v_lr <= v_env * (1 + 1e-9)


class SameMatrixAtEveryTime(TimeDependentHamiltonian):
    """Constant in value only: the library evaluates it on the grid like
    any time-dependent H."""

    def __init__(self, M):
        self.matrix = np.array(M, dtype=complex)
        self.dimension = self.matrix.shape[0]

    def evaluate(self, t):
        return self.matrix.copy()


def test_constant_optimizer_matches_the_grid_path():
    """A ConstantHamiltonian's single-matrix load stack gives the same mu and
    the same certificate samples as the evaluated grid stack."""
    grid = TimeGrid.uniform(2.0, 201)
    for seed, n, mu_prime in (ensemble_params(5)[0], ensemble_params(5)[4]):
        M = random_exp_local(ExpLocalSpec(n, 1.0, mu_prime, seed=seed))
        mu_range = (0.05, 0.999 * mu_prime)
        mu, cert = optimize_mu_generic(ConstantHamiltonian(M), grid, mu_range)
        mu_o, cert_o = optimize_mu_generic(SameMatrixAtEveryTime(M), grid, mu_range)
        assert mu == mu_o
        assert np.array_equal(cert.a_mu_samples, cert_o.a_mu_samples)


def test_optimizer_evaluates_h_on_the_grid_once(monkeypatch):
    """The search and the returned certificate read one evaluated stack;
    that certificate is certify's at the chosen mu."""
    H = build_example_ramp(12.5)
    grid = TimeGrid.uniform(12.5, 401)
    calls = []
    evaluate_batch = type(H).evaluate_batch

    def counting(self, ts):
        calls.append(len(ts))
        return evaluate_batch(self, ts)

    monkeypatch.setattr(type(H), "evaluate_batch", counting)
    mu, cert = optimize_mu_generic(H, grid, (0.05, 5.0))
    assert calls == [401]
    monkeypatch.undo()
    expected = certify(H, mu, grid)
    assert cert.to_json_dict() == expected.to_json_dict()


def test_scan_matches_one_rate_at_a_time():
    """The one-pass bracketing scan gives certify's v_lr at every scan rate
    to 1e-13 relative (the sums run in another order), for the ramp's grid
    stack and for a constant H's one-matrix stack."""
    mus = np.linspace(0.05, 5.0, 100)
    grid = TimeGrid.uniform(12.5, 301)
    M = random_exp_local(ExpLocalSpec(9, 1.0, 1.0, seed=4))
    for H in (build_example_ramp(12.5), ConstantHamiltonian(M)):
        got = _scan_v_lr(_abs_stack(H, grid), mus, grid)
        want = [certify(H, mu, grid).v_lr for mu in mus]
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


def test_optimizer_unimodal_on_example_ramp():
    H = build_example_ramp(10.0)
    grid = TimeGrid.uniform(10.0, 101)
    mus = np.linspace(0.05, 5.0, 100)
    vals = []
    for mu in mus:
        vals.append(certify(H, mu, grid).v_lr)
    slopes = np.sign(np.diff(vals))
    nz = slopes[slopes != 0]
    n_minima = int(np.sum((nz[:-1] < 0) & (nz[1:] > 0)))
    assert n_minima <= 1
    mu_opt, cert = optimize_mu_generic(H, grid, (0.05, 5.0))
    assert cert.v_lr <= min(vals) + 1e-6


@settings(max_examples=50, deadline=None)
@given(
    st.integers(0, 2**32 - 2),
    st.integers(2, 9),
    st.floats(0.2, 3.0),
    st.floats(0.1, 20.0),
)
def test_v_lr_has_at_most_one_local_minimum(seed, n, mu_prime, T):
    """v_lr(mu) = f(mu) / mu with f convex and non-negative has a single
    minimum, which optimize_mu_generic relies on: over random envelope
    matrices, basis orders and linear ramps between two of them, 100 values
    on [0.05, 5] have at most one strict local minimum."""
    perm = np.random.default_rng(seed).permutation(n)
    H = LinearInterpolationHamiltonian(
        apply_permutation(
            random_exp_local(ExpLocalSpec(n, 1.0, mu_prime, seed=seed)), perm
        ),
        apply_permutation(
            random_exp_local(ExpLocalSpec(n, 1.0, mu_prime, seed=seed + 1)), perm
        ),
        T,
    )
    grid = TimeGrid.uniform(T, 11)
    vals = np.array(
        [certify(H, mu, grid).v_lr for mu in np.linspace(0.05, 5.0, 100)]
    )
    inner = vals[1:-1]
    assert np.sum((inner < vals[:-2]) & (inner < vals[2:])) <= 1


def test_optimizer_monotone_case_returns_hi():
    H = ConstantHamiltonian(np.diag([0.3, 0.7, 1.1]))
    mu_opt, cert = optimize_mu_generic(H, TimeGrid.uniform(1.0, 11), (0.5, 2.0))
    assert mu_opt == pytest.approx(2.0, rel=1e-4)
    assert cert.v_lr == pytest.approx(1.1 / mu_opt, rel=1e-9)


@pytest.mark.parametrize("k", [8, 12])
def test_optimizer_stops_at_a_relative_width_below_1(k):
    """One coupling h at distance k loads its two levels with 2h e^(k mu), so
    v_lr = 2h e^(k mu) / mu is least at mu = 1/k.  The golden section stops
    when its bracket is narrower than _GOLDEN_RTOL = 1e-6 of its upper end,
    so the midpoint it returns lies within 5e-7 of 1/k, relative; a width of
    1e-6 absolute leaves 1.9e-6 relative at these rates."""
    M = np.zeros((k + 1, k + 1))
    M[0, k] = M[k, 0] = 0.25
    grid = TimeGrid.uniform(1.0, 11)
    mu, _ = optimize_mu_generic(ConstantHamiltonian(M), grid, (0.05, 5.0))
    assert abs(mu * k - 1.0) <= 5e-7


def test_optimizer_nonfinite_range_raises():
    M = random_exp_local(ExpLocalSpec(32, 1.0, 1.0, seed=0))
    with pytest.raises(NumericalError):
        optimize_mu_generic(
            ConstantHamiltonian(M), TimeGrid.uniform(1.0, 3), (1.0, 500.0)
        )


def test_optimizer_range_validation():
    H = ConstantHamiltonian(np.eye(3))
    with pytest.raises(ValidationError):
        optimize_mu_generic(H, TimeGrid.uniform(1.0, 3), (0.0, 1.0))
    with pytest.raises(ValidationError):
        optimize_mu_generic(H, TimeGrid.uniform(1.0, 3), (2.0, 1.0))


def test_optimizer_refuses_an_infinite_upper_rate_by_name():
    """An infinite hi is refused before the scan, with no numpy warning."""
    H = ConstantHamiltonian(random_exp_local(ExpLocalSpec(6, 1.0, 1.0, seed=0)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        message = r"need 0 < lo < hi < inf, got \(0.1, inf\)"
        with pytest.raises(ValidationError, match=message):
            optimize_mu_generic(H, TimeGrid.uniform(1.0, 11), (0.1, np.inf))
