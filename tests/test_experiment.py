import json
import warnings

import numpy as np
import pytest

from lrlab.adiabatic import spectral_flow
from lrlab.errors import InsufficientCrossingsError, ValidationError
from lrlab.experiment import (
    ExperimentConfig,
    empirical_v_lr,
    parse_complex_matrix,
    run_fig1,
)
from lrlab.models import ConstantHamiltonian, build_example_ramp
from lrlab.numerics import TimeGrid
from lrlab.propagation import evolve_on_grid


# -- config ---------------------------------------------------------------


def test_config_defaults():
    cfg = ExperimentConfig()
    assert cfg.threshold == 6e-4
    assert cfg.grid_points == 2001
    assert cfg.integrator_tol == 1e-9
    assert cfg.T_values == (12.5, 25.0, 50.0, 100.0, 200.0, 400.0)


def test_config_validation():
    with pytest.raises(ValidationError):
        ExperimentConfig(T_values=())
    with pytest.raises(ValidationError):
        ExperimentConfig(T_values=(1.0, -2.0))
    with pytest.raises(ValidationError):
        ExperimentConfig(threshold=0.0)
    with pytest.raises(ValidationError):
        ExperimentConfig(threshold=1.5)
    with pytest.raises(ValidationError):
        ExperimentConfig(grid_points=1)
    with pytest.raises(ValidationError):
        ExperimentConfig(integrator_tol=0.0)
    with pytest.raises(ValidationError):
        ExperimentConfig.from_dict({"bogus_field": 1})


def test_config_from_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(
        json.dumps(
            {
                "hamiltonian": "paper_example",
                "T_values": [5.0, 10.0],
                "threshold": 1e-3,
                "grid_points": 101,
            }
        )
    )
    cfg = ExperimentConfig.from_file(path)
    assert cfg.T_values == (5.0, 10.0)
    assert cfg.threshold == 1e-3
    with pytest.raises(ValidationError):
        ExperimentConfig.from_file(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("not json {")
    with pytest.raises(ValidationError):
        ExperimentConfig.from_file(bad)


def test_parse_complex_matrix():
    M = parse_complex_matrix([[[1.0, 0.0], [0.0, -1.0]], [[0.0, 1.0], [2.0, 0.0]]])
    np.testing.assert_allclose(M, np.array([[1.0, -1j], [1j, 2.0]]))
    with pytest.raises(ValidationError):
        parse_complex_matrix([[1.0, 2.0]])
    with pytest.raises(ValidationError):
        parse_complex_matrix([[[1.0, 0.0]], [[0.0, 0.0]], [[0.0, 0.0]]])


def test_build_hamiltonian_variants():
    cfg = ExperimentConfig()
    H = cfg.build_hamiltonian(7.0)
    assert H.dimension == 11
    diag = [[[0.1, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.9, 0.0]]]
    inline = ExperimentConfig(hamiltonian={"h_i": diag, "h_f": diag}, T_values=(1.0,))
    assert inline.build_hamiltonian(1.0).dimension == 2
    const = ExperimentConfig(hamiltonian={"constant": diag}, T_values=(1.0,))
    assert const.build_hamiltonian(1.0).dimension == 2
    with pytest.raises(ValidationError):
        ExperimentConfig(hamiltonian="nope").build_hamiltonian(1.0)
    with pytest.raises(ValidationError):
        ExperimentConfig(hamiltonian={"x": 1}).build_hamiltonian(1.0)


# -- empirical speed --------------------------------------------------------


def crossing_speed(H, T, grid, tol, fixed_basis=False):
    """empirical_v_lr at threshold 6e-4 on a fresh flow and propagator."""
    flow = spectral_flow(H, grid)
    prop = evolve_on_grid(H, grid, tol)
    return empirical_v_lr(
        H, T, 6e-4, grid, fixed_basis=fixed_basis, flow=flow, propagator=prop
    )


def test_constant_diagonal_never_crosses():
    H = ConstantHamiltonian(np.diag([0.0, 0.1, 0.2, 0.3]))
    grid = TimeGrid.uniform(5.0, 101)
    with pytest.raises(InsufficientCrossingsError) as err:
        crossing_speed(H, 5.0, grid, 1e-9)
    assert err.value.crossings == {}


def test_crossing_times_monotone_in_level():
    T = 25.0
    H = build_example_ramp(T)
    grid = TimeGrid.uniform(T, 801)
    emp = crossing_speed(H, T, grid, 1e-8)
    ks = sorted(emp.crossing_times)
    times = [emp.crossing_times[k] for k in ks]
    assert all(a < b for a, b in zip(times, times[1:]))
    assert emp.v_lr > 0
    assert all(speed > 0 for _, _, speed in emp.pairwise_speeds)


def test_crossing_interpolation_consistency():
    """Re-derive the amplitude at the reported crossing time under the local
    linear model; it must sit at the threshold."""
    T = 25.0
    threshold = 6e-4
    H = build_example_ramp(T)
    grid = TimeGrid.uniform(T, 801)
    flow = spectral_flow(H, grid)
    prop = evolve_on_grid(H, grid, 1e-8)
    emp = empirical_v_lr(H, T, threshold, grid, flow=flow, propagator=prop)
    states = prop.unitaries @ flow.basis[0][:, 0]
    amps = np.abs(np.einsum("tji,tj->ti", flow.basis.conj(), states))
    for k, t_k in emp.crossing_times.items():
        j = int(np.searchsorted(grid.points, t_k))
        j = max(1, min(j, len(grid) - 1))
        t0, t1 = grid.points[j - 1], grid.points[j]
        a0, a1 = amps[j - 1, k], amps[j, k]
        interp = a0 + (a1 - a0) * (t_k - t0) / (t1 - t0)
        assert interp == pytest.approx(threshold, abs=1e-6)


def test_speed_decreases_with_total_time():
    speeds = {}
    for T in (12.5, 25.0):
        H = build_example_ramp(T)
        grid = TimeGrid.uniform(T, 801)
        speeds[T] = crossing_speed(H, T, grid, 1e-8).v_lr
    assert speeds[25.0] < speeds[12.5]


def test_fixed_basis_variant_differs():
    T = 12.5
    H = build_example_ramp(T)
    grid = TimeGrid.uniform(T, 801)
    moving = crossing_speed(H, T, grid, 1e-8)
    fixed = crossing_speed(H, T, grid, 1e-8, fixed_basis=True)
    assert moving.v_lr != fixed.v_lr


def test_empirical_speed_refuses_misaligned_grids():
    """The propagator's grid and the grid argument must both be the flow's:
    read against other points, the crossings would give a wrong speed."""
    T = 25.0
    H = build_example_ramp(T)
    grid = TimeGrid.uniform(T, 501)
    flow = spectral_flow(H, grid)
    prop = evolve_on_grid(H, grid, 1e-9)
    emp = empirical_v_lr(H, T, 6e-4, grid, flow=flow, propagator=prop)
    assert emp.v_lr == pytest.approx(0.5435, abs=1e-4)
    warped = TimeGrid(T * np.linspace(0.0, 1.0, 501) ** 2)
    with pytest.raises(ValidationError, match="align"):
        empirical_v_lr(
            H, T, 6e-4, grid, flow=flow, propagator=evolve_on_grid(H, warped, 1e-9)
        )
    with pytest.raises(ValidationError, match="align"):
        empirical_v_lr(
            H, T, 6e-4, TimeGrid.uniform(2 * T, 501), flow=flow, propagator=prop
        )


# -- fig1 pipeline ------------------------------------------------------------


@pytest.fixture(scope="module")
def small_cfg(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig1")
    return ExperimentConfig(
        T_values=(4.0, 8.0),
        grid_points=301,
        integrator_tol=1e-7,
        output_dir=str(out),
    )


def test_run_fig1_outputs(small_cfg):
    records, failures, paths = run_fig1(small_cfg)
    assert failures == {}
    assert [r.T for r in records] == [4.0, 8.0]
    names = {p.name for p in paths}
    assert "fig1.csv" in names
    assert "fig1_dad_vs_vlr.svg" in names
    assert "fig1_vlr_vs_T.svg" in names
    assert "fig1_run_T4.json" in names
    assert "fig1_run_T8.json" in names
    csv_lines = (
        [p for p in paths if p.name == "fig1.csv"][0].read_text().splitlines()
    )
    assert csv_lines[0] == "T,v_lr,delta_ad,gap_min,h_norm_min,h_norm_max"
    assert len(csv_lines) == 3
    first = dict(zip(csv_lines[0].split(","), csv_lines[1].split(",")))
    assert float(first["T"]) == 4.0
    assert 0.0 <= float(first["delta_ad"]) <= 1.0
    run_payload = json.loads(
        [p for p in paths if p.name == "fig1_run_T4.json"][0].read_text()
    )
    assert run_payload["T"] == 4.0
    assert run_payload["pairwise_speeds"]


def test_run_fig1_deterministic_bytes(tmp_path):
    blobs = []
    for sub in ("a", "b"):
        cfg = ExperimentConfig(
            T_values=(4.0, 8.0),
            grid_points=301,
            integrator_tol=1e-7,
            output_dir=str(tmp_path / sub),
        )
        _, _, paths = run_fig1(cfg)
        blob = {
            p.name: p.read_bytes() for p in paths
        }
        blobs.append(blob)
    assert blobs[0].keys() == blobs[1].keys()
    for name in blobs[0]:
        assert blobs[0][name] == blobs[1][name], f"{name} not reproducible"


def test_run_fig1_records_failures_and_continues(tmp_path):
    # constant diagonal: no level ever crosses, every T fails but the sweep
    # still returns and writes the error records
    diag = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]
    cfg = ExperimentConfig(
        hamiltonian={"constant": diag},
        T_values=(1.0, 2.0),
        grid_points=51,
        integrator_tol=1e-7,
        output_dir=str(tmp_path),
    )
    records, failures, paths = run_fig1(cfg)
    assert records == []
    assert set(failures) == {1.0, 2.0}
    assert all("InsufficientCrossings" in msg for msg in failures.values())
    err_payload = json.loads((tmp_path / "fig1_run_T1.json").read_text())
    assert "error" in err_payload


def test_user_ramp_gets_no_bundled_model_warnings(tmp_path):
    # a ladder of spacing 0.05 under a 0.5 hopping ramp: its gap and norm
    # lie outside the bundled model's sanity ranges, which do not apply
    d = 11
    h_i = 0.05 * np.diag(np.arange(d)).astype(complex)
    h_f = h_i + 0.5 * (np.eye(d, k=1) + np.eye(d, k=-1))

    def pairs(M):
        return np.stack([M.real, M.imag], axis=-1).tolist()

    cfg = ExperimentConfig(
        hamiltonian={"h_i": pairs(h_i), "h_f": pairs(h_f)},
        T_values=(4.0, 8.0),
        grid_points=301,
        integrator_tol=1e-7,
        output_dir=str(tmp_path),
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        records, failures, _ = run_fig1(cfg)
    assert failures == {}
    assert [r.T for r in records] == [4.0, 8.0]
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert all(r.warnings == [] for r in records)
    payload = json.loads((tmp_path / "fig1_run_T4.json").read_text())
    assert payload["warnings"] == []
