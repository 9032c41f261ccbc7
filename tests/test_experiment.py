import dataclasses
import json
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrlab.adiabatic import CLUSTER_TOL, spectral_flow
from lrlab import experiment
from lrlab.cli import main
from lrlab.errors import InsufficientCrossingsError, ValidationError
from lrlab.experiment import (
    ExperimentConfig,
    _first_crossings,
    _pairwise_speeds,
    _worker_count,
    empirical_v_lr,
    parse_complex_matrix,
    read_config,
    run_fig1,
)
from lrlab.models import (
    ConstantHamiltonian,
    LinearInterpolationHamiltonian,
    build_example_ramp,
)
from lrlab.numerics import TimeGrid
from lrlab.propagation import evolve_on_grid

from _oracles import crossing_amplitudes, crossings_by_level


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
        ExperimentConfig(mu=0.0)
    with pytest.raises(ValidationError):
        ExperimentConfig.from_dict({"bogus_field": 1})


def test_config_from_file(tmp_path):
    """A config file is read by read_config and checked by from_dict, as
    the CLI layers it; each refusal names what is wrong."""
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
    cfg = ExperimentConfig.from_dict(read_config(path))
    assert cfg.T_values == (5.0, 10.0)
    assert cfg.threshold == 1e-3
    with pytest.raises(ValidationError, match="cannot read config"):
        read_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("not json {")
    with pytest.raises(ValidationError, match="not valid JSON"):
        read_config(bad)
    bad.write_text("[1, 2]")
    with pytest.raises(ValidationError, match="JSON object"):
        read_config(bad)
    bad.write_text(json.dumps({"grid_points": 101, "bogus_field": 1}))
    with pytest.raises(ValidationError, match="bogus_field"):
        ExperimentConfig.from_dict(read_config(bad))


# a field of the wrong type in a config file, and the field the refusal names
WRONG_TYPES = [
    ("fixed_basis", "no"),
    ("grid_points", 201.7),
    ("threshold", "x"),
    ("T_values", 5),
    ("grid_points", "201"),
    ("mu", "a"),
    ("integrator_tol", None),
    ("mu", float("inf")),
    ("mu", float("nan")),
    ("T_values", [12.5, float("inf")]),
    ("integrator_tol", float("inf")),
    ("threshold", float("nan")),
    # two total times that would write one fig1_run_T12.5.json
    ("T_values", [12.5, 12.5000001]),
    ("T_values", [25.0, 12.5, 25.0]),
]


@pytest.mark.parametrize("field, value", WRONG_TYPES)
def test_config_refuses_a_field_of_the_wrong_type(field, value):
    """A string is not read as true, a fraction is not cut to an integer,
    and no wrong type ends in a TypeError: each is refused by name."""
    with pytest.raises(ValidationError, match=field):
        ExperimentConfig.from_dict({field: value})


@pytest.mark.parametrize("field, value", WRONG_TYPES)
def test_cli_refuses_a_config_field_of_the_wrong_type(field, value, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({field: value}))
    assert main(["locality", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err


def test_config_accepts_numpy_scalars():
    cfg = ExperimentConfig(
        T_values=np.array([5.0, 10.0]),
        threshold=np.float32(0.25),
        mu=np.float64(0.5),
        grid_points=np.int64(101),
        integrator_tol=np.float64(1e-8),
        fixed_basis=np.bool_(True),
    )
    assert cfg.T_values == (5.0, 10.0)
    assert (cfg.threshold, cfg.mu, cfg.integrator_tol) == (0.25, 0.5, 1e-8)
    assert cfg.grid_points == 101 and cfg.fixed_basis


def test_parse_complex_matrix():
    M = parse_complex_matrix([[[1.0, 0.0], [0.0, -1.0]], [[0.0, 1.0], [2.0, 0.0]]])
    np.testing.assert_allclose(M, np.array([[1.0, -1j], [1j, 2.0]]))
    with pytest.raises(ValidationError):
        parse_complex_matrix([[1.0, 2.0]])
    with pytest.raises(ValidationError):
        parse_complex_matrix([[[1.0, 0.0]], [[0.0, 0.0]], [[0.0, 0.0]]])
    with pytest.raises(ValidationError, match="malformed"):
        parse_complex_matrix([[[1.0, 0.0], [0.0]], [[0.0, 0.0], [1.0, 0.0]]])
    with pytest.raises(ValidationError, match="malformed"):
        parse_complex_matrix([[["one", 0.0]]])


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
    message = r"only 0 level\(s\) crossed the threshold 0.0006 within \[0, 5.0\]"
    with pytest.raises(InsufficientCrossingsError, match=message):
        crossing_speed(H, 5.0, grid, 1e-9)


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
    amps = crossing_amplitudes(flow, prop.unitaries)
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


def test_empirical_speed_refuses_levels_within_cluster_tol():
    """Levels 1e-10 apart are one level to the flow (CLUSTER_TOL 1e-8), and
    their per-level amplitudes depend on the basis eigh picks inside it."""
    H = ConstantHamiltonian(np.diag([0.0, 1.0, 1.0 + 1e-10]))
    grid = TimeGrid.uniform(1.0, 11)
    flow = spectral_flow(H, grid)
    assert CLUSTER_TOL > 1e-10
    prop = evolve_on_grid(H, grid)
    with pytest.raises(ValidationError, match="degenerate"):
        empirical_v_lr(H, 1.0, 1e-3, grid, flow=flow, propagator=prop)


def test_a_level_above_threshold_at_the_start_crosses_at_the_first_point():
    amps = np.array([[1.0, 0.5, 0.0], [0.9, 0.6, 0.2]])
    ks, ts = _first_crossings(amps[:, 1:], np.array([0.0, 2.0]), 0.1)
    assert ks.tolist() == [1, 2]
    assert ts[0] == 0.0
    assert ts[1] == pytest.approx(1.0, abs=1e-15)


# a few exact values, so that columns repeat, levels tie, and an amplitude
# can sit at the threshold; and any value in [0, 1]
_AMPLITUDE = st.one_of(st.sampled_from([0.0, 0.2, 0.5, 0.9]), st.floats(0.0, 1.0))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_crossings_and_pairwise_speeds_match_a_per_level_loop(data):
    """The array read-out gives the loop's levels, times and pairwise speeds
    bit for bit: on tables whose levels cross at the first point, cross
    later, never cross, or share a column and so a crossing time."""
    n_points = data.draw(st.integers(2, 6))
    column = st.lists(_AMPLITUDE, min_size=n_points, max_size=n_points)
    columns = data.draw(st.lists(column, min_size=1, max_size=3))
    picks = st.integers(0, len(columns) - 1)
    levels = data.draw(st.lists(picks, min_size=1, max_size=7))
    amps = np.array([columns[i] for i in levels]).T
    step = st.sampled_from([0.5, 1.0, 2.5])
    steps = data.draw(st.lists(step, min_size=n_points - 1, max_size=n_points - 1))
    pts = np.concatenate([[0.0], np.cumsum(steps)])
    thresholds = st.one_of(st.sampled_from([0.2, 0.5]), st.floats(0.01, 0.99))
    threshold = data.draw(thresholds)

    crossings, speeds = crossings_by_level(amps, pts, threshold)
    ks, ts = _first_crossings(amps[:, 1:], pts, threshold)
    assert ks.tolist() == list(crossings)
    assert [t.hex() for t in ts.tolist()] == [t.hex() for t in crossings.values()]
    got = _pairwise_speeds(ks, ts)
    assert [(a, b, v.hex()) for a, b, v in got] == [
        (a, b, v.hex()) for a, b, v in speeds
    ]


def test_empirical_speed_refuses_a_non_positive_threshold():
    H = ConstantHamiltonian(np.diag([0.0, 0.1, 0.2]))
    grid = TimeGrid.uniform(1.0, 11)
    flow, prop = spectral_flow(H, grid), evolve_on_grid(H, grid)
    with pytest.raises(ValidationError, match=r"must be a number in \(0, 1\), got 0.0"):
        empirical_v_lr(H, 1.0, 0.0, grid, flow=flow, propagator=prop)


@pytest.mark.parametrize("threshold", [float("nan"), float("inf"), 1.0, 1.5])
def test_empirical_speed_refuses_a_threshold_outside_0_1(threshold):
    """Refused by name, as the config refuses it, and not read as a sweep
    in which no level crossed."""
    H = ConstantHamiltonian(np.diag([0.0, 0.1, 0.2]))
    grid = TimeGrid.uniform(1.0, 11)
    flow, prop = spectral_flow(H, grid), evolve_on_grid(H, grid)
    message = rf"threshold must be a number in \(0, 1\), got {threshold!r}"
    with pytest.raises(ValidationError, match=message):
        empirical_v_lr(H, 1.0, threshold, grid, flow=flow, propagator=prop)


def test_empirical_speed_needs_two_distinct_crossing_times(monkeypatch):
    """Crossings that all fall at one time fit no slope."""
    H = ConstantHamiltonian(np.diag([0.0, 0.1, 0.2]))
    grid = TimeGrid.uniform(1.0, 11)
    flow, prop = spectral_flow(H, grid), evolve_on_grid(H, grid)
    tied = (np.array([1, 2]), np.array([0.5, 0.5]))
    monkeypatch.setattr(experiment, "_first_crossings", lambda *a: tied)
    with pytest.raises(InsufficientCrossingsError, match="crossing times coincide"):
        empirical_v_lr(H, 1.0, 0.1, grid, flow=flow, propagator=prop)


def phased_ramp(T):
    """The bundled ramp conjugated by diag(e^(ik)): the same spectrum and
    crossings, with complex frames."""
    H = build_example_ramp(T)
    D = np.exp(1j * np.arange(H.dimension))
    turn = D[:, None] * D.conj()
    return LinearInterpolationHamiltonian(turn * H.h_initial, turn * H.h_final, T)


@pytest.mark.parametrize("fixed_basis", [False, True], ids=["moving", "fixed"])
@pytest.mark.parametrize(
    "ramp", [build_example_ramp, phased_ramp], ids=["real", "complex"]
)
def test_crossing_amplitudes_match_the_einsum_form(ramp, fixed_basis, monkeypatch):
    """What empirical_v_lr hands to _first_crossings are the excited
    levels' amplitudes of the evolved state and the frames, in either
    basis, for real and for complex frames."""
    T = 12.5
    H = ramp(T)
    grid = TimeGrid.uniform(T, 401)
    flow, prop = spectral_flow(H, grid), evolve_on_grid(H, grid, 1e-8)
    assert np.iscomplexobj(flow.basis) == (ramp is phased_ramp)
    seen = []

    def first_crossings(amps, *args):
        seen.append(amps)
        return _first_crossings(amps, *args)

    monkeypatch.setattr(experiment, "_first_crossings", first_crossings)
    empirical_v_lr(H, T, 6e-4, grid, fixed_basis, flow=flow, propagator=prop)
    expected = crossing_amplitudes(flow, prop.unitaries, fixed_basis)[:, 1:]
    np.testing.assert_allclose(seen[0], expected, rtol=0, atol=1e-15)


def ladder_ramp(d, T):
    """The bundled ramp's construction at d levels: a diagonal from 0 to 1
    in equal steps, and a nearest-neighbour hopping of 1/2 switched on."""
    h_i = np.diag(np.linspace(0.0, 1.0, d))
    k = np.arange(d - 1)
    h_f = h_i.copy()
    h_f[k, k + 1] = h_f[k + 1, k] = 0.5
    return LinearInterpolationHamiltonian(h_i, h_f, T)


def test_crossing_read_out_reads_the_frames_in_place():
    """The read-out allocates under a quarter of one frame set: no copy of
    the real frames, and no complex cast of them."""
    T = 12.5
    H = ladder_ramp(32, T)
    grid = TimeGrid.uniform(T, 501)
    flow, prop = spectral_flow(H, grid), evolve_on_grid(H, grid, 1e-8)
    assert flow.basis.dtype == float
    tracemalloc.start()
    try:
        emp = empirical_v_lr(H, T, 6e-4, grid, flow=flow, propagator=prop)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(emp.crossing_times) >= 2
    assert peak < flow.basis.nbytes / 4


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


def test_run_fig1_removes_an_earlier_sweeps_artefacts(tmp_path):
    """A one-point sweep into the directory of a three-point one leaves only
    its own fig1 artefacts: the other per-run JSON files and the SVGs go
    (a sweep of fewer than two records draws none), and any other file
    stays."""
    out = tmp_path / "d"
    out.mkdir()
    (out / "notes.txt").write_text("kept")
    (out / "fig1_notes.svg").write_text("kept")
    cfg = ExperimentConfig(
        T_values=(12.5, 25.0, 50.0),
        grid_points=201,
        integrator_tol=1e-7,
        output_dir=str(out),
    )
    _, _, first = run_fig1(cfg)
    assert {p.name for p in first} <= {p.name for p in out.iterdir()}
    _, _, second = run_fig1(dataclasses.replace(cfg, T_values=(12.5,)))
    assert {p.name for p in second} == {"fig1.csv", "fig1_run_T12.5.json"}
    assert {p.name for p in out.iterdir()} == {
        "fig1.csv",
        "fig1_run_T12.5.json",
        "notes.txt",
        "fig1_notes.svg",
    }


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


def test_worker_count_reads_lrlab_threads(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("LRLAB_THREADS", "1")
    assert _worker_count(6) == 1
    monkeypatch.delenv("LRLAB_THREADS")
    assert _worker_count(6) == min(6, os.cpu_count() or 1)
    monkeypatch.setenv("LRLAB_THREADS", "x")
    with pytest.raises(ValidationError, match="LRLAB_THREADS"):
        _worker_count(6)
    out = tmp_path / "fig1"
    argv = ["fig1", "--T", "4", "--grid", "301", "--out", str(out)]
    assert main(argv) == 1
    assert "LRLAB_THREADS" in capsys.readouterr().err
    assert not out.exists()
