import argparse
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import lrlab
from lrlab import cli
from lrlab.cli import _build_parser, main
from lrlab.propagation import evolve_on_grid


@pytest.fixture()
def small_cfg_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(
        json.dumps(
            {
                "hamiltonian": "paper_example",
                "T_values": [6.0],
                "grid_points": 201,
                "integrator_tol": 1e-7,
                "output_dir": str(tmp_path / "out"),
            }
        )
    )
    return path


def test_no_command_is_usage_error(capsys):
    assert main([]) == 1


def test_unknown_command_is_usage_error():
    assert main(["frobnicate"]) == 1


def test_help_exits_zero():
    assert main(["--help"]) == 0


def test_decompose(small_cfg_file, capsys):
    assert main(["decompose", "--config", str(small_cfg_file)]) == 0
    out = capsys.readouterr().out
    assert "dimension 11" in out
    assert "bandwidth: 1" in out


def test_decompose_stdout_default(capsys):
    """The bundled ramp at t = 0 is diagonal with H_00 = 0, so it has 10
    singletons; at T it gains 10 nearest-neighbour pairs."""
    assert main(["decompose"]) == 0
    assert capsys.readouterr().out == (
        "[t = 0] dimension 11\n"
        "  terms: 10 (10 singletons, 0 pairs)\n"
        "  max term norm: 1\n"
        "  bandwidth: 0\n"
        "[t = T = 12.5] dimension 11\n"
        "  terms: 20 (10 singletons, 10 pairs)\n"
        "  max term norm: 1\n"
        "  bandwidth: 1\n"
    )


def _complex_entries(H):
    return [[[z.real, z.imag] for z in row] for row in np.asarray(H, dtype=complex)]


def test_decompose_stdout_inline_complex(tmp_path, capsys):
    """A zero diagonal entry gives no singleton and an entry at or below
    STRUCTURAL_ZERO no pair; the largest term may be a complex coupling,
    whose norm is its modulus."""
    h_i = np.array(
        [
            [0.0, 0.3 + 0.45j, 0.0, 0.25j],
            [0.3 - 0.45j, 0.2, 1e-15, 0.0],
            [0.0, 1e-15, -0.4, -0.35],
            [-0.25j, 0.0, -0.35, 0.45],
        ]
    )
    h_f = np.array(
        [
            [0.0, 0.0, 0.5 + 0.5j, 0.0],
            [0.0, 0.0, 0.0, 0.7 - 0.6j],
            [0.5 - 0.5j, 0.0, 0.9, 3e-15j],
            [0.0, 0.7 + 0.6j, -3e-15j, -0.2],
        ]
    )
    cfg = tmp_path / "inline.json"
    spec = {"h_i": _complex_entries(h_i), "h_f": _complex_entries(h_f)}
    cfg.write_text(json.dumps({"hamiltonian": spec, "T_values": [3.0]}))
    assert main(["decompose", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out == (
        "[t = 0] dimension 4\n"
        "  terms: 6 (3 singletons, 3 pairs)\n"
        "  max term norm: 0.540833\n"
        "  bandwidth: 3\n"
        "[t = T = 3] dimension 4\n"
        "  terms: 4 (2 singletons, 2 pairs)\n"
        "  max term norm: 0.921954\n"
        "  bandwidth: 2\n"
    )


def test_bound_check_refuses_a_rate_whose_load_overflows(capsys):
    """At mu = 800 the bundled ramp's load 2 |h| e^mu overflows, so no bound
    can be audited: bound-check exits 1 with an error line that names the
    rate."""
    argv = ["bound-check", "--supp-a", "0", "--supp-b", "5", "--mu", "800"]
    assert main(argv + ["--grid", "101"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: a_mu is not finite at mu=800.0\n"


def test_bound_check_at_a_rate_whose_bound_leaves_the_float_range(capsys):
    """At mu = 200 the ramp's load is finite, since it couples neighbours
    only, but its bound overflows for t > 0: the audit passes with an
    infinite margin and no numpy warning."""
    argv = ["bound-check", "--supp-a", "0", "--supp-b", "5", "--mu", "200"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ["--grid", "101"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["violations"] == 0
    assert summary["min_margin"] == np.inf


def test_bound_check_where_only_the_growth_overflows_runs_under_w_error():
    """At mu = 100, e^(-mu d) stays finite while e^growth passes the float
    range: a `python -W error` process passes with an infinite margin and
    writes nothing to stderr."""
    src = str(Path(lrlab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = ["bound-check", "--supp-a", "0", "--supp-b", "5", "--mu", "100"]
    done = subprocess.run(
        [sys.executable, "-W", "error", "-m", "lrlab.cli", *argv, "--grid", "101"],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert (done.returncode, done.stderr) == (0, "")
    summary = json.loads(done.stdout)
    assert (summary["violations"], summary["min_margin"]) == (0, np.inf)


def test_locality_with_mu(small_cfg_file, capsys):
    code = main(["locality", "--config", str(small_cfg_file), "--mu", "0.5"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["mu"] == 0.5
    assert payload["v_lr"] > 0
    assert len(payload["grid"]) == len(payload["a_mu"]) == 201


def test_locality_optimize_writes_file(small_cfg_file, tmp_path, capsys):
    out = tmp_path / "loc"
    code = main(
        [
            "locality",
            "--config",
            str(small_cfg_file),
            "--grid",
            "51",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    saved = json.loads((out / "locality.json").read_text())
    assert saved["v_lr"] > 0


def test_bound_check_ok(small_cfg_file, tmp_path, capsys):
    out = tmp_path / "audit"
    code = main(
        [
            "bound-check",
            "--config",
            str(small_cfg_file),
            "--mu",
            "0.5",
            "--grid",
            "101",
            "--supp-a",
            "0",
            "--supp-b",
            "5,6",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["violations"] == 0
    assert (out / "bound_check.csv").read_text().startswith("t,lhs,rhs,margin")


def test_bound_check_reads_the_config_tolerance(tmp_path, monkeypatch, capsys):
    """bound-check integrates at the config's integrator_tol, as every
    subcommand does; its own default 1e-11 holds only where neither the
    file nor --tol sets one, and --tol wins over the file."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"integrator_tol": 1e-300, "grid_points": 101}))
    argv = ["bound-check", "--supp-a", "0", "--supp-b", "3", "--mu", "0.5"]
    assert main([*argv, "--config", str(cfg)]) == 2
    assert "did not converge" in capsys.readouterr().err

    tols = []

    def evolve(H, grid, tol):
        tols.append(tol)
        return evolve_on_grid(H, grid, tol)

    monkeypatch.setattr(cli, "evolve_on_grid", evolve)
    plain = tmp_path / "plain.json"
    plain.write_text(json.dumps({"grid_points": 101}))
    for extra in (["--config", str(plain)], ["--config", str(cfg), "--tol", "1e-8"]):
        assert main([*argv, *extra]) == 0
    assert tols == [1e-11, 1e-8]


def test_bound_check_never_imports_numpy_ma():
    """A fresh bound-check process finds its violations without numpy's set
    routines, whose first call in a process imports numpy.ma."""
    src = str(Path(lrlab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        "from lrlab.cli import main\n"
        "argv = ['bound-check', '--supp-a', '0', '--supp-b', '5', '--grid', '201']\n"
        "print(main(argv), 'numpy.ma' in sys.modules)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 False"


def test_bound_check_overlap_is_validation_error(small_cfg_file, capsys):
    code = main(
        [
            "bound-check",
            "--config",
            str(small_cfg_file),
            "--mu",
            "0.5",
            "--supp-a",
            "0,1",
            "--supp-b",
            "1,2",
        ]
    )
    assert code == 1
    assert "disjoint" in capsys.readouterr().err


def test_spread(small_cfg_file, tmp_path, capsys):
    out = tmp_path / "spread"
    code = main(
        [
            "spread",
            "--config",
            str(small_cfg_file),
            "--grid",
            "101",
            "--supp-a",
            "0",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    header = (out / "spread.csv").read_text().splitlines()[0]
    assert header.startswith("t,amp_0,amp_1")
    assert (out / "spread.svg").exists()


def test_spread_without_out_writes_nothing(small_cfg_file, tmp_path, monkeypatch, capsys):
    """Without --out, spread prints its CSV and leaves the working directory
    as it found it, as locality, bound-check and adiabatic do."""
    cwd = tmp_path / "empty"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    code = main(["spread", "--config", str(small_cfg_file), "--grid", "11"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("t,amp_0,amp_1")
    assert len(lines) == 1 + 11
    assert list(cwd.iterdir()) == []
    assert not (tmp_path / "out").exists()  # the config's output_dir


def test_adiabatic_summary(small_cfg_file, tmp_path, capsys):
    out = tmp_path / "ad"
    code = main(
        [
            "adiabatic",
            "--config",
            str(small_cfg_file),
            "--mu",
            "0.5",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    for key in (
        "T",
        "delta_ad",
        "gap_min",
        "intertwining_defect",
        "hdiff_gap_ratio",
        "hdot_gap_ratio",
        "vlr_gap_ratio",
    ):
        assert key in payload
    assert payload["gap_min"] == pytest.approx(0.1, abs=5e-3)
    saved = json.loads((out / "adiabatic.json").read_text())
    assert saved == payload


def test_adiabatic_refuses_lrlab_threads_before_writing(
    small_cfg_file, tmp_path, monkeypatch, capsys
):
    """run_adiabatic reads LRLAB_THREADS before any work, so a value that is
    not an integer exits 1 and leaves no --out directory."""
    monkeypatch.setenv("LRLAB_THREADS", "x")
    out = tmp_path / "d"
    argv = ["adiabatic", "--config", str(small_cfg_file), "--mu", "0.5"]
    assert main(argv + ["--out", str(out)]) == 1
    assert "LRLAB_THREADS" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, name",
    [
        (["locality"], "locality"),
        (["bound-check", "--supp-a", "0", "--supp-b", "5,6"], "bound_check"),
        (["adiabatic"], "adiabatic"),
    ],
)
def test_out_json_is_the_printed_json(argv, name, small_cfg_file, tmp_path, capsys):
    out = tmp_path / "emit"
    argv = argv + ["--config", str(small_cfg_file), "--mu", "0.5", "--out", str(out)]
    assert main(argv) == 0
    assert (out / f"{name}.json").read_text() == capsys.readouterr().out


def test_fig1_end_to_end(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "out"
    cfg.write_text(
        json.dumps(
            {
                "hamiltonian": "paper_example",
                "T_values": [3.0, 6.0],
                "grid_points": 201,
                "integrator_tol": 1e-6,
                "output_dir": str(out),
            }
        )
    )
    code = main(["fig1", "--config", str(cfg)])
    assert code == 0
    assert (out / "fig1.csv").exists()
    assert (out / "fig1_dad_vs_vlr.svg").exists()
    assert (out / "fig1_vlr_vs_T.svg").exists()
    stdout = capsys.readouterr().out
    assert "T=3" in stdout and "T=6" in stdout


def test_fig1_plots_only_positive_speeds_and_errors(tmp_path, capsys):
    """Weak 0-1 and strong 0-2 couplings on diag(0, 1, 2): level 2 crosses
    first, so both fitted speeds are negative.  The CSV and JSON files are
    written, no log-log SVG is drawn from fewer than two positive records,
    and the stale SVGs of an earlier sweep are removed."""
    h_i = np.diag([0.0, 1.0, 2.0])
    h_f = h_i.copy()
    h_f[0, 1] = h_f[1, 0] = 0.02
    h_f[0, 2] = h_f[2, 0] = 0.3
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "out"
    spec = {"h_i": _complex_entries(h_i), "h_f": _complex_entries(h_f)}
    cfg.write_text(
        json.dumps(
            {
                "hamiltonian": spec,
                "T_values": [5.0, 10.0],
                "grid_points": 401,
                "output_dir": str(out),
            }
        )
    )
    out.mkdir()
    svgs = [out / "fig1_dad_vs_vlr.svg", out / "fig1_vlr_vs_T.svg"]
    for svg in svgs:
        svg.write_text("stale")
    assert main(["fig1", "--config", str(cfg)]) == 0
    assert capsys.readouterr().err == ""
    rows = np.loadtxt(out / "fig1.csv", delimiter=",", skiprows=1)
    assert rows.shape == (2, 6) and np.all(rows[:, 1] < 0)
    assert (out / "fig1_run_T5.json").exists()
    assert (out / "fig1_run_T10.json").exists()
    assert not any(svg.exists() for svg in svgs)


def test_an_output_that_cannot_be_written_is_one_error_line(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    argv = ["locality", "--mu", "0.5", "--out", str(blocker / "x")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.fixture()
def crossing_cfg_file(tmp_path):
    """diag(0, 1) -> diag(1, 0) over T = 1: the two levels cross at t = 0.5."""
    path = tmp_path / "crossing.json"
    zero, one = [0.0, 0.0], [1.0, 0.0]
    path.write_text(
        json.dumps(
            {
                "hamiltonian": {
                    "h_i": [[zero, zero], [zero, one]],
                    "h_f": [[one, zero], [zero, zero]],
                },
                "T_values": [1.0],
                "grid_points": 101,
            }
        )
    )
    return path


def test_numerical_failure_exits_2(crossing_cfg_file, tmp_path, capsys):
    assert main(["adiabatic", "--config", str(crossing_cfg_file)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "numerical failure: ground cluster dimension changed"
    )

    out = tmp_path / "fig1"
    argv = ["fig1", "--config", str(crossing_cfg_file), "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "T=1        FAILED: LevelCrossingError: " in captured.err
    assert f"wrote {out / 'fig1_run_T1.json'}" in captured.out
    payload = json.loads((out / "fig1_run_T1.json").read_text())
    assert set(payload) == {"T", "error"}
    assert payload["T"] == 1.0
    assert payload["error"].startswith("LevelCrossingError: ")


def test_bad_config_is_validation_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"T_values": []}))
    assert main(["fig1", "--config", str(cfg)]) == 1
    assert "error" in capsys.readouterr().err


def test_fig1_refuses_an_infinite_total_time_before_writing(tmp_path, capsys):
    out = tmp_path / "d"
    assert main(["fig1", "--T", "inf", "12.5", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: T_values must be") and "inf" in err
    assert not out.exists()


def test_fig1_refuses_an_unbuildable_hamiltonian_before_writing(tmp_path, capsys):
    """Refused as lrlab adiabatic refuses it, not once per T as a
    numerical failure."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"hamiltonian": "nope"}))
    out = tmp_path / "d"
    for command in ("adiabatic", "fig1"):
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: unknown hamiltonian spec: 'nope'\n"
        assert captured.out == ""
        assert not out.exists()


def test_fig1_refuses_total_times_that_share_a_file_name(tmp_path, capsys):
    out = tmp_path / "d"
    assert main(["fig1", "--T", "12.5", "12.5000001", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: T_values must be") and "12.5000001" in err
    assert not out.exists()


def test_flag_overrides_are_validated(small_cfg_file, tmp_path, capsys):
    assert main(["locality", "--config", str(small_cfg_file), "--grid", "1"]) == 1
    assert "grid_points" in capsys.readouterr().err
    # seeds are not part of the config: nothing in lrlab draws random numbers
    assert main(["decompose", "--config", str(small_cfg_file), "--seed", "3"]) == 1
    cfg = tmp_path / "seeded.json"
    cfg.write_text(json.dumps({"seed": 0}))
    assert main(["decompose", "--config", str(cfg)]) == 1
    assert "unknown config fields" in capsys.readouterr().err


def test_bad_label_list_is_validation_error(small_cfg_file, capsys):
    argv = ["bound-check", "--config", str(small_cfg_file)]
    assert main(argv + ["--supp-a", "0,x", "--supp-b", "5"]) == 1
    assert "bad label list '0,x'" in capsys.readouterr().err


def test_spread_takes_one_source_label(small_cfg_file, tmp_path, capsys):
    """Block sorts its labels, so a list would silently pick its smallest."""
    argv = ["spread", "--config", str(small_cfg_file), "--grid", "11"]
    code = main(argv + ["--supp-a", "5,2", "--out", str(tmp_path / "spread")])
    assert code == 1
    assert "one source label" in capsys.readouterr().err


_OPTIMIZE_CASES = [
    ["decompose"],
    ["locality"],
    ["bound-check", "--supp-a", "0", "--supp-b", "5"],
    ["spread"],
    ["adiabatic"],
    ["fig1"],
]


@pytest.mark.parametrize(
    "argv",
    [
        ["decompose", "--mu", "0.5"],
        ["fig1", "--mu", "0.5"],
        ["locality", "--tol", "1e-9"],
        ["locality", "--T", "5"],
    ]
    + [case + ["--optimize"] for case in _OPTIMIZE_CASES],
    ids=lambda argv: " ".join(argv),
)
def test_unread_flag_is_usage_error(small_cfg_file, argv, capsys):
    """A subcommand refuses a flag it would not read."""
    assert main(argv[:1] + ["--config", str(small_cfg_file)] + argv[1:]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


def test_readme_lists_the_flags_each_subcommand_reads():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    documented = {
        m.group(1): set(re.findall(r"--[A-Za-z-]+", m.group(2)))
        for m in re.finditer(r"^\| `lrlab ([a-z0-9-]+)` +\|(.*)\|$", readme, re.M)
    }
    (sub,) = [
        a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    accepted = {
        name: {flag for action in p._actions for flag in action.option_strings}
        - {"-h", "--help"}
        for name, p in sub.choices.items()
    }
    assert documented == accepted
    assert sum(len(flags) for flags in accepted.values()) == 29
