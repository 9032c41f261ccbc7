"""The scripts under scripts/ run end to end, in-process."""

import importlib.util
import re
import sys
from pathlib import Path

import pytest

import lrlab.cli
from lrlab.experiment import ExperimentConfig

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ensemble_audit_script_reports_every_seed(monkeypatch, capsys):
    script = _load("run_ensemble_audit")
    monkeypatch.setattr(
        sys, "argv", ["run_ensemble_audit.py", "--count", "3", "--grid", "201"]
    )
    assert script.main() == 0
    lines = capsys.readouterr().out.splitlines()
    seeds = [re.match(r"seed=\s*(\d+) ", line) for line in lines]
    assert [int(m.group(1)) for m in seeds if m] == [0, 1, 2]
    assert "cases with violations: 0/3" in lines


def test_fig1_script_overrides_only_the_flags_given(monkeypatch, capsys, tmp_path):
    script = _load("run_fig1")
    configs = []
    run_fig1 = lrlab.cli.run_fig1

    def recording(config):
        configs.append(config)
        return run_fig1(config)

    monkeypatch.setattr(lrlab.cli, "run_fig1", recording)
    monkeypatch.setattr(
        sys,
        "argv",
        ["run_fig1.py", "--T", "12.5", "25", "--grid", "401", "--out", str(tmp_path)],
    )
    assert script.main() == 0
    assert len((tmp_path / "fig1.csv").read_text().splitlines()) == 3
    rows = re.findall(r"^T=(\S+) ", capsys.readouterr().out, re.M)
    assert rows == ["12.5", "25"]
    (config,) = configs
    default = ExperimentConfig()
    assert (config.T_values, config.grid_points) == ((12.5, 25.0), 401)
    assert config.threshold == default.threshold
    assert config.integrator_tol == default.integrator_tol


def test_mutation_rows_each_match_exactly_once(tmp_path):
    """Every row of scripts/mutation_check.py finds its old text once in the
    source, and a row that does not match is refused before any suite runs."""
    script = _load("mutation_check")
    script.check_rows(script.ROOT)
    (tmp_path / "f.py").write_text("x = 1\nx = 1\n")
    rows = [("f.py", "x = 1", "x = 2", "twice"), ("f.py", "y", "z", "absent")]
    with pytest.raises(ValueError, match="twice: old text found 2 times"):
        script.check_rows(tmp_path, rows)
    with pytest.raises(ValueError, match="absent: old text found 0 times"):
        script.check_rows(tmp_path, rows[1:])
