"""The scripts under scripts/ run end to end, in-process."""

import importlib.util
import re
import sys
from pathlib import Path

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
