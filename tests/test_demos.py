"""The Python demos run to completion and print their summaries.

Each demo runs as a script, as `python3 demos/<name>.py` would, with its
command line set and its stdout captured.
"""

import runpy
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name, expect", [
    ("quickstart.py", "standard error vs covariate-only balance"),
    ("robustness.py", "rho0=0.5 vs rho=0.9"),
    ("run_study.py", "median improvement at true rho = 0.9"),
])
def test_demo_runs(name, expect, tmp_path, monkeypatch, capsys):
    out = tmp_path / "out.csv"
    # run_study.py writes its table to the first argument; the others ignore it.
    monkeypatch.setattr(sys, "argv", [str(DEMOS / name), str(out)])
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert expect in capsys.readouterr().out
    assert out.exists() == (name == "run_study.py")
