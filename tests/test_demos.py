"""The demos run to completion and print their summaries.

Each Python demo runs as a script, as `python3 demos/<name>.py` would, with
its command line set and its stdout captured.  The shell walkthrough's
`netdesign` command lines run in-process through the CLI entry point.
"""

import runpy
import shlex
import sys
from pathlib import Path

import pytest

from netdesign.cli import main
from netdesign.graph import generate_bernoulli_network, repair_isolated

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


def test_quickstart_prints_the_edge_count(monkeypatch, capsys):
    # The demo's network, rebuilt from its seeds: edges, not edge ends.
    net = repair_isolated(generate_bernoulli_network(60, 0.08, seed=11), "connect", seed=12).network
    monkeypatch.setattr(sys, "argv", [str(DEMOS / "quickstart.py")])
    runpy.run_path(str(DEMOS / "quickstart.py"), run_name="__main__")
    first = capsys.readouterr().out.splitlines()[0]
    assert first == f"instance: 60 units, {len(net.edges)} edges, 4 covariates"


def test_cli_walkthrough_steps(tmp_path, capsys):
    # Every `netdesign ...` line of the script, continuation lines joined,
    # with the script's scratch directory $out set to tmp_path.
    text = (DEMOS / "cli_walkthrough.sh").read_text().replace("\\\n", " ")
    steps = [
        shlex.split(line.replace("$out", str(tmp_path)))[1:]
        for line in text.splitlines() if line.startswith("netdesign ")
    ]
    assert [argv[0] for argv in steps] == ["generate", "design", "evaluate", "diagnose", "study"]
    for argv in steps:
        assert main(argv) == 0, (argv, capsys.readouterr().err)
    assert (tmp_path / "sweep.csv").exists()
