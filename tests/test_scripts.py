"""The example scripts run to completion on small inputs."""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args, monkeypatch):
    monkeypatch.setattr(sys, "argv", [name, *args])
    try:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    except SystemExit as exc:  # argparse and explicit exits
        assert exc.code in (None, 0)


def test_demo_runs_every_listed_problem(monkeypatch, capsys):
    run_script("demo_contraction.py", "--list", monkeypatch=monkeypatch)
    names = capsys.readouterr().out.split()
    assert names
    for name in names:
        run_script("demo_contraction.py", "--problem", name, monkeypatch=monkeypatch)
        assert f"== problem {name}:" in capsys.readouterr().out


def test_sweep_runs(monkeypatch, capsys):
    run_script("sweep_affine.py", "--dims", "2", "--n", "1", monkeypatch=monkeypatch)
    assert len(capsys.readouterr().out.splitlines()) == 5  # header and one row per factor
