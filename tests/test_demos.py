"""Demos run end to end as scripts and print what their docstrings promise."""

import os
import subprocess
import sys
from pathlib import Path

import dts_ssl

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def run_demo(name: str) -> subprocess.CompletedProcess:
    src = str(Path(dts_ssl.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, str(DEMOS / name)], env=env, capture_output=True,
                          text=True, timeout=120)


def test_uncertainty_scores_demo():
    done = run_demo("02_uncertainty_scores.py")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    for expected in (
        "  confident seen     1-max=0.03 extra=0.01 -> s=0.020, gate passes",
        "  uniform K-way      1-max=0.75 extra=0.20 -> s=0.475, gate rejects",
        "  confident unseen   1-max=0.60 extra=0.85 -> s=0.725, gate rejects",
    ):
        assert expected in lines
