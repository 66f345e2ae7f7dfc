"""Smoke tests of the experiment scripts under scripts/, run as a user would."""

import os
import runpy
import subprocess
import sys
from pathlib import Path

import promptblend

ROOT = Path(__file__).resolve().parents[1]
STABILITY = ROOT / "scripts" / "run_stability.py"
SMALL = ["--fixture-size", "40", "--pretrain-epochs", "1", "--epochs", "3", "--seeds", "1"]


def test_run_stability_writes_both_curves_and_the_summary(tmp_path):
    src = str(Path(promptblend.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(STABILITY), *SMALL, "--out", str(tmp_path)],
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "curve_seed1_batch10.csv", "curve_seed1_batch2.csv", "summary_seed1.txt"]
    assert "median volatility difference" in proc.stdout


def test_run_stability_calls_equal_volatility_a_tie(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("promptblend.train.stability_metric", lambda record: 0.5)
    monkeypatch.setattr(sys, "argv", [str(STABILITY), *SMALL, "--out", str(tmp_path)])
    runpy.run_path(str(STABILITY), run_name="__main__")
    row = capsys.readouterr().out.splitlines()[1].split()
    assert row == ["1", "0.50000", "0.50000", "tie"]
