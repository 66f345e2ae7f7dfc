"""Smoke tests of the experiment scripts under scripts/, run as a user would."""

import os
import runpy
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

import promptblend
from promptblend.train import RunConfig, RunRecord, TrainConfig

ROOT = Path(__file__).resolve().parents[1]
STABILITY = ROOT / "scripts" / "run_stability.py"
SMALL = ["--fixture-size", "40", "--pretrain-epochs", "1", "--epochs", "3", "--seeds", "1"]


def _never_called(*args, **kwargs):
    raise AssertionError("compute started before the flags were checked")


def _run_stability(*argv):
    src = str(Path(promptblend.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(STABILITY), *argv], capture_output=True,
                          text=True, timeout=300, env={**os.environ, "PYTHONPATH": path})


def test_run_stability_writes_both_curves_and_the_summary(tmp_path):
    proc = _run_stability(*SMALL, "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "curve_seed1_batch10.csv", "curve_seed1_batch2.csv", "summary_seed1.txt"]
    assert "median volatility difference" in proc.stdout


def test_run_stability_calls_equal_volatility_a_tie(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("promptblend.train.stability_metric", lambda record: 0.5)
    monkeypatch.setattr(sys, "argv", [str(STABILITY), *SMALL, "--out", str(tmp_path)])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(STABILITY), run_name="__main__")
    assert exit_info.value.code == 0
    row = capsys.readouterr().out.splitlines()[1].split()
    assert row == ["1", "0.50000", "0.50000", "tie"]


def test_run_stability_reports_a_runtime_failure_in_one_line(tmp_path):
    # an infinite rate passes --lr's domain and diverges at the second step
    proc = _run_stability("--fixture-size", "40", "--pretrain-epochs", "1", "--epochs", "2",
                          "--seeds", "1", "--lr", "inf", "--out", str(tmp_path))
    assert proc.returncode == 2
    assert proc.stderr == "runtime failure: non-finite loss at step 2 (epoch 1)\n"


@pytest.mark.parametrize("flags, message", [
    (["--epochs", "1"], "argument --epochs: must be an integer of at least 2, got '1'"),
    (["--pretrain-epochs", "0"],
     "argument --pretrain-epochs: must be an integer of at least 1, got '0'"),
    (["--fixture-size", "0"],
     "argument --fixture-size: must be an integer from 1 to 7392, got '0'"),
    (["--fixture-size", "7393"],
     "argument --fixture-size: must be an integer from 1 to 7392, got '7393'"),
    (["--fixture-seed", "-1"],
     "argument --fixture-seed: must be an integer of at least 0, got '-1'"),
    (["--lr", "-1"], "argument --lr: must be a non-negative number, got '-1'"),
    (["--lr", "nan"], "argument --lr: must be a non-negative number, got 'nan'"),
    (["--seeds", "-1"], "argument --seeds: must be an integer of at least 0, got '-1'"),
])
def test_run_stability_rejects_bad_flags_before_any_compute(flags, message, tmp_path,
                                                            monkeypatch, capsys):
    monkeypatch.setattr("promptblend.model.pretrain", _never_called)
    monkeypatch.setattr(sys, "argv", [str(STABILITY), *SMALL, *flags, "--out", str(tmp_path)])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(STABILITY), run_name="__main__")
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_run_stability_split_check_exits_1_in_one_line(tmp_path, monkeypatch, capsys):
    # the split is checked after parsing, so it reports as promptblend does
    monkeypatch.setattr("promptblend.model.pretrain", _never_called)
    monkeypatch.setattr(sys, "argv", [str(STABILITY), *SMALL, "--fixture-size", "1",
                                      "--out", str(tmp_path)])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(STABILITY), run_name="__main__")
    assert exit_info.value.code == 1
    assert capsys.readouterr().err == ("error: --fixture-size 1 leaves no training example "
                                       "after the 0.2 eval split\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-a-file"])
def test_run_stability_rejects_an_out_that_cannot_be_a_directory(under, tmp_path, monkeypatch,
                                                                   capsys):
    monkeypatch.setattr("promptblend.model.pretrain", _never_called)
    blocker = tmp_path / "file"
    blocker.write_text("kept\n")
    out = blocker / "sub" if under else blocker
    monkeypatch.setattr(sys, "argv", [str(STABILITY), *SMALL, "--out", str(out)])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(STABILITY), run_name="__main__")
    assert exit_info.value.code == 1
    assert capsys.readouterr().err == f"error: --out {out}: {blocker} is not a directory\n"
    assert blocker.read_text() == "kept\n"


def _record(batch_size, epoch_means):
    config = RunConfig(**asdict(TrainConfig(batch_size=batch_size)), dropout_p=0.1,
                       prompt_length=0)
    return RunRecord(config=config, basis_prompts=[], gram=[],
                     epoch_means=epoch_means)


def test_render_curves_flags_the_noisier_record():
    render_curves = runpy.run_path(str(STABILITY))["render_curves"]
    csvs, summary = render_curves([_record(10, [4.0, 3.0, 2.0, 1.0]),
                                   _record(2, [4.0, 1.0, 3.5, 0.5])])
    assert len(csvs) == 2
    assert "higher volatility: batch_size=2" in summary


def test_render_curves_rejects_an_epoch_count_mismatch():
    render_curves = runpy.run_path(str(STABILITY))["render_curves"]
    with pytest.raises(ValueError, match="epoch count"):
        render_curves([_record(10, [1.5, 0.9]), _record(2, [1.0, 2.0, 3.0])])
