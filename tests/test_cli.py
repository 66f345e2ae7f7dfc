import argparse
import ast
import contextlib
import ctypes
import io
import json
import math
import os
import re
import resource
import runpy
import shlex
import shutil
import signal
import struct
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import promptblend
from promptblend import composer
from promptblend import textdata as td
from promptblend.checkpoint import (CheckpointError, bundle_bytes, checkpoint_bytes, load_bundle,
                                    load_checkpoint)
from promptblend.cli import _build_parser, run_cli
from promptblend.composer import DEFAULT_BASIS_PROMPTS
from promptblend.model import FrozenLM, LMConfig
from promptblend.train import RunConfig, RunRecord, prompted_eval

from graphprobe import record_gradient_ops

TINY = ["--fixture-size", "30", "--fixture-seed", "5", "--val-fraction", "0.2"]
FAST_TRAIN = TINY + ["--pretrain-epochs", "1", "--epochs", "1", "--batch-size", "10"]


def _stub_record_json() -> str:
    """A record of no run."""
    config = RunConfig(epochs=1, batch_size=10, lr=1e-3, weight_decay=0.01, dropout_p=0.1,
                       seed=0, eval_every=0, prompt_length=20)
    return RunRecord(config=config, basis_prompts=list(DEFAULT_BASIS_PROMPTS),
                     gram=np.eye(len(DEFAULT_BASIS_PROMPTS)).tolist()).to_json()


def _train(out, seed="1", extra=()):
    return run_cli(["train", *FAST_TRAIN, "--seed", seed, "--out", str(out), *extra])


class TestDispatch:
    def test_no_subcommand_prints_usage(self, capsys):
        assert run_cli([]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_subcommand(self, capsys):
        assert run_cli(["frobnicate"]) == 1
        assert "invalid choice" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert run_cli(["train", "--no-such-flag", "x"]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_help_exits_zero(self, capsys):
        assert run_cli(["--help"]) == 0
        assert "promptblend" in capsys.readouterr().out

    def test_zero_batch_size_names_the_flag(self, tmp_path, capsys):
        code = run_cli(["train", *TINY, "--batch-size", "0",
                        "--out", str(tmp_path / "run")])
        assert code == 1
        assert "--batch-size" in capsys.readouterr().err

    def test_missing_data_file_is_validation_error(self, tmp_path, capsys):
        missing = tmp_path / "nope.jsonl"
        code = run_cli(["train", "--data", str(missing), "--out", str(tmp_path / "run")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and str(missing) in err

    # a path a command reads that is missing, or is a directory, is bad input
    @pytest.mark.parametrize("argv, path", [
        (["eval", "--checkpoint", "{tmp}/missing.pbld"], "{tmp}/missing.pbld"),
        (["train", "--data", "{tmp}", "--out", "{tmp}/run"], "{tmp}"),
        (["ortho", "--basis", "{tmp}/missing.txt"], "{tmp}/missing.txt"),
        (["report", "--record", "{tmp}/missing.json", "--out", "{tmp}/run"],
         "{tmp}/missing.json"),
        (["eval", "--checkpoint", "{tmp}/missing.pbld", "--data", "{tmp}/record.json/x"],
         "{tmp}/record.json/x"),
    ], ids=["eval-checkpoint", "train-data-dir", "ortho-basis", "report-record",
            "under-a-file"])
    def test_missing_input_path_is_validation_error(self, argv, path, tmp_path, capsys):
        (tmp_path / "record.json").write_text(_stub_record_json())
        assert run_cli([a.format(tmp=tmp_path) for a in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"'{path.format(tmp=tmp_path)}'" in err
        assert not (tmp_path / "run").exists()


class TestTrainCommand:
    def test_smoke_run_writes_all_outputs(self, tmp_path, capsys):
        out = tmp_path / "runA"
        assert _train(out) == 0
        for name in ("curve.csv", "report.txt", "report.json", "record.json",
                     "checkpoint.pbld"):
            assert (out / name).exists(), name
        stdout = capsys.readouterr().out
        assert "control eval loss" in stdout
        curve = (out / "curve.csv").read_text()
        assert curve.splitlines()[0] == "epoch,step,batch_size,loss"

    def test_same_seed_runs_are_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert _train(out1) == 0
        assert _train(out2) == 0
        for name in ("curve.csv", "report.txt", "report.json", "checkpoint.pbld"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_different_seeds_differ(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert _train(out1, seed="1") == 0
        assert _train(out2, seed="2") == 0
        assert (out1 / "curve.csv").read_text() != (out2 / "curve.csv").read_text()

    def test_seed_defaults_to_zero_whatever_the_environment(self, tmp_path, monkeypatch):
        out1, out2 = tmp_path / "env", tmp_path / "flag"
        monkeypatch.setenv("PROMPTBLEND_SEED", "7")
        assert run_cli(["train", *FAST_TRAIN, "--out", str(out1)]) == 0
        assert _train(out2, seed="0") == 0
        assert (out1 / "curve.csv").read_bytes() == (out2 / "curve.csv").read_bytes()

    def test_validation_failure_leaves_no_partial_output(self, tmp_path, capsys):
        out = tmp_path / "never"
        code = run_cli(["train", "--fixture-size", "1", "--out", str(out)])
        assert code == 1
        assert not out.exists()
        assert capsys.readouterr().err

    def test_record_json_carries_wall_clock(self, tmp_path):
        out = tmp_path / "run"
        assert _train(out) == 0
        record = json.loads((out / "record.json").read_text())
        assert record["wall_clock_seconds"] > 0
        assert record["control_eval_loss"] > 0

    def test_a_pass_at_the_last_step_is_the_final_pass(self, tmp_path, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return prompted_eval(*args, **kwargs)

        monkeypatch.setattr("promptblend.train.prompted_eval", counted)
        # 48 training examples at batch 10: 5 steps an epoch, 10 in all
        assert run_cli(["train", "--fixture-size", "60", "--pretrain-epochs", "1", "--epochs",
                        "2", "--eval-every", "5", "--out", str(tmp_path / "run")]) == 0
        record = json.loads((tmp_path / "run" / "record.json").read_text())
        assert [step for step, _ in record["eval_losses"]] == [5, 10]
        assert record["eval_losses"][-1][1] == record["prompted_eval_loss"]
        assert len(calls) == 2


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "run"
    assert _train(out) == 0
    return out


CUSTOM_PROMPTS = ["think step by step", "draw a diagram", "list the facts"]


@pytest.fixture(scope="module")
def custom_bundle(tmp_path_factory):
    """An LM-only bundle pretrained with a 3-prompt basis file."""
    where = tmp_path_factory.mktemp("custom")
    basis_file = where / "custom.txt"
    basis_file.write_text("\n".join(CUSTOM_PROMPTS) + "\n")
    assert run_cli(["pretrain", *TINY, "--epochs", "1", "--seed", "3",
                    "--basis", str(basis_file), "--out", str(where / "pre")]) == 0
    return where / "pre" / "checkpoint.pbld"


class TestPipelineCommands:
    def test_pretrain_then_train_from_checkpoint(self, tmp_path, capsys):
        pre = tmp_path / "pre"
        code = run_cli(["pretrain", *TINY, "--epochs", "1", "--seed", "3",
                        "--out", str(pre)])
        assert code == 0
        assert (pre / "checkpoint.pbld").exists()
        out = tmp_path / "run"
        code = run_cli(["train", *FAST_TRAIN, "--seed", "3",
                        "--checkpoint", str(pre / "checkpoint.pbld"),
                        "--out", str(out)])
        assert code == 0
        assert (out / "report.txt").exists()

    def test_pretrain_divergence_is_runtime_failure(self, tmp_path, capsys):
        out = tmp_path / "pre"
        code = run_cli(["pretrain", *TINY, "--epochs", "1", "--lr", "inf", "--seed", "3",
                        "--out", str(out)])
        assert code == 2
        assert "non-finite pretraining loss at step 2" in capsys.readouterr().err
        assert not out.exists()

    # an infinite rate makes the updated parameters non-finite where no later
    # loss shows it: the run ends after one step, or an eval pass follows it
    @pytest.mark.parametrize("argv, message", [
        (["pretrain", "--fixture-size", "12", "--epochs", "1", "--batch-size", "10"],
         "non-finite parameters after step 1 (epoch 1)"),
        (["train", "--fixture-size", "12", "--pretrain-epochs", "1", "--epochs", "1",
          "--batch-size", "10"], "non-finite parameters after step 1 (epoch 1)"),
        (["train", "--fixture-size", "40", "--pretrain-epochs", "1", "--epochs", "2",
          "--eval-every", "1"], "non-finite weights predicted for 'fx00033'"),
    ], ids=["pretrain", "train", "train-eval-every"])
    def test_a_last_step_divergence_is_runtime_failure(self, argv, message, tmp_path,
                                                       capsys):
        out = tmp_path / "out"
        assert run_cli([*argv, "--lr", "inf", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"runtime failure: {message}\n"
        assert not out.exists()

    def test_eval_of_a_non_finite_bundle_is_validation_error(self, run_dir, tmp_path,
                                                             capsys):
        tensors, meta = load_checkpoint(run_dir / "checkpoint.pbld")
        tensors["lm.out.b"][0] = np.nan
        bad = tmp_path / "bad.pbld"
        bad.write_bytes(checkpoint_bytes(tensors, meta))
        assert run_cli(["eval", *TINY, "--checkpoint", str(bad)]) == 1
        assert "'lm.out.b' has non-finite entries" in capsys.readouterr().err

    def test_eval_of_a_boolean_config_bundle_is_validation_error(self, run_dir, tmp_path,
                                                                 capsys):
        tensors, meta = load_checkpoint(run_dir / "checkpoint.pbld")
        meta["lm"]["config"]["num_heads"] = True
        bad = tmp_path / "bad.pbld"
        bad.write_bytes(checkpoint_bytes(tensors, meta))
        assert run_cli(["eval", *TINY, "--checkpoint", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: malformed bundle metadata") and err.count("\n") == 1
        assert "lm.config.num_heads must be an int, got True" in err

    @pytest.mark.parametrize("edit, message", [
        (lambda m: m.update(kind="other", extra=1), "kind 'other'"),
        (lambda m: m["lm"].update(frozen="false"), "lm frozen 'false'"),
        (lambda m: m["lm"].update(provenance=[]), "provenance or pretrain_record"),
    ], ids=["kind", "frozen-string", "provenance-list"])
    def test_eval_of_a_bundle_with_foreign_metadata_is_validation_error(
            self, edit, message, run_dir, tmp_path, capsys):
        tensors, meta = load_checkpoint(run_dir / "checkpoint.pbld")
        edit(meta)
        bad = tmp_path / "bad.pbld"
        bad.write_bytes(checkpoint_bytes(tensors, meta))
        assert run_cli(["eval", *TINY, "--checkpoint", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: malformed bundle: ") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize("corrupt", [
        lambda v: "".join(chr(0x4E00 + i) for i in range(len(v))),
        lambda v: list(range(100, 100 + len(v))),
        lambda v: [None, *v[1:]],
    ], ids=["string", "ints", "none_token"])
    def test_a_vocabulary_not_of_strings_is_validation_error(self, corrupt, run_dir, tmp_path,
                                                             capsys):
        tensors, meta = load_checkpoint(run_dir / "checkpoint.pbld")
        meta["lm"]["vocab"] = corrupt(meta["lm"]["vocab"])
        bad = tmp_path / "bad.pbld"
        bad.write_bytes(checkpoint_bytes(tensors, meta))
        with pytest.raises(CheckpointError, match="vocabulary must be a list of strings"):
            load_bundle(bad)
        assert run_cli(["eval", *TINY, "--checkpoint", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: malformed bundle metadata") and err.count("\n") == 1

    @pytest.mark.parametrize("argv, edit, message", [
        (["train", *TINY],
         lambda m: m["basis_prompts"].__setitem__(-1, "think step by step\ud800"),
         "surrogates not allowed: 'e answer\", \"think step by step\\ud800'"),
        (["eval", *TINY], lambda m: m["lm"]["vocab"].__setitem__(0, "\ud800"),
         "surrogates not allowed: 'retrain_seed\": 1}, \"vocab\": [\"\\ud800'"),
    ], ids=["basis-prompt", "vocabulary-token"])
    def test_bundle_metadata_that_utf8_cannot_encode_exits_before_any_compute(
            self, argv, edit, message, run_dir, tmp_path, monkeypatch, capsys):
        # bundle_bytes could not write such a bundle back
        monkeypatch.setattr("promptblend.cli._train", _never_called)
        monkeypatch.setattr("promptblend.cli._prompted_eval", _never_called)
        tensors, meta = load_checkpoint(run_dir / "checkpoint.pbld")
        edit(meta)
        # checkpoint_bytes cannot write a surrogate, so the block keeps ASCII escapes
        block = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("ascii")
        bad, out = tmp_path / "bad.pbld", tmp_path / "out"
        bad.write_bytes(checkpoint_bytes(tensors, {})[:-10] + struct.pack("<Q", len(block))
                        + block)
        assert run_cli([*argv, "--checkpoint", str(bad), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: malformed bundle metadata ({message})\n"
        assert not out.exists()

    def test_eval_from_checkpoint(self, run_dir, capsys):
        code = run_cli(["eval", *TINY, "--checkpoint",
                        str(run_dir / "checkpoint.pbld")])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "control eval loss" in stdout
        assert "prompted eval loss" in stdout
        assert "prompted accuracy" in stdout

    def test_eval_builds_no_graph(self, run_dir, monkeypatch, capsys):
        made = record_gradient_ops(monkeypatch)
        assert run_cli(["eval", *TINY, "--checkpoint", str(run_dir / "checkpoint.pbld")]) == 0
        assert made == []

    def test_report_rerenders_identically(self, run_dir, tmp_path, capsys):
        out = tmp_path / "rerender"
        code = run_cli(["report", "--record", str(run_dir / "record.json"),
                        "--out", str(out)])
        assert code == 0
        for name in ("report.txt", "report.json", "curve.csv"):
            assert (out / name).read_bytes() == (run_dir / name).read_bytes(), name

    def test_report_reads_only_the_record(self, run_dir, tmp_path, capsys):
        run = tmp_path / "run"
        shutil.copytree(run_dir, run)
        (run / "checkpoint.pbld").unlink()
        out = tmp_path / "rerender"
        assert run_cli(["report", "--record", str(run / "record.json"), "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["curve.csv", "report.json",
                                                         "report.txt"]
        for name in ("report.txt", "report.json", "curve.csv"):
            assert (out / name).read_bytes() == (run_dir / name).read_bytes(), name

    @pytest.mark.parametrize("edit, message", [
        (lambda r: r.pop("gram"), "malformed RunRecord: expected fields"),
        (lambda r: r["gram"].pop(), "malformed RunRecord: gram must be 7 rows of 7 cosines"),
        (lambda r: r["gram"][2].pop(), "malformed RunRecord: gram must be 7 rows of 7 cosines"),
        (lambda r: r["gram"][1].__setitem__(3, math.nan),
         "malformed RunRecord: gram[1][3] must be a finite float, got nan"),
    ], ids=["missing", "six_rows", "ragged", "nan"])
    def test_bad_gram_is_validation_error(self, edit, message, run_dir, tmp_path, capsys):
        # a record.json written before the record kept the Gram matrix has no gram
        record = json.loads((run_dir / "record.json").read_text())
        edit(record)
        path, out = tmp_path / "record.json", tmp_path / "out"
        path.write_text(json.dumps(record))
        assert run_cli(["report", "--record", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1 and "gram" in err
        assert not out.exists()

    @pytest.mark.parametrize("control, prompted", [(1e308, -1e308), (1.0, -1e307)],
                             ids=["infinite-reduction", "infinite-percentage"])
    def test_a_reduction_with_no_finite_percentage_writes_nothing(self, control, prompted,
                                                                 run_dir, tmp_path, capsys):
        # report.json would hold a bare Infinity, which JSON does not have
        record = json.loads((run_dir / "record.json").read_text())
        record.update(control_eval_loss=control, prompted_eval_loss=prompted)
        path, out = tmp_path / "record.json", tmp_path / "out"
        path.write_text(json.dumps(record))
        assert run_cli(["report", "--record", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: relative reduction from control eval loss {control!r} to prompted "
            f"{prompted!r} is not a finite percentage\n")
        assert not out.exists()

    def test_truncated_checkpoint_is_validation_error(self, run_dir, tmp_path, capsys):
        cut = tmp_path / "cut.pbld"
        cut.write_bytes((run_dir / "checkpoint.pbld").read_bytes()[:10])
        assert run_cli(["eval", *TINY, "--checkpoint", str(cut)]) == 1
        err = capsys.readouterr().err
        assert "truncated checkpoint" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv, message", [
        (["pretrain", "--data"], "line 1: invalid record (nested too deeply)"),
        (["report", "--record"], "malformed RunRecord: JSON nested too deeply"),
        (["eval", *TINY, "--checkpoint"], "garbled checkpoint before offset 200020"),
    ], ids=["dataset", "record", "bundle"])
    def test_deeply_nested_json_is_validation_error(self, argv, message, tmp_path, capsys):
        deep = b"[" * 100_000 + b"]" * 100_000
        path, out = tmp_path / "input", tmp_path / "out"
        # the bundle case keeps a valid header and puts the nesting in the metadata block
        path.write_bytes(checkpoint_bytes({}, {})[:-10] + struct.pack("<Q", len(deep)) + deep
                         if argv[0] == "eval" else deep + b"\n")
        assert run_cli([*argv, str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv, text, message", [
        (["report", "--record"], '{"config": {',
         "malformed RunRecord: invalid JSON (Expecting property name enclosed in double quotes: "
         "line 1 column 13 (char 12))"),
        (["report", "--record"], '{"control_eval_loss": ' + "1" * 5000 + "}",
         "malformed RunRecord: invalid JSON (Exceeds the limit (4300 digits)"),
        (["train", *TINY, "--data"], '{"id": ' + "1" * 5000 + "}",
         "line 1: invalid record (Exceeds the limit (4300 digits)"),
    ], ids=["truncated-record", "long-integer-record", "long-integer-dataset"])
    def test_json_that_does_not_parse_is_named(self, argv, text, message, tmp_path, monkeypatch,
                                               capsys):
        monkeypatch.setattr("promptblend.model.pretrain", _never_called)
        path, out = tmp_path / "input", tmp_path / "out"
        path.write_text(text)
        assert run_cli([*argv, str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.endswith(")\n")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_malformed_record_is_validation_error(self, run_dir, tmp_path, capsys):
        record = json.loads((run_dir / "record.json").read_text())
        del record["steps"][0]["loss"]
        path = tmp_path / "record.json"
        path.write_text(json.dumps(record))
        code = run_cli(["report", "--record", str(path), "--out", str(tmp_path / "out")])
        assert code == 1
        assert "steps[0]" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        (lambda r: r["examples"][0].update(loss="x"),
         "RunRecord: examples[0].loss must be a finite float, got 'x'"),
        (lambda r: r.update(config=[]),
         "RunRecord: config must have fields ['epochs', 'batch_size', 'lr', 'weight_decay', "
         "'dropout_p', 'seed', 'eval_every', 'prompt_length'], got []"),
        (lambda r: r.update(basis_prompts=5), "RunRecord: basis_prompts must be a list, got 5"),
    ], ids=["loss", "config", "basis_prompts"])
    def test_mistyped_record_field_is_validation_error(self, edit, message, run_dir, tmp_path,
                                                        capsys):
        record = json.loads((run_dir / "record.json").read_text())
        edit(record)
        path = tmp_path / "record.json"
        path.write_text(json.dumps(record))
        code = run_cli(["report", "--record", str(path), "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == f"error: malformed {message}\n"

    @pytest.mark.parametrize("edit, message", [
        (lambda r: r.update(projection=[["tok", None]]),
         "malformed RunRecord: projection[0][1] must be a finite float, got None\n"),
        (lambda r: r.update(projection=[[1, 2.0]]),
         "malformed RunRecord: projection[0][0] must be a string UTF-8 can encode, got 1\n"),
        (lambda r: r.update(eval_losses=[[1, None]]),
         "malformed RunRecord: eval_losses[0][1] must be a finite float, got None\n"),
        (lambda r: r["examples"][0]["weights"].__setitem__(0, math.nan),
         "malformed RunRecord: examples[0].weights[0] must be a finite float, got nan\n"),
        (lambda r: r.update(control_eval_loss=math.inf),
         "malformed RunRecord: control_eval_loss must be a finite float, got inf\n"),
        (lambda r: r["steps"][1].update(loss=math.nan),
         "malformed RunRecord: steps[1].loss must be a finite float, got nan\n"),
        (lambda r: r["eval_losses"][0].__setitem__(1, -math.inf),
         "malformed RunRecord: eval_losses[0][1] must be a finite float, got -inf\n"),
        (lambda r: r["examples"][2].update(loss=math.inf),
         "malformed RunRecord: examples[2].loss must be a finite float, got inf\n"),
        (lambda r: r["config"].pop("epochs"),
         "malformed RunRecord: config must have fields ['epochs', "),
        (lambda r: r["config"].update(seed="x"),
         "malformed RunRecord: config.seed must be an int, got 'x'\n"),
        (lambda r: r["config"].update(prompt_length="20"),
         "malformed RunRecord: config.prompt_length must be an int, got '20'\n"),
        (lambda r: r.update(control_eval_loss=10**400),
         "malformed RunRecord: control_eval_loss must be a finite float, got 1000"),
        (lambda r: r["examples"][0]["weights"].__setitem__(2, 10**400),
         "malformed RunRecord: examples[0].weights[2] must be a finite float, got 1000"),
        (lambda r: r["projection"][0].__setitem__(1, math.nan),
         "malformed RunRecord: projection[0][1] must be a finite float, got nan\n"),
        (lambda r: r["config"].update(lr=math.nan),
         "malformed RunRecord: config.lr must be a finite float, got nan\n"),
        (lambda r: r["config"].update(beta1=0.9),
         "malformed RunRecord: config must have fields ['epochs', "),
        (lambda r: r.update(wall_clock_seconds=math.nan),
         "malformed RunRecord: wall_clock_seconds must be a finite float, got nan\n"),
        (lambda r: r["examples"][0].update(question="why\ud800?"),
         "malformed RunRecord: examples[0].question must be a string UTF-8 can encode, "
         "got 'why\\ud800?'\n"),
        (lambda r: r.update(lm_param_hash="\ud800"),
         "malformed RunRecord: lm_param_hash must be a string UTF-8 can encode, "
         "got '\\ud800'\n"),
        (lambda r: r["examples"][0]["weights"].__delitem__(slice(3, None)),
         "malformed RunRecord: examples[0].weights must hold 7 weights, got 3\n"),
        (lambda r: r["examples"][2]["weights"].append(0.5),
         "malformed RunRecord: examples[2].weights must hold 7 weights, got 8\n"),
    ], ids=["projection_null", "projection_int_token", "eval_losses_null", "nan_weight",
            "inf_control_loss", "nan_step_loss", "inf_eval_loss", "inf_example_loss",
            "config_without_epochs", "config_string_seed", "config_string_prompt_length",
            "huge_control_loss", "huge_weight", "nan_projection_cosine", "nan_config_lr",
            "unknown_config_key", "nan_wall_clock", "unencodable_question",
            "unencodable_lm_hash", "three_weights", "eight_weights"])
    def test_mistyped_record_item_writes_nothing(self, edit, message, run_dir, tmp_path,
                                                 capsys):
        record = json.loads((run_dir / "record.json").read_text())
        edit(record)
        path, out = tmp_path / "record.json", tmp_path / "out"
        path.write_text(json.dumps(record))
        code = run_cli(["report", "--record", str(path), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert not out.exists()

    def test_ortho_prints_score(self, capsys):
        assert run_cli(["ortho", "--seed", "1"]) == 0
        stdout = capsys.readouterr().out
        assert "score:" in stdout
        assert "gram matrix:" in stdout

    def test_ortho_writes_file(self, tmp_path):
        out = tmp_path / "ortho"
        assert run_cli(["ortho", "--seed", "1", "--out", str(out)]) == 0
        assert (out / "ortho.txt").exists()

    # eval, ortho and embed always print; --out writes the printed text to a file
    @pytest.mark.parametrize("command, name", [("eval", "eval.txt"), ("ortho", "ortho.txt"),
                                               ("embed", "basis.json")])
    @pytest.mark.parametrize("out", ["sub/out", ""], ids=["dir", "empty-is-cwd"])
    def test_out_file_equals_stdout(self, command, name, out, run_dir, tmp_path, monkeypatch,
                                    capsys):
        monkeypatch.chdir(tmp_path)
        argv = [command, "--checkpoint", str(run_dir / "checkpoint.pbld")]
        argv += TINY if command == "eval" else []
        assert run_cli(argv) == 0
        printed = capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []
        assert run_cli([*argv, "--out", out]) == 0
        assert capsys.readouterr().out == printed
        assert sorted(p.name for p in (tmp_path / out).iterdir()) == (
            sorted([name, "eval.json"]) if command == "eval" else [name])
        assert (tmp_path / out / name).read_text(encoding="utf-8") == printed

    def test_embed_summarizes_basis(self, tmp_path, capsys):
        basis_file = tmp_path / "basis.txt"
        basis_file.write_text("# two prompts\nthink step by step\ndraw a diagram\n")
        assert run_cli(["embed", "--basis", str(basis_file), "--seed", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["prompts"] == ["think step by step", "draw a diagram"]
        assert len(payload["gram"]) == 2
        assert 0.0 <= payload["orthogonality_score"] <= 1.0

    def test_ortho_duplicate_basis_file(self, tmp_path, capsys):
        basis_file = tmp_path / "dup.txt"
        basis_file.write_text("same prompt\nsame prompt\n")
        assert run_cli(["ortho", "--basis", str(basis_file), "--seed", "1"]) == 0
        stdout = capsys.readouterr().out
        assert "score: 0.0000" in stdout
        assert "similarity 1.0000" in stdout

    # --basis default means the bundle's own prompts, and eval always uses them
    def test_ortho_of_a_bundle_lists_its_prompts(self, custom_bundle, capsys):
        assert run_cli(["ortho", "--checkpoint", str(custom_bundle)]) == 0
        listed = capsys.readouterr().out.split("prompts:\n")[1].splitlines()
        assert listed == [f"  {i}. {p}" for i, p in enumerate(CUSTOM_PROMPTS, start=1)]

    def test_ortho_of_a_bundle_with_no_prompts_is_validation_error(self, tmp_path, capsys):
        # the built-in basis would be all unknown words to this LM
        lm = FrozenLM(td.Vocab.build(["alpha beta"]), LMConfig(), 0)
        bundle, out = tmp_path / "empty.pbld", tmp_path / "out"
        bundle.write_bytes(bundle_bytes(lm, None, []))
        assert run_cli(["ortho", "--checkpoint", str(bundle), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: malformed bundle: basis_prompts is empty\n"
        assert not out.exists()

    def test_embed_of_a_bundle_lists_its_prompts(self, custom_bundle, capsys):
        assert run_cli(["embed", "--checkpoint", str(custom_bundle)]) == 0
        assert json.loads(capsys.readouterr().out)["prompts"] == CUSTOM_PROMPTS

    def test_train_from_a_bundle_keeps_its_prompts(self, custom_bundle, tmp_path):
        out = tmp_path / "run"
        assert run_cli(["train", *FAST_TRAIN, "--checkpoint", str(custom_bundle),
                        "--out", str(out)]) == 0
        assert json.loads((out / "record.json").read_text())["basis_prompts"] == CUSTOM_PROMPTS

    def test_eval_embeds_the_bundle_prompts(self, run_dir, tmp_path, monkeypatch):
        reordered = list(reversed(DEFAULT_BASIS_PROMPTS))
        lm, predictor, _ = load_bundle(run_dir / "checkpoint.pbld")
        bundle = tmp_path / "reordered.pbld"
        bundle.write_bytes(bundle_bytes(lm, predictor, reordered))
        built, build_basis = [], composer.build_basis

        def spy(prompts, lm):
            built.append(prompts)
            return build_basis(prompts, lm)

        monkeypatch.setattr(composer, "build_basis", spy)
        assert run_cli(["eval", *TINY, "--checkpoint", str(bundle)]) == 0
        assert built == [reordered]


# what a dataset string must be; a lone surrogate, which a JSON `\ud800`
# escape gives, has no UTF-8 form
MUST_BE_STRING = "must be a string UTF-8 can encode, got"


def _never_called(*args, **kwargs):
    raise AssertionError("compute started before the flags were checked")


class TestFlagsCheckedBeforeCompute:
    @pytest.mark.parametrize("flag", [["--lr", "-1"], ["--dropout", "1.5"],
                                      ["--weight-decay", "-1"], ["--eval-every", "-1"],
                                      ["--lr", "nan"], ["--weight-decay", "nan"]])
    def test_bad_train_flag_exits_before_pretraining(self, flag, tmp_path, monkeypatch,
                                                     capsys):
        monkeypatch.setattr("promptblend.model.pretrain", _never_called)
        assert run_cli(["train", *TINY, *flag, "--out", str(tmp_path / "run")]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "pretrain"])
    def test_fixture_size_above_capacity_names_the_flag(self, command, tmp_path, capsys):
        start = time.perf_counter()
        assert run_cli([command, "--fixture-size", "8000", "--out", str(tmp_path / "run")]) == 1
        assert time.perf_counter() - start < 1.0
        assert ("argument --fixture-size: must be an integer from 1 to 7392, got '8000'"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("flag", [["--final-init-scale", "-1"]])
    def test_bad_basis_flag_exits_before_pretraining(self, flag, tmp_path, monkeypatch,
                                                     capsys):
        monkeypatch.setattr("promptblend.model.pretrain", _never_called)
        assert run_cli(["train", *TINY, *flag, "--out", str(tmp_path / "run")]) == 1
        assert flag[0] in capsys.readouterr().err

    def test_overlong_basis_prompt_exits_before_pretraining(self, tmp_path, monkeypatch,
                                                            capsys):
        # 240 prompt rows fit max_positions 256 alone, but not beside the
        # longest input's 49 tokens
        monkeypatch.setattr("promptblend.model.pretrain", _never_called)
        basis_file = tmp_path / "long.txt"
        basis_file.write_text("think step by step\n" + " ".join(["word"] * 240) + "\n")
        assert run_cli(["train", *TINY, "--basis", str(basis_file), "--top", "2",
                        "--out", str(tmp_path / "run")]) == 1
        assert (capsys.readouterr().err
                == "error: example 'fx00002': prompt+input length 289 exceeds max_positions 256\n")
        assert not (tmp_path / "run").exists()

    def test_pretrain_with_an_overlong_basis_prompt_exits_before_pretraining(
            self, tmp_path, monkeypatch, capsys):
        # the bundle would store a basis that no later command could use
        monkeypatch.setattr("promptblend.model.pretrain", _never_called)
        basis_file = tmp_path / "long.txt"
        basis_file.write_text(" ".join(["word"] * 300) + "\n")
        out = tmp_path / "pre"
        assert run_cli(["pretrain", "--fixture-size", "40", "--fixture-seed", "5", "--epochs",
                        "1", "--basis", str(basis_file), "--out", str(out)]) == 1
        assert (capsys.readouterr().err
                == "error: example 'fx00002': prompt+input length 349 exceeds max_positions 256\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "embed", "ortho"])
    def test_prompt_length_is_not_a_flag(self, command, tmp_path, monkeypatch, capsys):
        # prompts always pad to the longest basis prompt
        monkeypatch.setattr("promptblend.model.pretrain", _never_called)
        out = tmp_path / "out"
        assert run_cli([command, "--prompt-length", "30", "--out", str(out)]) == 1
        assert "unrecognized arguments: --prompt-length 30" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_pretrain_lr_exits_before_any_forward(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(FrozenLM, "loss_with_prompt", _never_called)
        for lr in ("-1", "nan"):
            assert run_cli(["pretrain", *TINY, "--lr", lr, "--out", str(tmp_path / "pre")]) == 1
            assert (f"argument --lr: must be a non-negative number, got '{lr}'"
                    in capsys.readouterr().err)
        assert not (tmp_path / "pre").exists()

    @pytest.mark.parametrize("value", ["-1", "abc"])
    def test_bad_seed_names_the_flag(self, value, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("promptblend.model.pretrain", _never_called)
        argv = ["train", *TINY, "--out", str(tmp_path / "run")]
        assert run_cli([*argv, "--seed", value]) == 1
        assert (f"argument --seed: must be an integer of at least 0, got '{value}'"
                in capsys.readouterr().err)
        assert not (tmp_path / "run").exists()

    def test_top_above_the_basis_size_exits_before_pretraining(self, tmp_path, monkeypatch,
                                                               capsys):
        monkeypatch.setattr("promptblend.model.pretrain", _never_called)
        monkeypatch.setattr("promptblend.cli.load_bundle", _never_called)
        basis_file = tmp_path / "two.txt"
        basis_file.write_text("think step by step\ndraw a diagram\n")
        assert run_cli(["train", *TINY, "--basis", str(basis_file),
                        "--out", str(tmp_path / "run")]) == 1
        assert "--top 3 exceeds the basis size 2" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_top_above_the_report_numerals_exits_before_pretraining(self, tmp_path,
                                                                    monkeypatch, capsys):
        monkeypatch.setattr("promptblend.model.pretrain", _never_called)
        basis_file = tmp_path / "eleven.txt"
        basis_file.write_text("".join(f"prompt {word}\n" for word in "abcdefghijk"))
        assert run_cli(["train", *TINY, "--basis", str(basis_file), "--top", "11",
                        "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err == "error: --top 11 exceeds the report's 10 numerals\n"
        assert not (tmp_path / "run").exists()

    def test_report_top_above_the_basis_size_exits_before_loading(self, run_dir, tmp_path,
                                                                  monkeypatch, capsys):
        monkeypatch.setattr("promptblend.cli.load_bundle", _never_called)
        assert run_cli(["report", "--record", str(run_dir / "record.json"), "--top", "8",
                        "--out", str(tmp_path / "out")]) == 1
        assert "--top 8 exceeds the basis size 7" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_eval_takes_no_basis(self, run_dir, monkeypatch, capsys):
        # the bundle's prompts are the basis its predictor was trained on
        monkeypatch.setattr("promptblend.cli.load_bundle", _never_called)
        assert run_cli(["eval", *TINY, "--checkpoint", str(run_dir / "checkpoint.pbld"),
                        "--basis", "x"]) == 1
        assert "unrecognized arguments: --basis x" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        (lambda r: r["choices"][0].update(label=1), f"choices[0].label {MUST_BE_STRING} 1"),
        (lambda r: r.update(id=7), f"id {MUST_BE_STRING} 7"),
        (lambda r: r.update(question=5), f"question {MUST_BE_STRING} 5"),
        (lambda r: r["choices"][1].update(text=None), f"choices[1].text {MUST_BE_STRING} None"),
        (lambda r: r.update(choices="ABC"), "choices must be a list, got 'ABC'"),
        (lambda r: r.update(answerKey=["A"]), f"answerKey {MUST_BE_STRING} ['A']"),
        (lambda r: r.update(id="q\ud800"), f"id {MUST_BE_STRING} 'q\\ud800'"),
        (lambda r: r.update(question="Which \ud800one?"),
         f"question {MUST_BE_STRING} 'Which \\ud800one?'"),
        (lambda r: r.update(answerKey="\ud800"), f"answerKey {MUST_BE_STRING} '\\ud800'"),
        (lambda r: r["choices"][0].update(label="A\ud800"),
         f"choices[0].label {MUST_BE_STRING} 'A\\ud800'"),
        (lambda r: r["choices"][2].update(text="option \ud800C"),
         f"choices[2].text {MUST_BE_STRING} 'option \\ud800C'"),
        (lambda r: r.update(source="web"),
         "expected fields ['id', 'question', 'choices', 'answerKey'], "
         "got ['answerKey', 'choices', 'id', 'question', 'source']"),
        (lambda r: r["choices"][1].update(score=1),
         "choices[1] must have fields ['label', 'text'], got ['label', 'score', 'text']"),
    ], ids=["label", "id", "question", "text", "choices", "answerKey", "surrogate-id",
            "surrogate-question", "surrogate-answerKey", "surrogate-label", "surrogate-text",
            "unknown-key", "unknown-choice-key"])
    def test_mistyped_dataset_field_exits_before_any_compute(self, edit, message, tmp_path,
                                                             monkeypatch, capsys):
        monkeypatch.setattr("promptblend.model.pretrain", _never_called)
        records = [{"id": f"q{i}", "question": "Which one?", "answerKey": "A",
                    "choices": [{"label": lab, "text": f"option {lab}"} for lab in "ABC"]}
                   for i in range(2)]
        edit(records[0])
        data = tmp_path / "data.jsonl"
        data.write_text("".join(json.dumps(r) + "\n" for r in records))
        assert run_cli(["train", "--data", str(data), "--val-fraction", "0.5",
                        "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err == f"error: line 1: {message}\n"
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("argv, message", [
        (["train", *TINY, "--data"], "line 2: not valid UTF-8 (byte 8: invalid start byte)"),
        (["train", *TINY, "--basis"],
         "basis file {path} line 2: not valid UTF-8 (byte 8: invalid start byte)"),
        (["report", "--record"],
         "malformed RunRecord: not valid UTF-8 (byte 19: invalid start byte)"),
    ], ids=["dataset", "basis", "record"])
    def test_input_that_is_not_utf8_exits_before_any_compute(self, argv, message, tmp_path,
                                                             monkeypatch, capsys):
        monkeypatch.setattr("promptblend.model.pretrain", _never_called)
        monkeypatch.setattr("promptblend.cli.load_bundle", _never_called)
        path, out = tmp_path / "input", tmp_path / "out"
        path.write_bytes(b"first line\nsecond \xff line\n")
        assert run_cli([*argv, str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message.format(path=path)}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "pretrain"])
    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-a-file"])
    def test_out_that_cannot_be_a_directory_exits_before_any_compute(
            self, command, under, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("promptblend.model.pretrain", _never_called)
        blocker = tmp_path / "file"
        blocker.write_text("kept\n")
        out = blocker / "sub" if under else blocker
        assert run_cli([command, *TINY, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: --out {out}: {blocker} is not a directory\n"
        assert blocker.read_text() == "kept\n"
        assert sorted(tmp_path.iterdir()) == [blocker]

    def test_out_that_is_a_dangling_link_exits_before_any_compute(self, tmp_path, monkeypatch,
                                                                  capsys):
        # mkdir cannot make a directory where a dangling link stands
        monkeypatch.setattr("promptblend.model.pretrain", _never_called)
        link = tmp_path / "link"
        link.symlink_to(tmp_path / "nowhere" / "run")
        assert run_cli(["train", *TINY, "--out", str(link)]) == 1
        assert capsys.readouterr().err == f"error: --out {link}: {link} is not a directory\n"
        assert sorted(tmp_path.iterdir()) == [link]

    def test_eval_takes_no_seed(self, run_dir, capsys):
        argv = ["eval", *TINY, "--checkpoint", str(run_dir / "checkpoint.pbld")]
        assert run_cli([*argv, "--seed", "1"]) == 1
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
        assert run_cli(argv) == 0
        assert "prompted eval loss" in capsys.readouterr().out

    @pytest.mark.parametrize("command", [["train"], ["pretrain"],
                                         ["eval", "--checkpoint", "missing.pbld"]])
    def test_empty_dataset_exits_before_any_compute(self, command, tmp_path, monkeypatch,
                                                    capsys):
        data = tmp_path / "empty.jsonl"
        data.write_text("")
        monkeypatch.setattr("promptblend.model.pretrain", _never_called)
        monkeypatch.setattr("promptblend.cli.load_bundle", _never_called)
        assert run_cli([*command, "--data", str(data), "--out", str(tmp_path / "run")]) == 1
        assert f"dataset {data} contains no examples" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    # one example splits into none for training and one for eval
    @pytest.mark.parametrize("command", [["train", "--checkpoint", "missing.pbld"],
                                         ["train"], ["pretrain"]])
    def test_empty_training_split_exits_before_any_compute(self, command, tmp_path,
                                                           monkeypatch, capsys):
        monkeypatch.setattr("promptblend.model.pretrain", _never_called)
        monkeypatch.setattr("promptblend.cli.load_bundle", _never_called)
        assert run_cli([*command, "--fixture-size", "1", "--out", str(tmp_path / "run")]) == 1
        assert ("--val-fraction 0.2 leaves no training examples out of 1"
                in capsys.readouterr().err)
        assert not (tmp_path / "run").exists()


VALID_BASIS = b"# three prompts\nthink step by step\n\ndraw a diagram\n  list the facts  \n"
# byte-level edits: a non-UTF-8 byte, line ends, blank and comment lines, a
# NUL, the separators str.splitlines would split on but text mode does not,
# and a prompt longer than max_positions
BASIS_INSERTS = st.sampled_from([
    b"\xff", b"\xc3", b"\r", b"\r\n", b"\n", b"\n\n", b" \t\n", b"#", b"\n# x", b"\x00",
    "\u2028".encode(), "\u2029".encode(), "\x85".encode(), b"\x0b", b"\x0c", b"\x1c", b"",
    b"\n" + b"word " * 300])


def _basis_prompts(blob: bytes) -> list[str] | None:
    """The prompts a basis file holds, or None if it is not UTF-8: its
    stripped lines, split at \\n, \\r and \\r\\n only, that are neither blank
    nor comments."""
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError:
        return None
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    return [s for s in map(str.strip, lines) if s and not s.startswith("#")]


class TestBasisFileContract:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(edits=st.lists(st.tuples(st.integers(0, len(VALID_BASIS)), st.integers(0, 2),
                                    BASIS_INSERTS), min_size=1, max_size=3))
    def test_an_edited_basis_file_is_listed_or_rejected_in_one_line(self, edits,
                                                                     tmp_path_factory):
        """Edits at byte offsets: ortho lists exactly the file's prompts, or
        exits 1 with one stderr line and writes nothing under --out."""
        blob = VALID_BASIS
        for at, cut, insert in edits:
            at = min(at, len(blob))
            blob = blob[:at] + insert + blob[at + cut:]
        where = tmp_path_factory.getbasetemp()
        basis, out = where / "contract-basis.txt", where / "contract-out"
        basis.write_bytes(blob)
        shutil.rmtree(out, ignore_errors=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = run_cli(["ortho", "--seed", "1", "--basis", str(basis), "--out", str(out)])
        prompts = _basis_prompts(blob)
        if code == 1:
            assert stderr.getvalue().count("\n") == 1 and stderr.getvalue().endswith("\n")
            assert not out.exists()
            return
        assert code == 0 and prompts, stderr.getvalue()
        listed = stdout.getvalue().rsplit("\nprompts:\n", 1)[1].split("\n")
        assert listed == [f"  {i}. {p}" for i, p in enumerate(prompts, start=1)] + [""]
        assert (out / "ortho.txt").read_text(encoding="utf-8") == stdout.getvalue()


@pytest.fixture(scope="module")
def scratch_file(tmp_path_factory):
    return tmp_path_factory.mktemp("cli-input") / "input"


class TestNeverTraceback:
    """Whatever the input, the CLI returns an exit code instead of raising."""

    @settings(max_examples=40, deadline=None)
    @given(command=st.sampled_from(["embed", "ortho"]),
           basis_text=st.none() | st.text(max_size=300))
    @example(command="embed", basis_text="word " * 10_000)
    def test_basis_inspection(self, scratch_file, command, basis_text):
        argv = [command, "--seed", "1"]
        if basis_text is not None:
            scratch_file.write_text(basis_text, encoding="utf-8")
            argv += ["--basis", str(scratch_file)]
        assert run_cli(argv) in (0, 1, 2)

    @settings(max_examples=40, deadline=None)
    @given(blob=st.binary(max_size=200))
    def test_eval_of_arbitrary_checkpoint_bytes(self, scratch_file, blob):
        scratch_file.write_bytes(blob)
        assert run_cli(["eval", *TINY, "--checkpoint", str(scratch_file)]) in (0, 1, 2)


def _child_env() -> dict:
    """This process's environment, with this promptblend importable."""
    src = str(Path(promptblend.__file__).parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def _python(*args, cwd=None, preexec_fn=None, env=None):
    """A fresh interpreter run with `args`, with this promptblend importable;
    `preexec_fn` runs in the child before it starts."""
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True,
                          timeout=300, env=env or _child_env(), preexec_fn=preexec_fn)


def _promptblend(*argv, cwd, preexec_fn=None):
    """The promptblend command as a separate process, through cli.main."""
    return _python("-m", "promptblend.cli", *argv, cwd=cwd, preexec_fn=preexec_fn)


def _mallopt_calls(libc: str) -> list:
    """The mallopt calls a bare `import promptblend` makes when ctypes.CDLL
    returns the class Libc defined in `libc`."""
    proc = _python("-c", f"import ctypes\ncalls = []\n{libc}\n"
                         "ctypes.CDLL = lambda name: Libc()\nimport promptblend\nprint(calls)")
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout)


class TestProcessEntryPoint:
    def test_a_divergence_prints_one_line(self, tmp_path):
        # an infinite rate passes --lr's domain and diverges at the second step
        proc = _promptblend("train", "--fixture-size", "40", "--pretrain-epochs", "1",
                            "--epochs", "2", "--lr", "inf", "--out", "run", cwd=tmp_path)
        assert proc.returncode == 2
        assert proc.stderr == "runtime failure: non-finite loss at step 2 (epoch 1)\n"

    def test_main_writes_the_files_run_cli_writes(self, tmp_path, monkeypatch):
        chain = [["pretrain", *TINY, "--epochs", "1", "--seed", "3", "--out", "pre"],
                 ["train", *FAST_TRAIN, "--seed", "3", "--checkpoint", "pre/checkpoint.pbld",
                  "--out", "run"]]
        by_main, by_run_cli = tmp_path / "main", tmp_path / "run_cli"
        by_main.mkdir()
        by_run_cli.mkdir()
        for argv in chain:
            proc = _promptblend(*argv, cwd=by_main)
            assert proc.returncode == 0, proc.stderr
        monkeypatch.chdir(by_run_cli)
        for argv in chain:
            assert run_cli(argv) == 0
        names = ["pre/checkpoint.pbld", "run/checkpoint.pbld", "run/curve.csv",
                 "run/report.json", "run/report.txt"]
        for name in names:
            assert (by_main / name).read_bytes() == (by_run_cli / name).read_bytes(), name
        records = [json.loads((d / "run" / "record.json").read_text())
                   for d in (by_main, by_run_cli)]
        for record in records:
            del record["wall_clock_seconds"]
        assert records[0] == records[1]

    def test_eval_of_a_bundle_with_huge_max_positions_fits_in_memory(self, run_dir,
                                                                     tmp_path):
        # the LM builds its sinusoid table only as long as what it embeds: a
        # table of max_positions rows would need about 24 GiB here
        tensors, meta = load_checkpoint(run_dir / "checkpoint.pbld")
        meta["lm"]["config"]["max_positions"] = 10**8
        (tmp_path / "huge.pbld").write_bytes(checkpoint_bytes(tensors, meta))

        def limit_address_space():  # in the child only
            resource.setrlimit(resource.RLIMIT_AS, (3 * 10**9, 3 * 10**9))

        results = []
        for bundle in (tmp_path / "huge.pbld", run_dir / "checkpoint.pbld"):
            proc = _promptblend("eval", *TINY, "--checkpoint", str(bundle), "--out",
                                bundle.stem, cwd=tmp_path, preexec_fn=limit_address_space)
            assert proc.returncode == 0, proc.stderr
            results.append((tmp_path / bundle.stem / "eval.json").read_bytes())
        assert results[0] == results[1]

    def test_an_interrupt_exits_130_with_one_line(self, tmp_path):
        # a shell's background job starts with SIGINT ignored, so the child
        # restores its default, which Python turns into KeyboardInterrupt
        script = "from promptblend.cli import main\nprint('ready', flush=True)\nmain()"
        child = subprocess.Popen(
            [sys.executable, "-c", script, "pretrain", "--fixture-size", "1000", "--epochs",
             "30", "--out", "run"], cwd=tmp_path, env=_child_env(), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL))
        try:
            assert child.stdout.readline() == "ready\n"
            time.sleep(1.0)  # into pretraining, which takes far longer
            child.send_signal(signal.SIGINT)
            _, err = child.communicate(timeout=60)
        finally:
            child.kill()
        assert child.returncode == 130
        assert err == "interrupted\n"
        assert not (tmp_path / "run").exists()

    def test_blas_threads_do_not_depend_on_the_import_order(self):
        # OpenBLAS reads its thread count when numpy loads it, so importing
        # numpy first used to leave it at the host's default
        probe = ("import sys\nif sys.argv[1] == 'numpy-first':\n    import numpy\n"
                 "import promptblend\nimport ctypes, glob, os\nimport numpy as np\n"
                 "from promptblend import textdata as td\n"
                 "from promptblend.model import PretrainConfig, pretrain_examples\n"
                 "libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "
                 "'numpy.libs', 'libscipy_openblas64_*'))\n"
                 "print(ctypes.CDLL(libs[0]).scipy_openblas_get_num_threads64_() "
                 "if libs else None)\n"
                 "lm = pretrain_examples(td.make_fixture(5, 120), "
                 "PretrainConfig(epochs=2, batch_size=40), 0)\nprint(lm.param_hash())")
        env = {k: v for k, v in _child_env().items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        runs = []
        for order in ("numpy-first", "promptblend-first"):
            proc = _python("-c", probe, order, env=env)
            assert proc.returncode == 0 and proc.stderr == "", proc.stderr
            runs.append(proc.stdout.split())
        if runs[0][0] == "None":
            pytest.skip("numpy does not bundle scipy-openblas here")
        assert runs[0] == runs[1] and runs[0][0] == "1"

    def test_a_numpy_without_openblas_is_named_once(self, tmp_path):
        fake = ("import sys, types\nnumpy = types.ModuleType('numpy')\n"
                f"numpy.__file__ = {str(tmp_path / 'numpy' / '__init__.py')!r}\n"
                "sys.modules['numpy'] = numpy\nimport promptblend")
        proc = _python("-c", fake)
        assert proc.returncode == 0
        assert proc.stderr == ("promptblend: numpy was imported first and its BLAS thread "
                               "count could not be set to 1\n")

    def test_a_bare_import_loads_no_submodule(self):
        # the package root only sets the runtime: importing it loads neither
        # a submodule nor numpy
        proc = _python("-c", "import sys, promptblend\nprint(sorted(m for m in sys.modules "
                             "if m.startswith(('promptblend.', 'numpy'))))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_heap_settings(self):
        libc = ("class Libc:\n    @staticmethod\n    def mallopt(param, value):\n"
                "        calls.append((param, value))\n        return 1")
        assert _mallopt_calls(libc) == [(-3, 32 << 20), (-1, 256 << 20)]

    def test_heap_settings_are_a_no_op_without_mallopt(self):
        assert _mallopt_calls("class Libc:\n    pass") == []

    @pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallopt"),
                        reason="the C library has no mallopt")
    def test_in_process_training_reuses_freed_pages(self, tmp_path):
        # glibc's default heap unmaps each freed FFN-sized array, so the next
        # step faults its pages in again: this run took 22k-39k minor faults
        # there, and about 5k under the heap policy importing promptblend sets
        probe = ("import resource, sys\nfrom promptblend.cli import run_cli\n"
                 "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
                 "code = run_cli(sys.argv[1:])\n"
                 "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)")
        proc = _python("-c", probe, "train", "--fixture-size", "60", "--fixture-seed", "5",
                       "--pretrain-epochs", "2", "--epochs", "2", "--out", "run",
                       cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        code, faults = proc.stdout.splitlines()[-1].split()
        assert code == "0", proc.stderr
        assert int(faults) < 10_000


STABILITY = Path(__file__).resolve().parents[1] / "scripts" / "run_stability.py"


def _accepts(convert, ok):
    def check(text):
        try:
            return ok(convert(text))
        except ValueError:
            return False
    return check


# Each numeric flag's domain, written out apart from cli.py's declarations.
COUNT = _accepts(int, lambda v: v >= 1)
NON_NEGATIVE_INT = _accepts(int, lambda v: v >= 0)
RATE = _accepts(float, lambda v: v >= 0)
DOMAINS = {
    "--fixture-size": _accepts(int, lambda v: 1 <= v <= 7392),
    "--fixture-seed": NON_NEGATIVE_INT, "--seed": NON_NEGATIVE_INT,
    "--val-fraction": _accepts(float, lambda v: 0 < v < 1),
    "--epochs": COUNT, "--pretrain-epochs": COUNT, "--batch-size": COUNT, "--top": COUNT,
    "--eval-every": NON_NEGATIVE_INT,
    "--lr": RATE, "--weight-decay": RATE,
    "--dropout": _accepts(float, lambda v: 0 <= v < 1),
    "--final-init-scale": _accepts(float, lambda v: 0 <= v < float("inf")),
}
SCRIPT_DOMAINS = {**DOMAINS, "--epochs": _accepts(int, lambda v: v >= 2),
                  "--seeds": NON_NEGATIVE_INT}


def _subparsers():
    parser = _build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def _readme_commands() -> list[tuple[list[str], list[str]]]:
    """(environment assignments, arguments) of each `promptblend` command in
    README's shell blocks, continuation lines joined and comments dropped."""
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    script = "\n".join(re.findall(r"```sh\n(.*?)```", text, re.S)).replace("\\\n", " ")
    words = [shlex.split(line, comments=True) for line in script.splitlines()]
    return [(w[:w.index("promptblend")], w[w.index("promptblend") + 1:])
            for w in words if "promptblend" in w]


def test_every_readme_command_parses(capsys):
    """A flag or environment variable the CLI no longer reads fails here while
    README still shows it."""
    package = Path(promptblend.__file__).parent
    source = "".join(p.read_text(encoding="utf-8") for p in package.glob("*.py"))
    commands = _readme_commands()
    assert {argv[0] for _, argv in commands} == set(_subparsers())
    for env, argv in commands:
        unnamed = [a for a in env if a.split("=")[0] not in source]
        assert not unnamed, f"README sets variables the package never names: {unnamed}"
        try:
            _build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"README's promptblend {' '.join(argv)}: {capsys.readouterr().err}")


def test_no_flag_has_a_bare_numeric_type():
    bare = [f"{name} {a.option_strings[0]}" for name, sub in _subparsers().items()
            for a in sub._actions if a.type in (int, float)]
    assert not bare, f"flags without a declared domain: {bare}"


class _ComputeReached(RuntimeError):
    pass


def _reach(*args, **kwargs):
    raise _ComputeReached("compute reached")


@pytest.fixture(scope="module")
def flag_inputs(tmp_path_factory):
    """Argv prefixes that reach model.pretrain or load_bundle when every flag is
    valid; report reaches neither, and renders the stub record."""
    root = tmp_path_factory.mktemp("flags")
    record, ck = root / "record.json", root / "checkpoint.pbld"
    record.write_text(_stub_record_json())
    ck.write_bytes(b"")
    out = ["--out", str(root / "out")]
    return {
        "pretrain": ["pretrain", *TINY, *out],
        "train": ["train", *TINY, *out],
        "eval": ["eval", *TINY, "--checkpoint", str(ck)],
        "report": ["report", "--record", str(record), *out],
        "ortho": ["ortho", "--checkpoint", str(ck)],
        "embed": ["embed", "--checkpoint", str(ck)],
        "run_stability.py": [str(STABILITY), *TINY[:4], "--pretrain-epochs", "1",
                             "--epochs", "2", "--seeds", "1", *out],
    }


def _numeric_flags():
    flags = [(name, a.option_strings[0]) for name, sub in _subparsers().items()
             for a in sub._actions if a.type is not None]
    return flags + [("run_stability.py", flag) for flag in
                    ("--fixture-size", "--fixture-seed", "--pretrain-epochs", "--epochs",
                     "--seeds", "--lr")]


# small in-domain sizes keep make_fixture cheap; the edges sit beside them
FLAG_TEXT = (st.integers(-3, 40).map(str) | st.floats().map(repr) | st.text(max_size=8)
             | st.sampled_from(["nan", "inf", "-inf", "-0", "1e-3", "0.999", "1_0", " 7 ",
                                "7393", "10" * 20, "0x10"]))


class TestFlagDomains:
    """Every numeric flag of every subcommand and of scripts/run_stability.py
    takes arbitrary text without a traceback, and rejects each value outside
    its domain before any compute."""

    @settings(max_examples=200, deadline=None)
    @given(flag=st.sampled_from(_numeric_flags()), text=FLAG_TEXT)
    def test_out_of_domain_values_exit_before_compute(self, flag_inputs, flag, text):
        program, name = flag
        argv = [*flag_inputs[program], f"{name}={text}"]
        stderr = io.StringIO()
        with (pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(stderr),
              contextlib.redirect_stdout(io.StringIO())):
            mp.setattr("promptblend.model.pretrain", _reach)
            mp.setattr("promptblend.cli.load_bundle", _reach)
            if program == "run_stability.py":
                in_domain = SCRIPT_DOMAINS[name](text)
                mp.setattr(sys, "argv", argv)
                try:
                    runpy.run_path(str(STABILITY), run_name="__main__")
                    code = 0
                except SystemExit as e:
                    code = e.code
                except _ComputeReached:
                    code = "reached"
            else:
                in_domain = DOMAINS[name](text)
                code = run_cli(argv)
        err = stderr.getvalue()
        assert "Traceback" not in err
        if in_domain:
            assert code in (0, 1, 2, "reached")
        else:
            assert code == (2 if program == "run_stability.py" else 1)
            assert "compute reached" not in err
            assert f"argument {name}: must be" in err and repr(text) in err
