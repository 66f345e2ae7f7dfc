import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from promptblend.cli import run_cli
from promptblend.model import FrozenLM

TINY = ["--fixture-size", "30", "--fixture-seed", "5", "--val-fraction", "0.2"]
FAST_TRAIN = TINY + ["--pretrain-epochs", "1", "--epochs", "1", "--batch-size", "10"]


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
        code = run_cli(["train", "--data", str(tmp_path / "nope.jsonl"),
                        "--out", str(tmp_path / "run")])
        assert code in (1, 2)
        assert capsys.readouterr().err


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

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        out1, out2 = tmp_path / "env", tmp_path / "flag"
        monkeypatch.setenv("PROMPTBLEND_SEED", "7")
        assert run_cli(["train", *FAST_TRAIN, "--out", str(out1)]) == 0
        monkeypatch.delenv("PROMPTBLEND_SEED")
        assert _train(out2, seed="7") == 0
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


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "run"
    assert _train(out) == 0
    return out


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

    def test_eval_from_checkpoint(self, run_dir, capsys):
        code = run_cli(["eval", *TINY, "--checkpoint",
                        str(run_dir / "checkpoint.pbld")])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "control eval loss" in stdout
        assert "prompted eval loss" in stdout
        assert "prompted accuracy" in stdout

    def test_report_rerenders_identically(self, run_dir, tmp_path, capsys):
        out = tmp_path / "rerender"
        code = run_cli(["report", "--record", str(run_dir / "record.json"),
                        "--out", str(out)])
        assert code == 0
        for name in ("report.txt", "report.json", "curve.csv"):
            assert (out / name).read_bytes() == (run_dir / name).read_bytes(), name

    def test_truncated_checkpoint_is_validation_error(self, run_dir, tmp_path, capsys):
        cut = tmp_path / "cut.pbld"
        cut.write_bytes((run_dir / "checkpoint.pbld").read_bytes()[:10])
        assert run_cli(["eval", *TINY, "--checkpoint", str(cut)]) == 1
        err = capsys.readouterr().err
        assert "truncated checkpoint" in err and "Traceback" not in err

    def test_malformed_record_is_validation_error(self, run_dir, tmp_path, capsys):
        record = json.loads((run_dir / "record.json").read_text())
        del record["steps"][0]["loss"]
        path = tmp_path / "record.json"
        path.write_text(json.dumps(record))
        code = run_cli(["report", "--record", str(path), "--checkpoint",
                        str(run_dir / "checkpoint.pbld"), "--out", str(tmp_path / "out")])
        assert code == 1
        assert "StepRecord" in capsys.readouterr().err

    def test_ortho_prints_score(self, capsys):
        assert run_cli(["ortho", "--seed", "1"]) == 0
        stdout = capsys.readouterr().out
        assert "score:" in stdout
        assert "gram matrix:" in stdout

    def test_ortho_writes_file(self, tmp_path):
        out = tmp_path / "ortho"
        assert run_cli(["ortho", "--seed", "1", "--out", str(out)]) == 0
        assert (out / "ortho.txt").exists()

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


def _never_called(*args, **kwargs):
    raise AssertionError("compute started before the flags were checked")


class TestFlagsCheckedBeforeCompute:
    @pytest.mark.parametrize("flag", [["--lr", "-1"], ["--dropout", "1.5"],
                                      ["--weight-decay", "-1"], ["--eval-every", "-1"]])
    def test_bad_train_flag_exits_before_pretraining(self, flag, tmp_path, monkeypatch,
                                                     capsys):
        monkeypatch.setattr("promptblend.cli.pretrain", _never_called)
        assert run_cli(["train", *TINY, *flag, "--out", str(tmp_path / "run")]) == 1
        assert "error:" in capsys.readouterr().err

    # the longest basis prompt has 20 tokens, the longest input 49, and
    # max_positions is 256
    @pytest.mark.parametrize("flag", [["--final-init-scale", "-1"], ["--prompt-length", "3"],
                                      ["--prompt-length", "240"], ["--prompt-length", "257"]])
    def test_bad_basis_flag_exits_before_pretraining(self, flag, tmp_path, monkeypatch,
                                                     capsys):
        monkeypatch.setattr("promptblend.cli.pretrain", _never_called)
        assert run_cli(["train", *TINY, *flag, "--out", str(tmp_path / "run")]) == 1
        assert flag[0] in capsys.readouterr().err

    def test_bad_pretrain_lr_exits_before_any_forward(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(FrozenLM, "loss_with_prompt", _never_called)
        assert run_cli(["pretrain", *TINY, "--lr", "-1", "--out", str(tmp_path / "pre")]) == 1
        assert "lr must be non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["train"], ["pretrain"],
                                         ["eval", "--checkpoint", "missing.pbld"]])
    def test_empty_dataset_exits_before_any_compute(self, command, tmp_path, monkeypatch,
                                                    capsys):
        data = tmp_path / "empty.jsonl"
        data.write_text("")
        monkeypatch.setattr("promptblend.cli.pretrain", _never_called)
        monkeypatch.setattr("promptblend.cli.load_bundle", _never_called)
        assert run_cli([*command, "--data", str(data), "--out", str(tmp_path / "run")]) == 1
        assert f"dataset {data} contains no examples" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()


@pytest.fixture(scope="module")
def scratch_file(tmp_path_factory):
    return tmp_path_factory.mktemp("cli-input") / "input"


class TestNeverTraceback:
    """Whatever the input, the CLI returns an exit code instead of raising."""

    @settings(max_examples=40, deadline=None)
    @given(command=st.sampled_from(["embed", "ortho"]), length=st.integers(),
           basis_text=st.none() | st.text(max_size=300))
    @example(command="embed", length=10**9, basis_text=None)
    def test_basis_inspection(self, scratch_file, command, length, basis_text):
        argv = [command, "--seed", "1", f"--prompt-length={length}"]
        if basis_text is not None:
            scratch_file.write_text(basis_text, encoding="utf-8")
            argv += ["--basis", str(scratch_file)]
        assert run_cli(argv) in (0, 1, 2)

    @settings(max_examples=40, deadline=None)
    @given(blob=st.binary(max_size=200))
    def test_eval_of_arbitrary_checkpoint_bytes(self, scratch_file, blob):
        scratch_file.write_bytes(blob)
        assert run_cli(["eval", *TINY, "--checkpoint", str(scratch_file)]) in (0, 1, 2)
