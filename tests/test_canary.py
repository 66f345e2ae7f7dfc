"""The benchmark's canary gate, run in tier-1.

perfbench/run.py runs a pretrain -> train -> eval CLI chain on a small
fixture and requires every loss it writes to match perfbench/canary.json
within a relative CANARY_REL. This test runs the same chain in-process, so
a change that moves those losses fails here before the benchmark is run.
The benchmark's constants are read from run.py's source with `ast`; the
script is not imported.
"""

import ast
import json
from pathlib import Path

from promptblend import textdata as td
from promptblend.checkpoint import load_bundle
from promptblend.cli import run_cli

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _constants(*names: str) -> list:
    """The literal values perfbench/run.py assigns to `names` at module level."""
    tree = ast.parse((BENCH / "run.py").read_text(encoding="utf-8"))
    found = {target.id: ast.literal_eval(node.value)
             for node in tree.body if isinstance(node, ast.Assign)
             for target in node.targets if getattr(target, "id", None) in names}
    return [found[name] for name in names]


def test_the_canary_chain_matches_the_pinned_losses(tmp_path, capsys):
    pin = json.loads((BENCH / "canary.json").read_text(encoding="utf-8"))
    seed, size, epochs, lr, rel = _constants("CANARY_SEED", "CANARY_SIZE", "CANARY_EPOCHS",
                                             "TRAIN_LR", "CANARY_REL")
    assert [pin["seed"], pin["size"], pin["epochs"]] == [seed, size, epochs]
    data, lm, bundle, ev = (tmp_path / name for name in ("data.jsonl", "lm", "bundle", "eval"))
    td.save_dataset(td.make_fixture(seed, size), data)
    # the flags of run.py's canary_losses and train_args
    assert run_cli(["pretrain", "--data", str(data), "--epochs", str(epochs),
                    "--seed", str(seed), "--out", str(lm)]) == 0
    assert run_cli(["train", "--data", str(data), "--checkpoint", str(lm / "checkpoint.pbld"),
                    "--epochs", str(epochs), "--batch-size", "10", "--lr", lr,
                    "--seed", str(seed), "--out", str(bundle)]) == 0
    assert run_cli(["eval", "--data", str(data), "--checkpoint",
                    str(bundle / "checkpoint.pbld"), "--out", str(ev)]) == 0
    got = {"pretrain": load_bundle(lm / "checkpoint.pbld")[0].pretrain_record,
           "train_b10": json.loads((bundle / "record.json").read_text(encoding="utf-8")),
           "eval": json.loads((ev / "eval.json").read_text(encoding="utf-8"))}
    assert sorted(pin["losses"]) == sorted(got)
    for step, losses in pin["losses"].items():
        for key, want in losses.items():
            assert abs(got[step][key] - want) <= rel * abs(want), (step, key, got[step][key])
