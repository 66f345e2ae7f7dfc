"""The benchmark's own bundle reader, run in tier-1.

perfbench/run.py parses bundles without importing promptblend: read_pbld
gives pretrain's quality_loss (`pretrain_record.final_loss`), and lm_hash
must equal a run record's `lm_param_hash`, or the benchmark scores the
train_b10 workload incorrect. These tests compile the two functions from
run.py's source with `ast`, so the script is not imported and nothing is
written under perfbench/.
"""

import ast
import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np
import pytest

from promptblend.checkpoint import bundle_bytes, parse_checkpoint
from promptblend.composer import WeightPredictor
from promptblend.model import LMConfig, PretrainConfig, pretrain

RUN_PY = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
TINY = LMConfig(embed_dim=4, num_heads=2, ffn_dim=6, max_positions=16)
PROMPTS = ["alpha beta", "gamma"]


def _bench_functions(*names: str) -> list:
    """The module-level functions `names` of perfbench/run.py, compiled from
    its source with the standard modules they use."""
    tree = ast.parse(RUN_PY.read_text(encoding="utf-8"))
    body = [node for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name in names]
    namespace = {"hashlib": hashlib, "json": json, "math": math, "struct": struct, "Path": Path}
    exec(compile(ast.Module(body=body, type_ignores=[]), str(RUN_PY), "exec"), namespace)
    return [namespace[name] for name in names]


@pytest.mark.parametrize("with_predictor", [False, True], ids=["lm-only", "lm+predictor"])
def test_the_bench_reader_reads_what_bundle_bytes_writes(tmp_path, with_predictor):
    read_pbld, lm_hash = _bench_functions("read_pbld", "lm_hash")
    lm = pretrain([("alpha beta gamma", "delta")], PretrainConfig(epochs=1, model=TINY), seed=1)
    predictor = WeightPredictor.create(seed=2, in_dim=TINY.embed_dim, out_dim=len(PROMPTS),
                                       hidden1=3, hidden2=5) if with_predictor else None
    path = tmp_path / "bundle.pbld"
    path.write_bytes(bundle_bytes(lm, predictor, PROMPTS))
    raw, meta = read_pbld(path)
    tensors, want_meta = parse_checkpoint(path.read_bytes())
    assert meta == want_meta
    assert meta["lm"]["pretrain_record"]["final_loss"] == lm.pretrain_record["final_loss"]
    assert sorted(raw) == sorted(tensors)
    assert any(name.startswith("predictor.") for name in raw) == with_predictor
    for name, array in tensors.items():
        assert raw[name] == np.ascontiguousarray(array, dtype="<f8").tobytes(), name
    assert lm_hash(path) == lm.param_hash()

