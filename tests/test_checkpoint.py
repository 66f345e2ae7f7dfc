import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from promptblend import textdata as td
from promptblend.checkpoint import (CheckpointError, bundle_bytes, checkpoint_bytes,
                                    load_bundle, parse_checkpoint)
from promptblend.composer import WeightPredictor
from promptblend.model import FrozenLM, LMConfig

from jsonedit import MUTATIONS, edited, nodes

TINY = LMConfig(embed_dim=4, num_heads=2, ffn_dim=6, max_positions=16)
PROMPTS = ["alpha beta", "gamma"]


def _bundle():
    lm = FrozenLM(td.Vocab.build(["alpha beta gamma delta"]), TINY, seed=1)
    lm.set_frozen(True)
    pred = WeightPredictor.create(seed=2, in_dim=TINY.embed_dim, out_dim=len(PROMPTS),
                                  hidden1=3, hidden2=5)
    return lm, pred, bundle_bytes(lm, pred, PROMPTS)


BLOB = _bundle()[2]
META_START = BLOB.index(b'{"basis_prompts"')


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("ck") / "bundle.pbld"


def _load(path, blob):
    path.write_bytes(blob)
    return load_bundle(path)


def _retensor(edit):
    """BLOB with its tensors and metadata passed through edit()."""
    tensors, meta = parse_checkpoint(BLOB)
    edit(tensors, meta)
    return checkpoint_bytes(tensors, meta)


def test_round_trip(scratch):
    lm, pred, blob = _bundle()
    loaded, loaded_pred, prompts = _load(scratch, blob)
    assert prompts == PROMPTS
    assert loaded.frozen and loaded.param_hash() == lm.param_hash()
    for a, b in zip(pred.parameters(), loaded_pred.parameters()):
        assert np.array_equal(a.data, b.data) and b.requires_grad
    assert bundle_bytes(loaded, loaded_pred, prompts) == blob


def test_predictor_provenance_round_trips(scratch):
    _, pred, blob = _bundle()
    assert pred.provenance == {"seed": 2, "final_init_scale": 0.01}
    assert _load(scratch, blob)[1].provenance == pred.provenance


def test_lm_only_bundle_has_no_predictor(scratch):
    lm, _, _ = _bundle()
    blob = bundle_bytes(lm, None, PROMPTS)
    loaded, pred, prompts = _load(scratch, blob)
    assert pred is None and prompts == PROMPTS
    assert bundle_bytes(loaded, pred, prompts) == blob


@settings(max_examples=200, deadline=None)
@given(cut=st.integers(0, len(BLOB) - 1))
def test_every_strict_prefix_is_a_checkpoint_error(scratch, cut):
    with pytest.raises(CheckpointError):
        _load(scratch, BLOB[:cut])


@settings(max_examples=300, deadline=None)
@given(pos=st.one_of(st.integers(0, len(BLOB) - 1), st.integers(META_START, len(BLOB) - 1)),
       mask=st.integers(1, 255))
def test_byte_flip_loads_or_is_a_checkpoint_error(scratch, pos, mask):
    blob = bytearray(BLOB)
    blob[pos] ^= mask
    try:
        _load(scratch, bytes(blob))
    except CheckpointError:
        pass


def test_deeply_nested_metadata_is_a_checkpoint_error():
    deep = b"[" * 100_000 + b"]" * 100_000
    blob = checkpoint_bytes({}, {})[:-10] + struct.pack("<Q", len(deep)) + deep
    with pytest.raises(CheckpointError, match="garbled checkpoint"):
        parse_checkpoint(blob)


def test_trailing_bytes_rejected(scratch):
    with pytest.raises(CheckpointError, match="trailing"):
        _load(scratch, BLOB + b"\x00")


def test_lm_shape_must_match_config(scratch):
    def edit(tensors, meta):
        meta["lm"]["config"]["ffn_dim"] = 8

    with pytest.raises(CheckpointError, match="ffn.b1"):
        _load(scratch, _retensor(edit))


def test_missing_lm_parameter(scratch):
    with pytest.raises(CheckpointError, match="out.b"):
        _load(scratch, _retensor(lambda tensors, meta: tensors.pop("lm.out.b")))


def test_predictor_layers_must_chain(scratch):
    def edit(tensors, meta):
        tensors["predictor.w2"] = np.zeros((4, 5))

    with pytest.raises(CheckpointError, match="predictor"):
        _load(scratch, _retensor(edit))


def test_predictor_width_must_match_basis(scratch):
    def edit(tensors, meta):
        meta["basis_prompts"] = ["only one"]

    with pytest.raises(CheckpointError, match="predictor.b3"):
        _load(scratch, _retensor(edit))


def test_predictor_dropout_rate_is_required(scratch):
    # bundle_bytes always writes the rate, so a bundle without it is malformed
    def edit(tensors, meta):
        del meta["predictor"]["dropout_p"]

    with pytest.raises(CheckpointError, match="dropout_p"):
        _load(scratch, _retensor(edit))


@pytest.mark.parametrize("edit, message", [
    (lambda m: m.update(kind="other"), "kind 'other'"),
    (lambda m: m.update(extra=1), r"unknown keys \['extra'\]"),
    (lambda m: m["lm"].update(extra=1), "lm metadata is not an object with exactly the keys"),
    (lambda m: m["lm"].pop("provenance"), "lm metadata is not an object with exactly the keys"),
    (lambda m: m.update(lm=[]), "lm metadata is not an object"),
    (lambda m: m["lm"].update(frozen="false"), "lm frozen 'false'"),
    (lambda m: m["lm"].update(frozen=1), "lm frozen 1"),
    (lambda m: m["lm"].update(provenance=[]), "provenance or pretrain_record is not an object"),
    (lambda m: m["lm"].update(pretrain_record="x"), "provenance or pretrain_record"),
    (lambda m: m.update(predictor=None), "malformed bundle metadata"),
    (lambda m: m.update(basis_prompts=None), "basis_prompts is not a list of strings"),
    (lambda m: m.pop("basis_prompts"), "basis_prompts is not a list of strings"),
    (lambda m: m.update(basis_prompts=[]), "basis_prompts is empty"),
    (lambda m: m["lm"]["config"].pop("max_positions"),
     r"lm.config must have fields \['embed_dim', 'num_heads', 'ffn_dim', 'max_positions'\]"),
], ids=["kind", "top-level-key", "lm-key", "missing-lm-key", "lm-list", "frozen-string",
        "frozen-int", "provenance-list", "record-string", "predictor-null", "prompts-null",
        "prompts-missing", "prompts-empty", "config-missing-key"])
def test_metadata_bundle_bytes_never_writes_is_rejected(scratch, edit, message):
    # each of these used to load, and most re-saved to other bytes
    with pytest.raises(CheckpointError, match=message):
        _load(scratch, _retensor(lambda tensors, meta: edit(meta)))


@pytest.mark.parametrize("value", [np.nan, -np.inf])
def test_non_finite_tensor_rejected(scratch, value):
    def edit(tensors, meta):
        tensors["lm.out.b"][0] = value

    with pytest.raises(CheckpointError, match="'lm.out.b' has non-finite entries"):
        _load(scratch, _retensor(edit))


@pytest.mark.parametrize("field", ["embed_dim", "num_heads", "ffn_dim", "max_positions"])
def test_boolean_config_value_rejected(scratch, field):
    # True passes an int check and equals 1; the config must not take it
    def edit(tensors, meta):
        meta["lm"]["config"][field] = True

    with pytest.raises(CheckpointError, match=f"metadata.*lm.config.{field} must be an int"):
        _load(scratch, _retensor(edit))


TENSORS, META = parse_checkpoint(BLOB)


def _with_metadata(meta: dict) -> bytes:
    """BLOB's tensors with `meta` in ASCII escapes, which can hold a lone
    surrogate that checkpoint_bytes cannot write."""
    text = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("ascii")
    return checkpoint_bytes(TENSORS, {})[:-10] + struct.pack("<Q", len(text)) + text


class TestBundleContract:
    @settings(derandomize=True, max_examples=1500, deadline=None)
    @given(path=st.sampled_from(list(nodes(META))), mutation=MUTATIONS)
    def test_mutated_metadata_is_rejected_in_one_line_or_round_trips(self, scratch, path,
                                                                     mutation):
        """One edit at one path: load_bundle rejects the bundle with one line,
        or returns one that bundle_bytes writes back as the edited metadata."""
        meta = edited(META, path, mutation)
        try:
            loaded = _load(scratch, _with_metadata(meta))
        except CheckpointError as e:
            assert "\n" not in str(e)
            return
        assert bundle_bytes(*loaded) == checkpoint_bytes(TENSORS, meta)
