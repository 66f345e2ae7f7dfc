"""Binary checkpoint container and the run bundle stored in it.

Layout (all integers little-endian):

    magic   b"PBLD"
    u32     format version (1)
    u32     record count
    records: [u32 name length][name utf-8][u8 dtype code (0 = f64)]
             [u32 rank][u32 dim x rank][row-major f64 payload]
    u64     metadata length
    bytes   metadata, canonical JSON utf-8

Records are written in sorted name order and metadata is serialized
canonically, so load followed by save reproduces identical bytes.

A run bundle is the frozen LM (tensors `lm.<param>`, metadata `lm`), an
optional weight predictor (`predictor.<param>`, metadata `predictor`) and
the non-empty basis prompts (metadata `basis_prompts`) every bundle carries.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict

import numpy as np

from . import textdata as td
from .composer import WeightPredictor
from .model import FrozenLM, LMConfig, param_shapes
from .tensor import Tensor

MAGIC = b"PBLD"
VERSION = 1
DTYPE_F64 = 0


class CheckpointError(ValueError):
    """Corrupt or unsupported checkpoint content."""


def checkpoint_bytes(tensors: dict[str, np.ndarray], meta: dict) -> bytes:
    blob = bytearray()
    blob += MAGIC
    blob += struct.pack("<I", VERSION)
    blob += struct.pack("<I", len(tensors))
    for name in sorted(tensors):
        arr = np.ascontiguousarray(tensors[name], dtype="<f8")
        nb = name.encode("utf-8")
        blob += struct.pack("<I", len(nb))
        blob += nb
        blob += struct.pack("<B", DTYPE_F64)
        blob += struct.pack("<I", arr.ndim)
        for dim in arr.shape:
            blob += struct.pack("<I", dim)
        blob += arr.tobytes()
    mb = json.dumps(meta, sort_keys=True, separators=(",", ":"),
                    ensure_ascii=False).encode("utf-8")
    blob += struct.pack("<Q", len(mb))
    blob += mb
    return bytes(blob)


def parse_checkpoint(blob: bytes) -> tuple[dict[str, np.ndarray], dict]:
    """Inverse of checkpoint_bytes. Every read is bounds-checked, so a
    truncated, overlong or garbled input raises CheckpointError."""
    off = 0

    def take(n: int) -> bytes:
        nonlocal off
        if n > len(blob) - off:
            raise CheckpointError(f"truncated checkpoint: {n} bytes needed at offset "
                                  f"{off}, {len(blob) - off} left")
        off += n
        return blob[off - n:off]

    def unpack(fmt: str) -> tuple:
        return struct.unpack(fmt, take(struct.calcsize(fmt)))

    if take(4) != MAGIC:
        raise CheckpointError(f"bad magic bytes {blob[:4]!r}")
    version, count = unpack("<II")
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    tensors: dict[str, np.ndarray] = {}
    try:
        for _ in range(count):
            name = take(unpack("<I")[0]).decode("utf-8")
            (dtype_code,) = unpack("<B")
            if dtype_code != DTYPE_F64:
                raise CheckpointError(f"record {name!r}: unknown dtype code {dtype_code}")
            dims = unpack(f"<{unpack('<I')[0]}I")
            payload = take(8 * math.prod(dims))
            tensors[name] = np.frombuffer(payload, dtype="<f8").reshape(dims).astype(np.float64)
        meta = json.loads(take(unpack("<Q")[0]).decode("utf-8"))
    except CheckpointError:
        raise
    except (ValueError, RecursionError) as e:  # bad utf-8, bad or too deep JSON, bad shape
        raise CheckpointError(f"garbled checkpoint before offset {off} ({e})") from e
    if not isinstance(meta, dict):
        raise CheckpointError("checkpoint metadata is not an object")
    if off != len(blob):
        raise CheckpointError(f"{len(blob) - off} trailing bytes after the metadata")
    return tensors, meta


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    with open(path, "rb") as f:
        return parse_checkpoint(f.read())


def bundle_bytes(lm: FrozenLM, predictor: WeightPredictor | None,
                 basis_prompts: list[str]) -> bytes:
    """The run bundle as checkpoint bytes; the predictor's provenance is
    stored beside its dropout rate."""
    tensors = {f"lm.{name}": t.data for name, t in lm.params.items()}
    meta: dict = {"kind": "promptblend", "basis_prompts": list(basis_prompts), "lm": {
        "config": asdict(lm.config),
        "vocab": lm.vocab.non_reserved(),
        "frozen": lm.frozen,
        "provenance": lm.provenance,
        "pretrain_record": lm.pretrain_record,
    }}
    if predictor is not None:
        for name, p in zip(WeightPredictor.PARAM_NAMES, predictor.parameters()):
            tensors[f"predictor.{name}"] = p.data
        meta["predictor"] = {**predictor.provenance, "dropout_p": predictor.dropout_p}
    return checkpoint_bytes(tensors, meta)


def _check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckpointError(f"malformed bundle: {what}")


BUNDLE_KEYS = {"kind", "lm", "predictor", "basis_prompts"}
LM_KEYS = {"config", "vocab", "frozen", "provenance", "pretrain_record"}


def load_bundle(path) -> tuple[FrozenLM, WeightPredictor | None, list[str]]:
    """Inverse of bundle_bytes: (lm, predictor or None, basis prompts).

    The metadata must have exactly the keys and types bundle_bytes writes,
    and strings UTF-8 can encode; every tensor's name and shape must be the
    one the stored config, vocabulary and basis imply, and every entry
    finite; anything else raises CheckpointError.
    """
    tensors, meta = load_checkpoint(path)
    lm_meta, pred_meta, prompts = (meta.get(k) for k in ("lm", "predictor", "basis_prompts"))
    _check(meta.get("kind") == "promptblend", f"kind {meta.get('kind')!r}")
    _check(set(meta) <= BUNDLE_KEYS, f"unknown keys {sorted(set(meta) - BUNDLE_KEYS)}")
    _check(type(prompts) is list and all(type(p) is str for p in prompts),
           "basis_prompts is not a list of strings")
    _check(bool(prompts), "basis_prompts is empty")
    _check(isinstance(lm_meta, dict) and set(lm_meta) == LM_KEYS,
           f"lm metadata is not an object with exactly the keys {sorted(LM_KEYS)}")
    _check(type(lm_meta["frozen"]) is bool, f"lm frozen {lm_meta['frozen']!r}")
    _check(type(lm_meta["provenance"]) is dict and type(lm_meta["pretrain_record"]) is dict,
           "lm provenance or pretrain_record is not an object")
    names = [f"predictor.{n}" for n in WeightPredictor.PARAM_NAMES] if "predictor" in meta else []
    try:
        json.dumps(meta, ensure_ascii=False).encode("utf-8")  # as bundle_bytes writes it
        vocab = td.Vocab(lm_meta["vocab"])
        config = td.decode(lm_meta["config"], LMConfig, "lm.config")  # exactly its four ints
        expected = {f"lm.{n}": shape for n, shape in param_shapes(config, len(vocab)).items()}
        # the predictor's widths run from embed_dim through its hidden biases to the basis size
        widths = [config.embed_dim, *(len(tensors[b]) for b in names[1:-1:2]), len(prompts)]
        for w, b, n_in, n_out in zip(names[0::2], names[1::2], widths, widths[1:]):
            expected[w], expected[b] = (n_in, n_out), (n_out,)
        dropout_p = pred_meta["dropout_p"] if names else 0.0
    except UnicodeEncodeError as e:  # e.object is the metadata's JSON text
        raise CheckpointError(f"malformed bundle metadata ({e.reason}: "
                              f"{e.object[max(e.start - 30, 0):e.end]!r})") from e
    except (KeyError, TypeError, ValueError, AttributeError) as e:
        raise CheckpointError(f"malformed bundle metadata ({e!r})") from e
    for name in sorted(set(tensors) | set(expected)):
        got = tensors[name].shape if name in tensors else None
        _check(got == expected.get(name), f"tensor {name!r} has shape {got}, expected "
                                          f"{expected.get(name)}")
        _check(np.isfinite(tensors[name]).all(), f"tensor {name!r} has non-finite entries")
    _check(type(dropout_p) in (int, float) and 0.0 <= dropout_p < 1.0,
           f"predictor dropout_p {dropout_p!r}")
    lm = FrozenLM(vocab, config, params={n[3:]: a for n, a in tensors.items()
                                         if n.startswith("lm.")})
    lm.provenance, lm.pretrain_record = lm_meta["provenance"], lm_meta["pretrain_record"]
    lm.set_frozen(lm_meta["frozen"])
    predictor = WeightPredictor(
        [Tensor(tensors[n], requires_grad=True) for n in names], dropout_p,
        {k: v for k, v in pred_meta.items() if k != "dropout_p"}) if names else None
    return lm, predictor, prompts
