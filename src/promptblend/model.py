"""Desk-scale frozen conditional language model.

A one-block encoder / one-block decoder transformer (pre-norm, GELU FFN,
sinusoidal positions on token embeddings) over a shared embedding table.
It accepts an optional continuous prompt prepended to the encoder input:
prompt rows that are exactly zero count as padding and are masked out of
attention, so an all-zero prompt reproduces the no-prompt loss.

The output projection starts at zero, so a freshly initialized model
emits exactly uniform logits.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import rng as rngmod
from . import textdata as td
from .optim import AdamW
from .tensor import (ShapeError, Tensor, attention_core, concat_cols, concat_rows,
                     cross_entropy, embedding_lookup, gelu, layer_norm, linear,
                     slice_cols)

MASK_VALUE = -1e30


class FrozenContractError(RuntimeError):
    """Raised when an operation needs the model frozen (or not) and it isn't."""


@dataclass
class LMConfig:
    embed_dim: int = 64
    num_heads: int = 2
    ffn_dim: int = 256
    max_positions: int = 256

    def __post_init__(self):
        for name, value in asdict(self).items():
            if not isinstance(value, int) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        if self.embed_dim % self.num_heads != 0:
            raise ValueError(f"embed_dim {self.embed_dim} not divisible by "
                             f"num_heads {self.num_heads}")


@dataclass
class PretrainConfig:
    epochs: int = 6
    batch_size: int = 10
    lr: float = 3e-3
    weight_decay: float = 0.01
    # fraction of pretraining passes that see a prefix prepended to the
    # encoder input, so the frozen model treats continuous prompts as
    # consumable context instead of corruption; of the exposed passes,
    # hint_fraction carry an embedded copy of the target and the rest
    # carry random token noise
    prompt_exposure: float = 0.6
    hint_fraction: float = 0.67
    model: LMConfig = field(default_factory=LMConfig)
    extra_vocab_texts: list[str] = field(default_factory=list)


def sinusoidal_positions(max_positions: int, dim: int) -> np.ndarray:
    pos = np.arange(max_positions)[:, None]
    i = np.arange(dim // 2)[None, :]
    angles = pos / np.power(10000.0, 2.0 * i / dim)
    table = np.zeros((max_positions, dim))
    table[:, 0::2] = np.sin(angles)
    table[:, 1::2] = np.cos(angles)
    return table


def param_shapes(config: LMConfig, vocab_size: int) -> dict[str, tuple[int, ...]]:
    """Name and shape of every LM parameter, in initialization order."""
    d, f, v = config.embed_dim, config.ffn_dim, vocab_size
    shapes = {"embedding": (v, d)}
    for block in ("enc", "dec"):
        for ln in ("ln1", "ln2", "ln3", "lnf") if block == "dec" else ("ln1", "ln2", "lnf"):
            shapes[f"{block}.{ln}.gain"] = shapes[f"{block}.{ln}.bias"] = (d,)
        for a in ("self", "cross") if block == "dec" else ("attn",):
            for w, b in (("wq", "bq"), ("wk", "bk"), ("wv", "bv"), ("wo", "bo")):
                shapes[f"{block}.{a}.{w}"], shapes[f"{block}.{a}.{b}"] = (d, d), (d,)
        shapes.update({f"{block}.ffn.w1": (d, f), f"{block}.ffn.b1": (f,),
                       f"{block}.ffn.w2": (f, d), f"{block}.ffn.b2": (d,)})
    shapes.update({"out.w": (d, v), "out.b": (v,)})
    return shapes


class FrozenLM:
    """Seq2seq stand-in with a pinned zero pad-embedding row."""

    def __init__(self, vocab: td.Vocab, config: LMConfig, seed: int = 0,
                 params: dict[str, np.ndarray] | None = None):
        """A model initialized from `seed`, or holding `params` unchecked."""
        self.vocab = vocab
        self.config = config
        self.frozen = False
        self.provenance: dict = {"init_seed": seed}
        self.pretrain_record: dict = {}
        self.positions = sinusoidal_positions(config.max_positions, config.embed_dim)
        if params is None:
            params = self._init_params(seed)
        self.params = {name: Tensor(arr, requires_grad=True) for name, arr in params.items()}

    # -- construction ----------------------------------------------------

    def _init_params(self, seed: int) -> dict[str, np.ndarray]:
        gen = rngmod.stream(seed, "lm-init")
        params = {}
        for name, shape in param_shapes(self.config, len(self.vocab)).items():
            if name == "embedding":
                params[name] = gen.normal(0.0, 1.0 / math.sqrt(shape[1]), size=shape)
                params[name][td.PAD_ID, :] = 0.0
            elif len(shape) == 2 and name != "out.w":
                params[name] = gen.normal(0.0, 1.0 / math.sqrt(shape[0]), size=shape)
            else:
                # unit gains; zero biases and a zero output projection, so a
                # fresh model scores every token equally
                params[name] = np.full(shape, 1.0 if name.endswith(".gain") else 0.0)
        return params

    def set_frozen(self, frozen: bool) -> None:
        self.frozen = frozen
        for p in self.params.values():
            p.requires_grad = not frozen

    def param_hash(self) -> str:
        h = hashlib.sha256()
        for name in sorted(self.params):
            h.update(name.encode("utf-8"))
            h.update(self.params[name].data.tobytes())
        return h.hexdigest()

    # -- embedding -------------------------------------------------------

    def embed_tokens(self, ids, add_positions: bool = False) -> Tensor:
        """Embedding rows for ids; pad rows are zero before positions."""
        idx = np.asarray(ids, dtype=np.int64)
        emb = embedding_lookup(self.params["embedding"], idx)
        if add_positions:
            if idx.shape[0] > self.config.max_positions:
                raise ValueError(f"sequence length {idx.shape[0]} exceeds "
                                 f"max_positions {self.config.max_positions}")
            emb = emb + Tensor(self.positions[: idx.shape[0]])
        return emb

    # -- transformer pieces ------------------------------------------------

    def _ln(self, name: str, x: Tensor) -> Tensor:
        return layer_norm(x, self.params[f"{name}.gain"], self.params[f"{name}.bias"])

    def _mha(self, prefix: str, x_q: Tensor, x_kv: Tensor, add_mask: np.ndarray) -> Tensor:
        p = self.params
        q = linear(x_q, p[f"{prefix}.wq"], p[f"{prefix}.bq"])
        k = linear(x_kv, p[f"{prefix}.wk"], p[f"{prefix}.bk"])
        v = linear(x_kv, p[f"{prefix}.wv"], p[f"{prefix}.bv"])
        d, h = self.config.embed_dim, self.config.num_heads
        dh = d // h
        scale = 1.0 / math.sqrt(dh)
        heads = []
        for i in range(h):
            qi = slice_cols(q, i * dh, (i + 1) * dh)
            ki = slice_cols(k, i * dh, (i + 1) * dh)
            vi = slice_cols(v, i * dh, (i + 1) * dh)
            heads.append(attention_core(qi, ki, vi, add_mask, scale))
        ctx = concat_cols(heads) if h > 1 else heads[0]
        return linear(ctx, p[f"{prefix}.wo"], p[f"{prefix}.bo"])

    def _ffn(self, prefix: str, x: Tensor) -> Tensor:
        p = self.params
        return linear(gelu(linear(x, p[f"{prefix}.w1"], p[f"{prefix}.b1"])),
                      p[f"{prefix}.w2"], p[f"{prefix}.b2"])

    # -- public forward ----------------------------------------------------

    def encode(self, input_ids, prompt: Tensor | None = None) -> tuple[Tensor, np.ndarray]:
        """Encoder states over [prompt rows || token embeddings] and their
        validity mask. All-zero prompt rows and pad tokens are invalid."""
        idx = np.asarray(input_ids, dtype=np.int64)
        if idx.size == 0:
            raise ValueError("encoder input must be non-empty")
        emb = self.embed_tokens(idx, add_positions=True)
        token_valid = idx != td.PAD_ID
        if prompt is None:
            x, valid = emb, token_valid
        else:
            if prompt.data.ndim != 2 or prompt.data.shape[1] != self.config.embed_dim:
                raise ShapeError(f"prompt shape {prompt.data.shape} incompatible with "
                                 f"embed_dim {self.config.embed_dim}")
            total = prompt.data.shape[0] + idx.shape[0]
            if total > self.config.max_positions:
                raise ValueError(f"prompt+input length {total} exceeds "
                                 f"max_positions {self.config.max_positions}")
            prompt_valid = ~np.all(prompt.data == 0.0, axis=1)
            x = concat_rows([prompt, emb])
            valid = np.concatenate([prompt_valid, token_valid])
        mask = np.zeros((valid.size, valid.size))
        mask[:, ~valid] = MASK_VALUE
        a = self._ln("enc.ln1", x)
        x = x + self._mha("enc.attn", a, a, mask)
        x = x + self._ffn("enc.ffn", self._ln("enc.ln2", x))
        return self._ln("enc.lnf", x), valid

    def decode(self, enc_out: Tensor, enc_valid: np.ndarray, target_ids) -> Tensor:
        """Teacher-forced decoder logits for the target over encoder states."""
        dec_in = [td.BOS_ID] + list(target_ids)
        if len(dec_in) > self.config.max_positions:
            raise ValueError(f"target length {len(dec_in)} exceeds "
                             f"max_positions {self.config.max_positions}")
        y = self.embed_tokens(dec_in, add_positions=True)
        ty = y.data.shape[0]
        causal = np.triu(np.full((ty, ty), MASK_VALUE), k=1)
        a = self._ln("dec.ln1", y)
        y = y + self._mha("dec.self", a, a, causal)
        cross_mask = np.zeros((ty, enc_out.data.shape[0]))
        cross_mask[:, ~enc_valid] = MASK_VALUE
        y = y + self._mha("dec.cross", self._ln("dec.ln2", y), enc_out, cross_mask)
        y = y + self._ffn("dec.ffn", self._ln("dec.ln3", y))
        h = self._ln("dec.lnf", y)
        return linear(h, self.params["out.w"], self.params["out.b"])

    def decode_loss(self, enc_out: Tensor, enc_valid: np.ndarray, target_ids) -> Tensor:
        """Cross-entropy of the target (then EOS) given encoder states."""
        labels = list(target_ids) + [td.EOS_ID]
        return cross_entropy(self.decode(enc_out, enc_valid, target_ids), labels, td.PAD_ID)

    def loss_with_prompt(self, prompt: Tensor | None, input_ids, target_ids) -> Tensor:
        """Cross-entropy of the target given the (optionally prompted) input.

        Gradient reaches the prompt tensor but never the model parameters
        once the model is frozen.
        """
        return self.decode_loss(*self.encode(input_ids, prompt), target_ids)

    def score_choices(self, prompt: Tensor | None, input_ids, choice_ids) -> list[float]:
        """Target loss of each choice, all decoded from one encode of the input."""
        enc_out, valid = self.encode(input_ids, prompt)
        return [float(self.decode_loss(enc_out, valid, ids).data) for ids in choice_ids]


def corpus_digest(corpus: list[tuple[str, str]]) -> str:
    return hashlib.sha256(json.dumps(corpus).encode("utf-8")).hexdigest()


def pretrain(corpus: list[tuple[str, str]], config: PretrainConfig, seed: int) -> FrozenLM:
    """Teacher-forced training for the configured epochs, then freeze.

    The pad embedding row is re-pinned to zero after every optimizer step.
    Deterministic for a given seed.
    """
    if not corpus:
        raise ValueError("pretraining corpus must be non-empty")
    texts = [s for pair in corpus for s in pair] + list(config.extra_vocab_texts)
    vocab = td.Vocab.build(texts)
    lm = FrozenLM(vocab, config.model, seed)
    encoded = [(td.tokenize(inp, vocab), td.tokenize(tgt, vocab)) for inp, tgt in corpus]

    def corpus_loss() -> float:
        total = 0.0
        for inp, tgt in encoded:
            total += float(lm.loss_with_prompt(None, inp, tgt).data)
        return total / len(encoded)

    initial_loss = corpus_loss()
    params = list(lm.params.values())
    opt = AdamW(params, lr=config.lr, weight_decay=config.weight_decay)
    shuffle = rngmod.stream(seed, "pretrain-shuffle")
    exposure = rngmod.stream(seed, "pretrain-exposure")
    vocab_size = len(vocab)

    def draw_prefix(tgt: list[int]) -> Tensor | None:
        roll = exposure.random()
        if roll >= config.prompt_exposure:
            return None
        if roll < config.prompt_exposure * config.hint_fraction and tgt:
            return lm.embed_tokens(tgt)
        n = int(exposure.integers(2, 13))
        ids = exposure.integers(len(td.RESERVED_TOKENS), vocab_size, size=n)
        return lm.embed_tokens(ids)

    epoch_means = []
    for _ in range(config.epochs):
        order = shuffle.permutation(len(encoded))
        losses = []
        for start in range(0, len(order), config.batch_size):
            batch = [encoded[int(i)] for i in order[start:start + config.batch_size]]
            loss = None
            for inp, tgt in batch:
                one = lm.loss_with_prompt(draw_prefix(tgt), inp, tgt)
                loss = one if loss is None else loss + one
            loss = loss * (1.0 / len(batch))
            loss.backward()
            opt.step()
            opt.zero_grad()
            lm.params["embedding"].data[td.PAD_ID, :] = 0.0
            losses.append(float(loss.data))
        epoch_means.append(float(np.mean(losses)))
    final_loss = corpus_loss()
    lm.set_frozen(True)
    lm.provenance = {"pretrain_seed": seed, "corpus_hash": corpus_digest(corpus)}
    lm.pretrain_record = {"initial_loss": initial_loss, "final_loss": final_loss,
                          "epoch_means": epoch_means, "epochs": config.epochs,
                          "batch_size": config.batch_size, "lr": config.lr}
    return lm
