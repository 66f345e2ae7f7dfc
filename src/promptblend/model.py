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
from .optim import AdamW, DivergenceError, descend  # DivergenceError: re-exported
from .tensor import (ShapeError, Tensor, attention_core, concat_rows, cross_entropy,
                     embedding_lookup, gelu, layer_norm, linear, scatter_rows,
                     sequence_losses)

MASK_VALUE = -1e30
# pretraining's random-token prefixes are 2 to this many tokens long
MAX_NOISE_PREFIX = 12
# of the pretraining passes that see a prefix, the share whose prefix is an
# embedded copy of the target rather than random tokens
HINT_FRACTION = 0.67


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
    # consumable context instead of corruption (see HINT_FRACTION)
    prompt_exposure: float = 0.6
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

    def embed_tokens(self, ids) -> Tensor:
        """Embedding rows for ids, without positions; pad rows are zero."""
        return embedding_lookup(self.params["embedding"], ids)

    def _embed_positioned(self, seqs) -> Tensor:
        """The sequences' embedding rows, stacked, each sequence's positioned
        from 0; callers have checked the lengths against max_positions."""
        return (self.embed_tokens(np.concatenate(seqs))
                + Tensor(np.concatenate([self.positions[:len(s)] for s in seqs])))

    # -- transformer pieces ------------------------------------------------

    def _ln(self, name: str, x: Tensor) -> Tensor:
        return layer_norm(x, self.params[f"{name}.gain"], self.params[f"{name}.bias"])

    def _mha(self, prefix: str, x_q: Tensor, x_kv: Tensor, add_mask: np.ndarray,
             batch: int, kv_rows=None) -> Tensor:
        """Attention of x_q over x_kv; `kv_rows` picks, after projection, the
        key/value rows each query example reads."""
        p = self.params
        q = linear(x_q, p[f"{prefix}.wq"], p[f"{prefix}.bq"])
        k = linear(x_kv, p[f"{prefix}.wk"], p[f"{prefix}.bk"])
        v = linear(x_kv, p[f"{prefix}.wv"], p[f"{prefix}.bv"])
        if kv_rows is not None:
            k, v = embedding_lookup(k, kv_rows), embedding_lookup(v, kv_rows)
        h = self.config.num_heads
        ctx = attention_core(q, k, v, add_mask, 1.0 / math.sqrt(self.config.embed_dim // h),
                             batch, h)
        return linear(ctx, p[f"{prefix}.wo"], p[f"{prefix}.bo"])

    def _ffn(self, prefix: str, x: Tensor) -> Tensor:
        p = self.params
        return linear(gelu(linear(x, p[f"{prefix}.w1"], p[f"{prefix}.b1"])),
                      p[f"{prefix}.w2"], p[f"{prefix}.b2"])

    # -- public forward ----------------------------------------------------
    #
    # A batch is packed: example b owns rows b*S..b*S+S-1 of every encoder
    # matrix, laid out [prompt rows | token rows | padding], and rows
    # b*Ty..b*Ty+Ty-1 of every decoder matrix, laid out [BOS + target |
    # padding]. Padding is masked out of attention as keys and labelled as
    # pad, so no example sees another's rows or its padding. Every entry
    # point takes only this packed shape: lists with one entry per example,
    # so a single example is a list of one.

    def encode(self, inputs, prompts) -> tuple[Tensor, np.ndarray]:
        """Packed encoder states over each example's [prompt rows || token
        embeddings], [B*S, d], and their [B, S] validity mask.

        `inputs` holds B token-id sequences and `prompts` one prompt (a
        Tensor or None) for each. All-zero prompt rows, pad tokens and
        padding are invalid.
        """
        d = self.config.embed_dim
        if len(prompts) != len(inputs) or not inputs:
            raise ValueError(f"a batch needs one prompt per input, got {len(prompts)} "
                             f"prompts and {len(inputs)} inputs")
        ids = [np.asarray(x, dtype=np.int64) for x in inputs]
        prompt_rows = []
        for b, (p, idx) in enumerate(zip(prompts, ids)):
            if p is not None and (p.data.ndim != 2 or p.data.shape[1] != d):
                raise ShapeError(f"prompt shape {p.data.shape} incompatible with "
                                 f"embed_dim {d}")
            prompt_rows.append(0 if p is None else p.data.shape[0])
            self.check_fits(f"batch row {b}", prompt_rows[-1], idx, [])
        width = max(n + idx.shape[0] for n, idx in zip(prompt_rows, ids))
        valid = np.zeros((len(ids), width), dtype=bool)
        prompt_slots, token_slots = [], []
        for b, (p, n, idx) in enumerate(zip(prompts, prompt_rows, ids)):
            if p is not None:
                valid[b, :n] = ~np.all(p.data == 0.0, axis=1)
                prompt_slots.append(np.arange(n) + b * width)
            valid[b, n:n + idx.shape[0]] = idx != td.PAD_ID
            token_slots.append(np.arange(n, n + idx.shape[0]) + b * width)
        tokens = self._embed_positioned(ids)
        parts = [p for p in prompts if p is not None]
        x = scatter_rows(concat_rows(parts + [tokens]) if parts else tokens,
                         np.concatenate(prompt_slots + token_slots), valid.size)
        key_mask = np.where(valid, 0.0, MASK_VALUE)[:, None, None, :]
        a = self._ln("enc.ln1", x)
        x = x + self._mha("enc.attn", a, a, key_mask, len(ids))
        x = x + self._ffn("enc.ffn", self._ln("enc.ln2", x))
        return self._ln("enc.lnf", x), valid

    def decode(self, enc_out: Tensor, enc_valid: np.ndarray, target_ids,
               blocks=None) -> Tensor:
        """Teacher-forced decoder logits for a list of targets over a packed
        encode, [N*Ty, V] for N targets, Ty the longest [BOS]+target.

        Target n reads encoder block `blocks[n]`; without `blocks`, there is
        one target per block, in block order. The cross-attention keys and
        values are computed once per block.
        """
        kv_rows = None
        if blocks is not None:
            width = enc_valid.shape[1]
            kv_rows = (np.asarray(blocks)[:, None] * width + np.arange(width)).reshape(-1)
            enc_valid = enc_valid[blocks]
        batch = enc_valid.shape[0]
        if len(target_ids) != batch:
            raise ValueError(f"a batch of {batch} encodes got {len(target_ids)} targets")
        lengths = [len(t) + 1 for t in target_ids]
        for n in lengths:
            if n > self.config.max_positions:
                raise ValueError(f"target length {n} exceeds "
                                 f"max_positions {self.config.max_positions}")
        ty = max(lengths)
        dec_in = np.full((batch, ty), td.PAD_ID, dtype=np.int64)
        dec_in[:, 0] = td.BOS_ID
        for b, t in enumerate(target_ids):
            dec_in[b, 1:lengths[b]] = t
        y = self._embed_positioned(dec_in)
        causal = np.triu(np.full((ty, ty), MASK_VALUE), k=1)
        a = self._ln("dec.ln1", y)
        y = y + self._mha("dec.self", a, a, causal, batch)
        cross_mask = np.where(enc_valid, 0.0, MASK_VALUE)[:, None, None, :]
        y = y + self._mha("dec.cross", self._ln("dec.ln2", y), enc_out, cross_mask, batch,
                          kv_rows)
        y = y + self._ffn("dec.ffn", self._ln("dec.ln3", y))
        h = self._ln("dec.lnf", y)
        return linear(h, self.params["out.w"], self.params["out.b"])

    def target_losses(self, enc_out: Tensor, enc_valid: np.ndarray, target_ids,
                      blocks=None) -> np.ndarray:
        """Each target's cross-entropy over a packed encode, as decode lays
        the targets out; a float array, with no graph kept."""
        logits = self.decode(enc_out, enc_valid, target_ids, blocks)
        return sequence_losses(logits.data, _labels(target_ids), td.PAD_ID)

    def loss_with_prompt(self, prompts, inputs, targets) -> Tensor:
        """Cross-entropy of each target (then EOS) given its (optionally
        prompted) input, from one packed forward of the lists.

        The loss is the mean over examples of each example's mean. Gradient
        reaches the prompt tensors but never the model parameters once the
        model is frozen.
        """
        logits = self.decode(*self.encode(inputs, prompts), targets)
        return cross_entropy(logits, _labels(targets), td.PAD_ID)

    def check_fits(self, name: str, prompt_rows: int, input_ids, targets) -> None:
        """Raise ValueError naming example `name` unless its input is non-empty
        and its prompt+input and every target (after BOS) fit max_positions."""
        if len(input_ids) == 0:
            raise ValueError(f"{name}: encoder input must be non-empty")
        lengths = [("prompt+input", prompt_rows + len(input_ids))]
        lengths += [("target", len(target) + 1) for target in targets]
        for what, n in lengths:
            if n > self.config.max_positions:
                raise ValueError(f"{name}: {what} length {n} exceeds "
                                 f"max_positions {self.config.max_positions}")

    def score_choices(self, prompts, inputs, choices) -> list:
        """Target loss of each choice of each example, as one list of floats
        per example.

        `prompts`, `inputs` and `choices` hold one prompt (or None), one
        input and one list of choices per example. The batch is one packed
        encode and one decode of every choice, each reading its own
        example's encoder block.
        """
        if len(choices) != len(inputs):
            raise ValueError(f"a batch of {len(inputs)} inputs got {len(choices)} "
                             f"lists of choices")
        targets = [t for cs in choices for t in cs]
        blocks = [b for b, cs in enumerate(choices) for _ in cs]
        losses = self.target_losses(*self.encode(inputs, prompts), targets, blocks).tolist()
        ends = np.cumsum([len(cs) for cs in choices])
        return [losses[end - len(cs):end] for cs, end in zip(choices, ends)]


def _labels(target_ids) -> np.ndarray:
    """A [N, Ty] grid of each target then EOS, pad-filled; Ty matches decode's."""
    labels = np.full((len(target_ids), max(len(t) for t in target_ids) + 1), td.PAD_ID,
                     dtype=np.int64)
    for b, t in enumerate(target_ids):
        labels[b, :len(t) + 1] = list(t) + [td.EOS_ID]
    return labels


def corpus_digest(corpus: list[tuple[str, str]]) -> str:
    return hashlib.sha256(json.dumps(corpus).encode("utf-8")).hexdigest()


def pretrain(corpus: list[tuple[str, str]], config: PretrainConfig, seed: int) -> FrozenLM:
    """Teacher-forced training for the configured epochs, then freeze.

    Every pair is checked against max_positions, with the longest prefix
    it could draw, before any compute. Each step is one packed batch; a
    non-finite batch loss aborts with the step index. The pad embedding row
    is re-pinned to zero after every optimizer step. Deterministic for a
    given seed.
    """
    if not corpus:
        raise ValueError("pretraining corpus must be non-empty")
    texts = [s for pair in corpus for s in pair] + list(config.extra_vocab_texts)
    vocab = td.Vocab.build(texts)
    lm = FrozenLM(vocab, config.model, seed)
    encoded = [(td.tokenize(inp, vocab), td.tokenize(tgt, vocab)) for inp, tgt in corpus]
    for i, (inp, tgt) in enumerate(encoded):
        prefix = max(len(tgt), MAX_NOISE_PREFIX) if config.prompt_exposure > 0 else 0
        lm.check_fits(f"corpus pair {i}", prefix, inp, [tgt])

    def packed_loss(batch, prefixes) -> Tensor:
        return lm.loss_with_prompt(prefixes, [inp for inp, _ in batch],
                                   [tgt for _, tgt in batch])

    def corpus_loss() -> float:
        total = 0.0
        for start in range(0, len(encoded), config.batch_size):
            batch = encoded[start:start + config.batch_size]
            total += float(packed_loss(batch, [None] * len(batch)).data) * len(batch)
        return total / len(encoded)

    opt = AdamW(list(lm.params.values()), lr=config.lr, weight_decay=config.weight_decay)
    initial_loss = corpus_loss()
    shuffle = rngmod.stream(seed, "pretrain-shuffle")
    exposure = rngmod.stream(seed, "pretrain-exposure")
    vocab_size = len(vocab)

    def draw_prefix(tgt: list[int]) -> Tensor | None:
        roll = exposure.random()
        if roll >= config.prompt_exposure:
            return None
        if roll < config.prompt_exposure * HINT_FRACTION and tgt:
            return lm.embed_tokens(tgt)
        n = int(exposure.integers(2, MAX_NOISE_PREFIX + 1))
        ids = exposure.integers(len(td.RESERVED_TOKENS), vocab_size, size=n)
        return lm.embed_tokens(ids)

    def batch_loss(indices) -> Tensor:
        batch = [encoded[int(i)] for i in indices]
        return packed_loss(batch, [draw_prefix(tgt) for _, tgt in batch])

    steps = []
    for epoch, _, _, loss in descend(opt, len(encoded), config.batch_size, config.epochs,
                                     shuffle, batch_loss, "pretraining loss"):
        lm.params["embedding"].data[td.PAD_ID, :] = 0.0
        steps.append((epoch, loss))
    epoch_means = [float(np.mean([loss for e, loss in steps if e == epoch]))
                   for epoch in range(1, config.epochs + 1)]
    final_loss = corpus_loss()
    lm.set_frozen(True)
    lm.provenance = {"pretrain_seed": seed, "corpus_hash": corpus_digest(corpus)}
    lm.pretrain_record = {"initial_loss": initial_loss, "final_loss": final_loss,
                          "epoch_means": epoch_means, "epochs": config.epochs,
                          "batch_size": config.batch_size, "lr": config.lr}
    return lm
