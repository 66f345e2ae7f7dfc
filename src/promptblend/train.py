"""Experiment engine: trains the weight predictor against the frozen LM.

Each step runs question representation -> weight prediction (training
mode) -> linear combination -> prompted loss, then backpropagates into
the predictor parameters only. The LM is bit-frozen throughout; its
parameter hash is checked before and after.
"""

from __future__ import annotations

import json
import math
import time
import typing
from dataclasses import asdict, dataclass, field, fields, is_dataclass

import numpy as np

from . import rng as rngmod
from . import textdata as td
from .composer import (PromptBasis, WeightPredictor, WeightVector, combine,
                       project_to_vocab, question_repr)
from .model import FrozenContractError, FrozenLM
from .optim import AdamW, DivergenceError, descend  # DivergenceError: re-exported
from .tensor import Tensor


@dataclass
class TrainConfig:
    epochs: int = 20
    batch_size: int = 10
    lr: float = 1e-3
    weight_decay: float = 0.01
    dropout_p: float = 0.1
    seed: int = 0
    eval_every: int = 0  # steps between eval passes; 0 = final only

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.lr < 0:
            raise ValueError(f"lr must be non-negative, got {self.lr}")
        if self.weight_decay < 0:
            raise ValueError(f"weight_decay must be non-negative, got {self.weight_decay}")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ValueError(f"dropout_p must be in [0, 1), got {self.dropout_p}")
        if self.eval_every < 0:
            raise ValueError(f"eval_every must be non-negative, got {self.eval_every}")


@dataclass
class StepRecord:
    epoch: int
    step: int
    batch_size: int
    loss: float


@dataclass
class ExampleEval:
    id: str
    question: str
    loss: float
    weights: list[float]


def _from_dict(cls, d: dict):
    """Dataclass `cls` from its asdict() form, rebuilding fields typed as
    lists of dataclasses; a missing or unknown field raises ValueError."""
    names = [f.name for f in fields(cls)]
    if not isinstance(d, dict) or set(d) != set(names):
        raise ValueError(f"malformed {cls.__name__}: expected fields {names}, got "
                         f"{sorted(d) if isinstance(d, dict) else repr(d)}")
    kwargs = dict(d)
    for name, hint in typing.get_type_hints(cls).items():
        item = typing.get_args(hint)[0] if typing.get_origin(hint) is list else None
        if is_dataclass(item):
            if not isinstance(d[name], list):
                raise ValueError(f"malformed {cls.__name__}: {name} must be a list")
            kwargs[name] = [_from_dict(item, x) for x in d[name]]
    return cls(**kwargs)


@dataclass
class RunRecord:
    """Everything a report needs; losses here are the exact values seen."""

    config: dict
    basis_prompts: list[str]
    steps: list[StepRecord] = field(default_factory=list)
    epoch_means: list[float] = field(default_factory=list)
    eval_losses: list[list] = field(default_factory=list)  # [step, mean loss]
    control_eval_loss: float = 0.0
    prompted_eval_loss: float = 0.0
    examples: list[ExampleEval] = field(default_factory=list)
    projection: list[list] | None = None  # [token, cosine] per prompt row
    lm_param_hash: str = ""
    wall_clock_seconds: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)

    from_dict = classmethod(_from_dict)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "RunRecord":
        return cls.from_dict(json.loads(text))


@dataclass
class PromptedEvalResult:
    mean_loss: float
    weights: list[WeightVector]
    losses: list[float]
    control_loss: float  # control_eval over the same examples
    accuracy: float  # share of examples whose lowest-loss choice is the gold one


# The eval pass encodes and decodes this many examples at a time. Two
# inputs share one activation matrix at the cost of the padding between
# them. From three up, each [rows, ffn_dim] temporary passes about 400 KB,
# and glibc hands it fresh pages on every op. On a 2-core box, 40 prompted
# encodes took 72-81 ms of CPU two at a time and 82-95 ms one at a time,
# with no minor page faults, but 118-142 ms and 7,900-8,500 faults at
# three, four or ten per encode.
EVAL_CHUNK = 2


@dataclass
class _Entry:
    ids: list[int]  # tokenized input
    target: list[int]  # tokenized gold choice
    q: np.ndarray | None  # question representation; None until encoded
    choices: list[list[int]] | None = None  # every choice's tokens; prompted eval only
    control: float | None = None  # no-prompt target loss; scored entries only


def _chunks(entries: list[_Entry], ids: list[str]) -> list[list[int]]:
    """Indices of `entries` in chunks of EVAL_CHUNK, taken in (input length,
    id) order: inputs of like length share a block, and an example's chunk
    does not depend on the order it was given in."""
    order = sorted(range(len(entries)), key=lambda i: (len(entries[i].ids), ids[i]))
    return [order[start:start + EVAL_CHUNK] for start in range(0, len(order), EVAL_CHUNK)]


class _ExampleCache:
    """Per-example tokens and question representations, keyed by id.

    A training entry is one unprompted encode of its input. A scored (eval)
    entry also holds the control loss, and for prompted eval every choice's
    tokens. Scored entries are built EVAL_CHUNK at a time: one unprompted
    encode gives their representations, and one decode of their targets
    their control losses. Each entry is checked against max_positions, with
    `prompt_rows` prompt rows, before any of them is encoded.
    """

    def __init__(self, lm: FrozenLM, prompt_rows: int = 0):
        self.lm = lm
        self.prompt_rows = prompt_rows
        self.entries: dict[str, _Entry] = {}

    def _tokenize(self, ex: td.QAExample, choices: bool) -> _Entry:
        """A checked entry, not yet encoded; with `choices`, every choice is
        tokenized and the gold one is the target, else only the target."""
        ids = td.tokenize(td.format_input(ex), self.lm.vocab)
        if choices:
            tokens = self._choices(ex, ids)
            return _Entry(ids, tokens[ex.answer_index()], None, tokens)
        target = td.tokenize(td.format_target(ex), self.lm.vocab)
        self.lm.check_fits(f"example {ex.id!r}", self.prompt_rows, ids, [target])
        return _Entry(ids, target, None)

    def _choices(self, ex: td.QAExample, ids: list[int]) -> list[list[int]]:
        tokens = [td.tokenize(td.format_choice(c), self.lm.vocab) for c in ex.choices]
        self.lm.check_fits(f"example {ex.id!r}", self.prompt_rows, ids, tokens)
        return tokens

    def get(self, ex: td.QAExample) -> _Entry:
        """The example's entry, built from one unprompted encode if missing."""
        entry = self.entries.get(ex.id)
        if entry is None:
            entry = self.entries[ex.id] = self._tokenize(ex, choices=False)
            entry.q = question_repr(self.lm, [entry.ids])[0]
        return entry

    def scored(self, examples: list[td.QAExample], choices: bool = False) -> list[_Entry]:
        """Scored entries of `examples`, in their order, with every choice's
        tokens if `choices`.

        Missing control losses are computed in _chunks, so each is the same
        whatever the order of `examples`. An entry that already has a
        representation keeps it.
        """
        todo: dict[str, _Entry] = {}
        for ex in examples:
            entry = self.entries.get(ex.id)
            if entry is None:
                entry = self.entries[ex.id] = self._tokenize(ex, choices)
            elif choices and entry.choices is None:
                entry.choices = self._choices(ex, entry.ids)
            if entry.control is None:
                todo[ex.id] = entry
        lm = self.lm
        pending = list(todo.values())
        for indices in _chunks(pending, list(todo)):
            chunk = [pending[i] for i in indices]
            inputs = [e.ids for e in chunk]
            encoded = lm.encode(inputs, [None] * len(chunk))
            controls = lm.target_losses(*encoded, [e.target for e in chunk])
            for e, q, control in zip(chunk, question_repr(lm, inputs, encoded), controls):
                e.control = float(control)
                if e.q is None:
                    e.q = q
        return [self.entries[ex.id] for ex in examples]


def control_eval(lm: FrozenLM, eval_set: list[td.QAExample],
                 cache: _ExampleCache | None = None) -> float:
    """Mean no-prompt loss over the eval set, order-independent (fsum): the
    unprompted half of prompted_eval's pass, which needs only the LM."""
    if not eval_set:
        raise ValueError("eval set must be non-empty")
    entries = (cache or _ExampleCache(lm)).scored(eval_set)
    return math.fsum(e.control for e in entries) / len(eval_set)


def prompted_eval(lm: FrozenLM, predictor: WeightPredictor, basis: PromptBasis,
                  eval_set: list[td.QAExample],
                  cache: _ExampleCache | None = None) -> PromptedEvalResult:
    """The eval pass: eval-mode weights, prompted losses, accuracy and the
    control loss.

    Each example's one unprompted encode gives its question representation
    and control loss (see _ExampleCache.scored). Then each of _chunks is one
    prompted encode and one decode of all its examples' choices: the gold
    choice's loss is the prompted loss, and the lowest-loss choice (the
    earlier on ties) is the prediction.
    """
    if not eval_set:
        raise ValueError("eval set must be non-empty")
    cache = cache or _ExampleCache(lm, basis.length)
    entries = cache.scored(eval_set, choices=True)
    control = control_eval(lm, eval_set, cache)
    losses: list[float] = [0.0] * len(eval_set)
    weights: list[WeightVector] = [None] * len(eval_set)
    correct = 0
    for chunk in _chunks(entries, [ex.id for ex in eval_set]):
        for i in chunk:
            w_out = predictor.forward(Tensor(entries[i].q.reshape(1, -1)), training=False,
                                      rng=None)
            weights[i] = WeightVector(w_out.data[0].copy())
        scores = lm.score_choices([combine(basis, Tensor(weights[i].values)) for i in chunk],
                                  [entries[i].ids for i in chunk],
                                  [entries[i].choices for i in chunk])
        for i, choice_losses in zip(chunk, scores):
            gold = eval_set[i].answer_index()
            losses[i] = choice_losses[gold]
            correct += int(np.argmin(choice_losses)) == gold
    return PromptedEvalResult(mean_loss=math.fsum(losses) / len(losses), weights=weights,
                              losses=losses, control_loss=control,
                              accuracy=correct / len(eval_set))


def _batch_loss(lm: FrozenLM, predictor: WeightPredictor, basis: PromptBasis,
                entries: list[_Entry], rng: np.random.Generator) -> Tensor:
    """One training step's loss: the batch's prompted losses, averaged over
    examples, from one packed forward. Dropout masks are drawn example by
    example, layer by layer."""
    prompts = [combine(basis, predictor.forward(Tensor(e.q.reshape(1, -1)), training=True,
                                                rng=rng)) for e in entries]
    return lm.loss_with_prompt(prompts, [e.ids for e in entries], [e.target for e in entries])


def train(lm: FrozenLM, predictor: WeightPredictor, basis: PromptBasis,
          train_set: list[td.QAExample], eval_set: list[td.QAExample],
          config: TrainConfig) -> RunRecord:
    """Run the full protocol and return the loss-curve record.

    Every example is tokenized, checked against max_positions and encoded
    before the first step. Only predictor parameters receive updates; a
    non-finite batch loss aborts with the offending step index.
    """
    if not lm.frozen:
        raise FrozenContractError("train() requires a frozen language model")
    if not train_set or not eval_set:
        raise ValueError("train and eval sets must be non-empty")
    t_start = time.perf_counter()
    hash_before = lm.param_hash()
    cache = _ExampleCache(lm, basis.length)
    for ex in train_set:
        cache.get(ex)
    cache.scored(eval_set, choices=True)
    opt = AdamW(predictor.parameters(), lr=config.lr, weight_decay=config.weight_decay)
    shuffle = rngmod.stream(config.seed, "train-shuffle")
    drop_rng = rngmod.stream(config.seed, "train-dropout")
    record = RunRecord(config={**asdict(config), "prompt_length": basis.length},
                       basis_prompts=list(basis.prompts))

    def batch_loss(indices) -> Tensor:
        entries = [cache.get(train_set[int(i)]) for i in indices]
        return _batch_loss(lm, predictor, basis, entries, drop_rng)

    for epoch, step, indices, loss in descend(opt, len(train_set), config.batch_size,
                                              config.epochs, shuffle, batch_loss, "loss"):
        record.steps.append(StepRecord(epoch=epoch, step=step, batch_size=len(indices),
                                       loss=loss))
        if config.eval_every and step % config.eval_every == 0:
            result = prompted_eval(lm, predictor, basis, eval_set, cache)
            record.eval_losses.append([step, result.mean_loss])
    record.epoch_means = [float(np.mean([s.loss for s in record.steps if s.epoch == epoch]))
                          for epoch in range(1, config.epochs + 1)]
    final = prompted_eval(lm, predictor, basis, eval_set, cache)
    record.eval_losses.append([len(record.steps), final.mean_loss])
    record.prompted_eval_loss = final.mean_loss
    record.control_eval_loss = final.control_loss
    record.examples = [
        ExampleEval(id=ex.id, question=td.format_input(ex), loss=loss,
                    weights=[float(x) for x in wv.values])
        for ex, loss, wv in zip(eval_set, final.losses, final.weights)
    ]
    mean_w = np.mean([wv.values for wv in final.weights], axis=0)
    record.projection = [[tok, cos] for tok, cos in
                         project_to_vocab(combine(basis, Tensor(mean_w)).data, lm)]
    hash_after = lm.param_hash()
    if hash_after != hash_before:
        raise FrozenContractError("frozen LM parameters changed during training")
    record.lm_param_hash = hash_after
    record.wall_clock_seconds = time.perf_counter() - t_start
    return record


def stability_metric(record: RunRecord) -> float:
    """Volatility of the per-epoch mean loss curve: std of its first differences."""
    if len(record.epoch_means) < 2:
        raise ValueError("stability metric needs at least 2 recorded epochs")
    return float(np.std(np.diff(np.asarray(record.epoch_means))))
