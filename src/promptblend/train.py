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
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
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
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError(f"betas must lie in [0, 1), got ({self.beta1}, {self.beta2})")
        if self.eps <= 0:
            raise ValueError(f"eps must be positive, got {self.eps}")
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


@dataclass
class _Entry:
    ids: list[int]  # tokenized input
    target: list[int]  # tokenized gold choice
    q: np.ndarray  # question representation
    choices: list[list[int]] | None = None  # every choice's tokens; scored entries only
    control: float | None = None  # no-prompt target loss; scored entries only


class _ExampleCache:
    """Per-example tokens and question representations, keyed by id.

    A scored (eval) entry also holds every choice's tokens and the control
    loss. One unprompted encode gives both the representation and the
    control loss, and the gold choice's tokens are the target. Each entry
    is checked against max_positions, with `prompt_rows` prompt rows,
    before it is encoded.
    """

    def __init__(self, lm: FrozenLM, prompt_rows: int = 0):
        self.lm = lm
        self.prompt_rows = prompt_rows
        self.entries: dict[str, _Entry] = {}

    def get(self, ex: td.QAExample, scored: bool = False) -> _Entry:
        entry = self.entries.get(ex.id)
        if entry is None or (scored and entry.choices is None):
            entry = self.entries[ex.id] = self._build(ex, scored)
        return entry

    def _build(self, ex: td.QAExample, scored: bool) -> _Entry:
        lm = self.lm
        ids = td.tokenize(td.format_input(ex), lm.vocab)
        if scored:
            choices = [td.tokenize(td.format_choice(c), lm.vocab) for c in ex.choices]
            target = choices[ex.answer_index()]
        else:
            choices, target = None, td.tokenize(td.format_target(ex), lm.vocab)
        lm.check_fits(f"example {ex.id!r}", self.prompt_rows, ids, choices or [target])
        encoded = lm.encode(ids)
        q = question_repr(lm, ids, encoded)
        if not scored:
            return _Entry(ids, target, q)
        return _Entry(ids, target, q, choices, float(lm.decode_loss(*encoded, target).data))


def control_eval(lm: FrozenLM, eval_set: list[td.QAExample],
                 cache: _ExampleCache | None = None) -> float:
    """Mean no-prompt loss over the eval set, order-independent (fsum): the
    unprompted half of prompted_eval's pass, which needs only the LM."""
    if not eval_set:
        raise ValueError("eval set must be non-empty")
    cache = cache or _ExampleCache(lm)
    return math.fsum(cache.get(ex, scored=True).control for ex in eval_set) / len(eval_set)


def prompted_eval(lm: FrozenLM, predictor: WeightPredictor, basis: PromptBasis,
                  eval_set: list[td.QAExample],
                  cache: _ExampleCache | None = None) -> PromptedEvalResult:
    """The eval pass: eval-mode weights, prompted losses, accuracy and the
    control loss.

    control_eval runs first, so each example's one unprompted encode gives
    its question representation and control loss. One prompted encode then
    scores every choice: the gold choice's loss is the prompted loss, and
    the lowest-loss choice (the earlier on ties) is the prediction.
    """
    cache = cache or _ExampleCache(lm, basis.length)
    control = control_eval(lm, eval_set, cache)
    losses: list[float] = []
    weights: list[WeightVector] = []
    correct = 0
    for ex in eval_set:
        entry = cache.get(ex, scored=True)
        w_out = predictor.forward(Tensor(entry.q.reshape(1, -1)), training=False, rng=None)
        wv = WeightVector(w_out.data[0].copy())
        scores = lm.score_choices(combine(basis, Tensor(wv.values)), entry.ids, entry.choices)
        losses.append(scores[ex.answer_index()])
        weights.append(wv)
        correct += int(np.argmin(scores)) == ex.answer_index()
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
    for ex in eval_set:
        cache.get(ex, scored=True)
    opt = AdamW(predictor.parameters(), lr=config.lr, beta1=config.beta1,
                beta2=config.beta2, eps=config.eps, weight_decay=config.weight_decay)
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
