"""Experiment engine: trains the weight predictor against the frozen LM.

Each step runs question representation -> weight prediction (training
mode) -> linear combination -> prompted loss, then backpropagates into
the predictor parameters only. The LM is bit-frozen throughout; its
parameter hash is checked before and after. Each example's entry (its
tokens, question representation and, for eval, control loss) is built
once per run, before the first step, and kept in a plain list.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import rng as rngmod
from . import textdata as td
from .composer import (PromptBasis, WeightPredictor, WeightVector, combine,
                       project_to_vocab, question_repr)
from .model import FrozenContractError, FrozenLM
from .optim import AdamW, DivergenceError, descend
from .tensor import Tensor


@dataclass
class TrainConfig:
    epochs: int = 20
    batch_size: int = 10
    lr: float = 1e-3
    weight_decay: float = 0.01
    seed: int = 0
    eval_every: int = 0  # steps between eval passes; 0 = final only

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not self.lr >= 0:  # NaN fails too
            raise ValueError(f"lr must be non-negative, got {self.lr}")
        if not self.weight_decay >= 0:
            raise ValueError(f"weight_decay must be non-negative, got {self.weight_decay}")
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


@dataclass
class RunConfig:
    """The settings a run was trained with, in record.json's order."""

    epochs: int
    batch_size: int
    lr: float
    weight_decay: float
    dropout_p: float  # the predictor's dropout rate
    seed: int
    eval_every: int
    prompt_length: int  # the basis's padded length


@dataclass
class RunRecord:
    """Everything a report needs, and all it reads; losses are the exact values
    seen. The type hints are record.json's schema: from_dict checks them."""

    config: RunConfig
    basis_prompts: list[str]
    gram: list[list[float]]  # [K, K] cosines between the basis prompts' embeddings
    steps: list[StepRecord] = field(default_factory=list)
    epoch_means: list[float] = field(default_factory=list)
    eval_losses: list[tuple[int, float]] = field(default_factory=list)  # [step, mean loss]
    control_eval_loss: float = 0.0
    prompted_eval_loss: float = 0.0
    examples: list[ExampleEval] = field(default_factory=list)
    projection: list[tuple[str, float]] = field(default_factory=list)  # [token, cosine] per row
    lm_param_hash: str = ""
    wall_clock_seconds: float = 0.0

    @classmethod
    def from_dict(cls, d: dict) -> "RunRecord":
        """The record from its asdict() form: each field, at any depth, has
        its annotated type (see textdata.decode), gram is K rows of K cosines
        and each example has K weights; a failure raises ValueError naming its path."""
        try:
            record = td.decode(d, cls, "")
        except ValueError as e:
            raise ValueError(f"malformed RunRecord: {e}") from e
        k = len(record.basis_prompts)
        if len(record.gram) != k or any(len(row) != k or not all(-1 <= v <= 1 for v in row)
                                        for row in record.gram):
            raise ValueError(f"malformed RunRecord: gram must be {k} rows of {k} cosines")
        for i, ex in enumerate(record.examples):
            if len(ex.weights) != k:
                raise ValueError(f"malformed RunRecord: examples[{i}].weights must hold {k} "
                                 f"weights, got {len(ex.weights)}")
        return record

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    @classmethod
    def from_json(cls, text: str | bytes) -> "RunRecord":
        """The record from its to_json() text, or from bytes holding it as UTF-8."""
        try:
            d = json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
        except RecursionError as e:
            raise ValueError(f"malformed {cls.__name__}: JSON nested too deeply") from e
        except UnicodeDecodeError as e:
            raise ValueError(f"malformed {cls.__name__}: not valid UTF-8 (byte {e.start + 1}: "
                             f"{e.reason})") from e
        except ValueError as e:  # bad JSON, or an integer too long to convert
            raise ValueError(f"malformed {cls.__name__}: invalid JSON ({e})") from e
        return cls.from_dict(d)


@dataclass
class PromptedEvalResult:
    mean_loss: float
    weights: list[WeightVector]
    losses: list[float]
    control_loss: float  # control_eval over the same examples
    accuracy: float  # share of examples whose lowest-loss choice is the gold one


# The eval pass encodes and decodes this many examples at a time. It stays
# at 2 because another size moves eval losses by round-off.
EVAL_CHUNK = 2


@dataclass
class _Entry:
    ids: list[int]  # tokenized input
    target: list[int]  # tokenized gold choice
    choices: list[list[int]] | None  # every choice's tokens; prompted eval only
    q: np.ndarray  # question representation
    control: float | None = None  # no-prompt target loss; scored entries only


def _chunks(inputs: list[list[int]], ids: list[str]) -> list[list[int]]:
    """Indices of `inputs` in chunks of EVAL_CHUNK, taken in (input length,
    id) order: inputs of like length share a block, and an example's chunk
    does not depend on the order it was given in."""
    order = sorted(range(len(inputs)), key=lambda i: (len(inputs[i]), ids[i]))
    return [order[start:start + EVAL_CHUNK] for start in range(0, len(order), EVAL_CHUNK)]


def _tokens(lm: FrozenLM, ex: td.QAExample, prompt_rows: int, choices: bool = False):
    """The example's input, gold target and, with `choices`, every choice's
    tokens (the gold one is the target); the input is checked against
    max_positions with `prompt_rows` prompt rows."""
    ids = td.tokenize(td.format_input(ex), lm.vocab)
    if choices:
        every = [td.tokenize(td.format_choice(c), lm.vocab) for c in ex.choices]
        target = every[ex.answer_index()]
    else:
        every, target = None, td.tokenize(td.format_target(ex), lm.vocab)
    lm.config.check_fits(f"example {ex.id!r}", prompt_rows, ids)
    return ids, target, every


def _training_entries(lm: FrozenLM, examples: list[td.QAExample],
                      prompt_rows: int) -> list[_Entry]:
    """One entry per example, in their order, each from its own unprompted
    encode; every example is checked before any is encoded."""
    tokens = [_tokens(lm, ex, prompt_rows) for ex in examples]
    return [_Entry(*t, question_repr(lm, [t[0]])[0]) for t in tokens]


def _scored_entries(lm: FrozenLM, examples: list[td.QAExample], prompt_rows: int = 0,
                    choices: bool = False) -> list[_Entry]:
    """One entry per example, in their order, with its control loss and, if
    `choices`, every choice's tokens; every example is checked before any is
    encoded.

    Each of _chunks is one unprompted encode, which gives its examples'
    representations, and one decode of their gold targets, which gives their
    control losses; so each entry is the same whatever the order of
    `examples`.
    """
    tokens = [_tokens(lm, ex, prompt_rows, choices) for ex in examples]
    entries: list[_Entry] = [None] * len(examples)
    for chunk in _chunks([ids for ids, _, _ in tokens], [ex.id for ex in examples]):
        inputs = [tokens[i][0] for i in chunk]
        encoded = lm.encode(inputs, [None] * len(chunk))
        controls = lm.target_losses(*encoded, [tokens[i][1] for i in chunk])
        for i, q, control in zip(chunk, question_repr(lm, inputs, encoded), controls):
            entries[i] = _Entry(*tokens[i], q, float(control))
    return entries


def control_eval(lm: FrozenLM, eval_set: list[td.QAExample],
                 entries: list[_Entry] | None = None) -> float:
    """Mean no-prompt loss over the eval set, order-independent (fsum): the
    unprompted half of prompted_eval's pass, which needs only the LM.
    `entries` are the eval set's scored entries, built here when not given."""
    if not eval_set:
        raise ValueError("eval set must be non-empty")
    entries = entries or _scored_entries(lm, eval_set)
    return math.fsum(e.control for e in entries) / len(eval_set)


def prompted_eval(lm: FrozenLM, predictor: WeightPredictor, basis: PromptBasis,
                  eval_set: list[td.QAExample],
                  entries: list[_Entry] | None = None) -> PromptedEvalResult:
    """The eval pass: eval-mode weights, prompted losses, accuracy and the
    control loss.

    Each example's one unprompted encode gives its question representation
    and control loss (see _scored_entries). `entries` are the eval set's
    scored entries with choices, built here when not given. Then each of
    _chunks is one prompted encode and one decode of all its examples'
    choices: the gold choice's loss is the prompted loss, and the
    lowest-loss choice (the earlier on ties) is the prediction.
    """
    entries = entries or _scored_entries(lm, eval_set, basis.length, choices=True)
    control = control_eval(lm, eval_set, entries)
    losses: list[float] = [0.0] * len(eval_set)
    weights: list[WeightVector] = [None] * len(eval_set)
    correct = 0
    for chunk in _chunks([e.ids for e in entries], [ex.id for ex in eval_set]):
        for i in chunk:
            w_out = predictor.forward(Tensor(entries[i].q[None])).data[0]
            if not np.isfinite(w_out).all():
                raise DivergenceError(f"non-finite weights predicted for {eval_set[i].id!r}")
            weights[i] = WeightVector(w_out.copy())
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
    prompts = [combine(basis, predictor.forward(Tensor(e.q[None]), rng)) for e in entries]
    return lm.loss_with_prompt(prompts, [e.ids for e in entries], [e.target for e in entries])


def train(lm: FrozenLM, predictor: WeightPredictor, basis: PromptBasis,
          train_set: list[td.QAExample], eval_set: list[td.QAExample],
          config: TrainConfig) -> RunRecord:
    """Run the full protocol and return the loss-curve record.

    The training and eval entries are built once, before the first step:
    every example is tokenized, checked against max_positions and encoded.
    Each step indexes the training entries by position, and every eval pass
    reuses the eval entries. Only predictor parameters receive updates; a
    non-finite batch loss aborts with the offending step index.
    """
    if not lm.frozen:
        raise FrozenContractError("train() requires a frozen language model")
    if not train_set or not eval_set:
        raise ValueError("train and eval sets must be non-empty")
    t_start = time.perf_counter()
    hash_before = lm.param_hash()
    entries = _training_entries(lm, train_set, basis.length)
    scored = _scored_entries(lm, eval_set, basis.length, choices=True)
    opt = AdamW(predictor.parameters(), lr=config.lr, weight_decay=config.weight_decay)
    shuffle = rngmod.stream(config.seed, "train-shuffle")
    drop_rng = rngmod.stream(config.seed, "train-dropout")
    record = RunRecord(config=RunConfig(**asdict(config), dropout_p=predictor.dropout_p,
                                        prompt_length=basis.length),
                       basis_prompts=list(basis.prompts), gram=basis.gram.tolist())

    def batch_loss(indices) -> Tensor:
        return _batch_loss(lm, predictor, basis, [entries[int(i)] for i in indices], drop_rng)

    for epoch, step, indices, loss in descend(opt, len(train_set), config.batch_size,
                                              config.epochs, shuffle, batch_loss, "loss"):
        record.steps.append(StepRecord(epoch=epoch, step=step, batch_size=len(indices),
                                       loss=loss))
        if config.eval_every and step % config.eval_every == 0:
            final = prompted_eval(lm, predictor, basis, eval_set, scored)
            record.eval_losses.append([step, final.mean_loss])
    record.epoch_means = [float(np.mean([s.loss for s in record.steps if s.epoch == epoch]))
                          for epoch in range(1, config.epochs + 1)]
    # a periodic pass after the last step is the final one
    if not record.eval_losses or record.eval_losses[-1][0] != len(record.steps):
        final = prompted_eval(lm, predictor, basis, eval_set, scored)
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
