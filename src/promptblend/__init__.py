"""Continuous prompts as learned linear combinations of discrete prompt
embeddings, trained against a frozen seq2seq model."""

from .composer import (DEFAULT_BASIS_PROMPTS, ContinuousPrompt, PromptBasis,
                       WeightPredictor, WeightVector, build_basis, combine,
                       orthogonality_score, project_to_vocab, question_repr,
                       top_contributors)
from .model import FrozenLM, LMConfig, PretrainConfig, pretrain
from .optim import AdamW
from .tensor import Tensor
from .textdata import QAExample, Vocab, load_dataset, make_fixture
from .train import RunRecord, TrainConfig, control_eval, prompted_eval, stability_metric, train

__all__ = [
    "AdamW", "ContinuousPrompt", "DEFAULT_BASIS_PROMPTS", "FrozenLM", "LMConfig",
    "PretrainConfig", "PromptBasis", "QAExample", "RunRecord", "Tensor",
    "TrainConfig", "Vocab", "WeightPredictor", "WeightVector", "build_basis",
    "combine", "control_eval", "load_dataset", "make_fixture", "orthogonality_score",
    "pretrain", "prompted_eval", "project_to_vocab", "question_repr",
    "stability_metric", "top_contributors", "train",
]
