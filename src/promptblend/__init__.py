"""Continuous prompts as learned linear combinations of discrete prompt
embeddings, trained against a frozen seq2seq model.

BLAS runs on one thread unless the environment already says otherwise:
this package's matmuls are small, and extra BLAS threads cost more than
they save and make packed results depend on the host's core count. The
default is set here, before numpy is first imported.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

from .composer import (DEFAULT_BASIS_PROMPTS, PromptBasis,
                       WeightPredictor, WeightVector, build_basis, combine,
                       orthogonality_score, project_to_vocab, question_repr,
                       top_contributors)
from .model import FrozenLM, LMConfig, PretrainConfig, pretrain
from .optim import AdamW
from .tensor import Tensor
from .textdata import QAExample, Vocab, load_dataset, make_fixture
from .train import RunRecord, TrainConfig, control_eval, prompted_eval, stability_metric, train

__all__ = [
    "AdamW", "DEFAULT_BASIS_PROMPTS", "FrozenLM", "LMConfig",
    "PretrainConfig", "PromptBasis", "QAExample", "RunRecord", "Tensor",
    "TrainConfig", "Vocab", "WeightPredictor", "WeightVector", "build_basis",
    "combine", "control_eval", "load_dataset", "make_fixture", "orthogonality_score",
    "pretrain", "prompted_eval", "project_to_vocab", "question_repr",
    "stability_metric", "top_contributors", "train",
]
