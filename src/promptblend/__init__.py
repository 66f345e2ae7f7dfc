"""Continuous prompts as learned linear combinations of discrete prompt
embeddings, trained against a frozen seq2seq model.

BLAS runs on one thread unless the environment already says otherwise:
this package's matmuls are small, and extra BLAS threads cost more than
they save and make packed results depend on the host's core count. The
default is set here, before numpy is first imported, and so is the heap
policy below: every caller runs under both.
"""

import ctypes
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

# Each training step frees its graph just before the next step allocates arrays of
# the same sizes. glibc's defaults unmap each one on free and fault it in anew, so
# arrays up to 32 MiB come from the heap (M_MMAP_THRESHOLD, -3), which is trimmed
# only once 256 MiB sit free at its top (M_TRIM_THRESHOLD, -1). No result changes.
_mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
if _mallopt is not None:  # a C library without mallopt is left alone
    _mallopt.argtypes, _mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    _mallopt(-3, 32 << 20)
    _mallopt(-1, 256 << 20)
del _mallopt

from .composer import (DEFAULT_BASIS_PROMPTS, PromptBasis,
                       WeightPredictor, WeightVector, build_basis, combine,
                       orthogonality_score, project_to_vocab, question_repr,
                       top_contributors)
from .model import FrozenLM, LMConfig, PretrainConfig, pretrain, pretrain_examples
from .optim import AdamW
from .tensor import Tensor
from .textdata import QAExample, Vocab, load_dataset, make_fixture
from .train import RunRecord, TrainConfig, control_eval, prompted_eval, stability_metric

__all__ = [
    "AdamW", "DEFAULT_BASIS_PROMPTS", "FrozenLM", "LMConfig",
    "PretrainConfig", "PromptBasis", "QAExample", "RunRecord", "Tensor",
    "TrainConfig", "Vocab", "WeightPredictor", "WeightVector", "build_basis",
    "combine", "control_eval", "load_dataset", "make_fixture", "orthogonality_score",
    "pretrain", "pretrain_examples", "prompted_eval", "project_to_vocab", "question_repr",
    "stability_metric", "top_contributors",
]
