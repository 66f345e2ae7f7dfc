"""Prompt basis construction, weight prediction, and interpretability.

A basis is a fixed set of discrete prompt strings embedded (zero-padded)
into a [K, L, d] stack. A small feed-forward network predicts, per
question, the K coefficients whose weighted sum of basis embeddings forms
the continuous prompt handed to the frozen model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from . import textdata as td
from .model import FrozenLM
from .tensor import ShapeError, Tensor, dropout, gelu, linear, weighted_sum

DEFAULT_BASIS_PROMPTS = [
    "Generate a flowchart to visually represent the logic needed to answer the question",
    "Write pseudocode for an algorithm that could determine the answer",
    "Imagine you are explaining the answer to a 5-year-old. Use simple words and analogies.",
    "Summarize the key insights needed to answer in a short poem",
    "Create a metaphor relating the question to a seemingly unrelated domain",
    "Act out an exaggerated skit to depict the logic behind the answer",
    "Prototype a computer program to compute the answer algorithmically",
]


class BasisError(ValueError):
    """Invalid basis contents or dimensions."""


def load_basis_file(path) -> list[str]:
    """One prompt per line; blank lines and `#` comments are skipped."""
    prompts = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            stripped = line.strip()
            if stripped and not stripped.startswith("#"):
                prompts.append(stripped)
    if not prompts:
        raise BasisError(f"basis file {path} contains no prompts")
    return prompts


@dataclass
class PromptBasis:
    """Discrete prompts with their padded embedding stack and Gram matrix."""

    prompts: list[str]
    embeddings: np.ndarray  # [K, L, d]; rows past each prompt's length are zero
    gram: np.ndarray  # [K, K] cosine similarity over flattened embeddings

    @property
    def size(self) -> int:
        return len(self.prompts)

    @property
    def length(self) -> int:
        return self.embeddings.shape[1]

    @property
    def embed_dim(self) -> int:
        return self.embeddings.shape[2]


def _gram_matrix(stack: np.ndarray) -> np.ndarray:
    flat = stack.reshape(stack.shape[0], -1)
    norms = np.linalg.norm(flat, axis=1)
    if np.any(norms == 0.0):
        raise BasisError("basis contains a prompt with an all-zero embedding")
    k = flat.shape[0]
    gram = np.eye(k)
    for i in range(k):
        for j in range(i + 1, k):
            if np.array_equal(flat[i], flat[j]):
                value = 1.0  # duplicates are exactly self-similar
            else:
                value = float(np.clip(flat[i] @ flat[j] / (norms[i] * norms[j]),
                                      -1.0, 1.0))
            gram[i, j] = gram[j, i] = value
    return gram


def build_basis(prompts: list[str], lm: FrozenLM, length: int | None = None) -> PromptBasis:
    """Embed each prompt (no positional terms) and zero-pad to `length`.

    Over-long prompts are an error rather than being truncated, and so is
    a padded length the model's max_positions cannot hold.
    """
    if not prompts:
        raise BasisError("basis must contain at least one prompt")
    token_ids = [td.tokenize(p, lm.vocab) for p in prompts]
    for p, ids in zip(prompts, token_ids):
        if not ids:
            raise BasisError(f"prompt {p!r} is empty after tokenization")
    max_len = max(len(ids) for ids in token_ids)
    if length is None:
        length = max_len
    if max_len > length:
        long = next(p for p, ids in zip(prompts, token_ids) if len(ids) > length)
        raise BasisError(f"prompt {long!r} has {max_len} tokens, exceeding padded "
                         f"length {length}")
    if length > lm.config.max_positions:
        raise BasisError(f"padded length {length} exceeds max_positions "
                         f"{lm.config.max_positions}")
    d = lm.config.embed_dim
    stack = np.zeros((len(prompts), length, d))
    for k, ids in enumerate(token_ids):
        stack[k, : len(ids)] = lm.embed_tokens(ids).data
    return PromptBasis(prompts=list(prompts), embeddings=stack, gram=_gram_matrix(stack))


@dataclass
class WeightVector:
    """Per-example coefficients aligned with basis order."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64).reshape(-1)
        if not np.all(np.isfinite(self.values)):
            raise ValueError("weight vector has non-finite entries")


class WeightPredictor:
    """Three linear and three dropout layers with GELU between linears.

    Stack: linear1 -> dropout1 -> gelu -> linear2 -> dropout2 -> gelu
    -> linear3 -> dropout3. Output width equals the basis size.
    """

    PARAM_NAMES = ("w1", "b1", "w2", "b2", "w3", "b3")

    def __init__(self, w1, b1, w2, b2, w3, b3, dropout_p: float):
        self.w1, self.b1 = w1, b1
        self.w2, self.b2 = w2, b2
        self.w3, self.b3 = w3, b3
        self.dropout_p = dropout_p

    @classmethod
    def create(cls, seed: int, in_dim: int, out_dim: int, hidden1: int = 128,
               hidden2: int = 128, dropout_p: float = 0.1,
               final_scale: float = 0.01) -> "WeightPredictor":
        """final_scale=0 pins the output to the (zero) final bias, which makes
        the prompted loss match the control exactly but also makes the zero
        prompt a stationary point; training setups want a small nonzero scale."""
        gen = rngmod.stream(seed, "predictor-init")

        def mat(rows, cols, scale):
            return Tensor(gen.normal(0.0, scale, size=(rows, cols)), requires_grad=True)

        w1 = mat(in_dim, hidden1, 1.0 / math.sqrt(in_dim))
        w2 = mat(hidden1, hidden2, 1.0 / math.sqrt(hidden1))
        w3 = mat(hidden2, out_dim, final_scale)
        b1 = Tensor(np.zeros(hidden1), requires_grad=True)
        b2 = Tensor(np.zeros(hidden2), requires_grad=True)
        b3 = Tensor(np.zeros(out_dim), requires_grad=True)
        return cls(w1, b1, w2, b2, w3, b3, dropout_p)

    def parameters(self) -> list[Tensor]:
        return [getattr(self, name) for name in self.PARAM_NAMES]

    @property
    def out_dim(self) -> int:
        return self.w3.data.shape[1]

    def forward(self, q: Tensor, training: bool, rng: np.random.Generator | None) -> Tensor:
        if q.data.ndim != 2 or q.data.shape[1] != self.w1.data.shape[0]:
            raise ShapeError(f"predictor input shape {q.data.shape} does not match "
                             f"width {self.w1.data.shape[0]}")
        if training and rng is None:
            raise ValueError("training-mode forward needs an rng for dropout")
        h = dropout(linear(q, self.w1, self.b1), self.dropout_p, training, rng)
        h = dropout(linear(gelu(h), self.w2, self.b2), self.dropout_p, training, rng)
        return dropout(linear(gelu(h), self.w3, self.b3), self.dropout_p, training, rng)


def question_repr(lm: FrozenLM, inputs, encoded=None) -> np.ndarray:
    """One row per input of a list: the mean of the frozen encoder's output
    states over its non-pad positions. `encoded` is the unprompted packed
    encode of `inputs` when the caller already has it."""
    for ids in inputs:
        idx = np.asarray(ids, dtype=np.int64)
        if idx.size == 0 or np.all(idx == td.PAD_ID):
            raise ValueError("question representation needs at least one non-pad token")
    states, valid = encoded or lm.encode(inputs, [None] * len(inputs))
    blocks = states.data.reshape(*valid.shape, -1)
    return np.stack([rows[keep].mean(axis=0) for rows, keep in zip(blocks, valid)])


def combine(basis: PromptBasis, w: Tensor) -> Tensor:
    """Continuous prompt sum_k w_k * embeddings[k], [L, d]; gradient flows to w."""
    return weighted_sum(basis.embeddings, w)


def top_contributors(w, basis: PromptBasis, n: int) -> list[tuple[str, float]]:
    """Prompts by descending signed weight; ties break toward lower index."""
    values = w.values if isinstance(w, WeightVector) else np.asarray(w, dtype=np.float64)
    values = values.reshape(-1)
    if values.size != basis.size:
        raise ValueError(f"weight vector length {values.size} does not match basis "
                         f"size {basis.size}")
    if n > basis.size:
        raise ValueError(f"asked for top {n} of a {basis.size}-prompt basis")
    order = sorted(range(values.size), key=lambda i: (-values[i], i))
    return [(basis.prompts[i], float(values[i])) for i in order[:n]]


def orthogonality_score(basis: PromptBasis) -> float:
    """1 minus the mean absolute off-diagonal Gram entry; 1.0 for K=1."""
    k = basis.size
    if k == 1:
        return 1.0
    off = np.abs(basis.gram[~np.eye(k, dtype=bool)])
    return float(1.0 - off.mean())


def project_to_vocab(rows: np.ndarray, lm: FrozenLM) -> list[tuple[str, float]]:
    """Nearest vocabulary token per row of an [L, d] prompt by cosine similarity.

    Zero rows map to the pad token with score 0.0 by convention.
    """
    if rows.ndim != 2 or rows.shape[1] != lm.config.embed_dim:
        raise ShapeError(f"prompt shape {rows.shape} incompatible with embed_dim "
                         f"{lm.config.embed_dim}")
    table = lm.params["embedding"].data
    token_norms = np.linalg.norm(table, axis=1)
    candidates = token_norms > 0.0
    out: list[tuple[str, float]] = []
    for row in rows:
        norm = np.linalg.norm(row)
        if norm == 0.0:
            out.append((lm.vocab.id_to_token[td.PAD_ID], 0.0))
            continue
        cos = np.full(table.shape[0], -np.inf)
        cos[candidates] = (table[candidates] @ row) / (token_norms[candidates] * norm)
        best = int(np.argmax(cos))
        out.append((lm.vocab.id_to_token[best], float(cos[best])))
    return out
