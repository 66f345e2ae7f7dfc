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
    for line in td.read_lines(path, BasisError, f"basis file {path} "):
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


def build_basis(prompts: list[str], lm: FrozenLM) -> PromptBasis:
    """Embed each prompt (no positional terms) and zero-pad to the longest.

    A prompt longer than the model's max_positions is an error rather than
    being truncated.
    """
    if not prompts:
        raise BasisError("basis must contain at least one prompt")
    token_ids = [td.tokenize(p, lm.vocab) for p in prompts]
    for p, ids in zip(prompts, token_ids):
        if not ids:
            raise BasisError(f"prompt {p!r} is empty after tokenization")
    lengths = [len(ids) for ids in token_ids]
    length = max(lengths)
    if length > lm.config.max_positions:
        raise BasisError(f"basis prompt {lengths.index(length) + 1} has {length} tokens, "
                         f"exceeding max_positions {lm.config.max_positions}")
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

    def __init__(self, params: list[Tensor], dropout_p: float, provenance: dict | None = None):
        self.params = params  # in PARAM_NAMES order
        self.dropout_p = dropout_p
        self.provenance: dict = provenance or {}

    @classmethod
    def create(cls, seed: int, in_dim: int, out_dim: int, hidden1: int = 128,
               hidden2: int = 128, dropout_p: float = 0.1,
               final_scale: float = 0.01) -> "WeightPredictor":
        """final_scale=0 pins the output to the (zero) final bias, which makes
        the prompted loss match the control exactly but also makes the zero
        prompt a stationary point; training setups want a small nonzero scale."""
        gen = rngmod.stream(seed, "predictor-init")
        widths = [(in_dim, hidden1, 1.0 / math.sqrt(in_dim)),
                  (hidden1, hidden2, 1.0 / math.sqrt(hidden1)), (hidden2, out_dim, final_scale)]
        params = []
        for rows, cols, scale in widths:  # draws w1, w2, w3 in turn from one stream
            params += [Tensor(gen.normal(0.0, scale, size=(rows, cols)), requires_grad=True),
                       Tensor(np.zeros(cols), requires_grad=True)]
        return cls(params, dropout_p, {"seed": seed, "final_init_scale": final_scale})

    def parameters(self) -> list[Tensor]:
        return self.params

    @property
    def out_dim(self) -> int:
        return len(self.params[-1].data)

    def forward(self, q: Tensor, rng: np.random.Generator | None = None) -> Tensor:
        """The basis weights for question rows q. An rng selects training mode,
        where dropout draws its masks from it; without one (eval mode) only the
        parameters' values are read, so no graph is built."""
        params = self.params if rng is not None else [Tensor(p.data) for p in self.params]
        w1, b1, w2, b2, w3, b3 = params
        h = dropout(linear(q, w1, b1), self.dropout_p, rng)
        h = dropout(linear(gelu(h), w2, b2), self.dropout_p, rng)
        return dropout(linear(gelu(h), w3, b3), self.dropout_p, rng)


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


def top_contributors(w: WeightVector, prompts: list[str], n: int) -> list[tuple[str, float]]:
    """Prompts by descending signed weight; ties break toward lower index."""
    values, k = w.values, len(prompts)
    if values.size != k:
        raise ValueError(f"weight vector length {values.size} does not match basis size {k}")
    if n > k:
        raise ValueError(f"asked for top {n} of a {k}-prompt basis")
    order = sorted(range(values.size), key=lambda i: (-values[i], i))
    return [(prompts[i], float(values[i])) for i in order[:n]]


def orthogonality_score(gram: np.ndarray) -> float:
    """1 minus the mean absolute off-diagonal entry of a [K, K] Gram matrix; 1.0 for K=1."""
    k = len(gram)
    if k == 1:
        return 1.0
    off = np.abs(gram[~np.eye(k, dtype=bool)])
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
