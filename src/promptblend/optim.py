"""AdamW with decoupled weight decay."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import Tensor


class OptimizerStateError(RuntimeError):
    """Raised when a parameter is missing required optimizer state."""


@dataclass
class AdamWState:
    """Per-run moment buffers, shape-congruent with each parameter."""

    step_count: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)


class AdamW:
    """Decoupled-weight-decay Adam with bias correction.

    step() leaves gradients untouched; the caller resets them via
    zero_grad() between steps.
    """

    def __init__(self, params: list[Tensor], lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8, weight_decay: float = 0.01):
        if lr < 0:
            raise ValueError(f"lr must be non-negative, got {lr}")
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError(f"betas must lie in [0, 1), got ({beta1}, {beta2})")
        if eps <= 0:
            raise ValueError(f"eps must be positive, got {eps}")
        if weight_decay < 0:
            raise ValueError(f"weight_decay must be non-negative, got {weight_decay}")
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.state = AdamWState(
            m=[np.zeros_like(p.data) for p in self.params],
            v=[np.zeros_like(p.data) for p in self.params],
        )

    def step(self) -> None:
        for i, p in enumerate(self.params):
            if p.grad is None:
                raise OptimizerStateError(f"parameter {i} has no gradient; run backward() first")
        self.state.step_count += 1
        t = self.state.step_count
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        for p, m, v in zip(self.params, self.state.m, self.state.v):
            g = p.grad
            if self.weight_decay != 0.0:
                p.data *= 1.0 - self.lr * self.weight_decay
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None


class DivergenceError(RuntimeError):
    """Training loss became non-finite."""


def descend(opt: AdamW, n: int, batch_size: int, epochs: int, shuffle: np.random.Generator,
            batch_loss, what: str):
    """Shuffled mini-batch descent over examples 0..n-1.

    Each epoch draws one permutation from `shuffle` and cuts it into
    batches of `batch_size`. Per batch, `batch_loss(indices)` builds the
    scalar loss; a non-finite loss raises DivergenceError naming `what`,
    the step and the epoch, before any update. Otherwise the loss is
    backpropagated, `opt` steps and gradients are reset. Yields
    (epoch, step, indices, loss) after each step; both count from 1.
    """
    step = 0
    for epoch in range(1, epochs + 1):
        order = shuffle.permutation(n)
        for start in range(0, n, batch_size):
            indices = order[start:start + batch_size]
            step += 1
            loss = batch_loss(indices)
            value = float(loss.data)
            if not np.isfinite(value):
                raise DivergenceError(f"non-finite {what} at step {step} (epoch {epoch})")
            loss.backward()
            opt.step()
            opt.zero_grad()
            yield epoch, step, indices, value
